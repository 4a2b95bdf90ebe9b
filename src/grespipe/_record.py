"""The base of grespipe's records: plain classes with ``__slots__`` and a hand-written ``__init__``, so that no
command loads ``dataclasses`` to define them.  ``infoprovider.SiteConfig`` is the one dataclass."""

set_field = object.__setattr__  # how an __init__ sets the fields that __setattr__ refuses


def _refuse(verb: str, name: str):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot {verb} field {name!r}")


class Record:
    """Equality within one class, hashing, ``repr``, copying and immutability over the fields named, in
    order, by ``__match_args__``, each as ``@dataclass(frozen=True)`` gives them."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name: str, value) -> None:
        _refuse("assign to", name)

    def __delattr__(self, name: str) -> None:
        _refuse("delete", name)
