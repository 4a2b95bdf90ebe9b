"""The site configuration, grespipe's one dataclass, which callers may ``dataclasses.replace``.  Only the
commands that read a site config load it, through ``infoprovider.SiteConfig``, and ``dataclasses`` with it."""

from __future__ import annotations

import threading
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from ._text import key_values
from .infoprovider import DEFAULT_BIND, BadConfig, split_bind

_REQUIRED_KEYS = ("admin_domain", "service_id", "manager_name")
_ALL_KEYS = _REQUIRED_KEYS + ("bind", "refresh_interval_seconds")


@dataclass(frozen=True)
class SiteConfig:
    """Site identity plus endpoint settings for the info service."""

    admin_domain: str
    service_id: str
    manager_name: str
    bind: str = DEFAULT_BIND
    refresh_interval_seconds: float = 30.0

    def __post_init__(self) -> None:
        missing = [key for key in _REQUIRED_KEYS if not getattr(self, key)]
        if missing:
            raise BadConfig(f"missing required config keys: {', '.join(missing)}")
        # nan would make the refresher spin; above TIMEOUT_MAX its select raises.
        if not 0 < self.refresh_interval_seconds <= threading.TIMEOUT_MAX:
            raise BadConfig(f"refresh_interval_seconds must be in (0, {threading.TIMEOUT_MAX:g}]")
        split_bind(self.bind)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> SiteConfig:
        unknown = set(mapping) - set(_ALL_KEYS)
        if unknown:
            raise BadConfig(f"unknown config keys: {', '.join(sorted(unknown))}")
        kwargs: dict = {key: mapping.get(key, "") for key in _REQUIRED_KEYS}
        if "bind" in mapping:
            kwargs["bind"] = mapping["bind"]
        if "refresh_interval_seconds" in mapping:
            try:
                kwargs["refresh_interval_seconds"] = float(mapping["refresh_interval_seconds"])
            except ValueError as exc:
                raise BadConfig("refresh_interval_seconds must be a number") from exc
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> SiteConfig:
        """Load ``key = value`` lines; ``#`` comments and blanks are ignored."""
        lines = key_values(Path(path), BadConfig)
        return cls.from_mapping({key: value for _lineno, key, value in lines})
