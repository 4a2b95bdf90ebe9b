"""LRMS query layer with a fixture-driven SLURM emulation.

The emulation reproduces the discovery side of the batch system: a cluster
fixture describes node classes and their general-resource lines, a query
renders them the way ``sinfo -a -h -o "gresinfo=%G"`` would, and collection
extracts the GRES strings while discarding ``(null)`` lines.

Snapshot sources are zero-argument callables returning a
:class:`ClusterSnapshot`, spelled as a ``functools.partial`` over one of
the two collectors: ``partial(collect_cluster_info, fixture)`` serves a
fixture, and ``partial(collect_from_sinfo, cluster_name, sinfo_path=...)``
runs a real ``sinfo`` for deployment parity.
"""

from __future__ import annotations

import time
from pathlib import Path

from ._record import Record, set_field
from ._text import ascii_int, content_lines
from .gres import GresParseError, parse_gres_expression, surely_parses

__all__ = [
    "NULL_TOKEN",
    "SINFO_FORMAT",
    "GRES_PREFIX",
    "NodeClass",
    "ClusterFixture",
    "ClusterSnapshot",
    "LrmsError",
    "UnsupportedFormat",
    "InvalidFixture",
    "load_fixture",
    "sinfo_query",
    "read_gres_info",
    "collect_cluster_info",
    "collect_from_sinfo",
]

NULL_TOKEN = "(null)"
SINFO_FORMAT = "gresinfo=%G"
GRES_PREFIX = SINFO_FORMAT.removesuffix("%G")
SINFO_ARGS = ("-a", "-h", "-o", SINFO_FORMAT)
# A hung sinfo must not stall the refresher for good.
SINFO_TIMEOUT_SECONDS = 30.0


class LrmsError(Exception):
    """Base class for LRMS query failures."""


class UnsupportedFormat(LrmsError):
    """The requested sinfo output template is not supported."""


class InvalidFixture(LrmsError):
    """A cluster fixture violates its invariants or cannot be read."""


def _check_gres_line(line: str, error: type[LrmsError], label: str, name: str) -> None:
    # The one rule for a GRES line either source publishes: non-empty, and ``(null)`` or a line the
    # parser accepts. The refusal, ``error``, starts with ``label`` and ``name``; its text is built only then.
    if not line:
        raise error(f"{label} {name!r}: empty gres line")
    if line == NULL_TOKEN or surely_parses(line):
        return
    try:
        parse_gres_expression(line)
    except GresParseError as exc:
        raise error(f"{label} {name!r}: bad gres line {line!r}: {exc}") from exc


class NodeClass(Record):
    """One class of identical nodes: partition, node count and GRES line."""

    __slots__ = __match_args__ = ("partition", "node_count", "gres_line")

    def __init__(self, partition: str, node_count: int, gres_line: str):
        set_field(self, "partition", partition)
        set_field(self, "node_count", node_count)
        set_field(self, "gres_line", gres_line)


class ClusterFixture(Record):
    """A cluster's node classes, checked when built: at least one class, each with a partition name, a
    positive node count and a GRES line :func:`_check_gres_line` accepts, else :class:`InvalidFixture`.

    ``_gres`` holds the lines ``read_gres_info`` keeps, as the node classes' own strings; it is not a field.
    """

    __slots__ = ("cluster_name", "node_classes", "_gres")
    __match_args__ = ("cluster_name", "node_classes")

    def __init__(self, cluster_name: str, node_classes: tuple[NodeClass, ...]):
        set_field(self, "cluster_name", cluster_name)
        set_field(self, "node_classes", tuple(node_classes))
        if not self.node_classes:
            raise InvalidFixture("fixture has no node classes")
        for node_class in self.node_classes:
            if not node_class.partition:
                raise InvalidFixture("node class with empty partition name")
            if node_class.node_count < 1:
                raise InvalidFixture(
                    f"partition {node_class.partition!r}: node_count must be positive"
                )
            _check_gres_line(node_class.gres_line, InvalidFixture, "partition", node_class.partition)
        set_field(self, "_gres", tuple(c.gres_line for c in self.node_classes if NULL_TOKEN not in c.gres_line))


class ClusterSnapshot(Record):
    """Collected LRMS information: the raw GRES expressions of a cluster.

    ``gres`` holds one string per node class, in fixture order, with
    ``(null)`` lines already removed.  ``collected_at`` is a unix timestamp
    with seconds precision.
    """

    __slots__ = __match_args__ = ("cluster_name", "gres", "collected_at")

    def __init__(self, cluster_name: str, gres: tuple[str, ...], collected_at: int):
        set_field(self, "cluster_name", cluster_name)
        set_field(self, "gres", gres)
        set_field(self, "collected_at", collected_at)
        if "" in self.gres or NULL_TOKEN in self.gres:
            value = next(value for value in self.gres if value in ("", NULL_TOKEN))
            raise ValueError(f"snapshot must not contain {value!r}")


def load_fixture(path: str | Path) -> ClusterFixture:
    """Load a cluster fixture from a line-oriented text file.

    One record per line, ``partition|node_count|gres_line`` with an ASCII
    digit ``node_count`` and no ``|`` in the GRES line; lines starting with
    ``#`` and blank lines are ignored.  The cluster is named after the file's stem.
    """
    path = Path(path)
    node_classes = []
    for lineno, line in content_lines(path, InvalidFixture):
        fields = line.split("|")
        if len(fields) != 3:
            raise InvalidFixture(f"{path}:{lineno}: expected partition|node_count|gres_line")
        partition, count_text, gres_line = fields[0].strip(), fields[1].strip(), fields[2].strip()
        count = ascii_int(count_text)
        if count is None:
            raise InvalidFixture(f"{path}:{lineno}: bad node count {count_text!r}")
        node_classes.append(NodeClass(partition, count, gres_line))
    return ClusterFixture(path.stem, tuple(node_classes))


def sinfo_query(fixture: ClusterFixture, format: str) -> list[str]:
    """Render the fixture the way ``sinfo -a -h -o <format>`` would.

    Only the ``gresinfo=%G`` template is supported; one output line per node
    class in fixture order, ``(null)`` lines included verbatim, no header.
    """
    if format != SINFO_FORMAT:
        raise UnsupportedFormat(f"unsupported sinfo format: {format!r}")
    return [format.replace("%G", node_class.gres_line) for node_class in fixture.node_classes]


def read_gres_info(fixture: ClusterFixture) -> list[str]:
    """Return the fixture's GRES expressions with ``(null)`` lines removed.

    Duplicate lines are preserved as-is, in fixture order.
    """
    return [line[len(GRES_PREFIX):] for line in sinfo_query(fixture, SINFO_FORMAT) if NULL_TOKEN not in line]


def collect_cluster_info(fixture: ClusterFixture, now: float | None = None) -> ClusterSnapshot:
    """Collect a :class:`ClusterSnapshot` from a fixture.

    ``now`` overrides the collection timestamp, for deterministic tests.
    """
    return ClusterSnapshot(fixture.cluster_name, fixture._gres, int(time.time() if now is None else now))


def collect_from_sinfo(cluster_name: str, sinfo_path: str = "sinfo") -> ClusterSnapshot:
    """Collect a :class:`ClusterSnapshot` by running ``sinfo -a -h -o "gresinfo=%G"``.

    An invocation that outlives :data:`SINFO_TIMEOUT_SECONDS` is killed and
    reported as :class:`LrmsError`, as is output that is not UTF-8.  Blank
    lines are skipped; every other line must carry ``gresinfo=`` and a value
    a fixture would accept, else it is refused as :class:`LrmsError`; values
    holding ``(null)`` are then dropped, as from a fixture.
    """
    import subprocess

    try:
        proc = subprocess.run(
            [sinfo_path, *SINFO_ARGS],
            capture_output=True,
            check=False,
            timeout=SINFO_TIMEOUT_SECONDS,
        )
    except OSError as exc:
        raise LrmsError(f"cannot run {sinfo_path}: {exc}") from exc
    except subprocess.TimeoutExpired as exc:
        raise LrmsError(f"{sinfo_path} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        stderr = proc.stderr.decode("utf-8", errors="replace").strip()
        raise LrmsError(f"{sinfo_path} exited {proc.returncode}: {stderr}")
    try:
        stdout = proc.stdout.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LrmsError(f"{sinfo_path} printed output that is not UTF-8: {exc}") from exc
    gres = []
    for line in stdout.splitlines():
        if not line.strip():
            continue
        if not line.startswith(GRES_PREFIX):
            raise LrmsError(f"{sinfo_path}: line does not carry {GRES_PREFIX!r}: {line!r}")
        value = line[len(GRES_PREFIX):]
        _check_gres_line(value, LrmsError, sinfo_path, line)
        if NULL_TOKEN not in value:  # a substring match, not equality, as for a fixture
            gres.append(value)
    return ClusterSnapshot(cluster_name, tuple(gres), int(time.time()))
