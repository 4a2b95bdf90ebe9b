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
from functools import cached_property
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


class NodeClass(Record):
    """One class of identical nodes: partition, node count and GRES line."""

    __slots__ = __match_args__ = ("partition", "node_count", "gres_line")

    def __init__(self, partition: str, node_count: int, gres_line: str):
        set_field(self, "partition", partition)
        set_field(self, "node_count", node_count)
        set_field(self, "gres_line", gres_line)


class ClusterFixture(Record):
    # No __slots__: the instance __dict__ holds the cached ``_gres``.
    __match_args__ = ("cluster_name", "node_classes")

    def __init__(self, cluster_name: str, node_classes: tuple[NodeClass, ...]):
        set_field(self, "cluster_name", cluster_name)
        set_field(self, "node_classes", tuple(node_classes))

    @cached_property
    def _gres(self) -> tuple[str, ...]:
        # Every check, then the fixture's own lines that ``read_gres_info`` keeps; the fixture is
        # immutable, so both are done once per fixture, and a failed check caches nothing.
        if not self.node_classes:
            raise InvalidFixture("fixture has no node classes")
        for node_class in self.node_classes:
            if not node_class.partition:
                raise InvalidFixture("node class with empty partition name")
            if node_class.node_count < 1:
                raise InvalidFixture(
                    f"partition {node_class.partition!r}: node_count must be positive"
                )
            line = node_class.gres_line
            if not line:
                raise InvalidFixture(
                    f"partition {node_class.partition!r}: empty gres line"
                )
            if line == NULL_TOKEN or surely_parses(line):
                continue
            try:
                parse_gres_expression(line)
            except GresParseError as exc:
                raise InvalidFixture(
                    f"partition {node_class.partition!r}: bad gres line {line!r}: {exc}"
                ) from exc
        return tuple(c.gres_line for c in self.node_classes if NULL_TOKEN not in c.gres_line)


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


def load_fixture(path: str | Path, cluster_name: str | None = None) -> ClusterFixture:
    """Load a cluster fixture from a line-oriented text file.

    One record per line, ``partition|node_count|gres_line`` with an ASCII
    digit ``node_count``; lines starting with ``#`` and blank lines are
    ignored.  The cluster name defaults to the file's stem.
    """
    path = Path(path)
    node_classes = []
    for lineno, line in content_lines(path, InvalidFixture):
        fields = line.split("|", 2)
        if len(fields) != 3:
            raise InvalidFixture(f"{path}:{lineno}: expected partition|node_count|gres_line")
        partition, count_text, gres_line = fields[0].strip(), fields[1].strip(), fields[2].strip()
        count = ascii_int(count_text)
        if count is None:
            raise InvalidFixture(f"{path}:{lineno}: bad node count {count_text!r}")
        node_classes.append(NodeClass(partition, count, gres_line))
    fixture = ClusterFixture(cluster_name or path.stem, tuple(node_classes))
    fixture._gres  # raises InvalidFixture unless the fixture is usable
    return fixture


def sinfo_query(fixture: ClusterFixture, format: str) -> list[str]:
    """Render the fixture the way ``sinfo -a -h -o <format>`` would.

    Only the ``gresinfo=%G`` template is supported; one output line per node
    class in fixture order, ``(null)`` lines included verbatim, no header.
    """
    if format != SINFO_FORMAT:
        raise UnsupportedFormat(f"unsupported sinfo format: {format!r}")
    return [format.replace("%G", node_class.gres_line) for node_class in fixture.node_classes]


def _extract_gres(lines: list[str]) -> list[str]:
    # Any line containing the null token is dropped (substring match, not
    # equality), then the key prefix is stripped.
    extracted = []
    for line in lines:
        if NULL_TOKEN in line:
            continue
        if not line.startswith(GRES_PREFIX):
            raise LrmsError(f"line does not carry {GRES_PREFIX!r}: {line!r}")
        extracted.append(line[len(GRES_PREFIX):])
    return extracted


def read_gres_info(fixture: ClusterFixture) -> list[str]:
    """Return the fixture's GRES expressions with ``(null)`` lines removed.

    Duplicate lines are preserved as-is, in fixture order.
    """
    return _extract_gres(sinfo_query(fixture, SINFO_FORMAT))


def collect_cluster_info(fixture: ClusterFixture, now: float | None = None) -> ClusterSnapshot:
    """Collect a :class:`ClusterSnapshot` from a fixture.

    ``now`` overrides the collection timestamp, for deterministic tests.
    """
    gres = fixture._gres  # raises InvalidFixture unless the fixture is usable
    return ClusterSnapshot(fixture.cluster_name, gres, int(time.time() if now is None else now))


def collect_from_sinfo(cluster_name: str, sinfo_path: str = "sinfo") -> ClusterSnapshot:
    """Collect a :class:`ClusterSnapshot` by running ``sinfo -a -h -o "gresinfo=%G"``.

    An invocation that outlives :data:`SINFO_TIMEOUT_SECONDS` is killed and
    reported as :class:`LrmsError`, as is output that is not UTF-8.  Lines
    yielding an empty value are skipped defensively (a live scheduler reports
    ``(null)`` for resource-less nodes, but an empty field would violate the
    snapshot contract).
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
    lines = [line for line in stdout.splitlines() if line.strip()]
    gres = [value for value in _extract_gres(lines) if value]
    return ClusterSnapshot(cluster_name, tuple(gres), int(time.time()))
