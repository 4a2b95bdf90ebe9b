"""Runtime-environment expansion, batch-script generation and matchmaking.

A runtime environment (RTE) is a declarative manifest naming raw batch
options; applying RTEs to a job accumulates those options as numbered node
properties, which the script generator turns into ``#SBATCH`` directive
lines.  Matchmaking checks the ``--gres=`` request a job's node properties
carry against the resource lists a target advertises.  It parses only the
advertised lines that name every requested resource, and only until one
fits: a parsed entry's name is a substring of its line, so a line missing a
requested name could never satisfy the request.
"""

from __future__ import annotations

import re
import shlex
import time
from collections.abc import Iterable, Iterator, Mapping
from pathlib import Path

from ._record import Record, set_field
from ._text import key_values
from .gres import GresEntry, GresList, GresParseError, parse_gres_expression
from .infoprovider import ComputingServiceRecord
from .xrsl import JobDescription

__all__ = [
    "JobSubmitError",
    "RteManifestError",
    "UnknownRte",
    "RteManifest",
    "JobOptions",
    "SubmitScript",
    "load_rte_manifest",
    "load_rte_registry",
    "apply_rtes",
    "generate_submit_script",
    "requested_gres",
    "advertised_gres",
    "match_target",
    "write_spool_script",
]

_RTE_NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
GRES_OPTION_PREFIX = "--gres="


class JobSubmitError(Exception):
    """Base class for submission-side failures."""


class RteManifestError(JobSubmitError):
    """An RTE manifest file is malformed."""


class UnknownRte(JobSubmitError):
    """A requested runtime environment is not in the registry."""

    def __init__(self, name: str):
        super().__init__(f"unknown runtime environment: {name}")
        self.name = name


class RteManifest(Record):
    """A named set of raw batch options to append at submission time."""

    __slots__ = __match_args__ = ("name", "node_properties")

    def __init__(self, name: str, node_properties: tuple[str, ...] = ()):
        set_field(self, "name", name)
        set_field(self, "node_properties", node_properties)
        if not _RTE_NAME_RE.fullmatch(self.name):
            raise ValueError(f"bad RTE name: {self.name!r}")
        for prop in self.node_properties:
            if not prop or "\n" in prop or "\r" in prop:
                raise ValueError(f"node property must be a non-empty single line: {prop!r}")


class JobOptions(Record):
    """A job description plus the node properties accumulated from its RTEs."""

    __slots__ = __match_args__ = ("base", "node_properties")

    def __init__(self, base: JobDescription, node_properties: tuple[str, ...] = ()):
        set_field(self, "base", base)
        set_field(self, "node_properties", node_properties)
        if any(not prop for prop in self.node_properties):
            raise ValueError("node_properties must not contain empty entries")


class SubmitScript(Record):
    """Ordered ``#SBATCH`` directives plus the execution stanza."""

    __slots__ = __match_args__ = ("directives", "payload")

    def __init__(self, directives: tuple[str, ...], payload: str):
        set_field(self, "directives", directives)
        set_field(self, "payload", payload)
        for directive in self.directives:
            if not directive.startswith("#SBATCH "):
                raise ValueError(f"directive must start with '#SBATCH ': {directive!r}")
            # sbatch stops reading directives at the first line that is not
            # one, so a line break would silently drop every directive after it.
            if "\n" in directive or "\r" in directive:
                raise ValueError(f"directive must be a single line: {directive!r}")

    def render(self) -> str:
        lines = ["#!/bin/bash", *self.directives, "", self.payload]
        return "\n".join(lines) + "\n"


def load_rte_manifest(path: str | Path) -> RteManifest:
    """Load a manifest file: ``name = <rte>`` once, ``node_properties = <opt>``
    once per option; ``#`` comments and blank lines are ignored.
    """
    path = Path(path)
    name: str | None = None
    properties: list[str] = []
    for lineno, key, value in key_values(path, RteManifestError, ("name", "node_properties")):
        if key == "name":
            name = value
        elif not value:
            raise RteManifestError(f"{path}:{lineno}: empty node property")
        else:
            properties.append(value)
    if not name:
        raise RteManifestError(f"{path}: manifest declares no name")
    try:
        return RteManifest(name, tuple(properties))
    except ValueError as exc:
        raise RteManifestError(f"{path}: {exc}") from exc


def load_rte_registry(directory: str | Path) -> dict[str, RteManifest]:
    """Load every ``*.rte`` manifest under a directory, keyed by declared name;
    raises :class:`RteManifestError` when ``directory`` is not a directory."""
    directory = Path(directory)
    if not directory.is_dir():
        raise RteManifestError(f"RTE directory not found: {directory}")
    registry: dict[str, RteManifest] = {}
    for path in sorted(directory.glob("*.rte")):
        manifest = load_rte_manifest(path)
        if manifest.name in registry:
            raise RteManifestError(f"duplicate RTE name {manifest.name!r} in {path}")
        registry[manifest.name] = manifest
    return registry


def apply_rtes(job: JobDescription, registry: Mapping[str, RteManifest]) -> JobOptions:
    """Append each requested RTE's node properties, in request order.

    Duplicate properties contributed by distinct RTEs are kept.  Raises
    :class:`UnknownRte` for a name missing from the registry.
    """
    properties: list[str] = []
    for name in job.runtime_environments:
        manifest = registry.get(name)
        if manifest is None:
            raise UnknownRte(name)
        properties.extend(manifest.node_properties)
    return JobOptions(job, tuple(properties))


def generate_submit_script(opts: JobOptions) -> SubmitScript:
    """Turn job options into a batch script.

    Directive order: job name (when set), task count, output/error names
    (when set), then one directive per node property in application order.
    """
    job = opts.base
    directives = []
    if job.job_name:
        directives.append(f"#SBATCH --job-name={shlex.quote(job.job_name)}")
    directives.append(f"#SBATCH --ntasks={job.count}")
    if job.stdout_name:
        directives.append(f"#SBATCH --output={shlex.quote(job.stdout_name)}")
    if job.stderr_name:
        directives.append(f"#SBATCH --error={shlex.quote(job.stderr_name)}")
    directives.extend(f"#SBATCH {prop}" for prop in opts.node_properties)
    payload = " ".join(shlex.quote(token) for token in (job.executable, *job.arguments))
    return SubmitScript(tuple(directives), payload)


def requested_gres(node_properties: Iterable[str]) -> GresList:
    """The entries of every ``--gres=`` node property, concatenated in order."""
    entries = []
    for prop in node_properties:
        if prop.startswith(GRES_OPTION_PREFIX):
            expression = prop.removeprefix(GRES_OPTION_PREFIX)
            entries.extend(parse_gres_expression(expression).entries)
    return GresList(tuple(entries))


def advertised_gres(
    records: Iterable[ComputingServiceRecord], requested: GresList
) -> Iterator[GresList]:
    """Lazily parse, in document order, the advertised resource lines that
    could satisfy ``requested``.

    A parsed entry's name is a substring of the line it came from, so a line
    that lacks some requested name as a substring cannot satisfy the request.
    Skipping such lines unparsed is therefore exact: the filter is a
    necessary condition, and :func:`match_target` gives the same verdict as
    on every line parsed.  Lines that fail to parse are skipped as well.
    """
    names = {want.name for want in requested}
    for record in records:
        for line in record.manager.general_resources:
            # A plain loop, not all(<generator>): this runs for every line of
            # the document, and the generator form costs about 6x as much.
            for name in names:
                if name not in line:
                    break
            else:
                try:
                    parsed = parse_gres_expression(line)
                except GresParseError:
                    continue  # an unparseable advertisement cannot satisfy anything
                yield parsed


def match_target(requested: GresList, advertised: Iterable[GresList]) -> bool:
    """Decide whether a GRES request fits one advertised node class.

    True iff some single advertised list satisfies every requested entry:
    equal name, compatible subtype (equal, or no subtype requested) and
    count at least the requested count.  Satisfaction is per node class,
    never a cluster-wide aggregate.  An empty request matches anything.
    """
    if not requested.entries:
        return True
    return any(
        all(_class_satisfies(node_class, want) for want in requested)
        for node_class in advertised
    )


def _class_satisfies(node_class: GresList, want: GresEntry) -> bool:
    return any(
        have.name == want.name
        and (want.subtype is None or have.subtype == want.subtype)
        and have.count >= want.count
        for have in node_class
    )


def write_spool_script(
    script: SubmitScript,
    spool_dir: str | Path,
    now: float | None = None,
) -> tuple[str, Path]:
    """Write the rendered script to the spool directory as ``<jobid>.sbatch``.

    The job id derives from the clock and the script content, so a fixed
    clock gives deterministic ids; name collisions get a numeric suffix.
    Returns ``(job_id, script_path)``.
    """
    import hashlib

    spool_dir = Path(spool_dir)
    spool_dir.mkdir(parents=True, exist_ok=True)
    rendered = script.render()
    timestamp = int(time.time() if now is None else now)
    digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()[:8]
    base_id = f"{timestamp}-{digest}"
    job_id = base_id
    attempt = 1
    while True:
        path = spool_dir / f"{job_id}.sbatch"
        try:
            with path.open("x", encoding="utf-8") as handle:
                handle.write(rendered)
            return job_id, path
        except FileExistsError:
            attempt += 1
            job_id = f"{base_id}-{attempt}"
