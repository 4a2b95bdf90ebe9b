"""Runtime-environment expansion, batch-script generation and matchmaking.

A runtime environment (RTE) is a manifest of raw batch options that a job
finds by name, as ARC does, at ``<rte_dir>/<name>.rte``, as the tuple of
those options; applying RTEs to a job gives the tuple of all their options,
its node properties, which the script generator writes, as ``#SBATCH`` lines
after the job's own, into the text of its batch script.  Matchmaking
checks the ``--gres=`` request a job's node properties carry against the
resource lists a target advertises.  One pattern scan of a manager's lines
finds the segments that could satisfy the first requested entry alone, and
only their lines are parsed, until one fits: a line with no such segment
could never satisfy the request.  The spool gets each script whole or not at all.
"""

from __future__ import annotations

import _thread
import os
import re
import shlex
import time
from collections.abc import Iterable, Iterator, Mapping
from pathlib import Path

from ._text import key_values
from .gres import GresEntry, GresList, GresParseError, lines_satisfying, parse_gres_expression
from .infoprovider import ComputingServiceRecord
from .xrsl import JobDescription

__all__ = [
    "JobSubmitError",
    "RteManifestError",
    "UnknownRte",
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


def load_rte_manifest(path: str | Path) -> tuple[str, ...]:
    """Return the node properties of a manifest file: ``name = <its file's stem>``
    once, ``node_properties = <opt>`` once per option, as
    :func:`~grespipe._text.key_values` reads them, so none is empty or holds
    a line break.
    """
    path = Path(path)
    name: str | None = None
    properties: list[str] = []
    for key, value in key_values(path, RteManifestError, ("name", "node_properties")):
        if key == "name":
            name = value
        else:
            properties.append(value)
    if name != path.stem:
        raise RteManifestError(f"{path}: manifest must declare name = {path.stem}")
    return tuple(properties)


def load_rte_registry(directory: str | Path, names: Iterable[str]) -> dict[str, tuple[str, ...]]:
    """Load ``<directory>/<name>.rte``, and no other file, for each distinct name, keyed by name; a name that
    ``_RTE_NAME_RE`` refuses (``../x``) is :class:`UnknownRte` before any file is touched, as is a missing one."""
    directory = Path(directory)
    if not directory.is_dir():
        raise RteManifestError(f"RTE directory not found: {directory}")
    registry: dict[str, tuple[str, ...]] = {}
    for name in dict.fromkeys(names):
        path = directory / f"{name}.rte"
        if not _RTE_NAME_RE.fullmatch(name) or not path.is_file():
            raise UnknownRte(name)
        registry[name] = load_rte_manifest(path)
    return registry


def apply_rtes(job: JobDescription, registry: Mapping[str, tuple[str, ...]]) -> tuple[str, ...]:
    """Return the node properties of each RTE the job requests, in request order.

    Duplicate properties contributed by distinct RTEs are kept.  Raises
    :class:`UnknownRte` for a name missing from the registry.
    """
    properties: list[str] = []
    for name in job.runtime_environments:
        node_properties = registry.get(name)
        if node_properties is None:
            raise UnknownRte(name)
        properties.extend(node_properties)
    return tuple(properties)


def generate_submit_script(job: JobDescription, node_properties: tuple[str, ...] = ()) -> str:
    """Turn a job and the node properties of its RTEs into the text of a batch script.

    Directive order: job name (when set), task count, output/error names
    (when set), then one directive per node property in application order.
    A directive holding a line break is a :class:`ValueError`.
    """
    directives = []
    if job.job_name:
        directives.append(f"#SBATCH --job-name={shlex.quote(job.job_name)}")
    directives.append(f"#SBATCH --ntasks={job.count}")
    if job.stdout_name:
        directives.append(f"#SBATCH --output={shlex.quote(job.stdout_name)}")
    if job.stderr_name:
        directives.append(f"#SBATCH --error={shlex.quote(job.stderr_name)}")
    directives.extend(f"#SBATCH {prop}" for prop in node_properties)
    for directive in directives:
        # sbatch stops reading directives at the first line that is not
        # one, so a line break would silently drop every directive after it.
        if "\n" in directive or "\r" in directive:
            raise ValueError(f"directive must be a single line: {directive!r}")
    payload = " ".join(shlex.quote(token) for token in (job.executable, *job.arguments))
    return "\n".join(["#!/bin/bash", *directives, "", payload]) + "\n"


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

    A line satisfies a request only if it parses and one of its segments
    alone satisfies the first requested entry, so of each manager's lines
    only those :func:`~grespipe.gres.lines_satisfying` yields for that entry
    are parsed, each once.  The filter is a necessary condition, so
    :func:`match_target` gives the same verdict as on every line parsed.
    Lines that fail to parse are skipped as well.  An empty request yields
    every line that parses.
    """
    first = requested.entries[0] if requested.entries else None
    for record in records:
        lines = record.manager.general_resources
        for line in lines if first is None else lines_satisfying(first, lines):
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
    script: str,
    spool_dir: str | Path,
    now: float | None = None,
) -> tuple[str, Path]:
    """Write the text of a script to the spool directory as ``<jobid>.sbatch``.

    The job id derives from the clock and the script content, so a fixed
    clock gives deterministic ids; name collisions get a numeric suffix.
    The script is written whole under a temporary name of its process and
    thread (a leading ``.``, no ``.sbatch``) and then linked to its own
    name, which ``link(2)`` never replaces, so a write that fails midway
    leaves neither name behind.  Returns ``(job_id, script_path)``.
    """
    import hashlib

    spool_dir = Path(spool_dir)
    spool_dir.mkdir(parents=True, exist_ok=True)
    timestamp = int(time.time() if now is None else now)
    digest = hashlib.sha256(script.encode("utf-8")).hexdigest()[:8]
    base_id = f"{timestamp}-{digest}"
    # The process and thread ids keep concurrent submissions of one script apart.
    temporary = spool_dir / f".{base_id}.{os.getpid()}.{_thread.get_ident()}.tmp"
    handle = temporary.open("x", encoding="utf-8")
    try:
        with handle:
            handle.write(script)
        job_id = base_id
        attempt = 1
        while True:
            path = spool_dir / f"{job_id}.sbatch"
            try:
                os.link(temporary, path)
                return job_id, path
            except FileExistsError:
                attempt += 1
                job_id = f"{base_id}-{attempt}"
    finally:
        temporary.unlink()
