"""Command-line drivers wiring the pipeline together.

Subcommands: ``mock-sinfo`` (emulated scheduler listing), ``infoprovider``
(XML document, optionally served over HTTP), ``arcinfo`` (fetch, parse and
format an info document) and ``arcsub`` (job-description to spooled batch
script, with optional matchmaking).

Exit codes: 0 success, 1 domain refusal, 2 input error, 3 environment error.
A command returns 0, or 1 when ``arcsub --match`` finds no fitting target;
every other failure is raised, and :func:`main` alone maps it to its code,
the first match winning: ``BrokenPipeError`` (stdout closed early) 3,
:class:`BindFailure` 3, :class:`NoServices` 1, ``_INPUT_ERRORS`` 2.

Settings resolve flag > environment > config file > built-in default; the
environment variables are prefixed ``GRESPIPE_`` (``GRESPIPE_FIXTURE``,
``GRESPIPE_SITE_CONFIG``, ``GRESPIPE_RTE_DIR``, ``GRESPIPE_SPOOL_DIR``,
``GRESPIPE_ENDPOINT``; ``GRESPIPE_NOW`` pins the clock).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
import warnings
from functools import partial
from pathlib import Path

from . import data
from .client import ClientError, NoServices, fetch_info, format_arcinfo, parse_execution_targets
from ._text import key_values, read_text
from .infoprovider import (
    DEFAULT_BIND, BadConfig, BindFailure, SiteConfig, build_computing_service, render_glue2_xml, serve_info,
)
from .jobsubmit import (
    JobSubmitError,
    advertised_gres,
    apply_rtes,
    generate_submit_script,
    load_rte_registry,
    match_target,
    requested_gres,
    write_spool_script,
)
from .lrms import (
    GRES_PREFIX,
    SINFO_FORMAT,
    LrmsError,
    collect_cluster_info,
    load_fixture,
    sinfo_query,
)
from .xrsl import XrslError, parse_xrsl

__all__ = ["build_parser", "main"]

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_INPUT = 2
EXIT_ENV = 3

ENV_PREFIX = "GRESPIPE_"
# Setting key -> built-in default.
_SETTINGS = {
    "fixture": data.KEBNEKAISE_FIXTURE,
    "site_config": data.SITE_CONF,
    "rte_dir": data.RTE_DIR,
    "spool_dir": "spool",
    "endpoint": DEFAULT_BIND,
}


class CliInputError(Exception):
    """Unusable input: missing files, bad flags, malformed config."""


def _fail(message: str, code: int = EXIT_INPUT) -> int:
    print(f"grespipe: error: {message}", file=sys.stderr)
    return code


def _clock() -> float | None:
    value = os.environ.get(ENV_PREFIX + "NOW")
    if value is None:
        return None
    try:
        now = float(value)
        if math.isfinite(now):
            return now
    except ValueError:
        pass
    raise CliInputError(f"bad {ENV_PREFIX}NOW value: {value!r}")


def _settings(args: argparse.Namespace) -> dict[str, str]:
    """This invocation's settings, each resolved flag > env > file > default."""
    file = dict(key_values(args.config, CliInputError, _SETTINGS)) if args.config else {}
    return {
        key: str(getattr(args, key, None) or os.environ.get(ENV_PREFIX + key.upper()) or file.get(key, default))
        for key, default in _SETTINGS.items()
    }


def cmd_mock_sinfo(args: argparse.Namespace) -> int:
    lines = sinfo_query(load_fixture(_settings(args)["fixture"]), SINFO_FORMAT)
    if args.bare:
        lines = [line.removeprefix(GRES_PREFIX) for line in lines]
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_infoprovider(args: argparse.Namespace) -> int:
    settings = _settings(args)
    fixture = load_fixture(settings["fixture"])
    site = SiteConfig.from_file(settings["site_config"])
    if args.bind:
        site = site.replace(bind=args.bind)
    if args.refresh is not None:
        site = site.replace(refresh_interval_seconds=args.refresh)
    if not args.serve:
        snapshot = collect_cluster_info(fixture, now=_clock())
        sys.stdout.write(render_glue2_xml(build_computing_service(snapshot, site)))
        return EXIT_OK
    try:
        with serve_info(partial(collect_cluster_info, fixture), site) as server:
            print(f"serving on {server.url}", flush=True)
            while True:
                time.sleep(1)
    except KeyboardInterrupt:
        pass
    return EXIT_OK


def _read_document(target: str) -> str:
    if target[:8].lower().startswith(("http://", "https://")):  # a scheme matches in any case (RFC 3986 section 3.1)
        return fetch_info(target)
    return read_text(Path(target), CliInputError)


def cmd_arcinfo(args: argparse.Namespace) -> int:
    target = args.target or f"http://{_settings(args)['endpoint']}/info"
    records = parse_execution_targets(_read_document(target))
    sys.stdout.write(format_arcinfo(records))
    return EXIT_OK


def cmd_arcsub(args: argparse.Namespace) -> int:
    settings = _settings(args)
    text = read_text(Path(args.xrsl), CliInputError)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        job = parse_xrsl(text)
    for warning in caught:
        print(f"grespipe: warning: {warning.message}", file=sys.stderr)
    registry = load_rte_registry(settings["rte_dir"], job.runtime_environments)
    node_properties = apply_rtes(job, registry)
    script = generate_submit_script(job, node_properties)
    if args.match:
        records = parse_execution_targets(_read_document(args.match))
        requested = requested_gres(node_properties)
        if not match_target(requested, advertised_gres(records, requested)):
            print(f"grespipe: no advertised target satisfies {requested}", file=sys.stderr)
            return EXIT_REFUSED
    job_id, script_path = write_spool_script(script, settings["spool_dir"], now=_clock())
    print(f"{job_id} {script_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grespipe",
        description="General-resource discovery pipeline: emulated scheduler, "
        "info endpoint, client report and job-script generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="settings file (key = value)")

    mock = sub.add_parser("mock-sinfo", parents=[common], help="print the emulated sinfo GRES listing")
    mock.add_argument("--fixture", type=Path, help="cluster fixture file")
    mock.add_argument("--bare", action="store_true", help=f"strip the {GRES_PREFIX} prefix")
    mock.set_defaults(func=cmd_mock_sinfo)

    info = sub.add_parser("infoprovider", parents=[common], help="emit or serve the info XML document")
    info.add_argument("--fixture", type=Path, help="cluster fixture file")
    info.add_argument("--site-config", dest="site_config", type=Path, help="site config file")
    info.add_argument("--serve", action="store_true", help="serve over HTTP instead of printing")
    info.add_argument("--bind", help="host:port to bind (overrides site config)")
    info.add_argument("--refresh", type=float, help="refresh interval in seconds")
    info.set_defaults(func=cmd_infoprovider)

    arcinfo = sub.add_parser("arcinfo", parents=[common], help="fetch, parse and format an info document")
    arcinfo.add_argument(
        "target",
        nargs="?",
        help="info URL or local XML file (default: http://<endpoint>/info)",
    )
    arcinfo.set_defaults(func=cmd_arcinfo)

    arcsub = sub.add_parser("arcsub", parents=[common], help="generate and spool a batch script from XRSL")
    arcsub.add_argument("xrsl", help="job description file")
    arcsub.add_argument("--rte-dir", dest="rte_dir", type=Path, help="runtime environment directory")
    arcsub.add_argument("--spool-dir", dest="spool_dir", type=Path, help="spool directory for scripts")
    arcsub.add_argument("--match", help="info URL or file; refuse when no target fits the GRES request")
    arcsub.set_defaults(func=cmd_arcsub)

    return parser


# Unusable input: missing or malformed files, flags, settings and documents.
_INPUT_ERRORS = (CliInputError, LrmsError, BadConfig, ClientError, XrslError, JobSubmitError, OSError, ValueError)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # an OSError, so it must be matched first
        # The reader went away, as under ``| head``: exit quietly.  Point the
        # descriptor at /dev/null so the flush at interpreter exit cannot
        # raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ENV
    except BindFailure as exc:
        return _fail(str(exc), EXIT_ENV)
    except NoServices as exc:
        return _fail(str(exc), EXIT_REFUSED)
    except _INPUT_ERRORS as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
