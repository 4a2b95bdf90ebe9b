"""Command-line drivers wiring the pipeline together.

Subcommands: ``mock-sinfo`` (emulated scheduler listing), ``infoprovider``
(XML document, optionally served over HTTP), ``arcinfo`` (fetch, parse and
format an info document) and ``arcsub`` (job-description to spooled batch
script, with optional matchmaking).

Exit codes: 0 success, 1 domain refusal, 2 input error, 3 environment error.

Settings resolve flag > environment > config file > built-in default; the
environment variables are prefixed ``GRESPIPE_`` (``GRESPIPE_FIXTURE``,
``GRESPIPE_SITE_CONFIG``, ``GRESPIPE_RTE_DIR``, ``GRESPIPE_SPOOL_DIR``,
``GRESPIPE_ENDPOINT``; ``GRESPIPE_NOW`` pins the clock).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
import warnings
from pathlib import Path

from . import data
from .client import (
    ClientError,
    FetchError,
    MalformedXml,
    NoServices,
    fetch_info,
    format_arcinfo,
    parse_execution_targets,
)
from ._text import key_values
from .gres import GresParseError
from .infoprovider import BadConfig, BindFailure, SiteConfig, build_computing_service, render_glue2_xml, serve_info
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
    SINFO_FORMAT,
    LrmsError,
    SlurmFixtureBackend,
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
_BARE_PREFIX = "gresinfo="
_CONFIG_KEYS = ("fixture", "site_config", "rte_dir", "spool_dir", "endpoint")


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
        return float(value)
    except ValueError as exc:
        raise CliInputError(f"bad {ENV_PREFIX}NOW value: {value!r}") from exc


def _load_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for where, key, value in key_values(path, CliInputError):
        if key not in _CONFIG_KEYS:
            raise CliInputError(f"{where}: unknown key {key!r}")
        values[key] = value
    return values


class _Settings:
    """Per-invocation settings with flag > env > file > default resolution."""

    def __init__(self, args: argparse.Namespace):
        config_path = getattr(args, "config", None)
        self._file = _load_config_file(Path(config_path)) if config_path else {}
        self._args = args

    def _pick(self, attr: str, key: str, default) -> str:
        value = getattr(self._args, attr, None)
        if value is not None:
            return str(value)
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env:
            return env
        if key in self._file:
            return self._file[key]
        return str(default)

    def _existing(self, attr: str, key: str, default, what: str) -> Path:
        path = Path(self._pick(attr, key, default))
        if not path.exists():
            raise CliInputError(f"{what} not found: {path}")
        return path

    def fixture_path(self) -> Path:
        return self._existing("fixture", "fixture", data.KEBNEKAISE_FIXTURE, "fixture file")

    def site_config_path(self) -> Path:
        return self._existing("site_config", "site_config", data.SITE_CONF, "site config")

    def rte_dir(self) -> Path:
        return self._existing("rte_dir", "rte_dir", data.RTE_DIR, "RTE directory")

    def spool_dir(self) -> Path:
        return Path(self._pick("spool_dir", "spool_dir", "spool"))

    def endpoint(self) -> str:
        return self._pick("endpoint", "endpoint", "127.0.0.1:8070")


def cmd_mock_sinfo(args: argparse.Namespace) -> int:
    try:
        fixture = load_fixture(_Settings(args).fixture_path())
        lines = sinfo_query(fixture, SINFO_FORMAT)
    except (CliInputError, LrmsError) as exc:
        return _fail(str(exc))
    if args.bare:
        lines = [line.removeprefix(_BARE_PREFIX) for line in lines]
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_infoprovider(args: argparse.Namespace) -> int:
    try:
        settings = _Settings(args)
        fixture = load_fixture(settings.fixture_path())
        site = SiteConfig.from_file(settings.site_config_path())
        if args.bind:
            site = dataclasses.replace(site, bind=args.bind)
        if args.refresh is not None:
            site = dataclasses.replace(site, refresh_interval_seconds=args.refresh)
        if not args.serve:
            snapshot = collect_cluster_info(fixture, now=_clock())
            sys.stdout.write(render_glue2_xml(build_computing_service(snapshot, site)))
            return EXIT_OK
    except (CliInputError, LrmsError, BadConfig) as exc:
        return _fail(str(exc))
    try:
        server = serve_info(SlurmFixtureBackend(fixture), site)
    except BindFailure as exc:
        return _fail(str(exc), EXIT_ENV)
    print(f"serving on {server.url}", flush=True)
    try:
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return EXIT_OK


def _read_info_document(target: str) -> str:
    if target.startswith(("http://", "https://")):
        return fetch_info(target)
    path = Path(target)
    if not path.exists():
        raise CliInputError(f"info document not found: {path}")
    return path.read_text(encoding="utf-8")


def cmd_arcinfo(args: argparse.Namespace) -> int:
    target = args.target or f"http://{_Settings(args).endpoint()}/info"
    try:
        document = _read_info_document(target)
    except (FetchError, CliInputError, OSError, ValueError) as exc:
        return _fail(str(exc))
    try:
        records = parse_execution_targets(document)
    except NoServices as exc:
        return _fail(str(exc), EXIT_REFUSED)
    except MalformedXml as exc:
        return _fail(str(exc))
    sys.stdout.write(format_arcinfo(records))
    return EXIT_OK


def cmd_arcsub(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    try:
        xrsl_path = Path(args.xrsl)
        if not xrsl_path.exists():
            raise CliInputError(f"job description not found: {xrsl_path}")
        text = xrsl_path.read_text(encoding="utf-8")
    except (CliInputError, OSError) as exc:
        return _fail(str(exc))
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            job = parse_xrsl(text)
        for warning in caught:
            print(f"grespipe: warning: {warning.message}", file=sys.stderr)
        registry = load_rte_registry(settings.rte_dir())
        opts = apply_rtes(job, registry)
        script = generate_submit_script(opts)
        if args.match:
            document = _read_info_document(args.match)
            records = parse_execution_targets(document)
            requested = requested_gres(opts.node_properties)
            if not match_target(requested, advertised_gres(records)):
                print(
                    f"grespipe: no advertised target satisfies {requested}",
                    file=sys.stderr,
                )
                return EXIT_REFUSED
        job_id, script_path = write_spool_script(script, settings.spool_dir(), now=_clock())
    except (CliInputError, XrslError, JobSubmitError, GresParseError, ClientError, OSError, ValueError) as exc:
        return _fail(str(exc))
    print(f"{job_id} {script_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grespipe",
        description="General-resource discovery pipeline: emulated scheduler, "
        "info endpoint, client report and job-script generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mock = sub.add_parser("mock-sinfo", help="print the emulated sinfo GRES listing")
    mock.add_argument("--config", type=Path, help="settings file (key = value)")
    mock.add_argument("--fixture", type=Path, help="cluster fixture file")
    mock.add_argument("--bare", action="store_true", help="strip the gresinfo= prefix")
    mock.set_defaults(func=cmd_mock_sinfo)

    info = sub.add_parser("infoprovider", help="emit or serve the info XML document")
    info.add_argument("--config", type=Path, help="settings file (key = value)")
    info.add_argument("--fixture", type=Path, help="cluster fixture file")
    info.add_argument("--site-config", dest="site_config", type=Path, help="site config file")
    info.add_argument("--serve", action="store_true", help="serve over HTTP instead of printing")
    info.add_argument("--bind", help="host:port to bind (overrides site config)")
    info.add_argument("--refresh", type=float, help="refresh interval in seconds")
    info.set_defaults(func=cmd_infoprovider)

    arcinfo = sub.add_parser("arcinfo", help="fetch, parse and format an info document")
    arcinfo.add_argument("--config", type=Path, help="settings file (key = value)")
    arcinfo.add_argument(
        "target",
        nargs="?",
        help="info URL or local XML file (default: http://<endpoint>/info)",
    )
    arcinfo.set_defaults(func=cmd_arcinfo)

    arcsub = sub.add_parser("arcsub", help="generate and spool a batch script from XRSL")
    arcsub.add_argument("--config", type=Path, help="settings file (key = value)")
    arcsub.add_argument("xrsl", help="job description file")
    arcsub.add_argument("--rte-dir", dest="rte_dir", type=Path, help="runtime environment directory")
    arcsub.add_argument("--spool-dir", dest="spool_dir", type=Path, help="spool directory for scripts")
    arcsub.add_argument("--match", help="info URL or file; refuse when no target fits the GRES request")
    arcsub.set_defaults(func=cmd_arcsub)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
