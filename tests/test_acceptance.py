"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them live) and
enforcing its runtime budget.
"""

import contextlib
import io
import random
import time
from functools import partial
from xml.etree import ElementTree

from grespipe import data
from grespipe.client import fetch_info, format_arcinfo, parse_execution_targets
from grespipe.cli import EXIT_OK, main
from grespipe.gres import (
    GresEntry,
    GresList,
    GresParseError,
    parse_gres_expression,
    render_gres_expression,
)
from grespipe.infoprovider import SiteConfig, build_computing_service, render_glue2_xml, serve_info
from grespipe.jobsubmit import match_target
from grespipe.lrms import collect_cluster_info, load_fixture, read_gres_info

from conftest import (
    RESOURCE_LINES,
    SINFO_BARE_LINES,
    brute_force_match,
    random_fixture,
    random_gres_line,
)


def _criterion(number: int, name: str, limit_seconds: float | None, body) -> None:
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        if limit_seconds is not None and elapsed >= limit_seconds:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {limit_seconds:.0f}s budget"
            )
    except BaseException:
        print(f"FAIL  criterion {number}: {name}", flush=True)
        raise
    print(f"PASS  criterion {number}: {name} [{elapsed:.2f}s]", flush=True)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def test_criterion_1_sinfo_fidelity():
    def body():
        code, out = _run_cli(["mock-sinfo", "--bare", "--fixture", str(data.KEBNEKAISE_FIXTURE)])
        assert code == EXIT_OK
        lines = [line.rstrip() for line in out.splitlines()]
        assert lines == SINFO_BARE_LINES

    _criterion(1, "sinfo fidelity", 1.0, body)


def test_criterion_2_xml_fidelity():
    def body():
        code, out = _run_cli(["infoprovider", "--fixture", str(data.KEBNEKAISE_FIXTURE)])
        assert code == EXIT_OK
        root = ElementTree.fromstring(out)  # independent parser: must be well-formed
        block = root.find(
            "Domains/AdminDomain/Services/ComputingService/ComputingManager/GeneralResources"
        )
        assert block is not None
        assert [resource.text for resource in block.findall("Resource")] == RESOURCE_LINES

    _criterion(2, "XML fidelity", 1.0, body)


def test_criterion_3_arcinfo_fidelity():
    def body():
        fixture = load_fixture(data.KEBNEKAISE_FIXTURE)
        config = SiteConfig.from_file(data.SITE_CONF).replace(bind="127.0.0.1:0")
        with serve_info(partial(collect_cluster_info, fixture), config) as server:
            document = fetch_info(server.url + "/info")
        report = format_arcinfo(parse_execution_targets(document))
        lines = report.splitlines()
        header_index = lines.index("    General resources:")
        expected = [f"      {line}" for line in RESOURCE_LINES]
        assert lines[header_index + 1 : header_index + 1 + len(expected)] == expected

    _criterion(3, "arcinfo fidelity", 2.0, body)


def test_criterion_4_submission_fidelity(tmp_path):
    def body():
        spool = tmp_path / "spool"
        code, out = _run_cli(
            ["arcsub", str(data.HELLO_XRSL), "--spool-dir", str(spool)]
        )
        assert code == EXIT_OK
        job_id, script_path = out.split()
        script_lines = (spool / f"{job_id}.sbatch").read_text().splitlines()
        gres_index = script_lines.index("#SBATCH --gres=gpu:k80:1")
        payload_index = script_lines.index("")  # directives end at the blank line
        assert gres_index < payload_index

    _criterion(4, "submission fidelity", 1.0, body)


def test_criterion_5_gres_grammar_properties():
    def body():
        rng = random.Random(0xC0FFEE)
        for _ in range(10_000):
            expression = random_gres_line(rng)
            assert render_gres_expression(parse_gres_expression(expression)) == expression

        suffix_rank = {"": 0, "K": 1, "M": 2, "G": 3, "T": 4, "P": 5}
        for _ in range(10_000):
            number = rng.randint(0, 10**9)
            suffix = rng.choice(list(suffix_rank))
            entry = parse_gres_expression(f"res:{number}{suffix}").entries[0]
            assert entry.count == number * 1024 ** suffix_rank[suffix]

        for _ in range(10_000):
            length = rng.randint(0, 256)
            text = "".join(chr(rng.randint(0, 127)) for _ in range(length))
            try:
                result = parse_gres_expression(text)
            except GresParseError:
                continue
            assert isinstance(result, GresList)

    _criterion(5, "GRES grammar properties (3 x 10000 cases)", 30.0, body)


def test_criterion_6_pipeline_round_trip():
    def body():
        rng = random.Random(0xBEEF)
        config = SiteConfig("dom", "svc", "slurm")
        for index in range(1_000):
            fixture = random_fixture(rng, escapable=index % 2 == 0)
            expected = read_gres_info(fixture)
            snapshot = collect_cluster_info(fixture)
            document = render_glue2_xml(build_computing_service(snapshot, config))
            records = parse_execution_targets(document)
            assert len(records) == 1
            assert list(records[0].manager.general_resources) == expected

    _criterion(6, "pipeline round-trip (1000 fixtures)", 30.0, body)


def test_criterion_7_matchmaking_oracle():
    def body():
        rng = random.Random(0xACE)
        names = [f"res{i}" for i in range(6)]
        subtypes = [None, "alpha", "beta", "gamma"]
        outcomes = {True: 0, False: 0}
        for _ in range(5_000):
            raw_request = [
                (rng.choice(names), rng.choice(subtypes), rng.randint(0, 10))
                for _ in range(rng.randint(0, 3))
            ]
            raw_classes = [
                [
                    (rng.choice(names), rng.choice(subtypes), rng.randint(0, 10))
                    for _ in range(rng.randint(0, 5))
                ]
                for _ in range(4)
            ]
            request = GresList(tuple(GresEntry(n, s, c, str(c)) for n, s, c in raw_request))
            advertised = [
                GresList(tuple(GresEntry(n, s, c, str(c)) for n, s, c in cls))
                for cls in raw_classes
            ]
            verdict = match_target(request, advertised)
            assert verdict == brute_force_match(raw_request, raw_classes)
            outcomes[verdict] += 1
        assert outcomes[True] > 0 and outcomes[False] > 0

    _criterion(7, "matchmaking oracle (5000 cases)", 60.0, body)


def test_criterion_8_null_filtering():
    def body():
        rng = random.Random(0xDEAD)
        config = SiteConfig("dom", "svc", "slurm")
        fractions = [0.0, 1.0, None, None, None]
        for index in range(300):
            fixture = random_fixture(rng, null_fraction=fractions[index % len(fractions)])
            snapshot = collect_cluster_info(fixture)
            assert all("(null)" not in value for value in snapshot.gres)
            document = render_glue2_xml(build_computing_service(snapshot, config))
            assert "(null)" not in document
            records = parse_execution_targets(document)
            for record in records:
                assert all("(null)" not in value for value in record.manager.general_resources)
            assert "(null)" not in format_arcinfo(records)

    _criterion(8, "null filtering invariants (300 fixtures)", None, body)
