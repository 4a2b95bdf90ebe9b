"""Tests for RTE manifests, script generation, matchmaking and the spool."""

import errno
import functools
import os
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from grespipe import data, jobsubmit
from grespipe.cli import EXIT_INPUT, main
from grespipe.client import parse_execution_targets
from grespipe.gres import GresEntry, GresList, GresParseError, parse_gres_expression
from grespipe.infoprovider import (
    ComputingManagerRecord,
    ComputingServiceRecord,
    build_computing_service,
    render_glue2_xml,
)
from grespipe.jobsubmit import (
    RteManifest,
    RteManifestError,
    SubmitScript,
    UnknownRte,
    advertised_gres,
    apply_rtes,
    generate_submit_script,
    load_rte_manifest,
    load_rte_registry,
    match_target,
    write_spool_script,
)
from grespipe.lrms import collect_cluster_info
from grespipe.xrsl import JobDescription, parse_xrsl

from conftest import RESOURCE_LINES, brute_force_match

KEBNEKAISE_ADVERTISED = [parse_gres_expression(line) for line in RESOURCE_LINES]


class TestManifests:
    def test_shipped_kgpu6(self):
        manifest = load_rte_manifest(data.RTE_DIR / "KGPU6.rte")
        assert manifest.name == "KGPU6"
        assert manifest.node_properties == ("--gres=gpu:k80:1",)

    def test_multiple_properties_in_order(self, tmp_path):
        path = tmp_path / "MULTI.rte"
        path.write_text(
            "name = MULTI\n"
            "node_properties = --gres=gpu:2\n"
            "node_properties = --constraint=nvme\n"
        )
        manifest = load_rte_manifest(path)
        assert manifest.node_properties == ("--gres=gpu:2", "--constraint=nvme")

    def test_missing_name(self, tmp_path):
        path = tmp_path / "anon.rte"
        path.write_text("node_properties = --gres=gpu:1\n")
        with pytest.raises(RteManifestError):
            load_rte_manifest(path)

    def test_bad_name(self, tmp_path):
        path = tmp_path / "bad.rte"
        path.write_text("name = not ok\n")
        with pytest.raises(RteManifestError):
            load_rte_manifest(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.rte"
        path.write_text("name = X\ncolor = blue\n")
        with pytest.raises(RteManifestError):
            load_rte_manifest(path)
        path.write_text("name = X\nnode_properties --exclusive\n")  # no '='
        with pytest.raises(RteManifestError):
            load_rte_manifest(path)

    def test_unknown_key_message(self, tmp_path):
        path = tmp_path / "bad.rte"
        path.write_text("name = X\n\n  color = blue\n")
        with pytest.raises(RteManifestError) as raised:
            load_rte_manifest(path)
        assert str(raised.value) == f"{path}:3: unknown key 'color'"

    def test_empty_property(self, tmp_path):
        path = tmp_path / "bad.rte"
        for text, where in (("name = X\nnode_properties =\n", "2: empty value for 'node_properties'"),
                            ("name =\n", "1: empty value for 'name'")):
            path.write_text(text)
            with pytest.raises(RteManifestError) as raised:
                load_rte_manifest(path)
            assert str(raised.value) == f"{path}:{where}"

    def test_registry_loads_directory(self, tmp_path):
        (tmp_path / "A.rte").write_text("name = A\nnode_properties = --gres=gpu:1\n")
        (tmp_path / "B.rte").write_text("name = B\nnode_properties = --mem=1G\n")
        (tmp_path / "C.rte").write_bytes(b"\xff\xfe no key = value here\n")  # malformed, and not named
        (tmp_path / "notes.txt").write_text("ignored")
        registry = load_rte_registry(tmp_path, ["B", "A", "B"])
        assert registry == {"B": RteManifest("B", ("--mem=1G",)), "A": RteManifest("A", ("--gres=gpu:1",))}
        assert list(registry) == ["B", "A"]
        assert load_rte_registry(tmp_path, ()) == {}

    def test_registry_rejects_missing_directory(self, tmp_path):
        with pytest.raises(RteManifestError, match="RTE directory not found"):
            load_rte_registry(tmp_path / "nope", ["A"])
        with pytest.raises(RteManifestError, match="RTE directory not found"):
            load_rte_registry(tmp_path / "nope", ())

    def test_registry_rejects_a_name_other_than_the_stem(self, tmp_path):
        for stem, declared in (("a", "SAME"), ("SAME", "same"), ("b", None)):
            path = tmp_path / f"{stem}.rte"
            path.write_text("node_properties = --x=1\n" + (f"name = {declared}\n" if declared else ""))
            with pytest.raises(RteManifestError) as raised:
                load_rte_registry(tmp_path, [stem])
            assert str(raised.value) == f"{path}: manifest must declare name = {stem}"


_open_logs: list[list[str]] = []  # the path lists of the tests now recording opens


def _record_open(event: str, args: tuple) -> None:
    if event == "open" and _open_logs and isinstance(args[0], (str, bytes, os.PathLike)):
        _open_logs[-1].append(os.fsdecode(args[0]))


@functools.cache
def _install_open_hook() -> None:
    sys.addaudithook(_record_open)  # an audit hook cannot be removed, so it is added once


@pytest.fixture
def opened():
    """The paths of the files this process opens while the test runs, in order."""
    _install_open_hook()
    paths: list[str] = []
    _open_logs.append(paths)
    try:
        yield paths
    finally:
        _open_logs.remove(paths)


class TestRteLookup:
    """``arcsub`` finds each RTE its job names at ``<rte_dir>/<name>.rte`` and reads no other manifest."""

    @staticmethod
    def _arcsub(job: Path, rte_dir: Path, spool: Path) -> int:
        return main(["arcsub", str(job), "--rte-dir", str(rte_dir), "--spool-dir", str(spool)])

    def test_a_job_naming_one_rte_opens_one_manifest_of_forty(self, tmp_path, opened, capsys):
        rte_dir = tmp_path / "rtes"
        rte_dir.mkdir()
        for index in range(40):
            name = f"R{index:02d}"
            (rte_dir / f"{name}.rte").write_text(f"name = {name}\nnode_properties = --x={name}\n")
        job = tmp_path / "job.xrsl"
        job.write_text('&(executable="a")(runTimeEnvironment="R07")(runTimeEnvironment="R07")\n')
        opened.clear()  # only what the command opens
        assert self._arcsub(job, rte_dir, tmp_path / "spool") == 0
        assert [path for path in opened if path.endswith(".rte")] == [str(rte_dir / "R07.rte")]
        script = Path(capsys.readouterr().out.split()[1]).read_text()
        assert script.count("#SBATCH --x=R07\n") == 2

    @pytest.mark.parametrize(
        "name", ["../KGPU6", "a/b", "", "{tmp}/KGPU6"], ids=["parent", "slash", "empty", "absolute"]
    )
    def test_a_name_that_could_leave_the_directory_is_unknown_and_opens_nothing(self, name, tmp_path, opened, capsys):
        rte_dir = tmp_path / "rtes"
        (rte_dir / "a").mkdir(parents=True)
        # A manifest wherever a refused name would lead, had it been looked up as a path.
        for path in (tmp_path / "KGPU6.rte", rte_dir / "a" / "b.rte", rte_dir / ".rte"):
            path.write_text(f"name = {path.stem}\nnode_properties = --gres=gpu:1\n")
        name = name.format(tmp=tmp_path)
        job = tmp_path / "job.xrsl"
        job.write_text(f'&(executable="a")(runTimeEnvironment="{name}")\n')
        opened.clear()  # only what the command opens
        assert self._arcsub(job, rte_dir, tmp_path / "spool") == EXIT_INPUT
        assert capsys.readouterr().err == f"grespipe: error: unknown runtime environment: {name}\n"
        assert [path for path in opened if path.startswith(str(tmp_path))] == [str(job)]

    def test_a_malformed_manifest_the_job_does_not_name_is_not_read(self, tmp_path, capsys):
        rte_dir = tmp_path / "rtes"
        rte_dir.mkdir()
        (rte_dir / "KGPU6.rte").write_bytes((data.RTE_DIR / "KGPU6.rte").read_bytes())
        (rte_dir / "BROKEN.rte").write_bytes(b"\xff\xfe")  # not UTF-8
        (rte_dir / "OTHER.rte").write_text("name = KGPU6\n")  # another file declaring KGPU6
        assert self._arcsub(data.HELLO_XRSL, rte_dir, tmp_path / "spool") == 0
        script = Path(capsys.readouterr().out.split()[1]).read_text()
        assert "#SBATCH --gres=gpu:k80:1\n" in script


class TestApplyRtes:
    def test_single_rte(self):
        job = JobDescription("hello.sh", runtime_environments=("KGPU6",))
        registry = {"KGPU6": RteManifest("KGPU6", ("--gres=gpu:k80:1",))}
        assert apply_rtes(job, registry) == ("--gres=gpu:k80:1",)

    def test_no_rtes(self):
        assert apply_rtes(JobDescription("a"), {}) == ()

    def test_unknown_rte(self):
        job = JobDescription("a", runtime_environments=("NOPE",))
        with pytest.raises(UnknownRte) as excinfo:
            apply_rtes(job, {})
        assert excinfo.value.name == "NOPE"

    def test_application_order_and_duplicates(self):
        registry = {
            "A": RteManifest("A", ("--gres=gpu:1", "--x=1")),
            "B": RteManifest("B", ("--gres=gpu:1",)),
        }
        job = JobDescription("a", runtime_environments=("B", "A", "B"))
        assert apply_rtes(job, registry) == ("--gres=gpu:1", "--gres=gpu:1", "--x=1", "--gres=gpu:1")

    def test_concatenation_associativity(self):
        registry = {
            "A": RteManifest("A", ("--a=1",)),
            "B": RteManifest("B", ("--b=1", "--b=2")),
        }
        together = apply_rtes(JobDescription("x", runtime_environments=("A", "B")), registry)
        first = apply_rtes(JobDescription("x", runtime_environments=("A",)), registry)
        second = apply_rtes(JobDescription("x", runtime_environments=("B",)), registry)
        assert together == first + second


class TestGenerateScript:
    def test_gpu_job_script(self):
        job = parse_xrsl(data.HELLO_XRSL.read_text())
        registry = load_rte_registry(data.RTE_DIR, job.runtime_environments)
        script = generate_submit_script(job, apply_rtes(job, registry))
        assert "#SBATCH --gres=gpu:k80:1" in script.directives
        rendered = script.render()
        assert rendered.splitlines() == [
            "#!/bin/bash",
            "#SBATCH --job-name=gpu-hello",
            "#SBATCH --ntasks=1",
            "#SBATCH --output=hello.out",
            "#SBATCH --error=hello.err",
            "#SBATCH --gres=gpu:k80:1",
            "",
            "hello.sh",
        ]

    def test_minimal_job(self):
        script = generate_submit_script(JobDescription("a"))
        assert script.directives == ("#SBATCH --ntasks=1",)

    def test_property_directives_in_application_order(self):
        registry = {
            "ONE": RteManifest("ONE", ("--gres=gpu:k80:1",)),
            "TWO": RteManifest("TWO", ("--gres=hbm:4G",)),
        }
        job = JobDescription("a", runtime_environments=("TWO", "ONE"))
        script = generate_submit_script(job, apply_rtes(job, registry))
        property_lines = [d for d in script.directives if "--gres=" in d]
        assert property_lines == ["#SBATCH --gres=hbm:4G", "#SBATCH --gres=gpu:k80:1"]
        assert len(property_lines) == sum(
            len(registry[name].node_properties) for name in job.runtime_environments
        )

    def test_every_property_appears_exactly_once_before_payload(self):
        node_properties = ("--gres=gpu:2", "--x=y")
        script = generate_submit_script(JobDescription("run", ("in.dat",)), node_properties)
        rendered = script.render()
        for prop in node_properties:
            assert rendered.count(f"#SBATCH {prop}") == 1
        directive_part, _, payload_part = rendered.partition("\n\n")
        assert "run" in payload_part
        assert all(line.startswith(("#!", "#SBATCH ")) for line in directive_part.splitlines())

    def test_payload_is_shell_quoted(self):
        script = generate_submit_script(JobDescription("my app", ("a b", "plain")))
        assert script.payload == "'my app' 'a b' plain"

    def test_directive_prefix_enforced(self):
        with pytest.raises(ValueError):
            SubmitScript(("--gres=gpu:1",), "payload")

    @pytest.mark.parametrize("line_break", ["\n", "\r"])
    def test_directive_line_break_rejected(self, line_break):
        with pytest.raises(ValueError, match="directive must be a single line"):
            SubmitScript((f"#SBATCH --job-name=x{line_break}echo INJECTED #", "#SBATCH --ntasks=1"), "a")

    @pytest.mark.parametrize("field", ["job_name", "stdout_name", "stderr_name"])
    def test_line_break_in_job_field_rejected(self, field):
        job = JobDescription("a", **{field: "x\necho INJECTED #"})
        with pytest.raises(ValueError, match="directive must be a single line"):
            generate_submit_script(job)


class TestMatchTarget:
    def test_k80_request_fits(self):
        assert match_target(parse_gres_expression("gpu:k80ce:4"), KEBNEKAISE_ADVERTISED)

    def test_v100_overask_refused(self):
        assert not match_target(parse_gres_expression("gpu:v100:4"), KEBNEKAISE_ADVERTISED)

    def test_empty_request_matches_anything(self):
        assert match_target(GresList(), KEBNEKAISE_ADVERTISED)
        assert match_target(GresList(), [])

    def test_subtype_free_request(self):
        assert match_target(parse_gres_expression("gpu:8"), KEBNEKAISE_ADVERTISED)
        assert not match_target(parse_gres_expression("gpu:9"), KEBNEKAISE_ADVERTISED)

    def test_unknown_subtype_refused(self):
        # the shipped RTE asks for "k80", the cluster advertises "k80ce"
        assert not match_target(parse_gres_expression("gpu:k80:1"), KEBNEKAISE_ADVERTISED)

    def test_all_entries_must_fit_one_class(self):
        advertised = [parse_gres_expression("gpu:2"), parse_gres_expression("hbm:16G")]
        assert not match_target(parse_gres_expression("gpu:1,hbm:1G"), advertised)
        combined = [parse_gres_expression("gpu:2,hbm:16G")]
        assert match_target(parse_gres_expression("gpu:1,hbm:1G"), combined)

    def test_monotonicity_in_counts(self):
        rng = random.Random(11)
        names = ["gpu", "mps", "hbm"]
        subtypes = [None, "k80ce", "v100"]
        for _ in range(200):
            advertised = [
                GresList(
                    tuple(
                        GresEntry(rng.choice(names), rng.choice(subtypes), count, str(count))
                        for count in [rng.randint(0, 10) for _ in range(rng.randint(0, 3))]
                    )
                )
                for _ in range(3)
            ]
            raw_entries = [
                (rng.choice(names), rng.choice(subtypes), rng.randint(1, 10))
                for _ in range(rng.randint(1, 3))
            ]
            request = GresList(
                tuple(GresEntry(n, s, c, str(c)) for n, s, c in raw_entries)
            )
            if match_target(request, advertised):
                smaller = GresList(
                    tuple(
                        GresEntry(e.name, e.subtype, max(e.count - 1, 0), str(max(e.count - 1, 0)))
                        for e in request
                    )
                )
                assert match_target(smaller, advertised)

    def test_agrees_with_brute_force_oracle(self):
        rng = random.Random(5)
        names = [f"res{i}" for i in range(4)]
        subtypes = [None, "a", "b"]
        for _ in range(500):
            raw_request = [
                (rng.choice(names), rng.choice(subtypes), rng.randint(1, 6))
                for _ in range(rng.randint(0, 3))
            ]
            raw_classes = [
                [
                    (rng.choice(names), rng.choice(subtypes), rng.randint(0, 6))
                    for _ in range(rng.randint(0, 4))
                ]
                for _ in range(rng.randint(0, 4))
            ]
            request = GresList(
                tuple(GresEntry(n, s, c, str(c)) for n, s, c in raw_request)
            )
            advertised = [
                GresList(tuple(GresEntry(n, s, c, str(c)) for n, s, c in cls))
                for cls in raw_classes
            ]
            assert match_target(request, advertised) == brute_force_match(
                raw_request, raw_classes
            )


# Names that are substrings of one another ("gpu" in "gpuexcl"), a name that
# ends another ("excl"), names that also occur as subtypes ("k80" in
# "gpu:k80:2") and names that hold pattern metacharacters; subtypes that look
# like counts ("gpu:4K:1") or nearly ("gpu:4x"); suffixed counts against
# plain ones ("1K" against "1024").  They make a prefilter that reads a line
# loosely pass lines that do not satisfy the request, or skip lines that do.
_NAMES = ["gpu", "gpuexcl", "excl", "mps", "hbm", "k80", "a.b", "x+", "(y)"]
_SUBTYPES = [None, "k80", "k80ce", "gpu", "no_consume", "4x", "4K"]
_COUNTS = [None, "0", "1", "4", "1K", "4K", "1024"]
_segment = st.tuples(st.sampled_from(_NAMES), st.sampled_from(_SUBTYPES), st.sampled_from(_COUNTS)).map(
    lambda fields: ":".join(filter(None, fields))
)
# Besides well-formed segments: a stray comma (an empty segment) and a line
# break at either end of a segment.
_raw_line = st.lists(
    st.one_of(_segment, st.just(""), _segment.map("{}\n".format), _segment.map("\n{}".format)),
    min_size=1,
    max_size=4,
).map(",".join)


@st.composite
def _request_and_chunks(draw):
    """Resource lines split across records, and a request whose entries are
    often copied from those lines (with or without their subtype), so that
    both verdicts are common."""
    chunks = draw(st.lists(st.lists(_raw_line, max_size=4), max_size=3))
    seen = [
        (e.name, e.subtype, e.count)
        for lines in chunks
        for line in lines
        for e in _parsed_or_none(line) or ()
    ]
    counts = st.one_of(st.integers(0, 4), st.sampled_from([1023, 1024, 1025, 4096]))
    fresh = st.tuples(st.sampled_from(_NAMES), st.sampled_from(_SUBTYPES), counts)
    copied = st.tuples(st.sampled_from(seen or [("gpu", None, 1)]), st.booleans()).map(
        lambda pair: (pair[0][0], pair[0][1] if pair[1] else None, pair[0][2])
    )
    return draw(st.lists(st.one_of(copied, fresh), max_size=3)), chunks


def _records(chunks: list[list[str]]) -> list[ComputingServiceRecord]:
    return [
        ComputingServiceRecord("domain", f"svc{index}", ComputingManagerRecord("SLURM", tuple(lines)))
        for index, lines in enumerate(chunks)
    ]


def _parsed_or_none(line: str) -> GresList | None:
    try:
        return parse_gres_expression(line)
    except GresParseError:
        return None


class TestAdvertisedGres:
    @given(_request_and_chunks())
    @example(([("gpu", None, 1)], [["gpuexcl:no_consume:1,mps:1"]]))
    @example(([("gpu", None, 1)], [["mps:1,gpu"]]))
    @example(([("k80", None, 1)], [["gpu:k80:2"]]))
    @example(([("k80", None, 1)], [["gpu:k80,k80"]]))
    @example(([("gpu", None, 1), ("hbm", None, 1)], [["hbm:16,gpu:1"]]))
    @example(([("excl", None, 1)], [["gpuexcl:1"]]))
    @example(([("a.b", None, 1), ("x+", None, 1)], [["axb:1,xx:1"], ["a.b,x+:2"]]))
    @example(([("gpu", None, 4)], [["gpu:4x"]]))
    @example(([("gpu", "4x", 1)], [["gpu:4x"]]))
    @example(([("gpu", None, 1024)], [["gpu:1K"]]))
    @example(([("gpu", None, 1)], [["gpu:1\n"], ["gpu:1,"]]))
    # The first entry misses the first two lines by subtype and by count, and
    # fits the third, whose second entry does not fit.
    @example(([("gpu", "k80", 2), ("mps", None, 2)], [["gpu:k80ce:4,mps:2", "gpu:k80:1,mps:2", "gpu:k80:4,mps:1", "mps:2,gpu:k80:2"]]))
    @example(([], []))
    @example(([], [["gpu:1"]]))
    def test_prefilter_never_changes_the_verdict(self, request_and_chunks):
        raw_request, chunks = request_and_chunks
        names = [name for name, _subtype, _count in raw_request]
        # Unparseable lines that still name every requested resource.
        broken = [",".join(names) + ",,", ":".join(names + ["a", "b", "c"])]
        chunks = [*chunks, broken]
        request = GresList(tuple(GresEntry(n, s, c, str(c)) for n, s, c in raw_request))
        parsed = [_parsed_or_none(line) for lines in chunks for line in lines]
        raw_classes = [
            [(e.name, e.subtype, e.count) for e in gres_list]
            for gres_list in parsed
            if gres_list is not None
        ]
        verdict = match_target(request, advertised_gres(_records(chunks), request))
        assert verdict == brute_force_match(raw_request, raw_classes)
        # Every line parsed holds an entry that fits the first requested entry.
        candidates = advertised_gres(_records(chunks), request)
        assert all(brute_force_match(raw_request[:1], [[(e.name, e.subtype, e.count) for e in have]]) for have in candidates)

    def test_overlong_count_line_is_skipped(self, int_digits_limit):
        overlong = "gpu:k80:" + "9" * (int_digits_limit + 1)
        request = parse_gres_expression("gpu:k80:2")
        fits = _records([[overlong, "gpu:k80:1"], ["gpu:k80:4"]])
        assert match_target(request, advertised_gres(fits, request)) is True
        too_small = _records([[overlong, "gpu:k80:1"]])
        assert match_target(request, advertised_gres(too_small, request)) is False

    @pytest.fixture
    def kebnekaise_records(self, kebnekaise_fixture, site_config):
        record = build_computing_service(collect_cluster_info(kebnekaise_fixture), site_config)
        return parse_execution_targets(render_glue2_xml(record))

    @pytest.fixture
    def parse_calls(self, monkeypatch):
        """Every line jobsubmit hands to the GRES parser, in call order."""
        calls = []

        def counting_parse(text):
            calls.append(text)
            return parse_gres_expression(text)

        monkeypatch.setattr(jobsubmit, "parse_gres_expression", counting_parse)
        return calls

    @pytest.mark.parametrize(
        "request_text, verdict, parsed",
        [
            ("", True, []),
            ("hbm:32G", False, []),
            ("gpu:k80ce:4", True, [RESOURCE_LINES[0]]),
            ("gpu:v100:1", True, [RESOURCE_LINES[2]]),
            ("excl", False, []),
        ],
    )
    def test_parses_only_candidate_lines(self, kebnekaise_records, parse_calls, request_text, verdict, parsed):
        request = parse_gres_expression(request_text)
        assert match_target(request, advertised_gres(kebnekaise_records, request)) is verdict
        assert parse_calls == parsed


class TestSpool:
    def test_writes_script_file(self, tmp_path):
        script = generate_submit_script(JobDescription("a"))
        job_id, path = write_spool_script(script, tmp_path / "spool", now=1000)
        assert path.name == f"{job_id}.sbatch"
        assert path.read_text() == script.render()

    def test_deterministic_id_for_fixed_clock(self, tmp_path):
        script = generate_submit_script(JobDescription("a"))
        id_one, _ = write_spool_script(script, tmp_path / "one", now=1000)
        id_two, _ = write_spool_script(script, tmp_path / "two", now=1000)
        assert id_one == id_two == id_one

    def test_collision_gets_suffix(self, tmp_path):
        script = generate_submit_script(JobDescription("a"))
        first, _ = write_spool_script(script, tmp_path, now=1000)
        second, second_path = write_spool_script(script, tmp_path, now=1000)
        assert second == f"{first}-2"
        assert second_path.exists()

    def test_threads_writing_one_script_get_distinct_ids(self, tmp_path, monkeypatch):
        script = generate_submit_script(JobDescription("a"))
        # No thread links its script until all four have written theirs.
        all_written = threading.Barrier(4, timeout=5)
        linking = threading.local()
        real_link = os.link

        def link_once_all_written(*args):
            if not hasattr(linking, "waited"):
                linking.waited = True
                all_written.wait()
            real_link(*args)

        monkeypatch.setattr(os, "link", link_once_all_written)

        def submit(_):
            return write_spool_script(script, tmp_path, now=1000)[0]

        with ThreadPoolExecutor(4) as pool:
            ids = list(pool.map(submit, range(4)))
        first = min(ids, key=len)
        assert sorted(ids) == [first, f"{first}-2", f"{first}-3", f"{first}-4"]
        assert {path.name for path in tmp_path.iterdir()} == {f"{job_id}.sbatch" for job_id in ids}

    @pytest.mark.parametrize("written", [0, 1, 4096])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, capsys, written):
        script = generate_submit_script(JobDescription("a", arguments=("x" * 8192,)))
        real_open = Path.open

        def open_on_full_disk(path, *args, **kwargs):
            handle = real_open(path, *args, **kwargs)
            real_write = handle.write

            def write(text):
                real_write(text[:written])
                handle.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

            handle.write = write
            return handle

        monkeypatch.setattr(Path, "open", open_on_full_disk)
        with pytest.raises(OSError, match="No space left"):
            write_spool_script(script, tmp_path, now=1000)
        assert list(tmp_path.iterdir()) == []
        assert main(["arcsub", str(data.HELLO_XRSL), "--spool-dir", str(tmp_path)]) == EXIT_INPUT
        assert "No space left" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
