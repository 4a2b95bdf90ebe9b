"""Tests for RTE manifests, script generation, matchmaking and the spool."""

import random

import pytest

from grespipe import data
from grespipe.gres import GresEntry, GresList, parse_gres_expression
from grespipe.jobsubmit import (
    JobOptions,
    RteManifest,
    RteManifestError,
    SubmitScript,
    UnknownRte,
    apply_rtes,
    generate_submit_script,
    load_rte_manifest,
    load_rte_registry,
    match_target,
    write_spool_script,
)
from grespipe.xrsl import JobDescription, parse_xrsl

from conftest import RESOURCE_LINES, brute_force_match

KEBNEKAISE_ADVERTISED = [parse_gres_expression(line) for line in RESOURCE_LINES]


class TestManifests:
    def test_shipped_kgpu6(self):
        manifest = load_rte_manifest(data.path("KGPU6.rte"))
        assert manifest.name == "KGPU6"
        assert manifest.node_properties == ("--gres=gpu:k80:1",)

    def test_multiple_properties_in_order(self, tmp_path):
        path = tmp_path / "multi.rte"
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

    def test_empty_property(self, tmp_path):
        path = tmp_path / "bad.rte"
        path.write_text("name = X\nnode_properties =\n")
        with pytest.raises(RteManifestError):
            load_rte_manifest(path)

    def test_registry_loads_directory(self, tmp_path):
        (tmp_path / "A.rte").write_text("name = A\nnode_properties = --gres=gpu:1\n")
        (tmp_path / "B.rte").write_text("name = B\nnode_properties = --mem=1G\n")
        (tmp_path / "notes.txt").write_text("ignored")
        registry = load_rte_registry(tmp_path)
        assert sorted(registry) == ["A", "B"]

    def test_registry_rejects_duplicate_names(self, tmp_path):
        (tmp_path / "a.rte").write_text("name = SAME\n")
        (tmp_path / "b.rte").write_text("name = SAME\n")
        with pytest.raises(RteManifestError):
            load_rte_registry(tmp_path)


class TestApplyRtes:
    def test_single_rte(self):
        job = JobDescription("hello.sh", runtime_environments=("KGPU6",))
        registry = {"KGPU6": RteManifest("KGPU6", ("--gres=gpu:k80:1",))}
        opts = apply_rtes(job, registry)
        assert opts.node_properties == ("--gres=gpu:k80:1",)

    def test_no_rtes(self):
        opts = apply_rtes(JobDescription("a"), {})
        assert opts.node_properties == ()

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
        opts = apply_rtes(job, registry)
        assert opts.node_properties == ("--gres=gpu:1", "--gres=gpu:1", "--x=1", "--gres=gpu:1")

    def test_concatenation_associativity(self):
        registry = {
            "A": RteManifest("A", ("--a=1",)),
            "B": RteManifest("B", ("--b=1", "--b=2")),
        }
        together = apply_rtes(
            JobDescription("x", runtime_environments=("A", "B")), registry
        ).node_properties
        first = apply_rtes(JobDescription("x", runtime_environments=("A",)), registry)
        second = apply_rtes(JobDescription("x", runtime_environments=("B",)), registry)
        assert together == first.node_properties + second.node_properties


class TestGenerateScript:
    def test_gpu_job_script(self):
        job = parse_xrsl(data.HELLO_XRSL.read_text())
        registry = load_rte_registry(data.RTE_DIR)
        script = generate_submit_script(apply_rtes(job, registry))
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
        script = generate_submit_script(JobOptions(JobDescription("a")))
        assert script.directives == ("#SBATCH --ntasks=1",)

    def test_property_directives_in_application_order(self):
        registry = {
            "ONE": RteManifest("ONE", ("--gres=gpu:k80:1",)),
            "TWO": RteManifest("TWO", ("--gres=hbm:4G",)),
        }
        job = JobDescription("a", runtime_environments=("TWO", "ONE"))
        opts = apply_rtes(job, registry)
        script = generate_submit_script(opts)
        property_lines = [d for d in script.directives if "--gres=" in d]
        assert property_lines == ["#SBATCH --gres=hbm:4G", "#SBATCH --gres=gpu:k80:1"]
        assert len(property_lines) == sum(
            len(registry[name].node_properties) for name in job.runtime_environments
        )

    def test_every_property_appears_exactly_once_before_payload(self):
        opts = JobOptions(JobDescription("run", ("in.dat",)), ("--gres=gpu:2", "--x=y"))
        script = generate_submit_script(opts)
        rendered = script.render()
        for prop in opts.node_properties:
            assert rendered.count(f"#SBATCH {prop}") == 1
        directive_part, _, payload_part = rendered.partition("\n\n")
        assert "run" in payload_part
        assert all(line.startswith(("#!", "#SBATCH ")) for line in directive_part.splitlines())

    def test_payload_is_shell_quoted(self):
        opts = JobOptions(JobDescription("my app", ("a b", "plain")))
        script = generate_submit_script(opts)
        assert script.payload == "'my app' 'a b' plain"

    def test_directive_prefix_enforced(self):
        with pytest.raises(ValueError):
            SubmitScript(("--gres=gpu:1",), "payload")


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


class TestSpool:
    def test_writes_script_file(self, tmp_path):
        script = generate_submit_script(JobOptions(JobDescription("a")))
        job_id, path = write_spool_script(script, tmp_path / "spool", now=1000)
        assert path.name == f"{job_id}.sbatch"
        assert path.read_text() == script.render()

    def test_deterministic_id_for_fixed_clock(self, tmp_path):
        script = generate_submit_script(JobOptions(JobDescription("a")))
        id_one, _ = write_spool_script(script, tmp_path / "one", now=1000)
        id_two, _ = write_spool_script(script, tmp_path / "two", now=1000)
        assert id_one == id_two == id_one

    def test_collision_gets_suffix(self, tmp_path):
        script = generate_submit_script(JobOptions(JobDescription("a")))
        first, _ = write_spool_script(script, tmp_path, now=1000)
        second, second_path = write_spool_script(script, tmp_path, now=1000)
        assert second == f"{first}-2"
        assert second_path.exists()
