"""Tests for the command-line drivers and their exit-code contract."""

import dataclasses
import os
import signal
import socket
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

import grespipe
from grespipe import data
from grespipe.cli import EXIT_ENV, EXIT_INPUT, EXIT_OK, EXIT_REFUSED, main
from grespipe.infoprovider import SiteConfig, build_computing_service, render_glue2_xml, serve_info
from grespipe.lrms import SlurmFixtureBackend, collect_cluster_info, load_fixture

from conftest import PREFIXED_LINES, RESOURCE_LINES, SINFO_BARE_LINES

# Byte-exact outputs of the shipped samples, shared with the benchmark.
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


class TestMockSinfo:
    def test_bare_emits_listing(self, capsys):
        assert main(["mock-sinfo", "--bare"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == SINFO_BARE_LINES

    def test_prefixed_by_default(self, capsys):
        assert main(["mock-sinfo"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == PREFIXED_LINES

    def test_missing_fixture(self, tmp_path, capsys):
        rc = main(["mock-sinfo", "--fixture", str(tmp_path / "nope.fixture")])
        assert rc == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_env_override(self, tmp_path, capsys, monkeypatch):
        fixture = tmp_path / "tiny.fixture"
        fixture.write_text("main|1|gpu:7\n")
        monkeypatch.setenv("GRESPIPE_FIXTURE", str(fixture))
        assert main(["mock-sinfo", "--bare"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["gpu:7"]

    def test_config_file(self, tmp_path, capsys):
        fixture = tmp_path / "tiny.fixture"
        fixture.write_text("main|1|gpu:9\n")
        config = tmp_path / "cli.conf"
        config.write_text(f"fixture = {fixture}\n")
        assert main(["mock-sinfo", "--bare", "--config", str(config)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["gpu:9"]

    @pytest.mark.parametrize(
        "content",
        [None, "fixture /no/equals/sign\n", "colour = blue\n"],
        ids=["missing", "no-equals", "unknown-key"],
    )
    def test_bad_config_file(self, tmp_path, capsys, content):
        config = tmp_path / "cli.conf"
        if content is not None:
            config.write_text(content)
        assert main(["mock-sinfo", "--config", str(config)]) == EXIT_INPUT
        assert str(config) in capsys.readouterr().err

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        flagged = tmp_path / "flag.fixture"
        flagged.write_text("main|1|gpu:1\n")
        other = tmp_path / "env.fixture"
        other.write_text("main|1|gpu:2\n")
        monkeypatch.setenv("GRESPIPE_FIXTURE", str(other))
        assert main(["mock-sinfo", "--bare", "--fixture", str(flagged)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["gpu:1"]


class TestInfoprovider:
    def test_prints_rendered_document(self, capsys, kebnekaise_fixture, site_config):
        assert main(["infoprovider"]) == EXIT_OK
        out = capsys.readouterr().out
        snapshot = collect_cluster_info(kebnekaise_fixture, now=0)
        assert out == render_glue2_xml(build_computing_service(snapshot, site_config))

    def test_bad_site_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        bad.write_text("admin_domain = x\n")  # service_id and manager_name missing
        rc = main(["infoprovider", "--site-config", str(bad)])
        assert rc == EXIT_INPUT

    def test_bad_fixture(self, tmp_path):
        bad = tmp_path / "bad.fixture"
        bad.write_text("main|1|gpu:a:b:c:1\n")
        assert main(["infoprovider", "--fixture", str(bad)]) == EXIT_INPUT

    def test_serve_on_occupied_port_is_env_error(self, capsys):
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            rc = main(["infoprovider", "--serve", "--bind", f"127.0.0.1:{port}"])
            assert rc == EXIT_ENV
        finally:
            blocker.close()

    def test_serve_shuts_down_cleanly_on_sigint(self):
        # The child imports the same grespipe as this suite, installed or not.
        src = str(Path(grespipe.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "grespipe", "infoprovider", "--serve", "--bind", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("serving on http://")
            url = line.removeprefix("serving on ")
            with urllib.request.urlopen(url + "/healthz", timeout=5) as response:
                assert response.read() == b"ok"
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) == EXIT_OK
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestArcinfo:
    def test_reads_local_file(self, tmp_path, capsys, kebnekaise_fixture, site_config):
        snapshot = collect_cluster_info(kebnekaise_fixture, now=0)
        document = render_glue2_xml(build_computing_service(snapshot, site_config))
        path = tmp_path / "info.xml"
        path.write_text(document)
        assert main(["arcinfo", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "General resources:" in out
        for line in RESOURCE_LINES:
            assert f"      {line}" in out

    def test_empty_resources_no_block(self, tmp_path, capsys):
        path = tmp_path / "info.xml"
        path.write_text(
            "<InfoRoot><ComputingService><ComputingManager><GeneralResources/>"
            "</ComputingManager></ComputingService></InfoRoot>"
        )
        assert main(["arcinfo", str(path)]) == EXIT_OK
        assert "General resources:" not in capsys.readouterr().out

    def test_no_services_is_refusal(self, tmp_path):
        path = tmp_path / "info.xml"
        path.write_text("<InfoRoot/>")
        assert main(["arcinfo", str(path)]) == EXIT_REFUSED

    def test_malformed_xml_is_input_error(self, tmp_path):
        path = tmp_path / "info.xml"
        path.write_text("<InfoRoot><oops>")
        assert main(["arcinfo", str(path)]) == EXIT_INPUT

    def test_unreachable_url(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["arcinfo", f"http://127.0.0.1:{port}/info"]) == EXIT_INPUT

    def test_missing_file(self, tmp_path):
        assert main(["arcinfo", str(tmp_path / "nope.xml")]) == EXIT_INPUT

    def test_endpoint_setting_supplies_default_target(
        self, capsys, monkeypatch, kebnekaise_fixture, site_config
    ):
        config = dataclasses.replace(site_config, bind="127.0.0.1:0")
        with serve_info(SlurmFixtureBackend(kebnekaise_fixture), config) as server:
            monkeypatch.setenv("GRESPIPE_ENDPOINT", server.url.removeprefix("http://"))
            assert main(["arcinfo"]) == EXIT_OK
        assert "General resources:" in capsys.readouterr().out


class TestArcsub:
    def test_spools_gpu_script(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GRESPIPE_NOW", "1754700000")
        spool = tmp_path / "spool"
        rc = main(["arcsub", str(data.HELLO_XRSL), "--spool-dir", str(spool)])
        assert rc == EXIT_OK
        job_id, script_path = capsys.readouterr().out.split()
        assert job_id.startswith("1754700000-")
        content = (spool / f"{job_id}.sbatch").read_text()
        assert "#SBATCH --gres=gpu:k80:1" in content
        assert script_path.endswith(f"{job_id}.sbatch")

    def test_unknown_rte(self, tmp_path, capsys):
        xrsl = tmp_path / "job.xrsl"
        xrsl.write_text('&(executable="a")(runTimeEnvironment="NOPE")')
        rc = main(["arcsub", str(xrsl), "--spool-dir", str(tmp_path / "spool")])
        assert rc == EXIT_INPUT
        assert "NOPE" in capsys.readouterr().err

    def test_syntax_error(self, tmp_path):
        xrsl = tmp_path / "job.xrsl"
        xrsl.write_text('&(executable="a"')
        assert main(["arcsub", str(xrsl)]) == EXIT_INPUT

    def test_unknown_attribute_warns_on_stderr(self, tmp_path, capsys):
        xrsl = tmp_path / "job.xrsl"
        xrsl.write_text('&(executable="a")(memory="1G")')
        rc = main(["arcsub", str(xrsl), "--spool-dir", str(tmp_path / "spool")])
        assert rc == EXIT_OK
        assert "memory" in capsys.readouterr().err

    def test_missing_xrsl_file(self, tmp_path):
        assert main(["arcsub", str(tmp_path / "nope.xrsl")]) == EXIT_INPUT


class TestMatchmakingFlow:
    @pytest.fixture
    def served(self, kebnekaise_fixture, site_config):
        config = dataclasses.replace(site_config, bind="127.0.0.1:0")
        with serve_info(SlurmFixtureBackend(kebnekaise_fixture), config) as server:
            yield server.url + "/info"

    def test_match_refuses_oversized_request(self, served, tmp_path, capsys):
        rte_dir = tmp_path / "rtes"
        rte_dir.mkdir()
        (rte_dir / "BIGV100.rte").write_text(
            "name = BIGV100\nnode_properties = --gres=gpu:v100:4\n"
        )
        xrsl = tmp_path / "job.xrsl"
        xrsl.write_text('&(executable="a")(runTimeEnvironment="BIGV100")')
        rc = main(
            [
                "arcsub",
                str(xrsl),
                "--rte-dir",
                str(rte_dir),
                "--spool-dir",
                str(tmp_path / "spool"),
                "--match",
                served,
            ]
        )
        assert rc == EXIT_REFUSED
        assert not (tmp_path / "spool").exists()

    def test_match_accepts_satisfiable_request(self, served, tmp_path, capsys):
        rte_dir = tmp_path / "rtes"
        rte_dir.mkdir()
        (rte_dir / "K80CE.rte").write_text(
            "name = K80CE\nnode_properties = --gres=gpu:k80ce:4\n"
        )
        xrsl = tmp_path / "job.xrsl"
        xrsl.write_text('&(executable="a")(runTimeEnvironment="K80CE")')
        rc = main(
            [
                "arcsub",
                str(xrsl),
                "--rte-dir",
                str(rte_dir),
                "--spool-dir",
                str(tmp_path / "spool"),
                "--match",
                served,
            ]
        )
        assert rc == EXIT_OK
        assert list((tmp_path / "spool").glob("*.sbatch"))

    def test_shipped_kgpu6_subtype_mismatch_refused(self, served, tmp_path):
        # the sample RTE requests "k80" while the cluster advertises "k80ce"
        rc = main(
            [
                "arcsub",
                str(data.HELLO_XRSL),
                "--spool-dir",
                str(tmp_path / "spool"),
                "--match",
                served,
            ]
        )
        assert rc == EXIT_REFUSED

    def test_no_gres_request_always_matches(self, served, tmp_path):
        rte_dir = tmp_path / "rtes"
        rte_dir.mkdir()
        xrsl = tmp_path / "job.xrsl"
        xrsl.write_text('&(executable="a")')
        rc = main(
            [
                "arcsub",
                str(xrsl),
                "--rte-dir",
                str(rte_dir),
                "--spool-dir",
                str(tmp_path / "spool"),
                "--match",
                served,
            ]
        )
        assert rc == EXIT_OK


def test_full_walkthrough(tmp_path, capsys, kebnekaise_fixture, site_config):
    """Listing, serving, client report and submission against one another."""
    assert main(["mock-sinfo", "--bare"]) == EXIT_OK
    listing = capsys.readouterr().out.splitlines()
    assert listing == SINFO_BARE_LINES

    config = dataclasses.replace(site_config, bind="127.0.0.1:0")
    with serve_info(SlurmFixtureBackend(kebnekaise_fixture), config) as server:
        url = server.url + "/info"

        assert main(["arcinfo", url]) == EXIT_OK
        report = capsys.readouterr().out
        header_at = report.index("General resources:")
        for line in RESOURCE_LINES:
            assert report.index(f"      {line}") > header_at

        rte_dir = tmp_path / "rtes"
        rte_dir.mkdir()
        (rte_dir / "VGPU.rte").write_text("name = VGPU\nnode_properties = --gres=gpu:v100:2\n")
        xrsl = tmp_path / "job.xrsl"
        xrsl.write_text('&(executable="train.sh")(runTimeEnvironment="VGPU")')
        rc = main(
            [
                "arcsub",
                str(xrsl),
                "--rte-dir",
                str(rte_dir),
                "--spool-dir",
                str(tmp_path / "spool"),
                "--match",
                url,
            ]
        )
        assert rc == EXIT_OK
        job_id, _ = capsys.readouterr().out.split()
        script = (tmp_path / "spool" / f"{job_id}.sbatch").read_text()
        assert "#SBATCH --gres=gpu:v100:2" in script


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["mock-sinfo", "--bare"], "mock-sinfo-bare.out"),
        (["infoprovider"], "infoprovider.out"),
        (["arcinfo", str(GOLDEN / "infoprovider.out")], "arcinfo.out"),
    ],
)
def test_sample_outputs_match_goldens(argv, golden, capsys):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / golden).read_bytes()


def test_arcsub_sample_matches_goldens(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GRESPIPE_NOW", "1754700000")
    spool = tmp_path / "spool"
    assert main(["arcsub", str(data.HELLO_XRSL), "--spool-dir", str(spool)]) == EXIT_OK
    expected = (GOLDEN / "arcsub.out").read_bytes().replace(b"{spool}", str(spool).encode("utf-8"))
    assert capsys.readouterr().out.encode("utf-8") == expected
    [script] = spool.glob("*.sbatch")
    assert script.read_bytes() == (GOLDEN / "arcsub.sbatch").read_bytes()
