"""Tests for the fixture-driven SLURM emulation and the snapshot sources."""

import random
import time

import pytest

from grespipe import lrms
from grespipe.gres import parse_gres_expression
from grespipe.lrms import (
    SINFO_FORMAT,
    ClusterFixture,
    ClusterSnapshot,
    InvalidFixture,
    LrmsError,
    NodeClass,
    SlurmExecBackend,
    SlurmFixtureBackend,
    UnsupportedFormat,
    collect_cluster_info,
    load_fixture,
    read_gres_info,
    sinfo_query,
)

from conftest import PREFIXED_LINES, RESOURCE_LINES, SINFO_BARE_LINES, random_fixture


class TestSinfoQuery:
    def test_kebnekaise_lines(self, kebnekaise_fixture):
        assert sinfo_query(kebnekaise_fixture, SINFO_FORMAT) == PREFIXED_LINES

    def test_null_only_fixture(self):
        fixture = ClusterFixture("mini", (NodeClass("all", 1, "(null)"),))
        assert sinfo_query(fixture, SINFO_FORMAT) == ["gresinfo=(null)"]

    def test_unsupported_format(self, kebnekaise_fixture):
        with pytest.raises(UnsupportedFormat):
            sinfo_query(kebnekaise_fixture, "cpus=%c")

    def test_line_count_matches_node_classes(self, kebnekaise_fixture):
        lines = sinfo_query(kebnekaise_fixture, SINFO_FORMAT)
        assert len(lines) == len(kebnekaise_fixture.node_classes)


class TestReadGresInfo:
    def test_kebnekaise_drops_null(self, kebnekaise_fixture):
        assert read_gres_info(kebnekaise_fixture) == RESOURCE_LINES

    def test_all_null_yields_empty(self):
        fixture = ClusterFixture(
            "empty", (NodeClass("a", 2, "(null)"), NodeClass("b", 3, "(null)"))
        )
        assert read_gres_info(fixture) == []

    def test_duplicates_preserved(self):
        fixture = ClusterFixture(
            "dup",
            (
                NodeClass("a", 1, "gpu:2"),
                NodeClass("b", 1, "(null)"),
                NodeClass("c", 1, "gpu:2"),
            ),
        )
        result = read_gres_info(fixture)
        naive = [nc.gres_line for nc in fixture.node_classes if "(null)" not in nc.gres_line]
        assert result == naive == ["gpu:2", "gpu:2"]

    def test_null_filter_is_substring_match(self):
        fixture = ClusterFixture(
            "sub", (NodeClass("a", 1, "weird(null)name:1"), NodeClass("b", 1, "gpu:1"))
        )
        assert read_gres_info(fixture) == ["gpu:1"]


class TestCollect:
    def test_kebnekaise_snapshot(self, kebnekaise_fixture):
        snapshot = collect_cluster_info(kebnekaise_fixture, now=1234.9)
        assert snapshot.cluster_name == "kebnekaise"
        assert list(snapshot.gres) == RESOURCE_LINES
        assert snapshot.collected_at == 1234

    def test_empty_gres_snapshot(self):
        fixture = ClusterFixture("empty", (NodeClass("a", 1, "(null)"),))
        snapshot = collect_cluster_info(fixture)
        assert snapshot.gres == ()

    def test_malformed_gres_line_rejected(self):
        fixture = ClusterFixture("bad", (NodeClass("a", 1, "gpu:a:b:c:1"),))
        with pytest.raises(InvalidFixture):
            collect_cluster_info(fixture)

    def test_no_node_classes_rejected(self):
        with pytest.raises(InvalidFixture):
            collect_cluster_info(ClusterFixture("none", ()))

    def test_nonpositive_node_count_rejected(self):
        fixture = ClusterFixture("bad", (NodeClass("a", 0, "gpu:1"),))
        with pytest.raises(InvalidFixture):
            collect_cluster_info(fixture)

    def test_snapshot_rejects_null_entries(self):
        with pytest.raises(ValueError):
            ClusterSnapshot("x", ("(null)",), 0)
        with pytest.raises(ValueError):
            ClusterSnapshot("x", ("",), 0)


class TestLoadFixture:
    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "mini.fixture"
        path.write_text("# header\n\nmain|4|gpu:2\n  \nextra|1|(null)\n")
        fixture = load_fixture(path)
        assert fixture.cluster_name == "mini"
        assert [nc.partition for nc in fixture.node_classes] == ["main", "extra"]
        assert fixture.node_classes[0].node_count == 4

    def test_explicit_cluster_name(self, tmp_path):
        path = tmp_path / "mini.fixture"
        path.write_text("main|1|gpu:1\n")
        assert load_fixture(path, cluster_name="other").cluster_name == "other"

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidFixture):
            load_fixture(tmp_path / "nope.fixture")

    def test_bad_record_shape(self, tmp_path):
        path = tmp_path / "bad.fixture"
        path.write_text("just-one-field\n")
        with pytest.raises(InvalidFixture):
            load_fixture(path)

    def test_bad_node_count(self, tmp_path):
        path = tmp_path / "bad.fixture"
        path.write_text("main|many|gpu:1\n")
        with pytest.raises(InvalidFixture):
            load_fixture(path)

    def test_bad_gres_line(self, tmp_path):
        path = tmp_path / "bad.fixture"
        path.write_text("main|1|gpu:a:b:c:1\n")
        with pytest.raises(InvalidFixture):
            load_fixture(path)


class TestBackends:
    def test_fixture_backend(self, kebnekaise_fixture):
        snapshot = SlurmFixtureBackend(kebnekaise_fixture).collect()
        assert list(snapshot.gres) == RESOURCE_LINES

    def test_exec_backend(self, tmp_path):
        script = tmp_path / "fake_sinfo"
        script.write_text(
            "#!/bin/sh\n" + "".join(f"echo '{line}'\n" for line in PREFIXED_LINES)
        )
        script.chmod(0o755)
        backend = SlurmExecBackend("kebnekaise", sinfo_path=str(script))
        snapshot = backend.collect()
        assert snapshot.cluster_name == "kebnekaise"
        assert list(snapshot.gres) == RESOURCE_LINES

    def test_exec_backend_failure(self, tmp_path):
        script = tmp_path / "broken_sinfo"
        script.write_text("#!/bin/sh\nexit 3\n")
        script.chmod(0o755)
        with pytest.raises(LrmsError):
            SlurmExecBackend("x", sinfo_path=str(script)).collect()

    def test_exec_backend_missing_binary(self, tmp_path):
        with pytest.raises(LrmsError):
            SlurmExecBackend("x", sinfo_path=str(tmp_path / "missing")).collect()

    def test_exec_backend_hung_sinfo_times_out(self, tmp_path, monkeypatch):
        # exec, so that killing the script kills the sleep holding the pipes
        script = tmp_path / "hung_sinfo"
        script.write_text("#!/bin/sh\nexec sleep 30\n")
        script.chmod(0o755)
        monkeypatch.setattr(lrms, "SINFO_TIMEOUT_SECONDS", 0.5)
        started = time.monotonic()
        with pytest.raises(LrmsError):
            SlurmExecBackend("x", sinfo_path=str(script)).collect()
        assert time.monotonic() - started < 10


def test_random_fixtures_invariants():
    rng = random.Random(2024)
    for _ in range(200):
        fixture = random_fixture(rng)
        lines = sinfo_query(fixture, SINFO_FORMAT)
        assert len(lines) == len(fixture.node_classes)
        extracted = read_gres_info(fixture)
        expected_count = sum(
            1 for nc in fixture.node_classes if "(null)" not in nc.gres_line
        )
        assert len(extracted) == expected_count
        for value in extracted:
            assert "(null)" not in value
            parse_gres_expression(value)  # must be accepted
