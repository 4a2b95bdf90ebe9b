"""Tests for the fixture-driven SLURM emulation and the snapshot sources."""

import random
import re
import shlex
import sys
import time
from functools import partial

import pytest

from grespipe import data, lrms
from grespipe.cli import EXIT_INPUT, main
from grespipe.gres import parse_gres_expression
from grespipe.lrms import (
    SINFO_FORMAT,
    ClusterFixture,
    ClusterSnapshot,
    InvalidFixture,
    LrmsError,
    NodeClass,
    UnsupportedFormat,
    collect_cluster_info,
    collect_from_sinfo,
    load_fixture,
    read_gres_info,
    sinfo_query,
)

from conftest import PREFIXED_LINES, RESOURCE_LINES, SAMPLE_SINFO, fake_sinfo, random_fixture


@pytest.fixture
def parse_calls(monkeypatch):
    """Every line lrms hands to the GRES parser, in call order."""
    calls = []

    def counting_parse(text):
        calls.append(text)
        return parse_gres_expression(text)

    monkeypatch.setattr(lrms, "parse_gres_expression", counting_parse)
    return calls


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
        with pytest.raises(InvalidFixture):
            collect_cluster_info(ClusterFixture("bad", (NodeClass("a", 1, "gpu:a:b:c:1"),)))

    def test_no_node_classes_rejected(self):
        with pytest.raises(InvalidFixture):
            collect_cluster_info(ClusterFixture("none", ()))

    def test_nonpositive_node_count_rejected(self):
        with pytest.raises(InvalidFixture):
            collect_cluster_info(ClusterFixture("bad", (NodeClass("a", 0, "gpu:1"),)))

    def test_snapshot_rejects_null_entries(self):
        with pytest.raises(ValueError):
            ClusterSnapshot("x", ("(null)",), 0)
        with pytest.raises(ValueError):
            ClusterSnapshot("x", ("",), 0)
        valid = ("gpu:1", "hbm:16G") * 500
        for bad in ("(null)", ""):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                ClusterSnapshot("x", valid + (bad,) + valid, 0)
        with pytest.raises(ValueError, match=re.escape("'(null)'")):
            ClusterSnapshot("x", valid + ("(null)", "") + valid, 0)

    def test_valid_fixture_checked_once(self, kebnekaise_fixture, parse_calls):
        for _ in range(3):
            assert list(collect_cluster_info(kebnekaise_fixture).gres) == RESOURCE_LINES
        assert parse_calls == []

    def test_gres_extracted_once_per_fixture(self, monkeypatch):
        fixture = load_fixture(data.KEBNEKAISE_FIXTURE)
        calls = []

        def counting_query(fixture, format):
            calls.append(format)
            return sinfo_query(fixture, format)

        monkeypatch.setattr(lrms, "sinfo_query", counting_query)
        for _ in range(3):
            assert list(collect_cluster_info(fixture).gres) == RESOURCE_LINES
        assert calls == []

    def test_gres_are_the_fixture_own_strings(self, kebnekaise_fixture):
        rng = random.Random(2025)
        for fixture in [kebnekaise_fixture] + [random_fixture(rng) for _ in range(100)]:
            gres = collect_cluster_info(fixture).gres
            assert list(gres) == read_gres_info(fixture)
            lines = [node_class.gres_line for node_class in fixture.node_classes]
            assert all(any(value is line for line in lines) for value in gres)

    def test_invalid_fixture_rejected_on_every_construction(self, parse_calls):
        node_classes = (NodeClass("a", 1, "gpu:1"), NodeClass("b", 1, "gpu:"))
        for attempt in range(1, 4):
            with pytest.raises(InvalidFixture, match="bad gres line 'gpu:'"):
                ClusterFixture("bad", node_classes)
            assert parse_calls == ["gpu:"] * attempt


class TestLoadFixture:
    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "mini.fixture"
        path.write_text("# header\n\nmain|4|gpu:2\n  \nextra|1|(null)\n")
        fixture = load_fixture(path)
        assert fixture.cluster_name == "mini"
        assert [nc.partition for nc in fixture.node_classes] == ["main", "extra"]
        assert fixture.node_classes[0].node_count == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidFixture):
            load_fixture(tmp_path / "nope.fixture")

    def test_bad_record_shape(self, tmp_path):
        path = tmp_path / "bad.fixture"
        for line in ("just-one-field", "main|1", "main|1|gpu:1|x"):
            path.write_text(f"# header\n{line}\n")
            with pytest.raises(InvalidFixture) as raised:
                load_fixture(path)
            assert str(raised.value) == f"{path}:2: expected partition|node_count|gres_line", line

    def test_bad_node_count(self, tmp_path, int_digits_limit):
        path = tmp_path / "bad.fixture"
        for count in ["many", "٣", "1_0", "+3", "9" * 5000]:
            path.write_text(f"main|{count}|gpu:1\n", encoding="utf-8")
            with pytest.raises(InvalidFixture, match=f"^{re.escape(str(path))}:1: bad node count"):
                load_fixture(path)

    def test_bad_gres_line(self, tmp_path):
        path = tmp_path / "bad.fixture"
        path.write_text("main|1|gpu:a:b:c:1\n")
        with pytest.raises(InvalidFixture):
            load_fixture(path)

    @pytest.mark.parametrize(
        "line, message",
        [("|1|gpu:1", "node class with empty partition name"), ("a|1|", "partition 'a': empty gres line")],
        ids=["empty-partition", "empty-gres"],
    )
    def test_refused_line_names_its_fault(self, tmp_path, line, message):
        path = tmp_path / "bad.fixture"
        path.write_text(line + "\n")
        with pytest.raises(InvalidFixture, match=f"^{re.escape(message)}$"):
            load_fixture(path)

    def test_overlong_gres_count_names_its_partition(self, tmp_path, int_digits_limit):
        path = tmp_path / "bad.fixture"
        digits = int_digits_limit + 1
        path.write_text(f"main|1|gpu:1\nwide|2|mps:1,gpu:{'9' * digits}\n")
        expected = rf"partition 'wide': bad gres line .*segment 1: count of {digits} characters"
        with pytest.raises(InvalidFixture, match=expected):
            load_fixture(path)

    def test_gres_line_past_640_characters_is_parsed_and_loads(self, tmp_path, parse_calls):
        long_line = ",".join(["gpu:k80:4"] * 70)
        assert len(long_line) > 640
        path = tmp_path / "long.fixture"
        path.write_text(f"main|1|gpu:1\nwide|2|{long_line}\n")
        assert load_fixture(path).node_classes[1].gres_line == long_line
        assert parse_calls == [long_line]

    def test_count_past_the_lowest_digit_limit_is_refused(self, tmp_path, int_digits_limit, capsys):
        sys.set_int_max_str_digits(640)  # the lowest limit CPython accepts
        path = tmp_path / "bad.fixture"
        path.write_text(f"main|1|gpu:k80:{'9' * 641}\n")
        expected = "partition 'main': bad gres line .*segment 0: count of 641 characters in 'gpu' is too long"
        with pytest.raises(InvalidFixture, match=expected):
            load_fixture(path)
        assert main(["mock-sinfo", "--fixture", str(path)]) == EXIT_INPUT == 2
        assert "count of 641 characters in 'gpu' is too long" in capsys.readouterr().err

    def test_fields_keep_inner_text_and_lose_edge_blanks(self, tmp_path):
        path = tmp_path / "spaced.fixture"
        path.write_text("  main part \t|  4 | gpu:2,mps:1  \nextra|1|(null)\n")
        fixture = load_fixture(path)
        assert fixture.node_classes == (
            NodeClass("main part", 4, "gpu:2,mps:1"),
            NodeClass("extra", 1, "(null)"),
        )


class TestBackends:
    def test_fixture_backend(self, kebnekaise_fixture):
        snapshot = partial(collect_cluster_info, kebnekaise_fixture)()
        assert list(snapshot.gres) == RESOURCE_LINES

    def test_exec_backend(self, tmp_path):
        snapshot = collect_from_sinfo("kebnekaise", sinfo_path=fake_sinfo(tmp_path, SAMPLE_SINFO))
        assert snapshot.cluster_name == "kebnekaise"
        assert list(snapshot.gres) == RESOURCE_LINES

    def test_exec_backend_failure(self, tmp_path):
        script = fake_sinfo(tmp_path, "exit 3\n")
        with pytest.raises(LrmsError):
            collect_from_sinfo("x", sinfo_path=script)

    def test_exec_backend_line_without_prefix(self, tmp_path):
        script = fake_sinfo(tmp_path, "echo 'gresinfo=gpu:1'\necho 'gpu:k80:4'\n")
        with pytest.raises(LrmsError, match=f"^{re.escape(script)}: line does not carry 'gresinfo=': 'gpu:k80:4'$"):
            collect_from_sinfo("x", sinfo_path=script)

    def test_exec_backend_bare_null_without_prefix(self, tmp_path):
        script = fake_sinfo(tmp_path, "echo 'gresinfo=gpu:1'\necho '(null)'\n")
        with pytest.raises(LrmsError, match=rf"^{re.escape(script)}: line does not carry 'gresinfo=': '\(null\)'$"):
            collect_from_sinfo("x", sinfo_path=script)

    def test_exec_backend_skips_blank_lines(self, tmp_path):
        script = fake_sinfo(tmp_path, "echo ''\necho ' \t'\necho 'gresinfo=gpu:v100:2'\n")
        assert collect_from_sinfo("x", sinfo_path=script).gres == ("gpu:v100:2",)

    def test_both_sources_give_equal_snapshots(self, tmp_path, kebnekaise_fixture):
        rng = random.Random(2030)
        for fixture in [kebnekaise_fixture] + [random_fixture(rng) for _ in range(20)]:
            listing = " ".join(shlex.quote(line) for line in sinfo_query(fixture, SINFO_FORMAT))
            script = fake_sinfo(tmp_path, f"printf '%s\\n' {listing}\n")
            from_sinfo = collect_from_sinfo(fixture.cluster_name, sinfo_path=script)
            assert from_sinfo.gres == collect_cluster_info(fixture).gres

    @pytest.mark.parametrize(
        "value, fault",
        [
            ("gpu:a:b:c:1", "bad gres line 'gpu:a:b:c:1': segment 0: 5 fields in 'gpu:a:b:c:1'"),
            ("gpu:", "bad gres line 'gpu:': segment 0: empty field in 'gpu:'"),
            ("gpu:v100:2(S:0-1)", "bad gres line 'gpu:v100:2(S:0-1)': segment 0: "),
            ("gpu:2(S:0)", "bad gres line 'gpu:2(S:0)': segment 0: "),
            ("", "empty gres line"),
        ],
        ids=["five-fields", "empty-field", "affinity-range", "affinity-count", "empty"],
    )
    def test_both_sources_refuse_the_same_lines(self, tmp_path, value, fault):
        path = tmp_path / "bad.fixture"
        path.write_text(f"main|1|gpu:1\nbatch|2|{value}\n")
        with pytest.raises(InvalidFixture, match=f"^partition 'batch': {re.escape(fault)}") as from_fixture:
            load_fixture(path)
        script = fake_sinfo(tmp_path, f"echo 'gresinfo=gpu:1'\necho 'gresinfo={value}'\n")
        named = f"{script} 'gresinfo={value}': "
        with pytest.raises(LrmsError, match=f"^{re.escape(named + fault)}") as from_sinfo:
            collect_from_sinfo("x", sinfo_path=script)
        assert type(from_sinfo.value) is LrmsError
        assert str(from_sinfo.value).removeprefix(named) == str(from_fixture.value).removeprefix("partition 'batch': ")

    def test_exec_backend_output_not_utf8(self, tmp_path):
        script = fake_sinfo(tmp_path, "printf 'gresinfo=gpu:\\377\\n'\n")
        with pytest.raises(LrmsError, match=f"{re.escape(script)} printed output that is not UTF-8"):
            collect_from_sinfo("x", sinfo_path=script)

    def test_exec_backend_failure_with_undecodable_stderr(self, tmp_path):
        script = fake_sinfo(tmp_path, "printf 'no \\377 here\\n' >&2\nexit 3\n")
        with pytest.raises(LrmsError, match=f"{re.escape(script)} exited 3: no \ufffd here$"):
            collect_from_sinfo("x", sinfo_path=script)

    def test_exec_backend_missing_binary(self, tmp_path):
        with pytest.raises(LrmsError):
            collect_from_sinfo("x", sinfo_path=str(tmp_path / "missing"))

    def test_exec_backend_hung_sinfo_times_out(self, tmp_path, monkeypatch):
        # exec, so that killing the script kills the sleep holding the pipes
        script = fake_sinfo(tmp_path, "exec sleep 30\n")
        monkeypatch.setattr(lrms, "SINFO_TIMEOUT_SECONDS", 0.5)
        started = time.monotonic()
        with pytest.raises(LrmsError):
            collect_from_sinfo("x", sinfo_path=script)
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
