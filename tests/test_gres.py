"""Tests for the GRES expression grammar and model."""

import dataclasses
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from grespipe.gres import (
    EmptySegment,
    GresEntry,
    GresList,
    GresParseError,
    MalformedCount,
    TooManyFields,
    expand_count,
    lines_satisfying,
    parse_gres_expression,
    render_gres_expression,
    surely_parses,
    total_capacity,
)

from conftest import RESOURCE_LINES

V100_LINE = "gpu:v100:2,mps:no_consume:1,gpuexcl:no_consume:1"


class TestParse:
    def test_three_token_segments(self):
        parsed = parse_gres_expression(V100_LINE)
        assert [(e.name, e.subtype, e.count) for e in parsed] == [
            ("gpu", "v100", 2),
            ("mps", "no_consume", 1),
            ("gpuexcl", "no_consume", 1),
        ]

    def test_suffix_expansion(self):
        entry = parse_gres_expression("hbm:16G").entries[0]
        assert entry.name == "hbm"
        assert entry.subtype is None
        assert entry.count == 16 * 1024**3
        assert entry.count_suffix == "G"
        assert entry.count_literal == "16G"

    def test_zero_count(self):
        entry = parse_gres_expression("hbm:0").entries[0]
        assert entry.count == 0

    def test_empty_string_is_empty_list(self):
        assert parse_gres_expression("") == GresList()
        assert len(parse_gres_expression("")) == 0

    def test_two_token_count_form(self):
        entry = parse_gres_expression("gpu:2").entries[0]
        assert (entry.subtype, entry.count) == (None, 2)

    def test_two_token_subtype_form_defaults_count(self):
        entry = parse_gres_expression("gpu:v100").entries[0]
        assert (entry.subtype, entry.count) == ("v100", 1)

    def test_bare_name_defaults_count(self):
        entry = parse_gres_expression("gpu").entries[0]
        assert (entry.subtype, entry.count, entry.count_literal) == (None, 1, None)

    @pytest.mark.parametrize("line", ["gpu:2", "gpu"], ids=["bare-count", "no-count"])
    def test_count_without_a_unit_has_no_suffix(self, line):
        assert parse_gres_expression(line).entries[0].count_suffix is None

    def test_order_preserved(self):
        names = [e.name for e in parse_gres_expression("b:1,a:2,c:3")]
        assert names == ["b", "a", "c"]

    def test_too_many_fields(self):
        with pytest.raises(TooManyFields):
            parse_gres_expression("gpu:a:b:c:1")

    def test_malformed_count(self):
        with pytest.raises(MalformedCount):
            parse_gres_expression("gpu:v100:12Q")
        with pytest.raises(MalformedCount):
            parse_gres_expression("gpu:v100:")

    def test_empty_segment(self):
        with pytest.raises(EmptySegment):
            parse_gres_expression("gpu:1,,mps:1")
        with pytest.raises(EmptySegment):
            parse_gres_expression(",gpu:1")

    def test_empty_fields_report_as_empty_segment(self):
        for text in (":v100", "gpu:", "gpu::2"):
            with pytest.raises(EmptySegment):
                parse_gres_expression(text)

    def test_error_carries_segment_index(self):
        with pytest.raises(EmptySegment) as excinfo:
            parse_gres_expression("gpu:1,,mps:1")
        assert excinfo.value.segment_index == 1
        with pytest.raises(EmptySegment) as excinfo:
            parse_gres_expression("gpu:1,,gpu:2")
        assert str(excinfo.value) == "segment 1: empty segment"

    @pytest.mark.parametrize("form", ["gpu:{}", "gpu:k80:{}", "gpu:{}K"])
    def test_count_beyond_int_digit_limit_is_malformed(self, int_digits_limit, form):
        at_limit = parse_gres_expression(form.format("9" * int_digits_limit))
        assert at_limit.entries[0].count >= 10**int_digits_limit - 1
        overlong = "9" * (int_digits_limit + 1)
        with pytest.raises(MalformedCount, match="too long") as excinfo:
            parse_gres_expression("mps:1," + form.format(overlong))
        assert excinfo.value.segment_index == 1


class TestRender:
    def test_gpu_node_line_round_trip(self):
        line = "gpu:k80ce:4,mps:no_consume:1,gpuexcl:no_consume:1"
        assert render_gres_expression(parse_gres_expression(line)) == line

    def test_all_fixture_lines_round_trip(self):
        for line in RESOURCE_LINES:
            assert render_gres_expression(parse_gres_expression(line)) == line

    def test_empty_list(self):
        assert render_gres_expression(GresList()) == ""

    def test_constructed_entries(self):
        entries = (
            GresEntry("gpu", "k80ce", 4, "4"),
            GresEntry("mps", "no_consume", 1, "1"),
        )
        assert render_gres_expression(GresList(entries)) == "gpu:k80ce:4,mps:no_consume:1"

    def test_short_forms_stay_short(self):
        assert render_gres_expression(parse_gres_expression("gpu")) == "gpu"
        assert render_gres_expression(parse_gres_expression("gpu:1")) == "gpu:1"


class TestEntryInvariants:
    def test_rejects_separator_in_name(self):
        with pytest.raises(ValueError):
            GresEntry("gpu,mps")
        with pytest.raises(ValueError):
            GresEntry("gpu:x")

    def test_rejects_empty_name_and_subtype(self):
        with pytest.raises(ValueError):
            GresEntry("")
        with pytest.raises(ValueError):
            GresEntry("gpu", "")

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            GresEntry("gpu", None, -1, "1")

    def test_rejects_literal_count_mismatch(self):
        with pytest.raises(ValueError):
            GresEntry("gpu", None, 5, "4")
        # A subtype that reads as a count literal would render as a count.
        for subtype in ["4", "16G"]:
            with pytest.raises(ValueError):
                GresEntry("gpu", subtype)

    def test_rejects_nondefault_count_without_literal(self):
        with pytest.raises(ValueError):
            GresEntry("gpu", None, 5, None)

    def test_expand_count(self):
        assert expand_count("1") == 1
        assert expand_count("1K") == 1024
        assert expand_count("16G") == 17179869184
        # int() reads each of these as 4, but none is ASCII digits with an optional unit.
        for literal in ["x", "+4", " 4", "4_0", "\u0664"]:
            with pytest.raises(ValueError, match="not a count literal"):
                expand_count(literal)


class TestTotalCapacity:
    def test_fixture_gpu_total(self):
        lists = [parse_gres_expression(line) for line in RESOURCE_LINES]
        # 4 + 8 + 2 over the three GPU node classes
        assert total_capacity(lists, "gpu") == 14

    def test_subtype_filter(self):
        lists = [parse_gres_expression(line) for line in RESOURCE_LINES]
        assert total_capacity(lists, "gpu", "v100") == 2
        assert total_capacity(lists, "gpu", "k80ce") == 12

    def test_unmatched_name_is_zero(self):
        lists = [parse_gres_expression(line) for line in RESOURCE_LINES]
        assert total_capacity(lists, "nonexistent") == 0
        assert total_capacity([], "gpu") == 0


# --- property tests ---------------------------------------------------------

_token = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-.", min_size=1, max_size=8)
_count_literal = st.builds(
    lambda n, suffix: f"{n}{suffix}",
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["", "K", "M", "G", "T", "P"]),
)
_segment = st.one_of(
    _token,
    st.builds(lambda n, s: f"{n}:{s}", _token, _token),
    st.builds(lambda n, c: f"{n}:{c}", _token, _count_literal),
    st.builds(lambda n, s, c: f"{n}:{s}:{c}", _token, _token, _count_literal),
)
_expression = st.lists(_segment, min_size=1, max_size=5).map(",".join)


@given(_expression)
def test_render_parse_is_identity(text):
    assert render_gres_expression(parse_gres_expression(text)) == text


@given(_expression)
def test_reparse_is_stable(text):
    parsed = parse_gres_expression(text)
    assert parse_gres_expression(render_gres_expression(parsed)) == parsed


@given(st.integers(min_value=0, max_value=10**9), st.sampled_from(["", "K", "M", "G", "T", "P"]))
def test_suffix_arithmetic(number, suffix):
    rank = {"": 0, "K": 1, "M": 2, "G": 3, "T": 4, "P": 5}[suffix]
    entry = parse_gres_expression(f"res:{number}{suffix}").entries[0]
    assert entry.count == number * 1024**rank


def _assert_parsed_like_constructed(parsed: GresList) -> None:
    for entry in parsed:
        rebuilt = GresEntry(entry.name, entry.subtype, entry.count, entry.count_literal)
        assert rebuilt == entry
        assert hash(rebuilt) == hash(entry)
        assert repr(rebuilt) == repr(entry)
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.count = entry.count + 1
    rebuilt_list = GresList(tuple(parsed.entries))
    assert rebuilt_list == parsed
    assert hash(rebuilt_list) == hash(parsed)
    assert repr(rebuilt_list) == repr(parsed)
    with pytest.raises(dataclasses.FrozenInstanceError):
        parsed.entries = ()


@given(_expression)
def test_parsed_entries_pass_the_public_constructors(text):
    """The parser builds entries without re-running their checks; every
    entry it makes must still be one the checked constructors accept."""
    _assert_parsed_like_constructed(parse_gres_expression(text))


@given(st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=127), max_size=64))
def test_parsed_ascii_passes_the_public_constructors(text):
    try:
        parsed = parse_gres_expression(text)
    except GresParseError:
        return
    _assert_parsed_like_constructed(parsed)


@given(st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=127), max_size=256))
def test_parse_is_total_over_ascii(text):
    try:
        result = parse_gres_expression(text)
    except GresParseError:
        return
    assert isinstance(result, GresList)


# Pieces that reach every branch of the grammar: separators, count digits and
# suffixes, letters, the null marker, blanks, well-formed expressions and
# digit runs on either side of the 640-character bound of ``surely_parses``.
_gres_piece = st.one_of(
    st.sampled_from([",", ":", "K", "M", "G", "T", "P", "a", "b", "x", "(null)", " ", "\t", "\n"]),
    st.text(alphabet="0123456789", min_size=1, max_size=3),
    st.integers(min_value=1, max_value=700).map("9".__mul__),
    _expression,
)
_gres_like = st.lists(_gres_piece, max_size=16).map("".join)
_at_the_bound = "gpu:k80:" + "9" * 632  # 640 characters, the longest line accepted unparsed
_past_the_bound = "gpu:k80:" + "9" * 633


def _parser_accepts(text: str) -> bool:
    try:
        parse_gres_expression(text)
    except GresParseError:
        return False
    return True


@pytest.fixture(params=["default", "lowest"])
def digit_limit(request, int_digits_limit):
    """The interpreter's int digit limit for one test: CPython's default, then
    640, the lowest it accepts."""
    if request.param == "lowest":
        sys.set_int_max_str_digits(640)
    return sys.get_int_max_str_digits()


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_gres_like)
@example(_at_the_bound)
@example(_past_the_bound)
@example("gpu:k80:" + "9" * 641)
def test_surely_parses_only_what_the_parser_accepts(digit_limit, text):
    if surely_parses(text):
        assert _parser_accepts(text)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_gres_like.filter(lambda text: 0 < len(text) <= 640))
@example(_at_the_bound)
@example("gpu:k80:" + "9" * 630 + "P")
@example("gpu:1,,mps:1")
@example("gpu:1,")
@example("gpu::2")
@example("gpu:k80:4:1")
@example("gpu:k80:4x")
def test_surely_parses_what_the_parser_accepts_up_to_640_characters(digit_limit, text):
    assert surely_parses(text) == _parser_accepts(text)


def test_surely_parses_leaves_longer_lines_to_the_parser():
    assert surely_parses(_at_the_bound)
    assert not surely_parses(_past_the_bound)
    assert _parser_accepts(_past_the_bound)
    assert not surely_parses("")


@pytest.mark.parametrize(
    "want, lines, yielded",
    [
        ("gpu", ["gpu:1", "a", "b", "c", "mps:1,gpu", "d"], ["gpu:1", "mps:1,gpu"]),
        ("excl", ["gpuexcl:1", "excl"], ["excl"]),
        ("k80", ["gpu:k80:2", "k80:2"], ["k80:2"]),
        ("a.b", ["axb:1", "a.b"], ["a.b"]),
        ("x+", ["xx:1", "x+:2"], ["x+:2"]),
        ("gpu:4", ["gpu:4", "gpu:4K", "gpu:4x", "gpu:3"], ["gpu:4", "gpu:4K"]),
        ("gpu:4x", ["gpu:4", "gpu:4x"], ["gpu:4x"]),
        ("gpu:k80", ["gpu:k80:4x", "gpu:k80:{overlong}", "gpu:k80:4:1", "gpu::4", "gpu:k80:4"], ["gpu:k80:4"]),
        ("gpu:k80:2", ["gpu:k80ce:4", "gpu:k80:1", "gpu:k80:2"], ["gpu:k80:2"]),
        ("gpu", ["gpu:1,gpu:2", "gpu:1", "gpu:1"], ["gpu:1,gpu:2", "gpu:1", "gpu:1"]),
        ("gpu:2", ["gpu\n", "gpu:2\n", "gpu:2"], ["gpu:2"]),
        ("gpu", [], []),
        ("gpu:2", ["gpu", "gpu:3"], ["gpu:3"]),
        ("gpu:v100:1", ["gpu:v100:+4", "gpu:v100: 4", "gpu:v100:4_0"], []),
    ],
)
def test_lines_satisfying(int_digits_limit, want, lines, yielded):
    lines = tuple(line.format(overlong="9" * (int_digits_limit + 1)) for line in lines)
    assert list(lines_satisfying(parse_gres_expression(want).entries[0], lines)) == yielded


@given(st.lists(_expression, max_size=4), st.lists(_expression, max_size=4), _token)
def test_total_capacity_is_linear(first, second, name):
    lists_a = [parse_gres_expression(t) for t in first]
    lists_b = [parse_gres_expression(t) for t in second]
    combined = total_capacity(lists_a + lists_b, name)
    assert combined == total_capacity(lists_a, name) + total_capacity(lists_b, name)
