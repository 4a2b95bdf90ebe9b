"""Tests for the minimal XRSL parser."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from grespipe.xrsl import (
    JobDescription,
    MissingExecutable,
    UnknownAttributeWarning,
    XrslSyntaxError,
    parse_xrsl,
)


def render_xrsl(job: JobDescription) -> str:
    """Test-only pretty-printer emitting the conjunction form."""
    clauses = [f'(executable="{job.executable}")']
    if job.arguments:
        values = " ".join(f'"{value}"' for value in job.arguments)
        clauses.append(f"(arguments={values})")
    if job.job_name is not None:
        clauses.append(f'(jobName="{job.job_name}")')
    if job.count != 1:
        clauses.append(f"(count={job.count})")
    if job.stdout_name is not None:
        clauses.append(f'(stdout="{job.stdout_name}")')
    if job.stderr_name is not None:
        clauses.append(f'(stderr="{job.stderr_name}")')
    clauses.extend(f'(runTimeEnvironment="{name}")' for name in job.runtime_environments)
    return "&" + "".join(clauses)


class TestParse:
    def test_gpu_job_description(self):
        job = parse_xrsl('&(executable="hello.sh")(jobName="gpu-hello")(runTimeEnvironment="KGPU6")')
        assert job.executable == "hello.sh"
        assert job.job_name == "gpu-hello"
        assert job.runtime_environments == ("KGPU6",)

    def test_defaults(self):
        job = parse_xrsl('&(executable="a")')
        assert job == JobDescription("a")
        assert job.count == 1
        assert job.arguments == ()
        assert job.runtime_environments == ()
        assert job.stdout_name is None and job.stderr_name is None

    def test_bare_word_values(self):
        job = parse_xrsl("&(executable=run.sh)(count=4)")
        assert job.executable == "run.sh"
        assert job.count == 4

    def test_arguments_accumulate(self):
        job = parse_xrsl('&(executable="a")(arguments="x" "y")(arguments="z")')
        assert job.arguments == ("x", "y", "z")

    def test_repeated_rtes_accumulate_in_order(self):
        job = parse_xrsl(
            '&(executable="a")(runTimeEnvironment="ENV2")(runTimeEnvironment="ENV1")'
        )
        assert job.runtime_environments == ("ENV2", "ENV1")

    def test_stdout_stderr(self):
        job = parse_xrsl('&(executable="a")(stdout="out.txt")(stderr="err.txt")')
        assert job.stdout_name == "out.txt"
        assert job.stderr_name == "err.txt"

    def test_attribute_names_case_insensitive(self):
        job = parse_xrsl('&(EXECUTABLE="a")(JobName="j")(runtimeenvironment="R")')
        assert (job.executable, job.job_name, job.runtime_environments) == ("a", "j", ("R",))

    def test_comments_skipped(self):
        job = parse_xrsl('(* top *) &(executable="a") (* between *) (jobName="x")')
        assert job.job_name == "x"

    def test_whitespace_and_newlines(self):
        job = parse_xrsl('&(executable="a")\n (jobName="x")\n\t(count=2)\n')
        assert (job.job_name, job.count) == ("x", 2)

    def test_unknown_attribute_warns(self):
        with pytest.warns(UnknownAttributeWarning):
            job = parse_xrsl('&(executable="a")(memory="2000")')
        assert job.executable == "a"


# Malformed input -> exact message and offset, one or more per raise site.
XRSL_ERRORS = [
    ("", "expected '&' at offset 0", 0),
    ("  (executable=a)", "expected '&' at offset 2", 2),
    ("&x", "expected '(' at offset 1", 1),
    ("&(executable=a)x", "expected '(' at offset 15", 15),
    ("&(=a)", "expected attribute name at offset 2", 2),
    ("&(1x=a)", "expected attribute name at offset 2", 2),
    ('&(executable "a")', "expected '=' at offset 13", 13),
    ('&(executable="a"', "unbalanced parentheses at offset 1", 1),
    ("&(executable=a", "unbalanced parentheses at offset 1", 1),
    ("&(executable=(a))", "unexpected '(' at offset 13", 13),
    ('&(executable="a)', "unterminated string at offset 13", 13),
    ("&(executable==a)", "expected a value at offset 13", 13),
    ("(* note &(executable=a)", "unterminated comment at offset 0", 0),
    ("& (* note (executable=a)", "unterminated comment at offset 2", 2),
    ("&(*)(executable=a)", "unterminated comment at offset 1", 1),
    ("&(executable=a (* note)", "unterminated comment at offset 15", 15),
    ("&(executable=a)(* trailing", "unterminated comment at offset 15", 15),
    ('&(executable="a" "b")', "attribute 'executable' takes exactly one value at offset 1", 1),
    ("&(executable=)", "attribute 'executable' takes exactly one value at offset 1", 1),
    (
        '\u3000&\u3000(\u3000executable\u3000=\u3000"a"\u3000"b")',
        "attribute 'executable' takes exactly one value at offset 3",
        3,
    ),
    (
        '&(executable=a\x0bb (* c *) "x(*y*)")',
        "attribute 'executable' takes exactly one value at offset 1",
        1,
    ),
    ('&(executable="a")(arguments=)', "attribute 'arguments' takes values at offset 17", 17),
    ('&(executable="a")(count=1 2)', "attribute 'count' takes exactly one value at offset 17", 17),
    ('&(executable="a")(count=0)', "count must be a positive integer, got '0' at offset 17", 17),
    ('&(executable="a")(count=zero)', "count must be a positive integer, got 'zero' at offset 17", 17),
    ('&(executable="a")(count="\u0663")', "count must be a positive integer, got '\u0663' at offset 17", 17),
]


class TestErrors:
    def test_missing_executable(self):
        with pytest.raises(MissingExecutable):
            parse_xrsl('&(jobName="x")')

    def test_empty_executable(self):
        with pytest.raises(MissingExecutable):
            parse_xrsl('&(executable="")')

    def test_missing_ampersand(self):
        with pytest.raises(XrslSyntaxError):
            parse_xrsl('(executable="a")')

    def test_unbalanced_parentheses(self):
        with pytest.raises(XrslSyntaxError) as excinfo:
            parse_xrsl('&(executable="a"')
        assert excinfo.value.position == 1

    def test_missing_equals(self):
        with pytest.raises(XrslSyntaxError):
            parse_xrsl("&(executable)")

    def test_unterminated_string(self):
        with pytest.raises(XrslSyntaxError):
            parse_xrsl('&(executable="a)')

    def test_unterminated_comment(self):
        with pytest.raises(XrslSyntaxError):
            parse_xrsl('&(executable="a") (* dangling')

    def test_trailing_junk(self):
        with pytest.raises(XrslSyntaxError):
            parse_xrsl('&(executable="a") junk')

    def test_nested_parenthesis_in_values(self):
        with pytest.raises(XrslSyntaxError):
            parse_xrsl("&(executable=(nested))")

    def test_bad_count(self, int_digits_limit):
        with pytest.raises(XrslSyntaxError):
            parse_xrsl('&(executable="a")(count=zero)')
        with pytest.raises(XrslSyntaxError):
            parse_xrsl('&(executable="a")(count=0)')
        # "٣" (Arabic-Indic three) and "²" pass str.isdigit; only ASCII digits count.
        # Nor do more digits than int() converts (the limit is pinned to 4300).
        for value in ("٣", '"²"', "9" * 5000):
            with pytest.raises(XrslSyntaxError) as excinfo:
                parse_xrsl(f'&(executable="a")(count={value})')
            assert excinfo.value.position == len('&(executable="a")')

    def test_single_value_attributes_reject_lists(self):
        with pytest.raises(XrslSyntaxError):
            parse_xrsl('&(executable="a" "b")')

    def test_position_is_reported(self):
        with pytest.raises(XrslSyntaxError) as excinfo:
            parse_xrsl("&(=x)")
        assert "offset" in str(excinfo.value)
        assert excinfo.value.position == 2

    @pytest.mark.parametrize(("text", "message", "position"), XRSL_ERRORS)
    def test_error_table(self, text, message, position):
        with pytest.raises(XrslSyntaxError) as excinfo:
            parse_xrsl(text)
        assert (str(excinfo.value), excinfo.value.position) == (message, position)


_value = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters='"'),
    max_size=20,
)
_nonempty_value = _value.filter(lambda s: len(s) > 0)


@st.composite
def job_descriptions(draw):
    return JobDescription(
        executable=draw(_nonempty_value),
        arguments=tuple(draw(st.lists(_value, max_size=4))),
        job_name=draw(st.none() | _value),
        count=draw(st.integers(min_value=1, max_value=999)),
        runtime_environments=tuple(draw(st.lists(_value, max_size=3))),
        stdout_name=draw(st.none() | _value),
        stderr_name=draw(st.none() | _value),
    )


@given(job_descriptions())
@example(JobDescription("(*"))
@example(JobDescription("a(*b*)c"))
def test_parse_render_round_trip(job):
    assert parse_xrsl(render_xrsl(job)) == job
