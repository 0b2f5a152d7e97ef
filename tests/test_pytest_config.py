"""The repository's pytest configuration, exercised on a probe test file."""

pytest_plugins = ["pytester"]

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
"""


def test_failing_hypothesis_test_is_reported_and_the_session_goes_on(pytester, pytestconfig):
    """A failing @given test is one failure, not an INTERNALERROR that ends the run.

    The probe runs under this repository's warning filters, which turn
    warnings into errors.
    """
    lines = "".join(f"    {entry!r},\n" for entry in pytestconfig.getini("filterwarnings"))
    pytester.makepyprojecttoml(f"[tool.pytest.ini_options]\nfilterwarnings = [\n{lines}]\n")
    pytester.makepyfile(test_probe=PROBE)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
