"""The test settings themselves: a failing test ends only itself."""

import tomllib
from pathlib import Path

pytest_plugins = ["pytester"]

_SETTINGS = tomllib.loads(
    (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
)["tool"]["pytest"]["ini_options"]


def test_a_failing_property_test_does_not_end_the_session(pytester):
    # under the project's warning filters, the hypothesis plugin's report
    # of a failing @given test must not turn into an INTERNALERROR that
    # stops every later test
    filters = ", ".join(f"'{f}'" for f in _SETTINGS["filterwarnings"])
    pytester.makepyprojecttoml(
        f"[tool.pytest.ini_options]\nfilterwarnings = [{filters}]\n")
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
