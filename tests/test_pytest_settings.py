"""The suite's own pytest settings, run on a throwaway suite."""


def test_failing_property_test_reports_its_example_and_the_session_goes_on(pytester,
                                                                         pytestconfig):
    # The throwaway suite gets this suite's warning filters, which turn every
    # other warning into an error.
    filters = "".join(f"\n    {line}" for line in pytestconfig.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings ={filters}\n")
    pytester.makepyfile(test_property="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 5

        def test_after():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
    result.assert_outcomes(failed=1, passed=1)
