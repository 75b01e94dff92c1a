import sys

from hypothesis import settings

# Property tests replay the same examples on every run, and a loaded
# machine cannot fail them on a deadline.
settings.register_profile("pgrtb", derandomize=True, deadline=None, database=None)
settings.load_profile("pgrtb")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines so they survive output capture."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
