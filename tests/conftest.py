"""Repeat the acceptance criteria's PASS/FAIL lines after a captured run.

Output capture hides what a passing test prints, so criterion 6's cost
factors and criterion 7's ratios would never be seen on a green run. Each
criterion prints one ``[criterion N] ...`` line; this hook collects those
lines from every test report and writes them in the terminal summary.
"""


def pytest_terminal_summary(terminalreporter):
    lines = sorted(
        line
        for reports in terminalreporter.stats.values()
        for report in reports
        if getattr(report, "when", None) == "call"
        for line in report.capstdout.splitlines()
        if line.startswith("[criterion ")
    )
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
