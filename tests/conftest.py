# number -> (label, "PASS" | "FAIL"), filled in by test_acceptance.py
acceptance_log: dict = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_log:
        return
    terminalreporter.write_sep("-", "acceptance checks")
    for number in sorted(acceptance_log):
        label, status = acceptance_log[number]
        terminalreporter.write_line(f"acceptance {number:2d}: {status}  {label}")
