"""The table of console cases is whole: one case per name, every input
file committed, every README command a case that exits 0, and a checker
that reports each way a run can fail."""

import shlex

from console_cases import BY_NAME, CASES, ROOT, Case, faults


def test_case_names_are_unique():
    assert len(BY_NAME) == len(CASES)


def test_every_input_file_is_committed():
    words = [shlex.split(case.args) for case in CASES]
    inputs = {w[w.index("--input") + 1] for w in words}
    assert [path for path in sorted(inputs) if not (ROOT / path).is_file()] == []


def test_every_readme_command_is_a_case_that_exits_0():
    codes = {tuple(shlex.split(case.args)): case.code for case in CASES}
    readme = [line for line in (ROOT / "README.md").read_text().splitlines()
              if line.startswith("regsel ")]
    assert readme
    assert [line for line in readme if codes.get(tuple(shlex.split(line)[1:])) != 0] == []


def test_the_check_reports_each_fault_of_a_run():
    quiet = Case("quiet", "solve --input x.json", 0, line="tau,")
    assert faults(quiet, 0, "x,1\ntau,0.5\n", "") == []
    assert faults(quiet, 4, "x,1\n", "warning\n") == [
        "exit 4, want 0", "stderr not empty: 'warning'",
        "no stdout line starts with 'tau,'"]
    # stderr is free when the case exits nonzero, unless the case says not
    refused = Case("refused", "solve --input x.json", 2)
    assert faults(refused, 2, "", "regsel: input error\n") == []
    assert faults(refused._replace(quiet=True), 2, "", "regsel: input error\n") == [
        "stderr not empty: 'regsel: input error'"]
    # the line is a prefix of a whole line, not text inside one
    assert faults(quiet, 0, "x,tau,1\n", "") == ["no stdout line starts with 'tau,'"]
