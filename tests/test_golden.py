"""Byte-for-byte CLI output against files in tests/golden/.

Each golden file is the stdout of one invocation, written once and kept
unchanged so that a refactor which moves any printed digit is caught. The
bytes come from one numpy/OpenBLAS build with BLAS pinned to one thread; a
different LAPACK may legitimately move the last digit of an eigenvalue.
"""

from pathlib import Path

import pytest

from descm.cli import main

GOLDEN = Path(__file__).parent / "golden"

# file name -> (argv, exit code)
CASES = {
    "solve_quartic.json": (["solve", "--potential", "poly:1,1", "--N", "17", "--levels", "3"], 0),
    "converge_quartic.csv": (["converge", "--potential", "poly:1,1"], 0),
    "converge_quartic.json": (["converge", "--potential", "poly:1,1", "--format", "json"], 0),
    "converge_cheb10_tracemin.csv": (
        ["converge", "--potential", "cheb:10;shift=-1", "--mesh", "trace-min", "--N-max", "30"],
        3,
    ),
    "converge_cheb10_tracemin.json": (
        ["converge", "--potential", "cheb:10;shift=-1", "--mesh", "trace-min", "--N-max", "30",
         "--format", "json"],
        3,
    ),
    "trace_scan_v1.csv": (
        ["trace-scan", "--potential", "poly:1,-4,1", "--N", "20", "--points", "50"], 0),
    "validate.csv": (["validate"], 0),
    "validate.json": (["validate", "--format", "json"], 0),
    "table_1.csv": (["table", "--name", "1"], 0),
    "table_1.json": (["table", "--name", "1", "--format", "json"], 0),
    "table_3.csv": (["table", "--name", "3"], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    argv, expected_code = CASES[name]
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == expected_code
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
