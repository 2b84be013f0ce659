import collections
import json
import math
import random
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from descm import cli, solver
from descm.cli import build_parser, main
from oracles import records, recursive_json

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fail_eigensolves(monkeypatch):
    """Make every eigensolve of the solve path raise numpy's non-convergence."""
    def fail(matrix, want_vectors=False):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(solver, "eigen_symmetric", fail)


def csv_rows(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def csv_comments(text):
    return dict(
        part.strip().split(" = ")
        for ln in text.strip().splitlines()
        if ln.startswith("# ")
        for part in [ln[2:]]
    )


def json_and_csv(capsys, *argv):
    """One invocation in both formats: the JSON payload and the CSV text."""
    code, out, _ = run(capsys, *argv, "--format", "json")
    code_csv, text, _ = run(capsys, *argv, "--format", "csv")
    assert code == code_csv == 0
    return json.loads(out), text


def assert_same_values(cells, values):
    """CSV cells against JSON values; a missing value is nan in CSV, null in JSON."""
    assert len(cells) == len(values)
    for cell, value in zip(cells, values):
        if cell == "nan":
            assert value is None
        elif isinstance(value, str):
            assert value == cell
        else:
            assert value == float(cell)


def assert_records_match_rows(records, header, rows):
    assert len(records) == len(rows)
    for cells, record in zip(rows, records):
        assert list(record) == header
        assert_same_values(cells, list(record.values()))


class TestSolveCommand:
    def test_quartic_json(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--potential", "poly:1,1", "--N", "17", "--levels", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["N"] == 17
        assert payload["mesh"] == "optimal"
        assert abs(payload["eigenvalues"][0] - 1.3923516415352821) <= 5e-12

    @pytest.mark.parametrize("spec", ["poly:1,1\t", "poly:1,1\r"])
    def test_json_escapes_control_characters_in_spec(self, capsys, spec):
        # a trailing tab, or the \r of a spec read from a CRLF file
        code, out, _ = run(capsys, "solve", "--potential", spec, "--N", "3")
        assert code == 0
        assert json.loads(out)["potential"] == spec

    def test_json_writes_non_ascii_spec_as_is(self, capsys):
        code, out, _ = run(capsys, "solve", "--potential", "poly:\uff11,\uff11", "--N", "3")
        assert code == 0
        assert '"potential": "poly:\uff11,\uff11",\n' in out
        assert json.loads(out)["potential"] == "poly:\uff11,\uff11"

    def test_high_degree_third_level(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--potential", "poly:1,0,0,100", "--N", "20", "--levels", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["eigenvalues"][2] - 26.0334583214430) <= 1e-9

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--potential", "poly:1,1", "--N", "10", "--levels", "2",
            "--format", "csv",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["level", "E"]
        assert [r[0] for r in rows] == ["0", "1"]

    def test_fixed_mesh(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--potential", "poly:1,1", "--N", "10",
            "--mesh", "fixed", "--h", "0.2",
        )
        assert code == 0
        assert json.loads(out)["h"] == 0.2

    def test_malformed_potential_exits_2(self, capsys):
        code, _, err = run(capsys, "solve", "--potential", "poly:", "--N", "10")
        assert code == 2
        assert "descm:" in err

    def test_bad_flag_combination_exits_2(self, capsys):
        code, _, _ = run(capsys, "solve", "--potential", "poly:1,1", "--N", "10", "--h", "0.2")
        assert code == 2
        code, _, _ = run(capsys, "solve", "--potential", "poly:1,1", "--N", "10",
                         "--mesh", "fixed")
        assert code == 2
        code, _, _ = run(capsys, "solve", "--potential", "poly:1,1", "--N", "3",
                         "--levels", "99")
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "spectrum.json"
        code, out, _ = run(
            capsys, "solve", "--potential", "poly:1,1", "--N", "5", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        assert "eigenvalues" in json.loads(target.read_text())

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "solve", "--potential", "cheb:10;shift=-1", "--N", "12")
        _, second, _ = run(capsys, "solve", "--potential", "cheb:10;shift=-1", "--N", "12")
        assert first == second

    @pytest.mark.parametrize(
        "flags",
        [
            ("--mesh", "fixed", "--h", "nan"),
            ("--mesh", "fixed", "--h", "inf"),
        ],
    )
    def test_non_finite_mesh_settings_exit_2(self, capsys, flags):
        code, out, err = run(capsys, "solve", "--potential", "poly:1,1", "--N", "5", *flags)
        assert code == 2
        assert out == ""
        assert "descm:" in err and "numerical failure" not in err

    def test_trace_min_beyond_first_window_exits_0(self, capsys):
        code, out, err = run(
            capsys, "solve", "--potential", "poly:1e10,1e10", "--N", "100", "--mesh", "trace-min"
        )
        assert code == 0, err
        assert 0.0 < json.loads(out)["h"] < 1e-3

    def test_chebyshev_degree_beyond_double_range_exits_2(self, capsys):
        code, out, err = run(capsys, "solve", "--potential", "cheb:2000", "--N", "5")
        assert code == 2
        assert out == ""
        assert "descm:" in err and "808" in err

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(
            capsys, "solve", "--potential", "poly:1,1", "--N", "5", "--output", str(target)
        )
        assert code == 2
        assert out == ""
        assert "descm:" in err and "numerical failure" not in err

    def test_eigensolver_failure_exits_1(self, capsys, monkeypatch):
        # LinAlgError subclasses ValueError, so it must not exit 2
        fail_eigensolves(monkeypatch)
        code, out, err = run(capsys, "solve", "--potential", "poly:1,1", "--N", "5")
        assert code == 1
        assert out == ""
        assert "numerical failure" in err

    def test_mesh_tolerance_flag_exits_2(self, capsys):
        code, out, _ = run(capsys, "solve", "--potential", "poly:1,1", "--N", "5",
                           "--mesh", "trace-min", "--mesh-tolerance", "1e-8")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("n", ["1", "2", "5"])
    def test_trace_overflowing_to_minus_inf_exits_1_with_one_line(self, capsys, n):
        # V reaches -inf on part of a scan and +inf beyond it, so some traces
        # are undefined (NaN) and some are -inf: no mesh size, no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "solve", "--potential", "poly:-1e300,1e-300",
                                 "--N", n, "--mesh", "trace-min")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("descm: numerical failure: collocation trace overflows to -inf")

    @pytest.mark.parametrize("n", ["1", "3", "5"])
    def test_slope_rising_from_minus_inf_exits_1_with_one_line(self, capsys, n):
        # the well's minimum lies below the double range: the widened scan's
        # best cell holds a slope that jumps from -inf to +inf, which places
        # no zero, so the traces pick, and they reach -inf; not a NaN mesh
        # size (exit 2) or an inf * 0 warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "solve", "--potential",
                                 "poly:3.32e-266,-8.74e-62,-8.99e-93,5.07e-249",
                                 "--mesh", "trace-min", "--N", n, "--levels", "2")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("descm: numerical failure: collocation trace overflows to -inf")

    @pytest.mark.parametrize("h", ["1e308", "1e-320", "300"])
    def test_fixed_mesh_non_finite_entries_exit_1_with_one_line(self, capsys, h):
        # kh overflows (1e308), h*h underflows to 0 so the scale divides by 0
        # (1e-320), or cosh(kh) overflows (300): the diagnosis, no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "solve", "--potential", "poly:1,1", "--N", "3",
                                 "--mesh", "fixed", "--h", h)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("descm: numerical failure: non-finite matrix entry")

    @pytest.mark.parametrize("m,leading", [(600, "1e-300"), (1100, "1")])
    def test_closed_form_beyond_double_range_exits_0(self, capsys, m, leading):
        # the closed-form argument overflows: 2^m for m >= 1024, the quotient
        # by sqrt(c_m) for a tiny leading coefficient
        spec = "poly:" + "0," * (m - 1) + leading
        code, out, err = run(capsys, "solve", "--potential", spec, "--N", "5")
        assert code == 0, err
        payload = json.loads(out)
        assert 0.0 < payload["h"] < math.inf
        assert all(math.isfinite(e) for e in payload["eigenvalues"])


class TestParserReuse:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_no_state_leaks_between_calls(self, capsys):
        # every option the first call sets differs from the golden call's
        code, out, _ = run(capsys, "solve", "--potential", "poly:1,1", "--N", "17",
                           "--levels", "5", "--mesh", "fixed", "--h", "0.2", "--format", "csv")
        assert code == 0 and out.startswith("level,E\n")
        code, out, err = run(capsys, "solve", "--potential", "poly:1,1", "--N", "not-a-number")
        assert code == 2 and out == "" and "invalid int value" in err
        code, out, _ = run(capsys, "solve", "--potential", "poly:1,1", "--N", "17",
                           "--levels", "3")
        assert code == 0
        assert out == (GOLDEN / "solve_quartic.json").read_text(encoding="utf-8")


class TestConvergeCommand:
    def test_shallow_quartic(self, capsys):
        code, out, _ = run(capsys, "converge", "--potential", "poly:0.1,0.1", "--level", "0")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["N", "h", "E_n", "eps_n"]
        assert rows[0][3] == "nan"
        final = rows[-1]
        assert abs(int(final[0]) - 20) <= 3
        assert abs(float(final[2]) - 0.56694532770815997) <= 5e-11
        assert float(final[3]) < 5e-12

    def test_deep_ten_powers_well(self, capsys):
        code, out, _ = run(
            capsys, "converge", "--potential", "poly:-10,-10,-10,-10,10", "--level", "0"
        )
        assert code == 0
        _, rows = csv_rows(out)
        final = rows[-1]
        assert abs(int(final[0]) - 52) <= 5
        assert abs(float(final[2]) - -22.446238129792420) <= 1e-9

    @pytest.mark.parametrize("level", ["0", "1"])
    def test_eigensolver_failure_exits_1(self, capsys, monkeypatch, level):
        # each truncation solves the one block of the level's parity
        fail_eigensolves(monkeypatch)
        code, out, err = run(capsys, "converge", "--potential", "poly:1,1", "--level", level)
        assert code == 1
        assert out == ""
        assert err == "descm: numerical failure: Eigenvalues did not converge\n"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "converge", "--potential", "poly:1,1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert payload["records"][0]["eps_n"] is None
        assert abs(payload["E_final"] - 1.392351641530291855) <= 2e-11

    def test_unconverged_exits_3_with_trace(self, capsys):
        code, out, err = run(
            capsys, "converge", "--potential", "poly:1,1", "--N-max", "5",
            "--tolerance", "1e-30",
        )
        assert code == 3
        header, rows = csv_rows(out)
        assert header == ["N", "h", "E_n", "eps_n"]
        assert len(rows) == 4  # N = 2..5
        assert "not met" in err

    def test_unconverged_message_names_last_truncation_solved(self, capsys):
        code, out, err = run(
            capsys, "converge", "--potential", "poly:1,1", "--N-step", "5", "--N-max", "30",
            "--tolerance", "1e-20",
        )
        assert code == 3
        _, rows = csv_rows(out)
        assert rows[-1][0] == "27"  # N = 2, 7, ..., 27
        assert "not met by N = 27" in err

    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    def test_non_finite_tolerance_exits_2(self, capsys, tolerance):
        code, out, err = run(
            capsys, "converge", "--potential", "poly:1,1", "--tolerance", tolerance,
            "--N-max", "8",
        )
        assert code == 2
        assert out == ""
        assert "descm:" in err

    def test_empty_sweep_exits_2_naming_first_truncation(self, capsys):
        # level 7 starts the sweep at N = ceil(7/2) = 4, past --N-max 3
        code, out, err = run(
            capsys, "converge", "--potential", "poly:1,1", "--level", "7", "--N-max", "3"
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "descm: empty sweep: the first truncation N = 4 exceeds n_max = 3"
        ]

    @pytest.mark.parametrize("start", ["0", "-5"])
    def test_start_below_one_exits_2(self, capsys, start):
        code, out, err = run(
            capsys, "converge", "--potential", "poly:1,1", "--N-start", start, "--N-max", "3",
            "--tolerance", "1e-30",
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"descm: n_start must be >= 1, got {start}"]

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "converge", "--potential", "poly:1,1")
        _, second, _ = run(capsys, "converge", "--potential", "poly:1,1")
        assert first == second


class TestTraceScanCommand:
    def test_profile_consistent_with_minimizer(self, capsys):
        code, out, _ = run(
            capsys, "trace-scan", "--potential", "poly:1,-4,1", "--N", "20",
            "--points", "200", "--h-min", "0.01", "--h-max", "2",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["h", "trace"]
        assert len(rows) == 200
        markers = csv_comments(out)
        h_hat = float(markers["h_trace_min"])
        grid = np.array([float(r[0]) for r in rows])
        traces = np.array([float(r[1]) for r in rows])
        best = int(np.argmin(traces))
        cell = math.log(grid[-1] / grid[0]) / (len(grid) - 1)
        assert abs(math.log(h_hat / grid[best])) <= 2 * cell
        # divergence toward both endpoints of the scan
        assert traces[0] > traces[best]
        assert traces[-1] > traces[best]
        assert float(markers["h_optimal"]) > 0.0

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "trace-scan", "--potential", "poly:1,1", "--N", "5",
            "--points", "50", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["scan"]) == 50
        assert payload["h_trace_min"] > 0.0

    def test_tiny_mesh_sizes_scan_without_warnings(self, capsys):
        # h*h underflows to 0 at 1e-300: that row's trace is inf, as before
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "trace-scan", "--potential", "poly:1,1", "--N", "3", "--points", "3",
                "--h-min", "1e-300", "--h-max", "1",
            )
        assert code == 0
        assert err == ""
        _, rows = csv_rows(out)
        assert [r[1] for r in rows] == ["inf", "2.3029076935874624e+301", "20729.106789537102"]

    @pytest.mark.parametrize("block", [1, 5 * 41, 10**9], ids=["row", "uneven", "whole"])
    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_blocks_leave_the_output_bytes_unchanged(self, capsys, monkeypatch, block, output):
        argv = ("trace-scan", "--potential", "cheb:10;shift=-1", "--N", "20", "--points", "333",
                "--h-min", "1e-4", "--h-max", "60", "--format", output)
        monkeypatch.setattr(cli, "_TRACE_SCAN_BLOCK", 2**62)  # the whole grid in one call
        whole = run(capsys, *argv)
        monkeypatch.setattr(cli, "_TRACE_SCAN_BLOCK", block)
        assert run(capsys, *argv) == whole
        assert whole[0] == 0 and whole[1].count("\n") > 333

    def test_peak_memory_stays_bounded_at_large_points_and_truncation(self, capsys):
        # the whole 2000 x 8001 grid at once peaked near 580 MB of RSS
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "trace-scan", "--potential", "poly:1,1", "--N", "4000",
                                 "--points", "2000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert len(csv_rows(out)[1]) == 2000
        assert peak < 64 * 2**20, peak

    def test_zero_truncation_exits_2(self, capsys):
        code, _, _ = run(capsys, "trace-scan", "--potential", "poly:1,1", "--N", "0")
        assert code == 2

    def test_infinite_h_max_exits_2(self, capsys):
        code, out, err = run(
            capsys, "trace-scan", "--potential", "poly:1,1", "--N", "5", "--h-max", "inf"
        )
        assert code == 2
        assert out == ""
        assert "h-max < inf" in err


class TestValidateCommand:
    def test_default_run_all_pass(self, capsys):
        code, out, err = run(capsys, "validate")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["case", "level", "mesh", "N", "h", "energy", "exact",
                          "error", "tolerance", "status"]
        assert len(rows) == 8
        assert all(r[-1] == "pass" for r in rows)
        assert "8/8 passed" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failing_run_exits_1_and_names_failures(self, capsys, fmt):
        # at N = 30 level 1 of V2 misses the tolerance of both mesh strategies
        code, out, err = run(capsys, "validate", "--N", "30", "--format", fmt)
        assert code == 1
        assert err.splitlines() == [
            "validate: 6/8 passed",
            "validate: failing: V2/optimal, V2/trace-min",
        ]
        if fmt == "json":
            payload = json.loads(out)
            assert payload["all_pass"] is False
            outcomes = [(r["case"], r["mesh"], r["status"]) for r in payload["results"]]
        else:
            _, rows = csv_rows(out)
            outcomes = [(r[0], r[2], r[-1]) for r in rows]
        assert len(outcomes) == 8
        assert [o for o in outcomes if o[2] != "pass"] == [
            ("V2", "optimal", "FAIL"),
            ("V2", "trace-min", "FAIL"),
        ]

    def test_level_is_read_from_its_parity_block(self, capsys):
        # at N = 8 with trace-min the lowest odd level of V2 falls below the
        # lowest even one, so entry 1 of the merged spectrum is the even
        # block's -9.42550; level 1 has one node and is the odd block's -9.42699
        # (at the trace-min h, the 40-digit odd block of
        # oracles.mp_block_eigenvalues reads -9.426993631397458)
        code, out, _ = run(capsys, "validate", "--case", "1", "--N", "8", "--format", "json")
        assert code == 1
        (result,) = [r for r in json.loads(out)["results"] if r["mesh"] == "trace-min"]
        assert result["level"] == 1
        assert result["energy"] == pytest.approx(-9.426993631397458, rel=1e-12)

    def test_case_filter(self, capsys):
        code, out, _ = run(capsys, "validate", "--case", "2")
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 2
        assert all(r[0] == "V3" for r in rows)

    def test_bad_case_exits_2(self, capsys):
        code, _, _ = run(capsys, "validate", "--case", "7")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "validate", "--case", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert len(payload["results"]) == 2


class TestTableCommand:
    def test_quartic_family_preset(self, capsys):
        code, out, _ = run(capsys, "table", "--name", "3")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["c1", "c2", "N", "E_0", "eps_0"]
        assert len(rows) == 10
        row = next(r for r in rows if r[0] == "1" and r[1] == "1")
        assert abs(int(row[2]) - 17) <= 3
        assert abs(float(row[3]) - 1.3923516415352821) <= 5e-12

    def test_level_sweep_preset(self, capsys):
        code, out, _ = run(capsys, "table", "--name", "2")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["N", "E_0", "E_1", "E_2"]
        assert [r[0] for r in rows] == [str(n) for n in range(5, 51, 5)]
        by_n = {int(r[0]): r for r in rows}
        assert abs(float(by_n[20][1]) - 3.18865434649856) <= 1e-9
        assert abs(float(by_n[50][3]) - 26.0334583212516) <= 1e-9

    @pytest.mark.parametrize("name", ["1", "3"])
    def test_json_values_equal_csv_values(self, capsys, name):
        code, out, _ = run(capsys, "table", "--name", name)
        assert code == 0
        header, rows = csv_rows(out)
        code, out, _ = run(capsys, "table", "--name", name, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["command"], payload["name"], payload["mesh"]) == ("table", int(name),
                                                                         "optimal")
        assert_records_match_rows(payload["rows"], header, rows)

    def test_unknown_table_exits_2(self, capsys):
        code, _, _ = run(capsys, "table", "--name", "9")
        assert code == 2


class TestJsonMatchesCsv:
    """Every command's CSV and JSON carry the same values."""

    def test_solve(self, capsys):
        payload, text = json_and_csv(capsys, "solve", "--potential", "cheb:10;shift=-1",
                                     "--N", "12", "--levels", "4")
        header, rows = csv_rows(text)
        assert header == ["level", "E"]
        assert [r[0] for r in rows] == ["0", "1", "2", "3"]
        assert_same_values([r[1] for r in rows], payload["eigenvalues"])

    def test_converge(self, capsys):
        payload, text = json_and_csv(capsys, "converge", "--potential", "poly:1,-4,1",
                                     "--mesh", "trace-min")
        header, rows = csv_rows(text)
        assert_records_match_rows(payload["records"], header, rows)
        assert_same_values([rows[-1][0], rows[-1][2]], [payload["N_final"], payload["E_final"]])

    def test_trace_scan(self, capsys):
        payload, text = json_and_csv(capsys, "trace-scan", "--potential", "poly:1,-4,1",
                                     "--N", "20", "--points", "40")
        header, rows = csv_rows(text)
        assert_records_match_rows(payload["scan"], header, rows)
        markers = csv_comments(text)
        assert list(markers) == ["h_optimal", "h_trace_min"]
        assert_same_values(list(markers.values()),
                           [payload["h_optimal"], payload["h_trace_min"]])

    def test_validate(self, capsys):
        payload, text = json_and_csv(capsys, "validate")
        header, rows = csv_rows(text)
        assert len(payload["results"]) == len(rows) == 8
        for cells, result in zip(rows, payload["results"]):
            shared = [cells[header.index(k)] for k in result]
            assert_same_values(shared, list(result.values()))
        assert payload["all_pass"] is all(r[-1] == "pass" for r in rows)


class TestJsonWriter:
    """``cli._json`` writes the bytes of the writer that recursed once per value."""

    SCALARS = (0.0, -0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan, None,
               True, False, 0, -7, 2**70, "", 'say "hi"\r\n', "back\\slash\ttab",
               "\uff11\u00e9\u2603", "ctrl\x01\x1f", "poly:1,1\r")

    def scalar(self, rng):
        kind = rng.randrange(4)
        if kind == 0:
            return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 308)
        if kind == 1:
            return np.float64(rng.choice((rng.gauss(0.0, 1e3), math.inf, -math.inf, math.nan)))
        if kind == 2:
            return rng.randint(-10**6, 10**6)
        return rng.choice(self.SCALARS)

    def payload(self, rng, depth):
        size = rng.randrange(0 if depth else 1, 6)
        values = [self.payload(rng, depth + 1) if depth < 3 and rng.random() < 0.3
                  else self.scalar(rng) for _ in range(size)]
        if depth and rng.random() < 0.4:
            return values
        return {f"k{i}_{rng.randrange(100)}": v for i, v in enumerate(values)}

    def test_random_payloads_match_the_recursive_writer_byte_for_byte(self):
        rng = random.Random(0x15C0)
        for _ in range(400):
            payload = self.payload(rng, 0)
            assert cli._json(payload) == recursive_json(payload), payload

    def test_every_scalar_kind_in_a_dict_and_a_list(self):
        values = list(self.SCALARS) + [np.float64(0.1), np.float64(math.nan), -np.float64(math.inf)]
        payload = {"one": values, "many": {f"v{i}": v for i, v in enumerate(values)},
                   "empty": [], "nothing": {}, "nested": [[], {}, [[1.5]]]}
        text = cli._json(payload)
        assert text == recursive_json(payload)
        assert json.loads(text)["one"][8] is True

    ROW_SCALARS = (0, -7, 2**70, 0.0, -0.0, 5e-324, 1.5, math.inf, -math.inf, math.nan, None,
                   np.float64(0.1), np.float64(math.inf), -np.float64(math.inf),
                   np.float64(math.nan))
    HEADERS = ("N,h,E_n,eps_n", "h,trace", "c1,c2,N,E_0,eps_0", "N,E_0,E_1,E_2", "x")

    def row_value(self, rng):
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randint(-10**6, 10**6)
        if kind == 1:
            return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 308)
        if kind == 2:
            return np.float64(rng.gauss(0.0, 1e3))
        return rng.choice(self.ROW_SCALARS)

    @pytest.mark.parametrize("size", [0, 1, 30])
    def test_seeded_tables_match_the_records_of_the_recursive_writer(self, size):
        # rows are written straight from the table, with no record built
        rng = random.Random(0x7AB1E + size)
        for _ in range(50):
            header = rng.choice(self.HEADERS)
            rows = [tuple(self.row_value(rng) for _ in header.split(","))
                    for _ in range(size)]
            payload = {"command": "converge", "converged": False,
                       "records": cli._Table(header, rows)}
            expected = {"command": "converge", "converged": False,
                        "records": records(header, rows)}
            assert cli._json(payload) == recursive_json(expected), (header, rows)
            assert cli._json(cli._Table(header, rows)) == recursive_json(records(header, rows))


class TestRejectedInput:
    @pytest.mark.parametrize("argv,reason", [
        (("solve", "--potential", "poly:1,1", "--N", "0"), "half-width"),
        (("solve", "--potential", "poly:1,1", "--N", "-5"), "half-width"),
        (("solve", "--potential", "poly:1,1", "--N", "5", "--levels", "0"), "level"),
        (("solve", "--potential", "poly:1,1", "--N", "3", "--levels", "99"), "99 levels"),
        (("trace-scan", "--potential", "poly:1,1", "--N", "0"), "half-width"),
        (("trace-scan", "--potential", "poly:1,1", "--N", "-3"), "half-width must be >= 1"),
        (("validate", "--N", "0"), "half-width"),
        (("validate", "--N", "-1"), "half-width"),
        (("validate", "--case", "4"), "invalid choice"),
        (("validate", "--case", "-1"), "invalid choice"),
    ], ids=["solve-N0", "solve-N-5", "solve-levels0", "solve-levels99", "trace-scan-N0",
            "trace-scan-N-3",
            "validate-N0", "validate-N-1", "validate-case4", "validate-case-1"])
    def test_exits_2_with_one_diagnosis(self, capsys, argv, reason):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert reason in err
        if not err.startswith("usage:"):
            assert err.startswith("descm: ") and len(err.splitlines()) == 1


def _draw_coefficient(rng):
    """Uniform on [-10, 10], or +-(1-9) 10^e with e uniform in [-320, 308],
    which may lie beyond the double range."""
    if rng.random() < 0.5:
        return repr(rng.uniform(-10.0, 10.0))
    return f"{rng.choice('+-')}{rng.randint(1, 9)}e{rng.randint(-320, 308)}"


def _draw_argv(rng):
    """One seeded CLI call: a poly: well of 1-12 coefficients with a positive
    leading one (30% with c0) or a cheb: well of even degree 2..120 (half
    with a shift), solved at one N or swept to N = 25, under either mesh."""
    if rng.random() < 0.75:
        coefficients = [_draw_coefficient(rng) for _ in range(rng.randint(1, 12))]
        coefficients[-1] = coefficients[-1].lstrip("+-")
        spec = "poly:" + ",".join(coefficients)
        if rng.random() < 0.3:
            spec += f";c0={_draw_coefficient(rng)}"
    else:
        spec = f"cheb:{2 * rng.randint(1, 60)}"
        if rng.random() < 0.5:
            spec += f";shift={rng.uniform(-2.0, 2.0)!r}"
    mesh = rng.choice(("optimal", "trace-min"))
    if rng.random() < 0.5:
        command = ["solve", "--N", str(rng.choice((1, 2, 3, 7, 20, 60))), "--levels", "2"]
    else:
        command = ["converge", "--N-max", "25", "--level", str(rng.randint(0, 3))]
    return command + ["--potential", spec, "--mesh", mesh, "--format", "json"]


def _energies(command, payload):
    if command == "solve":
        return payload["eigenvalues"]
    return [payload["E_final"]] + [record["E_n"] for record in payload["records"]]


class TestSeededSweep:
    def test_every_call_exits_with_finite_energies_or_one_diagnosis(self, capsys):
        # warnings are errors, so one that escapes the library fails its call
        rng = random.Random(7)
        outcomes, faults = collections.Counter(), []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(600):
                argv = _draw_argv(rng)
                try:
                    code, out, err = run(capsys, *argv)
                except Exception as exc:  # noqa: BLE001 - reported with its call
                    faults.append((argv, repr(exc)))
                    continue
                outcomes[code] += 1
                if code in (0, 3):
                    energies = _energies(argv[0], json.loads(out))
                    # JSON writes a non-finite float as null and an integral one as an int
                    if not all(type(e) in (int, float) and math.isfinite(e) for e in energies):
                        faults.append((argv, energies))
                elif code in (1, 2):
                    if len(err.splitlines()) != 1:
                        faults.append((argv, err))
                else:
                    faults.append((argv, code))
        assert faults == []
        # the draw reaches every outcome but the rare exit 2 (a coefficient
        # beyond the double range), so the checks above are not vacuous
        assert min(outcomes[0], outcomes[1], outcomes[3]) >= 20, outcomes


class TestTenWellExtended:
    def test_converge_ten_well_with_trace_minimized_mesh(self, capsys):
        code, out, _ = run(
            capsys, "converge", "--potential", "cheb:20;shift=-1", "--level", "0",
            "--mesh", "trace-min", "--N-max", "1000",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[-1][3]) < 5e-12
