import json
import math

import numpy as np
import pytest

from descm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        code, out, err = run(capsys, "solve", "--potential", "poly:1,1", "--N", "5")
        assert code == 1
        assert out == ""
        assert "numerical failure" in err

    def test_mesh_tolerance_flag_exits_2(self, capsys):
        code, out, _ = run(capsys, "solve", "--potential", "poly:1,1", "--N", "5",
                           "--mesh", "trace-min", "--mesh-tolerance", "1e-8")
        assert code == 2
        assert out == ""

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
        assert len(payload["rows"]) == len(rows)
        for cells, record in zip(rows, payload["rows"]):
            assert list(record) == header
            for cell, value in zip(cells, record.values()):
                if cell == "nan":
                    assert value is None
                else:
                    assert value == float(cell)

    def test_unknown_table_exits_2(self, capsys):
        code, _, _ = run(capsys, "table", "--name", "9")
        assert code == 2


class TestTenWellExtended:
    def test_converge_ten_well_with_trace_minimized_mesh(self, capsys):
        code, out, _ = run(
            capsys, "converge", "--potential", "cheb:20;shift=-1", "--level", "0",
            "--mesh", "trace-min", "--N-max", "1000",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[-1][3]) < 5e-12
