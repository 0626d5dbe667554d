import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import roughpath as rp
from roughpath import cli, fields, ode
from roughpath.cli import main
from roughpath.fields import field_from_expression, resolve_field
from roughpath.io import (
    read_flat_config,
    read_path_csv,
    write_path_csv,
    write_pyramid_csv,
    write_solution_csv,
)


class TestPathCsv:
    def test_roundtrip_bit_identical(self, tmp_path):
        path = rp.gen_brownian(8, 5)
        fname = tmp_path / "p.csv"
        write_path_csv(path, fname)
        back = read_path_csv(fname)
        assert np.array_equal(back.samples, path.samples)
        write_path_csv(back, tmp_path / "p2.csv")
        assert (tmp_path / "p.csv").read_text() == (tmp_path / "p2.csv").read_text()

    def test_shuffled_rows_rejected(self, tmp_path):
        fname = tmp_path / "bad.csv"
        fname.write_text("t,value\n0,0\n1,1\n0.5,0.5\n")
        with pytest.raises(rp.SchemaError):
            read_path_csv(fname)

    def test_off_grid_rejected(self, tmp_path):
        fname = tmp_path / "bad.csv"
        fname.write_text("t,value\n0,0\n0.501,0.5\n1,1\n")
        with pytest.raises(rp.NonDyadicGrid):
            read_path_csv(fname)

    def test_wrong_count_rejected(self, tmp_path):
        fname = tmp_path / "bad.csv"
        fname.write_text("t,value\n0,0\n0.25,1\n0.5,2\n1,3\n")
        with pytest.raises(rp.SchemaError):
            read_path_csv(fname)

    def test_header_required(self, tmp_path):
        fname = tmp_path / "bad.csv"
        fname.write_text("time,val\n0,0\n0.5,1\n1,2\n")
        with pytest.raises(rp.SchemaError):
            read_path_csv(fname)

    def test_malformed_body_rejected(self, tmp_path):
        fname = tmp_path / "bad.csv"
        fname.write_text("t,value\n0,0\n0.5,abc\n1,2\n")
        with pytest.raises(rp.SchemaError, match="malformed CSV body"):
            read_path_csv(fname)

    def test_three_columns_rejected(self, tmp_path):
        fname = tmp_path / "bad.csv"
        fname.write_text("t,value\n0,0,0\n0.5,1,1\n1,2,2\n")
        with pytest.raises(rp.SchemaError, match="exactly two columns"):
            read_path_csv(fname)

    def test_nan_time_rejected(self, tmp_path):
        fname = tmp_path / "bad.csv"
        fname.write_text("t,value\n0,0\nnan,1\n1,2\n")
        with pytest.raises(rp.SchemaError):
            read_path_csv(fname)

    @pytest.mark.parametrize("body", ["", "\n", "\n  \n", "# no data\n"])
    def test_header_only_rejected_without_a_warning(self, tmp_path, body):
        fname = tmp_path / "empty.csv"
        fname.write_text("t,value\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rp.SchemaError):
                read_path_csv(fname)

    def test_header_only_diagnose_exits_2_quietly(self, tmp_path, capsys):
        fname = tmp_path / "empty.csv"
        fname.write_text("t,value\n")
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            assert main(["diagnose", "--path", str(fname), "--beta", "0.6"]) == 2
        assert escaped == []
        out, err = capsys.readouterr()
        assert json.loads(out)["error"] == "validation"
        assert err == ""


# Every CSV the library writes is compared with the per-row f-string format
# it has always had, so the bytes on disk never change.
_SPECIALS = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1 / 3]


def _special_path(K):
    """A Brownian path with the extreme doubles at its start and end."""
    samples = rp.gen_brownian(K, K).samples.copy()
    n = min(samples.size, len(_SPECIALS))
    samples[:n] = _SPECIALS[:n]
    samples[-n:] = _SPECIALS[-n:]
    return rp.DyadicPath(samples, K)


def _rows(columns):
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in zip(*columns))


class TestCsvWriters:
    @pytest.mark.parametrize("K", [1, 11, 12, 13])   # 3, 2049, 4097 and 8193 rows
    def test_path_csv_bytes(self, tmp_path, K):
        path = _special_path(K)
        write_path_csv(path, tmp_path / "p.csv")
        want = "t,value\n" + "".join(f"{t:.17g},{v:.17g}\n"
                                     for t, v in zip(path.grid, path.samples))
        assert (tmp_path / "p.csv").read_bytes() == want.encode()

    @pytest.mark.parametrize("K", [1, 13])
    def test_pyramid_csv_bytes(self, tmp_path, K):
        with np.errstate(over="ignore"):
            pyramid = rp.average_pyramid(_special_path(K))
        write_pyramid_csv(pyramid, tmp_path / "h.csv")
        want = "k,n,h\n" + "".join(f"{k},{n},{h:.17g}\n" for k in range(pyramid.K)
                                   for n, h in enumerate(pyramid.level(k)))
        assert (tmp_path / "h.csv").read_bytes() == want.encode()

    def test_solution_csv_bytes(self, tmp_path):
        # two components, so the row template spans three columns
        path = _special_path(13)
        solution = SimpleNamespace(t=path.grid, y=np.stack([path.samples, -path.samples[::-1]]))
        write_solution_csv(solution, tmp_path / "y.csv")
        want = "t,y1,y2\n" + _rows([solution.t, *solution.y])
        assert (tmp_path / "y.csv").read_bytes() == want.encode()

    def test_solve_ode_csv_bytes(self, tmp_path, capsys):
        src = tmp_path / "x.csv"
        main(["gen-path", "--kind", "linear", "--K", "14", "--out", str(src)])
        out = tmp_path / "y.csv"
        assert main(["solve-ode", "--drivers", str(src), "--beta", "0.9", "--grid-level", "12",
                     "--out", str(out)]) == 0
        problem = rp.OdeProblem(F=rp.MatrixField.linear_in_y(), drivers=[read_path_csv(src)],
                                y0=np.array([1.0]), beta=0.9)
        solution = rp.solve(problem, rp.SolverConfig(tol=1e-8, grid_level=12))
        assert solution.t.size > 4096
        want = "t,y1\n" + _rows([solution.t, *solution.y])
        assert out.read_bytes() == want.encode()

    def test_ito_compare_csv_bytes(self, tmp_path, capsys):
        seed = 18446744073709551614   # the two seeds end at 2**64 - 1: past int64
        out = tmp_path / "r.csv"
        assert main(["ito-compare", "--K", "6", "--n-paths", "2", "--seed", str(seed),
                     "--out", str(out)]) == 0
        field = resolve_field("x2")
        f = lambda x: field.evaluate(np.zeros_like(np.asarray(x, dtype=float)), x)
        report = rp.ito_compare(f, [rp.gen_brownian(6, seed + i) for i in range(2)])
        want = "seed,residual\n" + "".join(f"{seed + i},{r:.17g}\n"
                                            for i, r in enumerate(report["residuals"]))
        assert out.read_bytes() == want.encode()


class TestFieldExpressions:
    def test_dependence_inference(self):
        assert field_from_expression("sin(t)*x").depends_on == "both"
        assert field_from_expression("x**2").depends_on == "x_only"
        assert field_from_expression("t+1").depends_on == "t_only"

    def test_evaluates_vectorized(self):
        f = field_from_expression("t + x**2")
        t = np.array([0.0, 1.0])
        x = np.array([2.0, 3.0])
        assert np.allclose(f.evaluate(t, x), [4.0, 10.0])

    @pytest.mark.parametrize("expr, want", [
        ("2", lambda t, x: 2.0),
        ("t+1", lambda t, x: t + 1),
        ("x**2", lambda t, x: x**2),
        ("sin(t)*x", lambda t, x: np.sin(t) * x),
    ], ids=["2", "t+1", "x**2", "sin(t)*x"])
    def test_value_has_the_broadcast_shape(self, expr, want):
        # a (rows, 1) time column against a (rows, nodes) panel, as the
        # staircase kernel calls every field
        t = np.linspace(0.0, 1.0, 4)[:, None]
        x = np.linspace(-2.0, 2.0, 60).reshape(4, 15)
        got = field_from_expression(expr).evaluate(t, x)
        assert got.shape == (4, 15)
        assert np.array_equal(got, np.broadcast_to(want(t, x), (4, 15)))

    def test_builtin_resolution(self):
        assert resolve_field("x") is rp.BUILTIN_FIELDS["x"]

    def test_rejects_unknown_names(self):
        with pytest.raises(rp.SchemaError):
            field_from_expression("y + 1")

    def test_rejects_calls_outside_whitelist(self):
        with pytest.raises(rp.SchemaError):
            field_from_expression("__import__('os')")

    @pytest.mark.parametrize("expr", ["x if t else 1", "x < t", "[x]", "x % 2", "'x'"])
    def test_rejects_unsupported_syntax(self, expr):
        with pytest.raises(rp.SchemaError, match="unsupported syntax"):
            field_from_expression(expr)

    def test_unary_plus_is_the_operand(self):
        t, x = np.array([0.5, 1.0]), np.array([-2.0, 3.0])
        assert np.array_equal(field_from_expression("+x*t").evaluate(t, x), x * t)
        assert np.array_equal(field_from_expression("-(+x)").evaluate(t, x), -x)

    @pytest.mark.parametrize("expr", ["0+" + "-" * 1000 + "x", "0+" + "-" * 50000 + "x",
                                      "+".join(["x"] * 300), "x*1." + "0" * 2000])
    def test_rejects_deep_or_long_expressions(self, expr):
        with pytest.raises(rp.SchemaError):
            field_from_expression(expr)

    @pytest.mark.parametrize("exc", [RecursionError, MemoryError])
    def test_parser_exhaustion_is_a_schema_error(self, monkeypatch, exc):
        def exhausted(*args, **kwargs):
            raise exc
        monkeypatch.setattr(fields, "ast", SimpleNamespace(parse=exhausted))
        with pytest.raises(rp.SchemaError):
            field_from_expression("x")

    def test_accepts_moderate_nesting(self):
        field = field_from_expression("-" * 60 + "x" + "+x" * 60)
        assert field.evaluate(np.array([0.0]), np.array([2.0]))[0] == 122.0


class TestCliCommands:
    def test_gen_path_row_count(self, tmp_path, capsys):
        out = tmp_path / "bm.csv"
        code = main(["gen-path", "--kind", "brownian", "--K", "12", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().count("\n") == 4098  # header + 2**12 + 1 rows
        assert read_path_csv(out).samples.size == 4097

    def test_gen_path_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-path", "--kind", "brownian", "--K", "6", "--seed", "3", "--out", str(a)])
        main(["gen-path", "--kind", "brownian", "--K", "6", "--seed", "3", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_averages(self, tmp_path):
        src = tmp_path / "p.csv"
        main(["gen-path", "--kind", "linear", "--K", "4", "--out", str(src)])
        out = tmp_path / "pyr.csv"
        assert main(["averages", "--path", str(src), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,n,h"
        assert len(lines) == 1 + (2**4 - 1)  # sum of 2**k for k < 4

    def test_averages_and_diagnose_near_dbl_max(self, tmp_path, capsys):
        # three samples at DBL_MAX: every pair sum overflows
        src = tmp_path / "max.csv"
        src.write_text("t,value\n" + "".join(f"{t},1.7976931348623157e308\n" for t in (0, 0.5, 1)))
        out = tmp_path / "pyr.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["averages", "--path", str(src), "--out", str(out)]) == 0
            assert main(["diagnose", "--path", str(src), "--beta", "0.6"]) == 0
        assert out.read_text().splitlines()[1:] == ["0,0,1.7976931348623157e+308"]
        assert capsys.readouterr().err == ""

    def test_diagnose_sibling_gap_overflow(self, tmp_path, capsys):
        # finite averages DBL_MAX and -DBL_MAX/2 whose sibling gap overflows
        big = "1.7976931348623157e308"
        src = tmp_path / "gap.csv"
        src.write_text(f"t,value\n0,{big}\n0.25,{big}\n0.5,{big}\n0.75,-{big}\n1,-{big}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["diagnose", "--path", str(src), "--beta", "0.6", "--json"])
            out, err = capsys.readouterr()
            assert code == 2
            assert json.loads(out) == {
                "error": "validation",
                "detail": "a level-1 sibling gap h[1][2n] - h[1][2n+1] overflows the float range",
            }
            assert err == ""
            assert main(["averages", "--path", str(src), "--out", str(tmp_path / "a.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_integrate_overflowing_field_prints_no_warning(self, tmp_path, capsys):
        src = tmp_path / "lin.csv"
        main(["gen-path", "--kind", "linear", "--K", "10", "--out", str(src)])
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["integrate", "--path", str(src), "--field", "exp(1000*x)"])
        out, err = capsys.readouterr()
        assert code == 2
        assert json.loads(out)["detail"] == (
            "field is not finite on the strip enclosing the path range")
        assert err == ""

    def test_diagnose_schema(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        main(["gen-path", "--kind", "brownian", "--K", "10", "--seed", "1", "--out", str(src)])
        capsys.readouterr()
        code = main(["diagnose", "--path", str(src), "--beta", "0.6", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert "verdict" in report and "levels" in report

    def test_integrate_json(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        main(["gen-path", "--kind", "linear", "--K", "12", "--out", str(src)])
        code = main(["integrate", "--path", str(src), "--field", "x", "--json-out",
                     str(tmp_path / "r.json")])
        assert code == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["converged"]
        assert payload["value"] == pytest.approx(0.5, abs=1e-9)

    def test_integrate_not_converged_exit_code(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        main(["gen-path", "--kind", "brownian", "--K", "10", "--seed", "2", "--out", str(src)])
        code = main(["integrate", "--path", str(src), "--field", "sin(t)*x",
                     "--tol", "1e-14"])
        assert code == 3

    @pytest.mark.parametrize("field", ["0+" + "-" * 1000 + "x", "0+" + "-" * 50000 + "x",
                                       "sqrt(abs(x-0.3)-1e-4)*t"])
    def test_bad_field_exit_code(self, tmp_path, capsys, field):
        # too deep, too long, and NaN on a band the finiteness probe misses
        src = tmp_path / "p.csv"
        main(["gen-path", "--kind", "linear", "--K", "12", "--out", str(src)])
        capsys.readouterr()
        with np.errstate(invalid="ignore"):
            code = main(["integrate", "--path", str(src), "--field", field])
        assert code == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["error"] == "validation"
        assert "Traceback" not in err

    @pytest.mark.parametrize("exc", [
        MemoryError(), MemoryError("Unable to allocate 256. TiB for an array with shape "
                                   "(35184372088833,) and data type float64")])
    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch, exc):
        # `gen-path --kind brownian --K 45` asks numpy for 256 TiB; the raise
        # is simulated so that nothing large is allocated
        def refuse(K, seed):
            raise exc

        monkeypatch.setattr(cli, "gen_brownian", refuse)
        code = main(["gen-path", "--kind", "brownian", "--K", "45", "--out",
                     str(tmp_path / "p.csv")])
        out, err = capsys.readouterr()
        assert code == 2
        assert json.loads(out) == {"error": "validation", "detail": str(exc) or "MemoryError"}
        assert err == ""

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # `roughpath integrate ... | head` with the reader already gone
        src = tmp_path / "p.csv"
        main(["gen-path", "--kind", "brownian", "--K", "10", "--seed", "1", "--out", str(src)])
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rp.__file__)))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "roughpath.cli", "integrate", "--path", str(src),
                 "--field", "tx", "--tol", "1e-5"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr

    def test_closed_stdout_in_process_exits_2(self, tmp_path, monkeypatch):
        sink = os.open(tmp_path / "sink", os.O_WRONLY | os.O_CREAT)

        class ClosedPipe(io.StringIO):
            def flush(self):
                raise BrokenPipeError

            def fileno(self):
                return sink

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            code = main(["gen-path", "--kind", "linear", "--K", "3",
                         "--out", str(tmp_path / "p.csv")])
        finally:
            os.close(sink)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--kind", "counterexample", "--K", "12", "--alpha", "0.5", "--beta", "0.4999999999999999"],
        ["--kind", "oscillatory", "--K", "12", "--A", "1e308"],
    ])
    def test_gen_path_past_the_float_range_exits_2(self, tmp_path, capsys, argv):
        code = main(["gen-path", *argv, "--out", str(tmp_path / "p.csv")])
        out = capsys.readouterr().out
        assert code == 2
        assert json.loads(out)["error"] == "validation"
        assert "no grid resolves it" in json.loads(out)["detail"]
        assert not (tmp_path / "p.csv").exists()

    def test_gen_path_with_a_billion_packets_exits_2(self, tmp_path, capsys):
        # K is checked against the last packet before the 10**9 levels are listed
        code = main(["gen-path", "--kind", "oscillatory", "--K", "12", "--m-max", "1000000000",
                     "--out", str(tmp_path / "p.csv")])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out == {"error": "validation", "detail": "K=12 too coarse; need K >= 1818181821"}
        assert not (tmp_path / "p.csv").exists()

    def test_gen_path_counterexample_is_the_library_path(self, tmp_path, capsys):
        out = tmp_path / "cex.csv"
        code = main(["gen-path", "--kind", "counterexample", "--K", "12", "--alpha", "0.3",
                     "--beta", "0.3", "--out", str(out)])
        assert code == 0
        write_path_csv(rp.gen_counterexample(0.3, 0.3, 12), tmp_path / "lib.csv")
        assert out.read_bytes() == (tmp_path / "lib.csv").read_bytes()

    def test_defaults_come_from_the_configs(self):
        parser, _ = cli.build_parser()
        conv, solver = rp.ConvergenceConfig(), rp.SolverConfig()
        args = parser.parse_args(["integrate", "--path", "p.csv", "--field", "x"])
        assert (args.tol, args.min_level, args.quad_tol) == (conv.tol, conv.min_level,
                                                             conv.quad_tol)
        assert parser.parse_args(["green-check", "--path", "p.csv", "--field", "x"]).tol == conv.tol
        args = parser.parse_args(["solve-ode", "--drivers", "p.csv", "--out", "y.csv"])
        assert (args.tol, args.grid_level) == (solver.tol, solver.grid_level)

    def test_validation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,value\n0,0\n0.6,1\n1,2\n")
        code = main(["diagnose", "--path", str(bad), "--beta", "0.5"])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"] == "validation"

    def test_green_check(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        main(["gen-path", "--kind", "linear", "--K", "12", "--out", str(src)])
        capsys.readouterr()
        # the level changes of tx fall by 4 a level: 4.8e-7 and 1.2e-7 last at K = 12
        code = main(["green-check", "--path", str(src), "--field", "tx", "--tol", "1e-6"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["difference"]) < 1e-6
        assert payload["converged"] is True

    def test_green_check_not_converged_exit_code(self, tmp_path, capsys):
        # the same run at the default tol 1e-8 prints its result, then exits 3 as integrate does
        src = tmp_path / "p.csv"
        main(["gen-path", "--kind", "linear", "--K", "12", "--out", str(src)])
        capsys.readouterr()
        code = main(["green-check", "--path", str(src), "--field", "tx"])
        out, err = capsys.readouterr()
        assert code == 3
        payload = json.loads(out)
        assert payload["converged"] is False
        assert abs(payload["difference"]) < 1e-6
        assert err == "integration did not converge within the resolved levels\n"

    def test_ito_compare(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = main(["ito-compare", "--field", "x2", "--K", "12", "--n-paths", "5",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("seed,residual\n")
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_paths"] == 5

    @pytest.mark.parametrize("field, code", [("x**3", 0), ("x2", 0), ("foo", 2), ("t*x", 2)])
    def test_ito_compare_field_lookup(self, capsys, field, code):
        assert main(["ito-compare", "--field", field, "--K", "8", "--n-paths", "2"]) == code
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert payload["n_paths"] == 2 if code == 0 else payload["error"] == "validation"
        assert "Traceback" not in err

    def test_green_check_field_lookup(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        main(["gen-path", "--kind", "sine", "--K", "10", "--out", str(src)])
        capsys.readouterr()
        assert main(["green-check", "--path", str(src), "--field", "x*x"]) == 0
        assert abs(json.loads(capsys.readouterr().out)["difference"]) < 1e-6
        assert main(["green-check", "--path", str(src), "--field", "t*x"]) == 2
        assert "dt_partial" in json.loads(capsys.readouterr().out)["detail"]

    def test_wiener_mc(self, tmp_path, capsys):
        code = main(["wiener-mc", "--k", "6,7", "--n-paths", "4", "--K", "13",
                     "--seed", "9", "--json-out", str(tmp_path / "w.json")])
        assert code == 0
        report = json.loads((tmp_path / "w.json").read_text())
        assert [l["k"] for l in report["levels"]] == [6, 7]

    @pytest.mark.parametrize("argv", [["wiener-mc", "--k", "2", "--K", "8"], ["ito-compare"]])
    def test_empty_ensemble_exit_code(self, capsys, argv):
        assert main([*argv, "--n-paths", "0"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "validation"

    def test_solve_ode(self, tmp_path, capsys):
        src = tmp_path / "x.csv"
        main(["gen-path", "--kind", "linear", "--K", "12", "--out", str(src)])
        out = tmp_path / "y.csv"
        code = main(["solve-ode", "--drivers", str(src), "--F", "linear", "--y0", "1.0",
                     "--beta", "0.9", "--grid-level", "8", "--out", str(out)])
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert abs(rows[-1, 1] - np.e) < 1e-5

    def test_solve_ode_constant_field(self, tmp_path, capsys):
        # dy = dx solves to y0 + x(t) - x(0)
        src = tmp_path / "b.csv"
        main(["gen-path", "--kind", "brownian", "--K", "10", "--seed", "1", "--out", str(src)])
        out = tmp_path / "y.csv"
        code = main(["solve-ode", "--drivers", str(src), "--F", "constant", "--y0", "2.0",
                     "--grid-level", "6", "--out", str(out)])
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        x = read_path_csv(src)
        assert np.abs(rows[:, 1] - (2.0 + x.eval(rows[:, 0]) - x.eval(0.0))).max() < 1e-9

    def test_solve_ode_unknown_field_exits_2(self, tmp_path, capsys):
        src = tmp_path / "x.csv"
        main(["gen-path", "--kind", "linear", "--K", "8", "--out", str(src)])
        capsys.readouterr()
        code = main(["solve-ode", "--drivers", str(src), "--F", "cubic",
                     "--out", str(tmp_path / "y.csv")])
        assert code == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": "validation", "detail": "supported --F values: linear, constant"}

    def test_solve_ode_not_converged_exit_code(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "x.csv"
        main(["gen-path", "--kind", "linear", "--K", "12", "--out", str(src)])
        capsys.readouterr()
        monkeypatch.setattr(ode, "_fixed_point_residual", lambda *args: 2e-8)
        code = main(["solve-ode", "--drivers", str(src), "--beta", "0.9", "--tol", "1e-8",
                     "--grid-level", "8", "--out", str(tmp_path / "y.csv"),
                     "--json-out", str(tmp_path / "s.json")])
        assert code == 3
        out, err = capsys.readouterr()
        assert json.loads(out) == json.loads((tmp_path / "s.json").read_text())
        assert json.loads(out)["converged"] is False
        assert "Traceback" not in err and "residual" in err

    def test_solve_ode_driver_warning_is_one_stderr_note(self, tmp_path, capsys):
        src = tmp_path / "b.csv"
        main(["gen-path", "--kind", "brownian", "--K", "10", "--seed", "1", "--out", str(src)])
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            code = main(["solve-ode", "--drivers", str(src), "--out", str(tmp_path / "y.csv")])
        assert code == 0 and escaped == []
        out, err = capsys.readouterr()
        assert json.loads(out)["converged"] is True
        assert err == ("driver 0: existence diagnostic at exponent 0.500 is inconclusive; "
                       "solving best-effort\n")
        assert "UserWarning" not in err and "cli.py" not in err

    def test_solve_ode_window_underflow_is_numerical(self, tmp_path, capsys):
        src = tmp_path / "x.csv"
        write_path_csv(rp.DyadicPath(1000.0 * np.linspace(0.0, 1.0, 1025), 10), src)
        code = main(["solve-ode", "--drivers", str(src), "--F", "linear",
                     "--out", str(tmp_path / "y.csv")])
        assert code == 3
        out, err = capsys.readouterr()
        assert json.loads(out)["error"] == "numerical"
        assert "Traceback" not in err

    @pytest.mark.parametrize("exc", [rp.QuadratureFailure, rp.WindowUnderflow,
                                     rp.NonFiniteIterate])
    def test_numerical_failures_exit_3(self, tmp_path, capsys, monkeypatch, exc):
        src = tmp_path / "x.csv"
        main(["gen-path", "--kind", "linear", "--K", "10", "--out", str(src)])
        capsys.readouterr()

        def failing(*args, **kwargs):
            raise exc("patched failure")
        monkeypatch.setattr(cli, "solve", failing)
        code = main(["solve-ode", "--drivers", str(src), "--out", str(tmp_path / "y.csv")])
        assert code == 3
        assert json.loads(capsys.readouterr().out) == {"error": "numerical",
                                                       "detail": "patched failure"}

    def test_config_file_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 11\n# comment\nK = 6\n")
        out = tmp_path / "p.csv"
        code = main(["--config", str(cfg), "gen-path", "--kind", "brownian",
                     "--K", "6", "--out", str(out)])
        assert code == 0

    def test_config_values_apply_under_explicit_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 11\n")
        config = ["--config", str(cfg)]

        def gen(prefix, flags):
            out = tmp_path / f"{len(list(tmp_path.iterdir()))}.csv"
            assert main([*prefix, "gen-path", "--kind", "brownian", "--K", "4", *flags,
                         "--out", str(out)]) == 0
            return out.read_text()

        assert gen(config, []) == gen([], ["--seed", "11"])
        assert gen(config, ["--seed", "3"]) == gen([], ["--seed", "3"]) != gen(config, [])

    def test_config_quoted_and_boolean_values(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        main(["gen-path", "--kind", "brownian", "--K", "8", "--seed", "1", "--out", str(src)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f'json-out = "{tmp_path / "r.json"}"\njson = true\n')
        capsys.readouterr()
        assert main(["--config", str(cfg), "diagnose", "--path", str(src), "--beta", "0.6"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "levels" in report
        assert json.loads((tmp_path / "r.json").read_text()) == report

    @pytest.mark.parametrize("line, argv", [
        ("grid_level = eight", ["solve-ode", "--drivers", "{src}", "--out", "{out}"]),
        ("tol = small", ["solve-ode", "--drivers", "{src}", "--out", "{out}"]),
        ("json = maybe", ["diagnose", "--path", "{src}", "--beta", "0.6"]),
    ])
    def test_config_bad_value_is_a_usage_error(self, tmp_path, capsys, line, argv):
        src = tmp_path / "x.csv"
        main(["gen-path", "--kind", "linear", "--K", "10", "--out", str(src)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        argv = [a.format(src=src, out=tmp_path / "y.csv") for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), *argv])
        assert exc.value.code == 2

    def test_config_line_without_equals_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 11\nthreads 4\n")
        with pytest.raises(rp.SchemaError, match="line 2: expected key = value"):
            read_flat_config(cfg)

    def test_config_comments_stop_at_quoted_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text('# seed = 3\nseed = 11 # note\njson-out = "a#b.json"\n'
                       'out = "r.json"  # note\n')
        assert read_flat_config(cfg) == {"seed": "11", "json-out": "a#b.json", "out": "r.json"}

    @pytest.mark.parametrize("line, written", [
        ('json-out = "{d}/a#b.json"', "a#b.json"),
        ('json-out = "{d}/r.json"  # note', "r.json"),
        ('# json-out = "{d}/c.json"\njson-out = "{d}/d.json" # c.json', "d.json"),
    ])
    def test_config_hash_in_quoted_json_out(self, tmp_path, capsys, line, written):
        src = tmp_path / "x.csv"
        main(["gen-path", "--kind", "brownian", "--K", "8", "--seed", "1", "--out", str(src)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line.format(d=tmp_path) + "\n")
        assert main(["--config", str(cfg), "diagnose", "--path", str(src), "--beta", "0.6"]) == 0
        assert [p.name for p in tmp_path.glob("*.json")] == [written]

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_tolerance_must_be_positive(self, tmp_path, tol):
        src = tmp_path / "x.csv"
        main(["gen-path", "--kind", "linear", "--K", "10", "--out", str(src)])
        with pytest.raises(SystemExit) as exc:
            main(["integrate", "--path", str(src), "--field", "x", "--quad-tol", tol])
        assert exc.value.code == 2

    def test_config_defaults_do_not_reach_later_calls(self, tmp_path, capsys):
        # main parses with one shared parser; a --config run must leave it as built
        src = tmp_path / "p.csv"
        main(["gen-path", "--kind", "brownian", "--K", "12", "--seed", "1", "--out", str(src)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = 1e-3\n")
        argv = ["integrate", "--path", str(src), "--field", "tx"]
        capsys.readouterr()
        results = []
        for prefix, flags in (([], ["--tol", "1e-3"]), (["--config", str(cfg)], []),
                              ([], []), ([], ["--tol", "1e-8"])):
            code = main([*prefix, *argv, *flags])
            results.append((code, json.loads(capsys.readouterr().out)))
        loose, configured, default, explicit = results
        assert configured == loose != default == explicit
        assert loose[0] == 0 and default[0] == 3   # tx on this path needs more than 1e-8 allows

    def test_config_rejects_unknown_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 2\n")
        with pytest.raises(SystemExit):
            main(["--config", str(cfg), "gen-path", "--kind", "linear", "--K", "4",
                  "--out", str(tmp_path / "p.csv")])

    def test_threads_flag_and_config_key(self, tmp_path, monkeypatch, capsys):
        # --threads and the config key reach wiener_ensemble as given; no count
        # changes the report
        seen = []

        def recording(*args, threads=None):
            seen.append(threads)
            return rp.wiener_ensemble(*args, threads=threads)

        monkeypatch.setattr(cli, "wiener_ensemble", recording)
        cfg = tmp_path / "t.cfg"
        cfg.write_text("threads = 2\n")
        argv = ["wiener-mc", "--k", "6", "--n-paths", "4", "--K", "12", "--seed", "1"]
        outs = set()
        for prefix in ([], ["--threads", "1"], ["--threads", "-3"], ["--threads", "64"],
                       ["--config", str(cfg)]):
            assert main([*prefix, *argv]) == 0
            outs.add(capsys.readouterr().out)
        assert seen == [None, 1, -3, 64, 2]
        assert len(outs) == 1

    def test_ito_compare_holds_at_most_two_paths(self, tmp_path, monkeypatch, capsys):
        class Tracked(rp.DyadicPath):
            pass   # without __slots__, so it takes weak references

        made, live_before = [], []

        def tracked_brownian(K, seed):
            live_before.append(sum(ref() is not None for ref in made))
            path = Tracked(rp.gen_brownian(K, seed).samples, K)
            made.append(weakref.ref(path))
            return path

        argv = ["ito-compare", "--K", "8", "--n-paths", "6", "--seed", "4"]
        assert main([*argv, "--out", str(tmp_path / "a.csv")]) == 0
        plain = capsys.readouterr().out
        monkeypatch.setattr(cli, "gen_brownian", tracked_brownian)
        assert main([*argv, "--out", str(tmp_path / "b.csv")]) == 0
        assert len(made) == 6
        # the previous path is still held while the next one is made, no more
        assert max(live_before) == 1
        assert capsys.readouterr().out == plain
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_reproduce_runs_criterion(self, capsys):
        code = main(["reproduce", "pyramid-exactness"])
        assert code == 0
        assert "PASS pyramid-exactness" in capsys.readouterr().out


_INTS = st.sampled_from(["-1", "0", "1", "2", "3", "5", "8", "x"])         # K <= 8
_FLOATS = st.sampled_from(["-1", "0", "1e-12", "0.25", "0.5", "1", "2", "nan", "inf", "x"])
_FIELDS = st.sampled_from(["x", "x2", "tx", "sin_t_x", "t_plus_x2", "one", "x**3", "t*t",
                           "sqrt(x)", "log(x)", "1/x", "exp(1000*x)", "foo", "x+"])
_CONFIGS = {"seed.cfg": "seed = 3\n", "tol.cfg": "tol = 1e-6\n", "json.cfg": "json = true\n",
            "bad.cfg": "grid_level = eight\n", "unknown.cfg": "frobnicate = 1\n"}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    write_path_csv(rp.gen_brownian(8, 1), d / "bm.csv")
    write_path_csv(rp.gen_analytic("linear", 6), d / "lin.csv")
    write_path_csv(rp.DyadicPath(1000.0 * np.linspace(0.0, 1.0, 257), 8), d / "steep.csv")
    (d / "bad.csv").write_text("t,value\n0,0\n0.6,1\n1,2\n")
    for name, text in _CONFIGS.items():
        (d / name).write_text(text)
    return d


def _fuzz_flags(d):
    paths = st.sampled_from([str(d / f) for f in ("bm.csv", "lin.csv", "steep.csv", "bad.csv",
                                                  "missing.csv")])
    outs = st.sampled_from([str(d / "out.txt"), str(d / "no-dir" / "out.txt")])
    return {
        "gen-path": {"--kind": st.sampled_from(["brownian", "oscillatory", "counterexample",
                                                "linear", "square", "sine", "cubic"]),
                     "--K": _INTS, "--seed": _INTS, "--alpha": _FLOATS, "--beta": _FLOATS,
                     "--A": _FLOATS, "--m-max": _INTS, "--out": outs},
        "averages": {"--path": paths, "--out": outs},
        "diagnose": {"--path": paths, "--beta": _FLOATS, "--json": st.just(None),
                     "--json-out": outs},
        "integrate": {"--path": paths, "--field": _FIELDS, "--a": _FLOATS, "--b": _FLOATS,
                      "--tol": _FLOATS, "--min-level": _INTS, "--quad-tol": _FLOATS,
                      "--json-out": outs},
        "green-check": {"--path": paths, "--field": _FIELDS, "--s": _FLOATS, "--tol": _FLOATS,
                        "--json-out": outs},
        "ito-compare": {"--field": _FIELDS, "--K": _INTS, "--n-paths": _INTS, "--seed": _INTS,
                        "--s": _FLOATS, "--out": outs},
        "wiener-mc": {"--k": st.sampled_from(["2", "3,4", "", "x", "-1", "9"]),
                      "--n-paths": _INTS, "--K": _INTS, "--seed": _INTS, "--json-out": outs},
        "solve-ode": {"--drivers": st.one_of(paths, st.just(f"{d / 'bm.csv'},{d / 'lin.csv'}")),
                      "--F": st.sampled_from(["linear", "constant", "cubic"]),
                      "--y0": st.sampled_from(["1.0", "1,2", "x", "nan"]), "--beta": _FLOATS,
                      "--tol": _FLOATS, "--grid-level": _INTS, "--out": outs,
                      "--json-out": outs},
    }


_REQUIRED = {"gen-path": {"--kind", "--K", "--out"}, "averages": {"--path", "--out"},
             "diagnose": {"--path", "--beta"}, "integrate": {"--path", "--field"},
             "green-check": {"--path", "--field"}, "wiener-mc": {"--k", "--n-paths", "--K"},
             "solve-ode": {"--drivers", "--out"}}


class TestCliFuzz:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_run_ends_in_an_exit_code(self, fuzz_dir, data):
        table = _fuzz_flags(fuzz_dir)
        command = data.draw(st.sampled_from(sorted(table)))
        argv = []
        if data.draw(st.booleans()):
            argv += ["--config", str(fuzz_dir / data.draw(st.sampled_from(sorted(_CONFIGS))))]
        if data.draw(st.booleans()):
            argv += ["--threads", data.draw(st.sampled_from(["-1", "0", "1", "2", "x"]))]
        argv.append(command)
        for flag, values in table[command].items():
            if flag in _REQUIRED.get(command, ()) or data.draw(st.booleans()):
                value = data.draw(values)
                argv += [flag] if value is None else [flag, value]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                np.errstate(all="ignore"):
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse's usage error
                assert exc.code == 2, argv
                return
        assert code in (0, 2, 3), argv
        assert "Traceback" not in err.getvalue()
        if code == 0 and command in ("gen-path", "averages"):
            assert out.getvalue().startswith("wrote "), argv
            return
        payload = json.loads(out.getvalue())
        if code == 2:
            assert payload["error"] == "validation", argv
