import csv
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import tplab
from tplab import FiniteChain, GaussianChaos, GaussianSeries, SampleSpec, montecarlo
from tplab.bounds import GAMMA_STREAM, check_chaos_matrix, check_chaos_scalar
from tplab.cli import build_model, default_config, main, run_experiment
from tplab.fixtures import catalog, get_field, get_model


def run_cli(args):
    return main(args)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestFixtures:
    def test_catalog_nonempty_and_stable(self):
        rows = catalog()
        assert len(rows) >= 6
        assert rows == catalog()
        names = {r["name"] for r in rows}
        assert {"two-state", "k4", "cycle4", "refresh-product",
                "pauli-series", "psd-chaos", "indicator-1"} <= names

    def test_every_model_fixture_loads_and_validates(self):
        for row in catalog():
            if row["kind"] == "field":
                continue
            model = get_model(row["name"])
            assert isinstance(model, (FiniteChain, GaussianSeries, GaussianChaos))

    def test_field_fixture(self):
        chain = get_model("two-state")
        f = get_field("indicator-1", chain)
        np.testing.assert_array_equal(f.values[:, 0, 0], [0.0, 1.0])

    def test_fixtures_command(self, capsys):
        assert run_cli(["fixtures"]) == 0
        out = capsys.readouterr().out
        assert "two-state" in out and "psd-chaos" in out


class TestRunDefault:
    def test_default_run_passes_and_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["run", "--out", str(out1)]) == 0
        assert run_cli(["run", "--out", str(out2)]) == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_seed_override_changes_random_rows(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["run", "--out", str(out1)]) == 0
        assert run_cli(["run", "--out", str(out2), "--seed", "7"]) == 0
        assert (out1 / "report.csv").read_bytes() != (out2 / "report.csv").read_bytes()

    def test_csv_columns_exact(self, tmp_path):
        run_cli(["run", "--out", str(tmp_path), "--format", "csv"])
        header = (tmp_path / "report.csv").read_text().splitlines()[0]
        assert header == "citation,suite,fixture,lhs,rhs,margin,verdict,tolerance,context"
        assert not (tmp_path / "report.json").exists()

    def test_json_mirror_with_energy_reports(self, tmp_path):
        run_cli(["run", "--out", str(tmp_path), "--format", "json"])
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["rows"] and doc["energy_reports"]
        assert {"gamma", "dirichlet", "variance", "v_f", "mode"} <= set(
            doc["energy_reports"][0]["report"])

    def test_suite_filter(self, tmp_path):
        run_cli(["run", "--out", str(tmp_path), "--suite", "poincare"])
        rows = read_rows(tmp_path / "report.csv")
        assert rows and all(r["suite"] == "poincare" for r in rows)

    def test_citation_tags_everywhere(self, tmp_path):
        run_cli(["run", "--out", str(tmp_path)])
        known = {"scalar-poincare", "trace-poincare", "poincare-equivalence",
                 "variance-subadditivity", "poincare-subadditivity",
                 "mean-value-trace", "dirichlet-chain-rule", "exp-moment",
                 "subexp-tail", "poly-moment", "intdim-moment"}
        rows = read_rows(tmp_path / "report.csv")
        assert {r["citation"] for r in rows} <= known
        assert all(r["citation"] for r in rows)


class TestHandValuesThroughCli:
    def test_two_state_margins_reproduced(self, tmp_path):
        cfg = {
            "seed": 1,
            "model": {"fixture": "two-state"},
            "fields": [{"type": "fixture", "name": "indicator-1"}],
            "suites": ["poincare", "exp-moment", "poly-moment"],
            "params": {"theta_grid": [1.0], "q_list": [1]},
            "output": {"dir": str(tmp_path / "out"), "format": "csv"},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", str(path)]) == 0
        rows = read_rows(tmp_path / "out" / "report.csv")
        by_citation = {r["citation"]: r for r in rows}
        scalar = by_citation["scalar-poincare"]
        assert float(scalar["lhs"]) == pytest.approx(0.25, abs=1e-15)
        assert abs(float(scalar["margin"])) <= 1e-12
        exp = by_citation["exp-moment"]
        assert float(exp["lhs"]) == pytest.approx(math.cosh(0.5), abs=1e-12)
        assert float(exp["rhs"]) == pytest.approx(9.0 / 7.0, abs=1e-12)
        poly = by_citation["poly-moment"]
        assert float(poly["lhs"]) == pytest.approx(0.5, abs=1e-12)
        assert float(poly["rhs"]) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_constant_field_all_suites_pass(self, tmp_path):
        cfg = default_config()
        cfg["fields"] = [{"type": "constant", "matrix": [[1.0, 0.0], [0.0, -2.0]]}]
        rows, _, counts = run_experiment(cfg)
        assert counts["FAIL"] == 0
        # equality or trivial-pass margins everywhere that is not SKIPPED
        for row in rows:
            assert row["verdict"] in ("PASS", "SKIPPED")


class TestGaussianConfigs:
    def test_pauli_series_tail_and_poly(self, tmp_path):
        cfg = {
            "seed": 99,
            "samples": {"n": 20000},
            "model": {"fixture": "pauli-series"},
            "suites": ["tail", "poly-moment"],
            "params": {"lambda_grid": [1, 2, 4, 8], "q_list": [1, 2]},
            "output": {"dir": str(tmp_path / "out"), "format": "both"},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", str(path)]) == 0
        rows = read_rows(tmp_path / "out" / "report.csv")
        assert {r["suite"] for r in rows} == {"tail", "poly-moment"}

    def test_chaos_suite(self, tmp_path):
        cfg = {
            "seed": 5,
            "samples": {"n": 20000},
            "model": {"fixture": "psd-chaos"},
            "suites": ["chaos"],
            "params": {"q_list": [1, 2]},
            "output": {"dir": str(tmp_path / "out"), "format": "csv"},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", str(path)]) == 0
        rows = read_rows(tmp_path / "out" / "report.csv")
        assert {r["citation"] for r in rows} == {"chaos-scalar", "chaos-matrix"}

    def test_d1_chaos_suite_makes_one_f_pass(self, monkeypatch):
        seeds = []
        real = montecarlo.estimate_statistic

        def counted(spec, *args, **kwargs):
            seeds.append(spec.seed)
            return real(spec, *args, **kwargs)

        spec = SampleSpec(n=20000, seed=5)
        chaos = get_model("psd-chaos")
        # each checker making its own f-pass gives the same rows, bit for bit
        alone = [r.to_row(suite="chaos", fixture="psd-chaos")
                 for r in check_chaos_scalar(chaos, [1, 2], spec)
                 + check_chaos_matrix(chaos, [1, 2], spec)]
        monkeypatch.setattr(montecarlo, "estimate_statistic", counted)
        rows, _, _ = run_experiment({"seed": 5, "samples": {"n": 20000},
                                     "model": {"fixture": "psd-chaos"}, "suites": ["chaos"],
                                     "params": {"q_list": [1, 2]}})
        assert rows == alone
        # the scalar and matrix corollaries share the f-pass; Gamma has its own stream
        assert sorted(seeds) == sorted([5, 5 ^ 0x5DEECE66D])


class _CountedField:
    """A field whose batch evaluations are logged; all a pass reads of it."""

    def __init__(self, field, calls):
        self.field, self.calls, self.ambient_dim = field, calls, field.ambient_dim

    def eval_batch(self, xs):
        self.calls.append(len(xs))
        return self.field.eval_batch(xs)


def _matrix_chaos(seed=241):
    coef = np.random.default_rng(seed).standard_normal((3, 3, 2, 2))
    return {"name": "chaos-3x2", "gaussian_chaos": {"coefficients": coef.tolist()}}


class TestSharedPasses:
    def count_passes(self, monkeypatch):
        passes = []
        real = montecarlo.estimate_statistic

        def counted(spec, field, *args, **kwargs):
            calls = []
            passes.append((spec.seed, calls))
            return real(spec, _CountedField(field, calls), *args, **kwargs)

        monkeypatch.setattr(montecarlo, "estimate_statistic", counted)
        return passes

    def test_series_tail_and_poly_moment_evaluate_once_per_block(self, monkeypatch):
        passes = self.count_passes(monkeypatch)
        rows, _, _ = run_experiment({"seed": 3, "samples": {"n": 20000},
                                     "model": {"fixture": "pauli-series"},
                                     "suites": ["tail", "poly-moment"]})
        assert {r["suite"] for r in rows} == {"tail", "poly-moment"}
        assert passes == [(3, [4096] * 4 + [3616])]

    def test_chaos_poly_moment_and_corollaries_make_one_pass_per_stream(self, monkeypatch):
        passes = self.count_passes(monkeypatch)
        rows, _, _ = run_experiment({"seed": 5, "samples": {"n": 20000},
                                     "model": {"fixture": "psd-chaos"},
                                     "suites": ["poly-moment", "chaos"]})
        assert {r["citation"] for r in rows} == {"poly-moment", "chaos-scalar", "chaos-matrix"}
        assert sorted(seed for seed, _ in passes) == sorted([5, 5 ^ GAMMA_STREAM])
        assert all(len(calls) == 5 for _, calls in passes)

    def test_chaos_energies_open_no_stream(self, monkeypatch):
        # 5 blocks of the f-stream, 5 of the Gamma stream and the energy
        # report's 8-point probe; the exact energies draw nothing
        opened = []
        real = montecarlo.normal_stream

        def counted(seed, stream):
            opened.append((seed, stream))
            return real(seed, stream)

        monkeypatch.setattr(montecarlo, "normal_stream", counted)
        run_experiment({"seed": 5, "samples": {"n": 20000}, "model": {"fixture": "psd-chaos"},
                        "suites": ["poly-moment", "chaos"]})
        assert len(opened) == 11

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("model, suites, params", [
        ({"fixture": "pauli-series"}, ["tail", "poly-moment"],
         {"lambda_grid": [1, 2, 4], "q_list": [1, 2]}),
        # no q_list: each suite keeps its own default orders
        ({"fixture": "pauli-series"}, ["poly-moment", "tail"], {}),
        ({"fixture": "psd-chaos"}, ["poly-moment", "chaos"], {}),
        (_matrix_chaos(), ["chaos", "poly-moment"], {"q_list": [1, 1.5, 3]}),
        # the tail reads the centred spectrum, the chaos suite the uncentred one
        (_matrix_chaos(), ["tail", "poly-moment", "chaos"], {"v_f_bound": 40.0}),
    ])
    def test_rows_equal_one_run_per_suite(self, workers, antithetic, model, suites, params):
        if antithetic:
            suites = [s for s in suites if s != "tail"]
        cfg = {"seed": 7, "samples": {"n": 10000, "workers": workers, "antithetic": antithetic},
               "model": model, "suites": suites, "params": params}
        rows, _, _ = run_experiment(cfg)
        alone = []
        for suite in suites:
            alone += run_experiment({**cfg, "suites": [suite]})[0]
        assert rows == alone

    def write(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_antithetic_tail_beside_poly_moment_exits_2(self, tmp_path, capsys):
        cfg = {"seed": 1, "samples": {"n": 20000, "antithetic": True},
               "model": {"fixture": "pauli-series"}, "suites": ["poly-moment", "tail"]}
        assert run_cli(["run", "--config", self.write(tmp_path, cfg),
                        "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "DomainError: antithetic pairing breaks the Bernoulli model")
        assert not (tmp_path / "report.csv").exists()

    def test_small_tail_sample_exits_2(self, tmp_path, capsys):
        cfg = {"seed": 1, "samples": {"n": 5000},
               "model": {"fixture": "pauli-series"}, "suites": ["poly-moment", "tail"]}
        assert run_cli(["run", "--config", self.write(tmp_path, cfg),
                        "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "DomainError: tail estimation needs N >= 10^4 samples")


TWO_STATE = {"model": {"fixture": "two-state"},
             "fields": [{"type": "fixture", "name": "indicator-1"}]}
PAULI = {"model": {"fixture": "pauli-series"}, "samples": {"n": 10000}}


class TestParamLists:
    @pytest.mark.parametrize("base, suite, params, label", [
        # a NaN order used to give FAIL (lhs = rhs = nan, exit 1) on a chain
        (TWO_STATE, "poly-moment", {"q_list": [math.nan]}, "params.q_list"),
        # ... and INCONCLUSIVE with "q": NaN in the context on a series
        (PAULI, "poly-moment", {"q_list": [1, math.nan]}, "params.q_list"),
        (PAULI, "chaos", {"q_list": [0.5]}, "params.q_list"),
        (PAULI, "poly-moment", {"q_list": [True]}, "params.q_list"),
        (PAULI, "poly-moment", {"q_list": 2}, "params.q_list"),
        # a NaN intdim order used to escape as a bare ValueError, exit 1
        (TWO_STATE, "intdim", {"intdim_q": [math.nan]}, "params.intdim_q"),
        # and a fractional one was truncated to its integer part
        (TWO_STATE, "intdim", {"intdim_q": [1.5]}, "params.intdim_q"),
        (TWO_STATE, "intdim", {"intdim_q": [0]}, "params.intdim_q"),
        (TWO_STATE, "tail", {"lambda_grid": [1, math.inf]}, "params.lambda_grid"),
        (PAULI, "tail", {"lambda_grid": [0, 1]}, "params.lambda_grid"),
        (PAULI, "tail", {"lambda_grid": [math.nan]}, "params.lambda_grid"),
        # a NaN scale used to give a SKIPPED row reading "bound unbounded"
        (TWO_STATE, "exp-moment", {"theta_grid": [math.nan]}, "params.theta_grid"),
        # ... and a string a bare ValueError, exit 1
        (TWO_STATE, "exp-moment", {"theta_grid": ["a"]}, "params.theta_grid"),
        (TWO_STATE, "exp-moment", {"theta_grid": [0.5, -1.0]}, "params.theta_grid"),
        # an empty dims list used to raise ZeroDivisionError, exit 1
        (TWO_STATE, "poincare", {"probe": {"trials": 3, "dims": []}}, "params.probe.dims"),
        # d = 0 used to give a SKIPPED row reading "trials": 0 for 3 trials
        (TWO_STATE, "poincare", {"probe": {"trials": 3, "dims": [0]}}, "params.probe.dims"),
        (TWO_STATE, "poincare", {"probe": {"trials": 3, "dims": [1.5]}}, "params.probe.dims"),
        (TWO_STATE, "poincare", {"probe": {"trials": "a"}}, "params.probe.trials"),
        (TWO_STATE, "poincare", {"probe": {"trials": -1}}, "params.probe.trials"),
        (TWO_STATE, "poincare", {"probe": [3, [1]]}, "params.probe"),
    ])
    def test_invalid_list_exits_2(self, tmp_path, capsys, base, suite, params, label):
        cfg = {"seed": 1, **base, "suites": [suite], "params": params}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"ConfigError: {label}: ")
        assert not (tmp_path / "report.csv").exists()

    def test_integral_float_probe_settings_accepted(self):
        cfg = {"seed": 1, **TWO_STATE, "suites": ["poincare"]}
        as_int = run_experiment({**cfg, "params": {"probe": {"trials": 6, "dims": [1, 2]}}})
        as_float = run_experiment({**cfg, "params": {"probe": {"trials": 6.0, "dims": [1.0, 2]}}})
        assert as_float == as_int

    def test_integral_float_intdim_order_accepted(self):
        cfg = {"seed": 1, **TWO_STATE, "suites": ["intdim"]}
        as_int = run_experiment({**cfg, "params": {"intdim_q": [1, 2]}})
        as_float = run_experiment({**cfg, "params": {"intdim_q": [1.0, 2e0]}})
        assert as_float == as_int


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["tplab", "tplab.cli"])
    def test_python_m_runs_a_config(self, tmp_path, module):
        cfg = {"seed": 1, **TWO_STATE, "suites": ["poincare"],
               "params": {"probe": {"trials": 2, "dims": [1]}}}
        good = tmp_path / "cfg.json"
        good.write_text(json.dumps(cfg))
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 1,')
        src = os.path.dirname(os.path.dirname(tplab.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

        def run(path, out):
            return subprocess.run([sys.executable, "-m", module, "run", "--config", str(path),
                                   "--out", str(out)], env=env, capture_output=True, text=True)

        proc = run(good, tmp_path / "out")
        assert proc.returncode == 0, proc.stderr
        assert read_rows(tmp_path / "out" / "report.csv")
        proc = run(bad, tmp_path / "bad-out")
        assert proc.returncode == 2
        assert proc.stderr.startswith("ConfigError: ")
        assert not (tmp_path / "bad-out").exists()


class TestColdStart:
    def test_runs_never_load_scipy(self):
        script = textwrap.dedent("""
            import sys
            import tplab, tplab.cli
            from tplab.cli import default_config, run_experiment
            run_experiment(default_config())
            run_experiment({"seed": 3, "samples": {"n": 10000},
                            "model": {"fixture": "pauli-series"},
                            "suites": ["tail", "poly-moment"]})
            run_experiment({"seed": 3, "samples": {"n": 2000},
                            "model": {"fixture": "psd-chaos"}, "suites": ["chaos"]})
            run_experiment({"model": {"graph": {"edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
                                                "k": 2}},
                            "fields": [{"type": "random", "dim": 2}],
                            "suites": ["poincare", "tail"]})
            print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
        """)
        src = os.path.dirname(os.path.dirname(tplab.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"


class TestExitCodes:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert run_cli(["run", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.json:1:" in err

    def test_unknown_suite_exits_2(self, tmp_path):
        cfg = default_config()
        cfg["suites"] = ["nonsense"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", str(path)]) == 2

    def test_suite_model_mismatch_exits_2(self, tmp_path):
        cfg = {"seed": 1, "model": {"fixture": "pauli-series"},
               "suites": ["poincare"], "output": {"dir": str(tmp_path)}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", str(path)]) == 2

    def test_capacity_exits_3(self, tmp_path):
        cfg = {
            "seed": 1,
            "model": {"product": {"base": {"fixture": "two-state"}, "n": 21}},
            "fields": [{"type": "constant", "value": 0.0}],
            "suites": ["poincare"],
            "output": {"dir": str(tmp_path)},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", str(path)]) == 3

    def test_capacity_error_is_labelled(self, tmp_path, capsys):
        cfg = {"seed": 1, "model": {"product": {"base": {"fixture": "two-state"}, "n": 21}},
               "fields": [{"type": "constant", "value": 0.0}], "suites": ["poincare"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", str(path), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("CapacityError: ")

    @pytest.mark.parametrize("model, label", [
        ({"generator": [[-1.0, 1.0], [2.0, -2.0]], "stationary": [0.5, 0.5]}, "ModelError"),
        ({"gaussian_series": {"coefficients": [[1.0, 2.0]]}}, "DimensionError"),
    ])
    def test_error_class_is_printed(self, tmp_path, capsys, model, label):
        cfg = {"seed": 1, "model": model, "fields": [{"type": "constant", "value": 0.0}],
               "suites": ["poincare"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{label}: ") and "config error" not in err

    def test_non_finite_table_field_exits_2(self, tmp_path, capsys):
        # one NaN entry used to give FAIL rows and exit code 1
        cfg = {"seed": 1, "model": {"fixture": "two-state"},
               "fields": [{"type": "table", "values": [0.0, float("nan")]}],
               "suites": ["poincare", "tail"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: fields[0]:") and "finite" in err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("values, suites, params, citation", [
        # these used to give a FAIL row with lhs = rhs = inf and margin nan,
        # an uncaught OverflowError, and FAIL rows with NaN sides: exit 1
        ([0.0, 1000.0], ["poly-moment"], {"q_list": [2, 200]}, "poly-moment"),
        ([0.0, 1000.0], ["intdim"], {"intdim_q": [200]}, "intdim-moment"),
        ([0.0, 1e200], ["poincare", "poly-moment"], {}, "scalar-poincare"),
    ])
    def test_overflow_exits_2(self, tmp_path, capsys, values, suites, params, citation):
        cfg = {"seed": 1, "model": {"fixture": "two-state"},
               "fields": [{"type": "table", "values": values}],
               "suites": suites, "params": params}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with np.errstate(all="ignore"):
            code = run_cli(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"NumericError: {citation}: no verdict")
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("model, suites", [
        # these used to give PASS rows and exit 0, or PASS and INCONCLUSIVE
        ({"gaussian_series": {"coefficients": [[[math.inf]]]}}, ["poly-moment"]),
        ({"gaussian_series": {"coefficients": [[[1.0]], [[math.nan]]]}},
         ["tail", "poly-moment"]),
        ({"gaussian_chaos": {"coefficients": [[[[math.inf]]]]}}, ["chaos"]),
    ])
    def test_non_finite_gaussian_coefficients_exit_2(self, tmp_path, capsys, model, suites):
        cfg = {"seed": 1, "samples": {"n": 10000}, "model": model, "suites": suites}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("DomainError: Gaussian ") and "finite" in err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("change, label", [
        # bare KeyErrors, exit 1
        ({"fields": [{"type": "fixture"}]}, "fields[0]: missing key 'name'"),
        ({"fields": [{"type": "table"}]}, "fields[0]: missing key 'values'"),
        ({"model": {"product": {"base": {"fixture": "two-state"}}}},
         "model.product: missing key 'n'"),
        # AttributeErrors, exit 1
        ({"fields": {"type": "fixture", "name": "indicator-1"}}, "fields: "),
        ({"fields": [3]}, "fields[0]: "),
        # ValueErrors, exit 1
        ({"model": {"two_state": {"rate": "x"}}}, "model.two_state: "),
        ({"model": {"graph": {"edges": [[0, 1]], "k": "x"}}}, "model.graph: "),
        ({"params": {"phis": [{"kind": "sinh", "scale": "x"}]}}, "params.phis[0]: "),
        ({"model": {"product": {"base": {"fixture": "two-state"}, "n": "x"}}},
         "model.product.n: "),
        # a d = 0 field used to run and PASS trace-poincare
        ({"fields": [{"type": "random", "dim": 0}]}, "fields[0]: "),
    ])
    def test_malformed_descriptor_exits_2(self, tmp_path, capsys, change, label):
        cfg = {"seed": 1, **TWO_STATE, "suites": ["poincare", "chain-rule"],
               "params": {"probe": {"trials": 3}}, **change}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"ConfigError: {label}")
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("samples, env, label", [
        ({"n": "1e5"}, None, "ConfigError: samples.n: "),
        ({"n": 1000, "workers": "two"}, None, "ConfigError: samples.workers: "),
        ({"n": 1000}, "two", "ConfigError: TPL_THREADS: "),
        # a string flag used to turn pairing on through bool("false")
        ({"n": 1000, "antithetic": "false"}, None, "ConfigError: samples.antithetic: "),
        # fractional counts used to be truncated silently
        ({"n": 20000.7}, None, "ConfigError: samples.n: "),
        ({"n": 1000, "workers": 1.5}, None, "ConfigError: samples.workers: "),
    ])
    def test_malformed_sample_settings_exit_2(self, tmp_path, capsys, monkeypatch,
                                              samples, env, label):
        # these used to escape as a bare ValueError and exit 1, the FAIL code
        if env is not None:
            monkeypatch.setenv("TPL_THREADS", env)
        cfg = {"seed": 1, "model": {"fixture": "pauli-series"}, "samples": samples,
               "suites": ["poly-moment"], "params": {"q_list": [1]}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(label)
        assert not (tmp_path / "report.csv").exists()

    def test_integral_float_sample_count_accepted(self):
        cfg = {"seed": 1, "model": {"fixture": "pauli-series"},
               "suites": ["poly-moment"], "params": {"q_list": [1]}}
        as_int = run_experiment({**cfg, "samples": {"n": 2000, "workers": 2}})
        as_float = run_experiment({**cfg, "samples": {"n": 2e3, "workers": 2.0}})
        assert as_float == as_int

    def test_missing_file_exits_2(self):
        assert run_cli(["run", "--config", "/nonexistent/cfg.json"]) == 2

    def test_unresolvable_fixture_exits_2(self, tmp_path):
        cfg = default_config()
        cfg["model"] = {"fixture": "no-such-model"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", str(path)]) == 2


class TestModelDescriptors:
    def test_inline_chain_json(self):
        model, name = build_model({"generator": [[-1.0, 1.0], [1.0, -1.0]],
                                   "stationary": [0.5, 0.5], "name": "inline"})
        assert isinstance(model, FiniteChain) and name == "inline"

    def test_graph_descriptor(self):
        model, _ = build_model({"graph": {"edges": [[0, 1], [1, 2], [2, 0]], "k": 2}})
        assert model.n_states == 3

    def test_two_state_and_refresh(self):
        model, _ = build_model({"two_state": {"rate": 2.0}})
        assert model.generator[0, 1] == 2.0
        model, _ = build_model({"complete_refresh": {"stationary": [0.25, 0.75]}})
        assert isinstance(model, FiniteChain)

    def test_gaussian_descriptors(self):
        model, _ = build_model({"gaussian_series": {"coefficients": [[[1.0]]]}})
        assert isinstance(model, GaussianSeries)
        model, _ = build_model({"gaussian_chaos": {"coefficients": [[[[1.0]]]]}})
        assert isinstance(model, GaussianChaos)
