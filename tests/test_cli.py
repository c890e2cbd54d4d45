import csv
import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import tplab
from tplab import (FiniteChain, GaussianChaos, GaussianPass, GaussianSeries, SampleSpec,
                   SmoothField, bounds, energy, estimate_trace_moment, montecarlo,
                   rows_to_json)
from tplab.bounds import (GAMMA_STREAM, chaos_gamma_moments, check_chaos_matrix,
                          check_chaos_scalar)
from tplab.cli import CHAIN_ONLY, build_model, default_config, main, run_experiment
from tplab.fixtures import catalog, get_field, get_model

from conftest import load_perfbench


def run_cli(args):
    return main(args)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def assert_same_run(got, want):
    """Two run_experiment results agree: rows and counts by ==, energy
    reports, which hold arrays, by their report.json text."""
    (rows, energy, counts), (want_rows, want_energy, want_counts) = got, want
    assert rows == want_rows and counts == want_counts
    assert rows_to_json(rows, energy) == rows_to_json(want_rows, want_energy)


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

    def test_refresh_product_json_is_json_dumps_of_lists(self, tmp_path):
        # energy tables reach the writer as arrays; the file must read as if
        # they had been lists: indicator-1's Gamma repeats a few values, the
        # d = 2 table its off-diagonal
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((3 ** 5, 2, 2))
        cfg = {"seed": 2,
               "model": {"product": {"base": {"complete_refresh": {"stationary": [0.2, 0.3, 0.5]}},
                                     "n": 5}},
               "fields": [{"type": "fixture", "name": "indicator-1"},
                          {"type": "table", "name": "d2",
                           "values": (raw + raw.transpose(0, 2, 1)).tolist()}],
               "suites": ["poincare", "exp-moment", "tail", "poly-moment"],
               "params": {"probe": {"trials": 4, "dims": [1, 2]}}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", str(path), "--out", str(tmp_path),
                        "--format", "both"]) == 0
        rows, energy, _ = run_experiment(cfg)
        listed = [{**e, "report": {k: v.tolist() if isinstance(v, np.ndarray) else v
                                   for k, v in e["report"].items()}} for e in energy]
        doc = {"schema": "tplab-report-v1", "rows": rows, "energy_reports": listed}
        assert (tmp_path / "report.json").read_text() == json.dumps(
            doc, sort_keys=True, indent=2) + "\n"

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


class TestSharedEnergies:
    def test_gamma_built_once_per_field(self, monkeypatch):
        # every chain suite reads the field's one energy report
        calls = []
        real = energy.carre_table

        def counted(chain, f):
            calls.append(f)
            return real(chain, f)

        monkeypatch.setattr(energy, "carre_table", counted)
        cfg = default_config()
        cfg["fields"] = [{"type": "fixture", "name": "indicator-1"},
                         {"type": "random", "dim": 2, "count": 2, "seed": 101}]
        cfg["params"]["probe"] = {"trials": 6, "dims": [1, 2]}
        assert set(cfg["suites"]) == CHAIN_ONLY | {"tail", "poly-moment"}
        rows, reports, _ = run_experiment(cfg)
        assert len(reports) == 3 and {r["suite"] for r in rows} == set(cfg["suites"])
        assert len(calls) == 3


    def test_chain_rule_suite_decomposes_each_field_once(self, monkeypatch):
        # one spectral.eigh per field serves the chain-rule rows and the
        # mean-value rows of states 0 and 1
        calls = []
        real = bounds.eigh

        def counted(a):
            calls.append(np.shape(a))
            return real(a)

        monkeypatch.setattr(bounds, "eigh", counted)
        cfg = {"seed": 3, "model": {"product": {"base": {"complete_refresh": {
                   "stationary": [0.2, 0.3, 0.5]}}, "n": 2}},
               "fields": [{"type": "fixture", "name": "indicator-1"},
                          {"type": "random", "dim": 2, "count": 2, "seed": 101}],
               "suites": ["chain-rule"],
               "params": {"phis": [{"kind": "sinh"}, {"kind": "signed_pow", "exponent": 2.0},
                                   {"kind": "affine", "a": 2.0, "b": 1.0}]}}
        rows, _, _ = run_experiment(cfg)
        assert calls == [(9, 1, 1), (9, 2, 2), (9, 2, 2)]
        assert [r["citation"] for r in rows] == ["dirichlet-chain-rule",
                                                 "mean-value-trace"] * 9


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
        # the uncentred f-pass and the Gamma / 4 pass, each made alone,
        # give the same rows, bit for bit
        (f_ests,) = estimate_trace_moment(chaos.as_field(), [1, 2], spec)
        gam_ests = chaos_gamma_moments(chaos, [1, 2], spec)
        mc = GaussianPass(spec=spec, v_f=None, v_f_mode=None, tail={}, poly={},
                          chaos=dict(zip([1.0, 2.0], zip(f_ests, gam_ests))))
        alone = [r.to_row(suite="chaos", fixture="psd-chaos")
                 for r in check_chaos_scalar(chaos, mc, [1, 2])
                 + check_chaos_matrix(chaos, mc, [1, 2])]
        monkeypatch.setattr(montecarlo, "estimate_statistic", counted)
        rows, _, _ = run_experiment({"seed": 5, "samples": {"n": 20000},
                                     "model": {"fixture": "psd-chaos"}, "suites": ["chaos"],
                                     "params": {"q_list": [1, 2]}})
        assert rows == alone
        # the scalar and matrix corollaries share the f-pass; Gamma has its own stream
        assert sorted(seeds) == sorted([5, 5 ^ 0x5DEECE66D])

    @pytest.mark.parametrize("cfg", [
        # one draw used to decide: the q = 1 row FAILed with lhs 3.1147
        # against rhs 2.8284, and chaos-matrix the same way, exit 1
        {"seed": 8, "model": {"fixture": "pauli-series"}, "suites": ["poly-moment"],
         "params": {"q_list": [1, 2, 3]}},
        {"seed": 5, "model": {"fixture": "psd-chaos"}, "suites": ["chaos"]},
    ])
    def test_one_sample_gives_no_verdict(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "samples": {"n": 1}}))
        assert run_cli(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "report.csv")
        assert rows and {r["verdict"] for r in rows} == {"INCONCLUSIVE"}

    def test_reversed_lambda_grid_gives_reversed_rows(self):
        # each level is its own indicator, so the order of the grid is free;
        # a descending grid used to exit 2 on Gaussian models only
        cfg = {"seed": 3, "samples": {"n": 10000}, "model": {"fixture": "pauli-series"},
               "suites": ["tail"], "params": {"lambda_grid": [0.5, 1, 2, 4]}}
        up, _, _ = run_experiment(cfg)
        down, _, _ = run_experiment({**cfg, "params": {"lambda_grid": [4, 2, 1, 0.5]}})
        assert len(up) == 4 and down == up[::-1]


class TestEstimatedRhs:
    """A scalar chaos in 6 variables with A_ii = 1 and every other
    coefficient 0: at q = 1 both sides of the chaos-matrix row are
    sqrt(48) (E f^2 = 36 + 12 and 8 sum_ij A_ij^2 = 48), and both are Monte
    Carlo estimates, so only a comparison of the two intervals can keep the
    rhs's own error from making a FAIL."""

    COEF = np.zeros((6, 6, 1, 1))
    COEF[range(6), range(6)] = 1.0
    CFG = {"samples": {"n": 20000}, "suites": ["chaos"], "params": {"q_list": [1]},
           "model": {"gaussian_chaos": {"coefficients": COEF.tolist()}}}

    def matrix_row(self, seed):
        rows, _, _ = run_experiment({**self.CFG, "seed": seed})
        (row,) = [r for r in rows if r["citation"] == "chaos-matrix"]
        return row

    def test_seed_18_is_no_counterexample(self, tmp_path):
        # the lhs interval [6.920, 7.076] lies above the rhs point 6.918 but
        # overlaps the rhs interval [6.882, 6.954]
        row = self.matrix_row(18)
        assert row["lhs"] > row["rhs"] and row["verdict"] == "INCONCLUSIVE"
        lo, hi = row["context"]["rhs_ci"]
        assert lo < row["rhs"] < hi < row["context"]["ci_high"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self.CFG, "seed": 18}))
        assert run_cli(["run", "--config", str(path), "--out", str(tmp_path)]) == 0

    def test_no_fail_over_50_seeds(self):
        assert all(self.matrix_row(seed)["verdict"] != "FAIL" for seed in range(50))

    def test_a_smaller_rhs_still_fails(self, monkeypatch):
        # the Gamma moments scaled by 0.9^(2q) scale the rhs and its interval
        # by 0.9: a true counterexample must still FAIL
        real = bounds.chaos_gamma_moments

        def scaled(chaos, q_list, spec):
            return [dataclasses.replace(e, value=e.value * 0.9 ** (2 * q),
                                        ci_low=e.ci_low * 0.9 ** (2 * q),
                                        ci_high=e.ci_high * 0.9 ** (2 * q))
                    for q, e in zip(q_list, real(chaos, q_list, spec))]

        monkeypatch.setattr(bounds, "chaos_gamma_moments", scaled)
        row = self.matrix_row(18)
        assert row["rhs"] == pytest.approx(0.9 * 6.917865039327238, rel=1e-12)
        assert any(self.matrix_row(seed)["verdict"] == "FAIL" for seed in range(50))


class TestTimeRescaling:
    """L -> cL gives Gamma -> c Gamma and alpha -> alpha / c, so every row of
    the seven chain suites keeps its lhs and rhs, except the two rows that
    measure one of them alone: both sides of dirichlet-chain-rule scale by c
    and both sides of poincare-equivalence by 1 / c.  The benchmark's
    chain-many-fields workload (tiny, seed 1) with its refresh base written
    as a generator; at powers of two the rows agree bit for bit."""

    SCALED = {"dirichlet-chain-rule": lambda c: c, "poincare-equivalence": lambda c: 1.0 / c}

    @pytest.fixture(scope="class")
    def run(self):
        cfg = load_perfbench("workloads").build_config("chain-many-fields", 1, "tiny")
        assert set(cfg["suites"]) == CHAIN_ONLY | {"tail", "poly-moment"}
        product = cfg["model"]["product"]
        mu = np.asarray(product["base"]["complete_refresh"]["stationary"])
        refresh = np.tile(mu, (mu.size, 1)) - np.eye(mu.size)

        def rows(c):
            base = {"generator": (c * refresh).tolist(), "stationary": mu.tolist()}
            return run_experiment({**cfg, "model": {"product": {**product, "base": base}}})[0]

        return rows

    @pytest.mark.parametrize("c", [4.0, 0.25, 3.0, 1e-3])
    def test_every_row_keeps_its_sides(self, run, c):
        base, rows = run(1.0), run(c)
        assert len(rows) == len(base) == 470
        for want, got in zip(base, rows):
            citation = want["citation"]
            assert (got["citation"], got["verdict"]) == (citation, want["verdict"])
            k = self.SCALED.get(citation, lambda c: 1.0)(c)
            for side in ("lhs", "rhs"):
                # the intdim rhs adds log alpha and log v_g separately
                if c in (4.0, 0.25) and (citation, side) != ("intdim-moment", "rhs"):
                    assert got[side] == want[side] * k, (citation, side)
                else:
                    assert got[side] == pytest.approx(want[side] * k, rel=1e-13, abs=0.0)


    @pytest.mark.parametrize("c", [1e-15, 1e-12, 1e3])
    def test_extreme_rates_keep_every_row_and_verdict(self, run, c):
        # no floor of the gap or of the probe is absolute: every row keeps its
        # key, context keys and verdict, and alpha becomes alpha_1 / c
        base, rows = run(1.0), run(c)
        assert len(rows) == len(base) == 470
        for want, got in zip(base, rows):
            key = ("citation", "suite", "fixture", "verdict")
            assert [got[k] for k in key] == [want[k] for k in key]
            assert sorted(got["context"]) == sorted(want["context"])
            assert got["context"].get("field") == want["context"].get("field")
            if "alpha" in want["context"]:
                assert got["context"]["alpha"] == pytest.approx(
                    want["context"]["alpha"] / c, rel=1e-12)
        assert [r["context"]["trials"] for r in rows
                if r["citation"] == "poincare-equivalence"] == [12]


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

    def test_chaos_gamma_pass_reads_one_moment_per_order(self, monkeypatch):
        # the Gamma stream's per-sample function returns one statistic per
        # order of the union of the q lists, E tr (Gamma / 4)^q, which
        # poly-moment and chaos-matrix both read: one object per order
        widths = []
        real = montecarlo.estimate_statistic

        def counted(spec, field, per_sample):
            def logged(mats):
                out = per_sample(mats)
                widths.append((spec.seed, len(out)))
                return out

            return real(spec, field, logged)

        monkeypatch.setattr(montecarlo, "estimate_statistic", counted)
        chaos = GaussianChaos(np.asarray(_matrix_chaos()["gaussian_chaos"]["coefficients"]))
        spec = SampleSpec(n=10000, seed=7)  # three blocks
        mc = bounds.gaussian_pass(chaos, tplab.energy_report(chaos, spec=spec),
                                  tplab.ou_certificate(), spec, poly_q=[1, 2], chaos_q=[1, 2, 3])
        assert [w for seed, w in widths if seed == 7 ^ GAMMA_STREAM] == [3] * 3
        assert all(mc.poly[q][1] is mc.chaos[q][1] for q in (1.0, 2.0))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_poly_moment_and_chaos_matrix_share_their_rhs(self, seed):
        # at alpha = 1, sqrt(2) q (E tr Gamma^q)^{1/(2q)} is
        # sqrt(8) q (E tr (Gamma / 4)^q)^{1/(2q)}, and both rows read one
        # estimate, so outside the sqrt(2) regime q in (1, 1.5) they agree
        # bit for bit; with two Gamma moments per order, seed 1 read
        # 52.44607341790993 against 52.446073417909936 at q = 1.5
        rows, _, _ = run_experiment(load_perfbench("workloads").build_config("chaos-mc", seed,
                                                                              "tiny"))
        poly = {r["context"]["q"]: r for r in rows if r["citation"] == "poly-moment"}
        matrix = {r["context"]["q"]: r for r in rows if r["citation"] == "chaos-matrix"}
        assert sorted(poly) == sorted(matrix) == [1.0, 1.5, 2.0, 3.0]
        assert all(r["context"]["alpha"] == 1.0 for r in poly.values())
        for q, row in poly.items():
            assert row["rhs"] == matrix[q]["rhs"]
            assert row["context"]["rhs_ci"] == matrix[q]["context"]["rhs_ci"]

    PSD_CHAOS_RUN = {"seed": 5, "samples": {"n": 20000}, "model": {"fixture": "psd-chaos"},
                     "suites": ["poly-moment", "chaos"]}

    def test_chaos_energies_open_no_stream(self, monkeypatch):
        # 5 blocks of the f-stream, 5 of the Gamma stream and the energy
        # report's 8-point probe; the exact energies draw nothing.  A stream
        # is its key (seed, t), opened fresh or by re-keying one Philox
        opened = []
        real, real_rekeyed = montecarlo.normal_stream, montecarlo.rekeyed_streams

        def counted(seed, stream):
            opened.append((seed, stream))
            return real(seed, stream)

        def counted_rekeyed(seed):
            at = real_rekeyed(seed)

            def counted_at(stream):
                opened.append((seed, stream))
                return at(stream)

            return counted_at

        monkeypatch.setattr(montecarlo, "normal_stream", counted)
        monkeypatch.setattr(montecarlo, "rekeyed_streams", counted_rekeyed)
        run_experiment(self.PSD_CHAOS_RUN)
        assert len(opened) == 11
        assert sorted(opened) == sorted([(5, 0)] + [(5, b) for b in range(5)]
                                        + [(5 ^ GAMMA_STREAM, b) for b in range(5)])

    def test_one_philox_per_pass(self, monkeypatch):
        # the f-pass, the Gamma pass and the energy report's probe each build
        # one bit generator, where one per block would make 11
        built = []
        real = np.random.Philox

        def counted(*args, **kwargs):
            built.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        run_experiment(self.PSD_CHAOS_RUN)
        assert len(built) == 3

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("reverse", [False, True])
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
    def test_rows_equal_one_run_per_suite(self, workers, reverse, model, suites, params):
        # in either order of the suites
        if reverse:
            suites = suites[::-1]
        cfg = {"seed": 7, "samples": {"n": 10000, "workers": workers},
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
        # antithetic pairing is gone: every statistic is even in x, so a
        # pair would only halve n; asking for it is a configuration error
        cfg = {"seed": 1, "samples": {"n": 20000, "antithetic": True},
               "model": {"fixture": "pauli-series"}, "suites": ["poly-moment", "tail"]}
        assert run_cli(["run", "--config", self.write(tmp_path, cfg),
                        "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: samples.antithetic: ")
        assert "even" in err and "halves n" in err
        assert not (tmp_path / "report.csv").exists()

    def test_antithetic_false_or_absent_runs(self):
        cfg = {"seed": 1, "samples": {"n": 10000}, "model": {"fixture": "pauli-series"},
               "suites": ["poly-moment", "tail"]}
        rows, _, counts = run_experiment(cfg)
        assert counts["FAIL"] == 0
        off = run_experiment({**cfg, "samples": {"n": 10000, "antithetic": False}})[0]
        assert off == rows

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
PSD_CHAOS = {"model": {"fixture": "psd-chaos"}, "samples": {"n": 10000}}


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
        # a string or negative bound was a bare ValueError, exit 1, and NaN
        # or inf gave PASS rows reading "v_f": NaN or Infinity, exit 0
        (PSD_CHAOS, "tail", {"v_f_bound": "abc"}, "params.v_f_bound"),
        (PSD_CHAOS, "tail", {"v_f_bound": -1.0}, "params.v_f_bound"),
        (PSD_CHAOS, "tail", {"v_f_bound": math.nan}, "params.v_f_bound"),
        (PSD_CHAOS, "tail", {"v_f_bound": math.inf}, "params.v_f_bound"),
        # phis were parsed only where the chain-rule suite ran
        (TWO_STATE, "poincare", {"phis": [{"kind": "cosh"}]}, "params.phis[0]"),
        (TWO_STATE, "poincare", {"phis": {"kind": "sinh"}}, "params.phis"),
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
        assert_same_run(as_float, as_int)

    def test_integral_float_intdim_order_accepted(self):
        cfg = {"seed": 1, **TWO_STATE, "suites": ["intdim"]}
        as_int = run_experiment({**cfg, "params": {"intdim_q": [1, 2]}})
        as_float = run_experiment({**cfg, "params": {"intdim_q": [1.0, 2e0]}})
        assert_same_run(as_float, as_int)


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
            # chain runs and one-worker Gaussian runs start no worker, so
            # neither a thread pool nor multiprocessing is imported
            print(sorted(m for m in sys.modules
                         if m.split(".")[0] in ("concurrent", "multiprocessing")))
        """)
        src = os.path.dirname(os.path.dirname(tplab.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-2:] == ["[]", "[]"]


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

    @pytest.mark.parametrize("model, suites, message", [
        ({"fixture": "two-state"}, ["poincare", "chaos"],
         "suites: 'chaos' requires a Gaussian model, but the config model is a finite chain"),
        ({"fixture": "pauli-series"}, ["intdim"],
         "suites: 'intdim' requires a finite chain model"),
        ({"fixture": "pauli-series"}, ["tail", "chaos"],
         "suites: 'chaos' requires a gaussian_chaos model"),
    ], ids=["chain-chaos", "series-intdim", "series-chaos"])
    def test_suite_model_mismatch_refused_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                          model, suites, message):
        # a suite the model cannot run used to be refused only after the
        # energy reports, and on a chain after the whole probe
        calls = []
        monkeypatch.setattr(tplab.cli, "energy_report", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(tplab.cli, "equivalence_probe", lambda *a, **k: calls.append(a))
        cfg = {**default_config(), "model": model, "suites": suites}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"ConfigError: {message}\n"
        assert calls == []

    def test_chaos_tail_without_v_f_bound_names_the_config_key(self, tmp_path, capsys):
        # the message named only gaussian_pass's keyword v_f_override, which
        # a config cannot set
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"fixture": "psd-chaos"}, "suites": ["tail", "chaos"]}))
        assert run_cli(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("DomainError: Gamma of a Gaussian chaos is unbounded")
        assert "params.v_f_bound" in err

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

    @pytest.mark.parametrize("suite", ["subadditivity", "intdim"])
    def test_pair_capacity_exits_3(self, tmp_path, capsys, suite):
        # refresh3^12 itself fits (531,441 states); its bivariate pair would
        # need 4.2e3 GiB, so the pair is refused before any allocation
        cfg = {"seed": 1,
               "model": {"product": {"base": {"complete_refresh": {"stationary": [0.2, 0.3, 0.5]}},
                                     "n": 12}},
               "fields": [{"type": "fixture", "name": "indicator-1"}], "suites": [suite]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("CapacityError: the bivariate pair of 'refresh^12'")
        assert not (tmp_path / "report.csv").exists()

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
        # the unrooted moment E tr |g|^400 (about 1000^400) overflows; this
        # used to be an uncaught OverflowError, exit 1
        ([0.0, 1000.0], ["intdim"], {"intdim_q": [200]}, "intdim-moment"),
        # the Gamma table of [0, 1e200] overflows, which gave FAIL rows with
        # NaN sides here, and PASS tail and SKIPPED exp-moment rows with a
        # NaN v_f: exit 1 and exit 0
        ([0.0, 1e200], ["poincare", "poly-moment"], {}, "carre-du-champ"),
        ([0.0, 1e200], ["tail"], {}, "carre-du-champ"),
        ([0.0, 1e200], ["exp-moment"], {}, "carre-du-champ"),
    ], ids=[  # explicit ids keep each case's name when a case leaves the list
        "values1-suites1-params1-intdim-moment", "values2-suites2-params2-carre-du-champ",
        "values3-suites3-params3-carre-du-champ", "values4-suites4-params4-carre-du-champ"])
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

    def test_high_order_poly_moment_gets_a_verdict(self, tmp_path):
        # q = 200 on [0, 1000]: E tr |f - E f|^400 = 500^400 and E tr Gamma^200
        # overflow, which gave a FAIL row with lhs = rhs = inf, then exit 2;
        # the scale-free moments give lhs = 500 and rhs = 200 sqrt(5e5)
        cfg = {"seed": 1, "model": {"fixture": "two-state"},
               "fields": [{"type": "table", "values": [0.0, 1000.0]}],
               "suites": ["poly-moment"], "params": {"q_list": [2, 200]}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "report.csv")
        assert len(rows) == 2
        assert all(math.isfinite(float(r["lhs"])) and math.isfinite(float(r["rhs"]))
                   for r in rows)
        (top,) = [r for r in rows if json.loads(r["context"])["q"] == 200.0]
        assert top["verdict"] == "PASS"
        assert float(top["lhs"]) == pytest.approx(500.0, rel=1e-12)
        assert float(top["rhs"]) == pytest.approx(200.0 * math.sqrt(5e5), rel=1e-12)

    @pytest.mark.parametrize("values", [[1.0, 1.0], [0.0, 1.0]])
    def test_huge_order_poly_moment_rhs_is_finite(self, tmp_path, values):
        # q = 1e200: sqrt(2 alpha q^2) overflowed, which gave rhs = inf * 0 =
        # NaN (exit 2) on a constant field and a vacuous rhs = inf on [0, 1];
        # sqrt(2 alpha) q (E tr Gamma^q)^(1/(2q)) is finite, with alpha = 1/2
        # and Gamma = 1/2 at both states of [0, 1]
        cfg = {"seed": 1, "model": {"fixture": "two-state"},
               "fields": [{"type": "table", "values": values}],
               "suites": ["poly-moment"], "params": {"q_list": [2, 1e200]}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "report.csv")
        assert len(rows) == 2 and {r["verdict"] for r in rows} == {"PASS"}
        assert all(math.isfinite(float(r["lhs"])) and math.isfinite(float(r["rhs"]))
                   for r in rows)
        (top,) = [r for r in rows if json.loads(r["context"])["q"] == 1e200]
        constant = values[0] == values[1]
        assert float(top["lhs"]) == (0.0 if constant else pytest.approx(0.5, rel=1e-12))
        assert float(top["rhs"]) == (0.0 if constant
                                     else pytest.approx(1e200 * math.sqrt(0.5), rel=1e-12))

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

    def test_huge_order_poly_moment_on_a_chaos_exits_2(self, tmp_path, capsys):
        # q = 1e200: rescaling the quarter-scale Gamma interval by 4^q raised
        # an uncaught OverflowError, exit 1; the moments at that order
        # overflow, so the run gives no verdict
        cfg = {"seed": 1, "samples": {"n": 2000}, "model": {"fixture": "psd-chaos"},
               "suites": ["poly-moment"], "params": {"q_list": [2, 1e200]}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with np.errstate(all="ignore"):
            code = run_cli(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("NumericError: poly-moment: no verdict")
        assert not (tmp_path / "report.csv").exists()

    def test_overflowing_gaussian_model_exits_2(self, tmp_path, capsys):
        # finite coefficients whose Gamma overflows: the Gamma stream's
        # eigensolver raised a bare LinAlgError, exit 1, after a numpy
        # overflow warning; warnings are errors here, so none may print.
        # The model's energy report refuses it before any Monte Carlo pass,
        # at one worker and at two
        for workers in (1, 2):
            cfg = {"seed": 1, "samples": {"n": 10000, "workers": workers},
                   "suites": ["poly-moment"],
                   "model": {"gaussian_chaos": {"coefficients": np.full((2, 2, 3, 3),
                                                                        1e160).tolist()}}}
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run_cli(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("NumericError: energy report: no verdict, "
                                  "the Gamma table is not finite")
            assert not (tmp_path / "report.csv").exists()

    def test_overflowing_block_refused_by_the_monte_carlo_pass(self):
        # the same chaos: its values (about 1e161) stay finite, but its
        # Gamma (about 1e322) overflows in every block of the Gamma stream.
        # Three blocks: at two workers the error is raised in a child and
        # reaches the caller with its type and message, and no child is left
        chaos = GaussianChaos(np.full((2, 2, 3, 3), 1e160))
        gamma = SmoothField(ambient_dim=2, dim=3,
                            batch=lambda xs: energy.chaos_gamma_batch(chaos, xs))
        message = ("Monte Carlo: no estimate, the values of the field at the samples of "
                   "block 0 are not finite; the model overflows")
        for workers in (1, 2):
            spec = SampleSpec(n=10000, seed=1, workers=workers)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(tplab.NumericError) as err:
                    estimate_trace_moment(gamma, [1.0], spec)
                assert type(err.value) is tplab.NumericError and str(err.value) == message
                with pytest.raises(tplab.NumericError, match="Monte Carlo: no estimate"):
                    chaos_gamma_moments(chaos, [1.0], spec)
            assert multiprocessing.active_children() == []

    def test_monte_carlo_error_in_a_worker_exits_2(self, tmp_path, capsys, monkeypatch):
        # no config reaches an overflowing pass, since the energy report
        # refuses such a model first, so the Gamma stream is made to
        # overflow: a forked worker's error exits 2 with the serial message
        monkeypatch.setattr(bounds, "chaos_gamma_batch",
                            lambda chaos, xs: np.full((len(xs), 1, 1), np.inf))
        errs = []
        for workers in (1, 2):
            cfg = {"seed": 1, "samples": {"n": 10000, "workers": workers},
                   "model": {"fixture": "psd-chaos"}, "suites": ["poly-moment"]}
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            assert run_cli(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
            errs.append(capsys.readouterr().err)
            assert multiprocessing.active_children() == []
        assert errs[0] == errs[1]
        assert errs[0].startswith("NumericError: Monte Carlo: no estimate, the values of "
                                  "the field at the samples of block 0 are not finite")
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
        # an AttributeError, or without --out a TypeError from Path: exit 1
        ({"output": []}, "output: "),
        ({"output": "x"}, "output: "),
        ({"output": {"dir": 5}}, "output.dir: "),
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
        # pairing is refused, not ignored
        ({"n": 1000, "antithetic": True}, None, "ConfigError: samples.antithetic: "),
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

    def test_sample_count_flag_on_malformed_section_exits_2(self, tmp_path, capsys):
        # --samples wrote into the list: a bare TypeError, exit 1
        cfg = {"seed": 1, "model": {"fixture": "pauli-series"}, "samples": [1],
               "suites": ["poly-moment"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = ["run", "--config", str(path), "--samples", "100", "--out", str(tmp_path)]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith("ConfigError: samples: ")
        assert not (tmp_path / "report.csv").exists()

    def test_integral_float_sample_count_accepted(self):
        cfg = {"seed": 1, "model": {"fixture": "pauli-series"},
               "suites": ["poly-moment"], "params": {"q_list": [1]}}
        as_int = run_experiment({**cfg, "samples": {"n": 2000, "workers": 2}})
        as_float = run_experiment({**cfg, "samples": {"n": 2e3, "workers": 2.0}})
        assert_same_run(as_float, as_int)

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
