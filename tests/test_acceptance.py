"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import contextlib
import math

import numpy as np
import pytest

from tplab import (
    FiniteField,
    GaussianChaos,
    GaussianSeries,
    SampleSpec,
    ScalarFnSpec,
    chain_from_graph,
    check_chain_rule,
    check_exp_moment,
    check_intdim_variant,
    check_mean_value_trace,
    check_poly_moment,
    check_scalar_poincare,
    check_tail_empirical,
    check_trace_poincare,
    complete_refresh_chain,
    default_theta_grid,
    energy_report,
    equivalence_probe,
    gaussian_pass,
    op_norm,
    ou_certificate,
    poincare_constant,
    product_chain,
)
from tplab.cli import default_config, run_experiment
from tplab.reports import rows_to_csv

from conftest import k_complete, moment, random_field, random_symmetric


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_01_two_state_oracle(two_state):
    with criterion(1, "two-state oracle values and scalar equality"):
        rep = energy_report(two_state, FiniteField.from_scalars([0.0, 1.0]))
        assert rep.variance[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert rep.dirichlet[0, 0] == pytest.approx(0.5, abs=1e-12)
        cert = poincare_constant(two_state)
        assert cert.alpha == pytest.approx(0.5, abs=1e-12)
        assert rep.v_f == pytest.approx(0.5, abs=1e-12) and rep.mode == "EXACT"
        report = check_scalar_poincare(two_state, rep, cert)
        assert report.passed and abs(report.margin) <= 1e-12


def test_criterion_02_spectral_gap_values():
    with criterion(2, "K_n and complete-refresh Poincare constants"):
        for n in (3, 4, 5, 8):
            cert = poincare_constant(chain_from_graph(k_complete(n), n - 1))
            assert abs(cert.alpha - (n - 1) / n) <= 1e-10
        for mu in ([0.5, 0.5], [0.2, 0.3, 0.5], np.full(4, 0.25)):
            cert = poincare_constant(complete_refresh_chain(mu))
            assert abs(cert.alpha - 1.0) <= 1e-10


def test_criterion_03_trace_poincare_sweep(two_state, k4, cycle4):
    with criterion(3, "trace Poincare on 1000 random fields per chain + probe"):
        rng = np.random.default_rng(2024)
        for chain in (two_state, k4, cycle4):
            cert = poincare_constant(chain)
            for _ in range(1000):
                d = int(rng.integers(1, 5))
                f = random_field(rng, chain.n_states, d)
                assert check_trace_poincare(chain, energy_report(chain, f), cert).passed
            probe = equivalence_probe(chain, trials=300, dims=[1, 2, 3, 4],
                                      seed=424242)
            assert probe.to_check().verdict == "PASS"
            assert probe.sup_ratio <= cert.alpha * (1 + 1e-9)


def test_criterion_04_mean_value_trace():
    with criterion(4, "mean-value trace inequality, sinh and signed powers"):
        rng = np.random.default_rng(404)
        for _ in range(1000):
            d = int(rng.integers(1, 7))
            a, b = random_symmetric(rng, d), random_symmetric(rng, d)
            theta = float(rng.uniform(0.05, 2.5))
            (r,) = check_mean_value_trace(a, b, [ScalarFnSpec.sinh(theta)])
            assert r.passed
        for q in (1.5, 2.0, 3.0):
            for _ in range(1000):
                d = int(rng.integers(1, 7))
                a, b = random_symmetric(rng, d), random_symmetric(rng, d)
                (r,) = check_mean_value_trace(a, b, [ScalarFnSpec.signed_pow(q)])
                assert r.passed


def test_criterion_05_chain_rule(two_state, k4):
    with criterion(5, "chain rule on two-state, K4 and the two-state square"):
        square = product_chain(two_state, 2)
        rng = np.random.default_rng(505)
        for chain in (two_state, k4, square):
            for _ in range(500):
                d = int(rng.integers(1, 4))
                f = random_field(rng, chain.n_states, d)
                theta = float(rng.uniform(0.1, 1.5))
                # each chain-rule row is followed by the mean-value row of
                # states 0 and 1
                reports = check_chain_rule(
                    chain, energy_report(chain, f), [ScalarFnSpec.sinh(theta), ScalarFnSpec.signed_pow(2.0),
                               ScalarFnSpec.affine(1.3, -0.2)])
                for rule in (reports[::2], reports[1::2]):
                    sinh, pow2, affine = rule
                    assert sinh.passed
                    assert pow2.passed
                    assert abs(affine.margin) <= 1e-10 * (1.0 + abs(affine.rhs))


def test_criterion_06_exponential_moments(two_state, k4):
    with criterion(6, "exponential moment bound on a 20-point theta grid"):
        rng = np.random.default_rng(606)
        for chain in (two_state, k4):
            cert = poincare_constant(chain)
            for _ in range(100):
                d = int(rng.integers(1, 4))
                rep = energy_report(chain, random_field(rng, chain.n_states, d))
                grid = default_theta_grid(cert.alpha, rep.v_f, points=20)
                for report in check_exp_moment(chain, rep, cert, grid):
                    assert report.verdict == "PASS"
        cert = poincare_constant(two_state)
        hand = check_exp_moment(two_state,
                                energy_report(two_state, FiniteField.from_scalars([0.0, 1.0])),
                                cert, [1.0])[0]
        assert abs(hand.rhs - 9.0 / 7.0) <= 1e-12
        assert abs(hand.lhs - math.cosh(0.5)) <= 1e-12


def test_criterion_07_subexponential_tails(two_state, k4):
    with criterion(7, "exact tails on chains and Monte Carlo Pauli tails"):
        lam_grid = np.arange(0.5, 8.5, 0.5)
        rng = np.random.default_rng(707)
        for chain in (two_state, k4):
            cert = poincare_constant(chain)
            for _ in range(50):
                d = int(rng.integers(1, 4))
                f = random_field(rng, chain.n_states, d)
                for report in check_tail_empirical(chain, energy_report(chain, f), cert,
                                                   lam_grid):
                    assert report.passed
        series = GaussianSeries(np.stack([[[1.0, 0.0], [0.0, -1.0]],
                                          [[0.0, 1.0], [1.0, 0.0]]]))
        rep = energy_report(series)
        assert rep.mode == "EXACT" and rep.v_f == pytest.approx(2.0)
        cert = ou_certificate()
        mc = gaussian_pass(series, rep, cert, SampleSpec(n=10 ** 5, seed=20240601),
                           lambda_grid=range(1, 9))
        reports = check_tail_empirical(series, mc, cert, range(1, 9))
        assert all(r.passed for r in reports)


def test_criterion_08_polynomial_moments(two_state, k4):
    with criterion(8, "polynomial moment bound and Gaussian moment oracles"):
        rng = np.random.default_rng(808)
        for chain in (two_state, k4):
            cert = poincare_constant(chain)
            for _ in range(100):
                d = int(rng.integers(1, 4))
                f = random_field(rng, chain.n_states, d)
                for report in check_poly_moment(chain, energy_report(chain, f), cert,
                                                [1, 1.5, 2, 3]):
                    assert report.passed
        a = 1.4
        field = GaussianSeries(np.array([[[a]]])).as_field()
        spec = SampleSpec(n=10 ** 5, seed=20240601)
        second = moment(field, 1, spec)
        assert second.ci_low <= a ** 2 <= second.ci_high
        fourth = moment(field, 2, spec)
        assert fourth.ci_low <= 3 * a ** 4 <= fourth.ci_high


def test_criterion_09_intdim_variant(two_state, k4):
    with criterion(9, "intrinsic-dimension moment bound and intdim range"):
        rng = np.random.default_rng(909)
        for chain in (two_state, k4):
            cert = poincare_constant(chain)
            for _ in range(50):
                d = int(rng.integers(1, 4))
                f = random_field(rng, chain.n_states, d)
                rep = energy_report(chain, f)
                assert all(r.passed for r in check_intdim_variant(chain, rep, cert, [1, 2, 3]))
        # the intdim the checker reports, tr D / |D|, lies in [1, rank D]:
        # on the two-state chain f = (0, A) has D(f) = A^2 / 2, of A's rank
        cert = poincare_constant(two_state)
        for _ in range(1000):
            d = int(rng.integers(1, 9))
            r = int(rng.integers(1, d + 1))
            b = rng.standard_normal((d, r))
            a = b @ b.T
            if op_norm(a) == 0.0:
                continue
            rep = energy_report(two_state, FiniteField(np.stack([np.zeros((d, d)), a])))
            val = check_intdim_variant(two_state, rep, cert, [1])[0].context["intdim_dirichlet"]
            rank = np.linalg.matrix_rank(a, rtol=1e-10, hermitian=True)
            assert 1.0 - 1e-12 <= val <= rank + 1e-12


def test_criterion_10_gaussian_chaos_corollary():
    with criterion(10, "scalar chaos moments below 8 q^2 |A| at N=10^5"):
        coef = np.zeros((2, 2, 1, 1))
        coef[0, 0, 0, 0] = coef[1, 1, 0, 0] = 1.0
        chaos = GaussianChaos(coef)
        field = chaos.as_field()
        spec = SampleSpec(n=10 ** 5, seed=20240601)
        for q in (1, 2, 3):
            est = moment(field, q, spec)
            root = 1.0 / (2.0 * q)
            upper = est.ci_high ** root
            assert upper <= 8.0 * q * q * 1.0


def test_criterion_11_deterministic_csv(tmp_path):
    with criterion(11, "byte-identical CSV for repeated default-config runs"):
        cfg = default_config()
        rows1, _, counts1 = run_experiment(cfg)
        rows2, _, counts2 = run_experiment(default_config())
        assert counts1["FAIL"] == 0
        csv1 = rows_to_csv(rows1).encode()
        csv2 = rows_to_csv(rows2).encode()
        assert csv1 == csv2
