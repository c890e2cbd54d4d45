import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplab import (
    DomainError,
    FiniteField,
    NumericError,
    GaussianChaos,
    GaussianPass,
    GaussianSeries,
    SampleSpec,
    ScalarFnSpec,
    UNBOUNDED,
    bivariate_symmetrized,
    chaos_scalar_bound,
    check_bivariate_poincare,
    check_chain_rule,
    check_chaos_matrix,
    check_chaos_scalar,
    check_exp_moment,
    check_intdim_variant,
    check_mean_value_trace,
    check_poly_moment,
    check_subadditivity,
    check_tail_empirical,
    check_trace_poincare,
    complete_refresh_chain,
    constant_field,
    default_theta_grid,
    energy_report,
    estimate_trace_moment,
    exp_moment_rhs,
    gaussian_pass,
    ou_certificate,
    poincare_constant,
    poly_moment_rhs,
    product_chain,
    tail_bound,
)
from tplab import bounds, cli, energy, montecarlo
from tplab.bounds import GAMMA_STREAM, chaos_gamma_moments
from tplab.cli import run_experiment
from tplab.energy import carre_table, chaos_gamma_batch
from tplab.models import FiniteChain, SmoothField
from tplab.reports import CheckReport
from tplab.spectral import psd_eigvalsh

from conftest import random_field, random_reversible_chain, random_symmetric


def indicator(two_state):
    """The energy report of the indicator of state 1 on the two-state chain."""
    return energy_report(two_state, FiniteField.from_scalars([0.0, 1.0]))


def bivariate_grid(two_state, fn):
    # tabulate g(z, z') over {0,1}^2 as a (2, 2, 1, 1) array
    out = np.zeros((2, 2, 1, 1))
    for z in range(2):
        for zp in range(2):
            out[z, zp, 0, 0] = fn(z, zp)
    return out


class TestSubadditivity:
    def test_constant_zero_both_sides(self, two_state):
        g = bivariate_grid(two_state, lambda z, zp: 4.0)
        r = check_subadditivity(two_state, g)
        assert r.passed and r.lhs == 0.0 and r.rhs == 0.0

    def test_univariate_dependence_is_equality(self, two_state):
        # g depends only on the first coordinate: the second conditional
        # variance vanishes and the first one is the total variance (1/4)
        g = bivariate_grid(two_state, lambda z, zp: float(z))
        r = check_subadditivity(two_state, g)
        assert r.passed
        assert r.lhs == pytest.approx(0.25, abs=1e-15)
        assert abs(r.margin) <= 1e-14

    def test_random_sweep(self, two_state):
        rng = np.random.default_rng(103)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            raw = rng.standard_normal((2, 2, d, d))
            r = check_subadditivity(two_state, raw + raw.transpose(0, 1, 3, 2))
            assert r.passed

    def test_accepts_symmetrized_pair(self, two_state):
        pair = bivariate_symmetrized(two_state, indicator(two_state))
        assert check_subadditivity(two_state, pair).passed

    def test_symmetric_float_grid_is_read_in_place(self, k4):
        f = random_field(np.random.default_rng(109), 4, 2)
        pair = bivariate_symmetrized(k4, energy_report(k4, f))
        assert pair.dtype == np.float64
        assert bounds._as_grid(k4, pair) is pair

    def test_asymmetric_grid_is_symmetrized_into_a_copy(self, k4):
        raw = np.random.default_rng(113).standard_normal((4, 4, 3, 3))
        before = raw.copy()
        grid = bounds._as_grid(k4, raw)
        assert grid is not raw
        np.testing.assert_array_equal(grid, 0.5 * (raw + raw.transpose(0, 1, 3, 2)))
        np.testing.assert_array_equal(raw, before)
        # a symmetric grid that is not float64 is converted, not returned
        ints = np.ones((4, 4, 2, 2), dtype=int)
        assert bounds._as_grid(k4, ints).dtype == np.float64

    def test_asymmetric_grid_gives_the_rows_of_its_symmetrization(self, two_state, k4):
        rng = np.random.default_rng(127)
        for chain in (two_state, k4, random_reversible_chain(rng, 5)):
            cert = poincare_constant(chain)
            m = chain.n_states
            for d in (1, 2, 3):
                raw = rng.standard_normal((m, m, d, d))
                sym = 0.5 * (raw + raw.transpose(0, 1, 3, 2))
                assert check_subadditivity(chain, raw) == check_subadditivity(chain, sym)
                assert (check_bivariate_poincare(chain, raw, cert)
                        == check_bivariate_poincare(chain, sym, cert))


class TestBivariatePoincare:
    def test_constant_zero_margin(self, two_state):
        cert = poincare_constant(two_state)
        g = bivariate_grid(two_state, lambda z, zp: -1.0)
        r = check_bivariate_poincare(two_state, g, cert)
        assert r.passed and r.margin == 0.0

    def test_univariate_reduction_equality(self, two_state):
        # g(z, z') = f(z) with f the gap eigenfunction: both sides reduce to
        # the univariate equality case Var = alpha * dirichlet = 1/4
        cert = poincare_constant(two_state)
        g = bivariate_grid(two_state, lambda z, zp: float(z))
        r = check_bivariate_poincare(two_state, g, cert)
        assert r.passed
        assert r.lhs == pytest.approx(0.25, abs=1e-15)
        assert abs(r.margin) <= 1e-14

    def test_random_sweep(self, two_state):
        cert = poincare_constant(two_state)
        rng = np.random.default_rng(107)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            raw = rng.standard_normal((2, 2, d, d))
            r = check_bivariate_poincare(two_state, raw + raw.transpose(0, 1, 3, 2), cert)
            assert r.passed

    def test_rhs_matches_per_slice_energies(self, two_state, k4):
        # oracle: the Dirichlet form of every slice, one energy report each, on
        # raw (unsymmetrized) grids
        rng = np.random.default_rng(211)
        chains = [two_state, k4] + [random_reversible_chain(rng, n, 10.0 ** e)
                                    for n, e in ((3, -3), (5, 0), (6, 3))]
        for chain in chains:
            cert = poincare_constant(chain)
            mu, m = chain.stationary, chain.n_states
            for d in (1, 2, 3):
                grid = rng.standard_normal((m, m, d, d))
                acc = sum(mu[z] * (energy_report(chain, FiniteField(grid[:, z])).dirichlet
                                   + energy_report(chain, FiniteField(grid[z])).dirichlet)
                          for z in range(m))
                want = cert.alpha * float(np.trace(acc))
                r = check_bivariate_poincare(chain, grid, cert)
                assert abs(r.rhs - want) <= 1e-12 * abs(want)


class TestMeanValueTrace:
    def test_equal_arguments(self):
        a = np.array([[1.0, 0.3], [0.3, -0.5]])
        (r,) = check_mean_value_trace(a, a, [ScalarFnSpec.sinh(2.0)])
        assert r.passed and r.lhs == pytest.approx(0.0, abs=1e-14)

    def test_affine_is_equality(self):
        rng = np.random.default_rng(109)
        a, b = random_symmetric(rng, 3), random_symmetric(rng, 3)
        (r,) = check_mean_value_trace(a, b, [ScalarFnSpec.affine(1.0, 0.0)])
        assert r.passed and abs(r.margin) <= 1e-12 * (1 + abs(r.rhs))

    def test_scalar_sinh_oracle(self):
        # d=1, a=1, b=0: sinh(1)^2 <= (1/2)(cosh(1)^2 + 1), both evaluated
        # with the math library as the oracle
        (r,) = check_mean_value_trace([[1.0]], [[0.0]], [ScalarFnSpec.sinh(1.0)])
        assert r.passed
        assert r.lhs == pytest.approx(math.sinh(1.0) ** 2, abs=1e-12)
        assert r.rhs == pytest.approx(0.5 * (math.cosh(1.0) ** 2 + 1.0), abs=1e-12)

    def test_inadmissible_phi_rejected(self):
        a = np.eye(2)
        with pytest.raises(DomainError):
            check_mean_value_trace(a, a, [ScalarFnSpec.sinh(1.0), ScalarFnSpec.signed_pow(1.2)])

    def test_one_eigh_for_the_phi_list(self, monkeypatch):
        # the pair is diagonalised once however many phis read it, and each
        # report equals the one of its phi alone
        rng = np.random.default_rng(115)
        a, b = random_symmetric(rng, 3), random_symmetric(rng, 3)
        phis = [ScalarFnSpec.sinh(1.0), ScalarFnSpec.signed_pow(2.0),
                ScalarFnSpec.affine(2.0, 1.0)]
        alone = [check_mean_value_trace(a, b, [phi])[0] for phi in phis]
        calls = []
        real = bounds.eigh

        def counted(x):
            calls.append(np.shape(x))
            return real(x)

        monkeypatch.setattr(bounds, "eigh", counted)
        assert check_mean_value_trace(a, b, phis) == alone
        assert calls == [(2, 3, 3)]
        assert check_mean_value_trace(a, b, []) == []

    def test_random_sweep(self):
        rng = np.random.default_rng(113)
        for _ in range(100):
            d = int(rng.integers(1, 7))
            a, b = random_symmetric(rng, d), random_symmetric(rng, d)
            theta = float(rng.uniform(0.1, 2.0))
            q = float(rng.choice([1.5, 2.0, 3.0]))
            reports = check_mean_value_trace(
                a, b, [ScalarFnSpec.sinh(theta), ScalarFnSpec.signed_pow(q)])
            assert [r.passed for r in reports] == [True, True]


class TestChainRule:
    def test_constant_field(self, k4):
        # the chain-rule row, then the mean-value row of states 0 and 1
        rows = check_chain_rule(k4, energy_report(k4, constant_field(4, np.diag([1.0, 2.0]))),
                                [ScalarFnSpec.sinh(1.0)])
        assert [r.citation for r in rows] == ["dirichlet-chain-rule", "mean-value-trace"]
        for r in rows:
            assert r.passed and r.lhs == pytest.approx(0.0, abs=1e-14)

    def test_affine_equality(self, k4):
        rng = np.random.default_rng(127)
        f = random_field(rng, 4, 3)
        for r in check_chain_rule(k4, energy_report(k4, f), [ScalarFnSpec.affine(1.7, -0.4)]):
            assert r.passed
            assert abs(r.margin) <= 1e-10 * (1.0 + abs(r.rhs))

    def test_two_state_identity_field_enumeration(self, two_state):
        # f = (0, I_2), phi = sinh: Gamma = I/2 at both states, and
        # psi(f(0)) = I, psi(f(1)) = cosh(1)^2 I, so the enumerated rhs is
        # (1/2)(tr(I/2) + cosh(1)^2 tr(I/2)) = (1 + cosh(1)^2)/2; the lhs is
        # the energy of sinh(f), namely sinh(1)^2.  The mean-value row of
        # the pair (0, I) reads tr sinh(I)^2 = 2 sinh(1)^2 against
        # (1/2) tr[I (I + cosh(1)^2 I)] = 1 + cosh(1)^2
        f = FiniteField(np.stack([np.zeros((2, 2)), np.eye(2)]))
        r, mean_value = check_chain_rule(two_state, energy_report(two_state, f),
                                         [ScalarFnSpec.sinh(1.0)])
        assert r.passed and mean_value.passed
        assert r.lhs == pytest.approx(math.sinh(1.0) ** 2, abs=1e-12)
        assert r.rhs == pytest.approx(0.5 * (1.0 + math.cosh(1.0) ** 2), abs=1e-12)
        assert mean_value.lhs == pytest.approx(2.0 * math.sinh(1.0) ** 2, abs=1e-12)
        assert mean_value.rhs == pytest.approx(1.0 + math.cosh(1.0) ** 2, abs=1e-12)

    def test_inadmissible_phi_rejected(self, two_state):
        with pytest.raises(DomainError):
            check_chain_rule(two_state, indicator(two_state),
                             [ScalarFnSpec.sinh(1.0), ScalarFnSpec.signed_pow(1.2)])

    def test_overflowing_energy_refused(self, two_state):
        # f and phi(f) = f^2 (up to 1e160) are finite, the squares of phi(f)
        # are not: no verdict rather than a NaN side
        rep = energy_report(two_state, FiniteField.from_scalars([0.0, 1e80]))
        with np.errstate(all="ignore"), pytest.raises(NumericError,
                                                      match="chain rule: no verdict"):
            check_chain_rule(two_state, rep, [ScalarFnSpec.signed_pow(2.0)])
        assert check_chain_rule(two_state, rep, []) == []

    def test_matches_per_state_eigh_oracle(self, k4):
        # oracle: one eigendecomposition per state, as phi(f(z)) and
        # psi(f(z)) were built before the decomposition was batched, and the
        # lhs from phi(f)'s Gamma table rather than from its entries' energies
        rng = np.random.default_rng(223)
        chains = [k4] + [random_reversible_chain(rng, n, 10.0 ** e)
                         for n, e in ((2, -3), (5, 0), (7, 3))]
        phis = (ScalarFnSpec.sinh(0.8), ScalarFnSpec.signed_pow(2.5),
                ScalarFnSpec.affine(2.0, 1.0))
        for chain in chains:
            for d in (1, 2, 3):
                f = random_field(rng, chain.n_states, d)
                decs = [np.linalg.eigh(m) for m in f.values]
                gam = carre_table(chain, f)
                reports = check_chain_rule(chain, energy_report(chain, f), phis)
                assert len(reports) == 2 * len(phis)
                for phi, r in zip(phis, reports[::2]):
                    phi_f = FiniteField(np.stack([(q * phi(w)) @ q.T for w, q in decs]))
                    lhs = float(np.trace(energy_report(chain, phi_f).dirichlet))
                    psi_f = [(q * phi.sq_deriv(w)) @ q.T for w, q in decs]
                    rhs = sum(chain.stationary[z] * float(np.trace(gam[z] @ psi_f[z]))
                              for z in range(chain.n_states))
                    assert abs(r.lhs - lhs) <= 1e-14 * abs(lhs)
                    assert abs(r.rhs - rhs) <= 1e-13 * abs(rhs)


witness_cases = dict(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 4),
                     factors=st.sampled_from([1, 2, 3]), d=st.sampled_from([1, 2, 3]),
                     log_scale=st.integers(-3, 3))


def witness_chain(seed, m, factors, log_scale):
    """A random reversible chain, or the product of ``factors`` copies of
    one, with the rng that drew it."""
    rng = np.random.default_rng(seed)
    base = random_reversible_chain(rng, m, 10.0 ** log_scale)
    return rng, base, product_chain(base, factors)


class TestTightnessWitnesses:
    """Instances where a bound is attained: each |margin| is rounding."""

    @settings(max_examples=60, deadline=None)
    @given(**witness_cases)
    def test_trace_poincare_at_gap_eigenvector_times_matrix(self, seed, m, factors, d,
                                                            log_scale):
        # f(z) = v(z_j) A, with v the factor's gap eigenvector read at one
        # coordinate z_j: tr Var f = E v^2 tr A^2 = alpha tr E Gamma(f)
        rng, base, chain = witness_chain(seed, m, factors, log_scale)
        cert = poincare_constant(chain)
        root = np.sqrt(base.stationary)
        sym = root[:, None] * base.generator / root[None, :]
        _, vecs = np.linalg.eigh(-0.5 * (sym + sym.T))
        v = vecs[:, 1] / root
        coord = np.unravel_index(np.arange(chain.n_states), (m,) * factors)[
            int(rng.integers(factors))]
        f = FiniteField(v[coord][:, None, None] * random_symmetric(rng, d))
        r = check_trace_poincare(chain, energy_report(chain, f), cert)
        assert r.passed and abs(r.margin) <= 1e-9 * r.rhs

    @settings(max_examples=60, deadline=None)
    @given(**witness_cases)
    def test_chain_rule_at_affine_phi(self, seed, m, factors, d, log_scale):
        # phi(x) = a x + b: tr dirichlet(phi(f)) = a^2 tr E Gamma(f), the lhs
        # from the entries' energies and the rhs from f's Gamma table
        rng, _, chain = witness_chain(seed, m, factors, log_scale)
        f = random_field(rng, chain.n_states, d)
        phi = ScalarFnSpec.affine(float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-5.0, 5.0)))
        # the chain-rule row and the mean-value row of states 0 and 1: both
        # are equalities, tr (a (A - B))^2 = (1/2) tr[(A - B)^2 2 a^2]
        for r in check_chain_rule(chain, energy_report(chain, f), [phi]):
            assert r.passed and abs(r.margin) <= 1e-9 * r.rhs


class TestEqualityWitnessMutations:
    """With affine phi the chain-rule row and the mean-value row are
    equalities, so a psi scaled below (phi')^2 must FAIL both."""

    @pytest.fixture
    def shrunk_psi(self, monkeypatch):
        real = ScalarFnSpec.sq_deriv
        monkeypatch.setattr(ScalarFnSpec, "sq_deriv",
                            lambda self, x: (1.0 - 1e-6) * real(self, x))

    def test_affine_rows_fail_through_the_chain_rule(self, k4, shrunk_psi):
        f = random_field(np.random.default_rng(131), 4, 3)
        rows = check_chain_rule(k4, energy_report(k4, f), [ScalarFnSpec.affine(1.7, -0.4)])
        assert [(r.citation, r.verdict) for r in rows] == [
            ("dirichlet-chain-rule", "FAIL"), ("mean-value-trace", "FAIL")]

    def test_affine_row_fails_through_the_mean_value_checker(self, shrunk_psi):
        rng = np.random.default_rng(137)
        a, b = random_symmetric(rng, 3), random_symmetric(rng, 3)
        (r,) = check_mean_value_trace(a, b, [ScalarFnSpec.affine(2.0, 1.0)])
        assert r.verdict == "FAIL"


grid_cases = dict(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12),
                  d=st.sampled_from([1, 2, 3]), log_scale=st.integers(-3, 3),
                  budget=st.sampled_from([None, 1, 7, 40]))


def within_4_ulp(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= 4.0 * np.spacing(np.abs(want))))


class TestBatchedGrids:
    """Each grid checker evaluates its whole grid at once, in chunks of at
    most bounds._GRID_ENTRIES entries; every value equals the per-point
    formula within 4 ulp, whatever the chunk budget (``budget`` patches it,
    None keeps it)."""

    @staticmethod
    def case(seed, n, d, log_scale, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(bounds, "_GRID_ENTRIES", budget)
        rng = np.random.default_rng(seed)
        chain = random_reversible_chain(rng, n, 10.0 ** log_scale)
        rep = energy_report(chain, random_field(rng, n, d))
        return chain, rep, poincare_constant(chain)

    @settings(max_examples=40, deadline=None)
    @given(**grid_cases)
    def test_exp_moment_equals_one_theta_at_a_time(self, seed, n, d, log_scale, budget):
        with pytest.MonkeyPatch.context() as mp:
            chain, rep, cert = self.case(seed, n, d, log_scale, budget, mp)
            grid = default_theta_grid(cert.alpha, rep.v_f)
            rows = check_exp_moment(chain, rep, cert, grid)
        with np.errstate(over="ignore"):
            want = [np.einsum("z,zi->", chain.stationary, np.cosh(t * rep.f_eigs)) for t in grid]
        assert within_4_ulp([r.lhs for r in rows], want)
        assert [r.context["theta"] for r in rows] == grid.tolist()

    @settings(max_examples=40, deadline=None)
    @given(**grid_cases)
    def test_tail_equals_one_lambda_at_a_time(self, seed, n, d, log_scale, budget):
        lams = [0.5 * k for k in range(1, 17)]
        with pytest.MonkeyPatch.context() as mp:
            chain, rep, cert = self.case(seed, n, d, log_scale, budget, mp)
            rows = check_tail_empirical(chain, rep, cert, lams)
        devs = np.maximum(np.abs(rep.f_eigs[:, 0]), np.abs(rep.f_eigs[:, -1]))
        scale = math.sqrt(cert.alpha * rep.v_f)
        want = [chain.stationary[devs >= scale * lam].sum() for lam in lams]
        assert within_4_ulp([r.lhs for r in rows], want)

    @settings(max_examples=40, deadline=None)
    @given(**grid_cases)
    def test_poly_moment_equals_one_q_at_a_time(self, seed, n, d, log_scale, budget):
        qs = [1.0, 1.5, 2.0, 3.0, 4.5]
        with pytest.MonkeyPatch.context() as mp:
            chain, rep, cert = self.case(seed, n, d, log_scale, budget, mp)
            rows = check_poly_moment(chain, rep, cert, qs)
        mu = chain.stationary
        f_eigs, gam_eigs = np.abs(rep.f_eigs), np.clip(rep.gamma_eigs, 0.0, None)
        s, s_gam = np.max(f_eigs), np.max(gam_eigs)
        for q, r in zip(qs, rows):
            tgq = np.einsum("z,zi->", mu, (gam_eigs / s_gam) ** q)
            lhs = s * np.einsum("z,zi->", mu, (f_eigs / s) ** (2.0 * q)) ** (1.0 / (2.0 * q))
            assert within_4_ulp(r.lhs, lhs)
            assert within_4_ulp(r.rhs, poly_moment_rhs(cert.alpha, q, tgq) * math.sqrt(s_gam))

    @settings(max_examples=40, deadline=None)
    @given(**grid_cases)
    def test_intdim_equals_one_q_at_a_time(self, seed, n, d, log_scale, budget):
        qs = [1, 2, 3, 4]
        with pytest.MonkeyPatch.context() as mp:
            chain, rep, cert = self.case(seed, n, d, log_scale, budget, mp)
            rows = check_intdim_variant(chain, rep, cert, qs)
        v = rep.field.values
        g_eigs = np.abs(np.linalg.eigvalsh((v[:, None] - v[None]).reshape(-1, d, d)))
        mu2 = np.kron(chain.stationary, chain.stationary)
        want = [np.einsum("z,zi->", mu2, g_eigs ** (2 * q)) for q in qs]
        # the oracle's LAPACK spectrum may differ from the closed forms
        # that n^2 >= 64 stacks take by a few eps of the largest eigenvalue
        if n * n < 64 or d == 1:
            assert within_4_ulp([r.lhs for r in rows], want)
        assert [r.lhs for r in rows] == [check_intdim_variant(chain, rep, cert, [q])[0].lhs
                                         for q in qs]

    def test_a_chunk_boundary_inside_each_grid(self, monkeypatch):
        # 27 states at d = 2: a budget of 2 * 54 entries cuts every grid into
        # chunks of two points, and the rows equal those of the whole grid
        rng = np.random.default_rng(139)
        chain = product_chain(complete_refresh_chain(np.array([0.2, 0.3, 0.5])), 3)
        rep = energy_report(chain, random_field(rng, 27, 2))
        cert = poincare_constant(chain)
        thetas = default_theta_grid(cert.alpha, rep.v_f)
        calls = [lambda: check_exp_moment(chain, rep, cert, thetas),
                 lambda: check_tail_empirical(chain, rep, cert, [0.5 * k for k in range(1, 17)]),
                 lambda: check_poly_moment(chain, rep, cert, [1, 1.5, 2, 3]),
                 lambda: check_intdim_variant(chain, rep, cert, [1, 2, 3])]
        whole = [call() for call in calls]
        monkeypatch.setattr(bounds, "_GRID_ENTRIES", 2 * 27 * 2)
        assert [call() for call in calls] == whole


class TestOneDecompositionPerField:
    def test_mean_value_rows_equal_the_standalone_checker(self):
        rng = np.random.default_rng(149)
        phis = [ScalarFnSpec.sinh(0.7), ScalarFnSpec.signed_pow(2.5),
                ScalarFnSpec.affine(2.0, 1.0)]
        for n, d in ((2, 1), (5, 2), (9, 3)):
            chain = random_reversible_chain(rng, n)
            f = random_field(rng, n, d)
            rows = check_chain_rule(chain, energy_report(chain, f), phis)
            assert [r.citation for r in rows] == ["dirichlet-chain-rule",
                                                  "mean-value-trace"] * len(phis)
            assert rows[1::2] == check_mean_value_trace(f.values[0], f.values[1], phis)

    def test_a_non_finite_phi_of_f_is_refused(self, two_state):
        rep = energy_report(two_state, FiniteField.from_scalars([0.0, 1000.0]))
        with pytest.raises(NumericError, match="chain rule: no verdict, phi"):
            check_chain_rule(two_state, rep, [ScalarFnSpec.sinh(1.0)])


class TestGridMemory:
    """The grid checkers evaluate their grids in chunks of at most
    _GRID_ENTRIES entries, so on refresh3^10 (59,049 states, d = 2) each
    peaks within 8 times the field's (n, d) spectrum; a whole-grid cosh
    block would be 20 times it."""

    @pytest.fixture(scope="class")
    def big(self):
        chain = product_chain(complete_refresh_chain(np.array([0.2, 0.3, 0.5])), 10)
        rep = energy_report(chain, random_field(np.random.default_rng(157), chain.n_states, 2))
        return chain, rep, poincare_constant(chain)

    @pytest.mark.parametrize("suite", ["exp-moment", "tail", "poly-moment"])
    def test_peak_is_bounded_by_the_spectrum(self, big, suite):
        chain, rep, cert = big
        run = {"exp-moment": lambda: check_exp_moment(
                   chain, rep, cert, default_theta_grid(cert.alpha, rep.v_f)),
               "tail": lambda: check_tail_empirical(
                   chain, rep, cert, [0.5 * k for k in range(1, 17)]),
               "poly-moment": lambda: check_poly_moment(chain, rep, cert, [1, 1.5, 2, 3])}[suite]
        tracemalloc.start()
        try:
            rows = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == {"exp-moment": 20, "tail": 16, "poly-moment": 4}[suite]
        assert peak <= 8 * rep.f_eigs.nbytes, (peak, rep.f_eigs.nbytes)


class TestExpMomentRhs:
    def test_theta_to_zero_limit(self):
        for theta in (1e-3, 1e-6):
            rhs = exp_moment_rhs(0.5, 0.5, 3, theta, 0.5)
            assert rhs == pytest.approx(3.0, rel=1e-5)
        assert exp_moment_rhs(0.5, 0.5, 3, 0.0, 0.5) == 3.0

    def test_unbounded_at_singularity(self):
        # alpha v_f theta^2 = 2 makes the positive part vanish
        assert exp_moment_rhs(1.0, 2.0, 1, 1.0, 1.0) == UNBOUNDED
        assert exp_moment_rhs(1.0, 2.0, 1, 5.0, 1.0) == UNBOUNDED

    def test_hand_arithmetic(self):
        rhs = exp_moment_rhs(0.5, 0.5, 2, 1.0, 0.5)
        assert rhs == pytest.approx(18.0 / 7.0, abs=1e-12)


class TestCheckExpMoment:
    def test_zero_field_equality_for_all_theta(self, k4):
        cert = poincare_constant(k4)
        f = constant_field(4, np.zeros((3, 3)))
        for r in check_exp_moment(k4, energy_report(k4, f), cert, [0.1, 1.0, 10.0]):
            assert r.passed
            assert r.lhs == pytest.approx(3.0, abs=1e-14)
            assert r.rhs == pytest.approx(3.0, abs=1e-14)

    def test_two_state_hand_value(self, two_state):
        cert = poincare_constant(two_state)
        rs = check_exp_moment(two_state, indicator(two_state), cert, [1.0])
        r = rs[0]
        assert r.passed
        assert r.lhs == pytest.approx(math.cosh(0.5), abs=1e-12)
        assert r.rhs == pytest.approx(9.0 / 7.0, abs=1e-12)

    def test_grid_crossing_singularity_skips(self, two_state):
        cert = poincare_constant(two_state)
        # alpha = v_f = 1/2 after centering, so the bound blows up at
        # theta = sqrt(2 / (alpha v_f)) = sqrt(8)
        grid = [1.0, 2.0, math.sqrt(8.0), 5.0]
        rs = check_exp_moment(two_state, indicator(two_state), cert, grid)
        assert [r.verdict for r in rs] == ["PASS", "PASS", "SKIPPED", "SKIPPED"]
        assert rs[2].rhs == UNBOUNDED

    def test_centering_is_logged(self, two_state):
        cert = poincare_constant(two_state)
        r = check_exp_moment(two_state, indicator(two_state), cert, [0.5])[0]
        assert r.context["centered_mean_norm"] == pytest.approx(0.5)

    def test_rhs_scaled_below_the_equality_fails(self, monkeypatch):
        # at theta = 0 both sides are d, an equality; an rhs helper that
        # reads 1e-6 low must turn the row into a FAIL
        base = product_chain(complete_refresh_chain([0.2, 0.3, 0.5]), 2)
        rep = energy_report(base, random_field(np.random.default_rng(157), base.n_states, 2))
        cert = poincare_constant(base)
        (r,) = check_exp_moment(base, rep, cert, [0.0])
        assert r.verdict == "PASS" and r.lhs == r.rhs == 2.0
        real = bounds.exp_moment_rhs
        monkeypatch.setattr(bounds, "exp_moment_rhs",
                            lambda *args: (1.0 - 1e-6) * real(*args))
        (r,) = check_exp_moment(base, rep, cert, [0.0])
        assert r.verdict == "FAIL"
        assert r.margin == pytest.approx(-2e-6, rel=1e-9)

    def test_default_grid_stays_below_singularity(self):
        grid = default_theta_grid(0.5, 0.5)
        assert len(grid) == 20
        singular = math.sqrt(2.0 / (0.5 * 0.5))
        assert np.all(grid < singular)


class TestTailAndExpectationValues:
    def test_tail_bound_values(self):
        assert tail_bound(4, 1e-12) == pytest.approx(24.0)
        assert tail_bound(1, math.log(6.0)) == pytest.approx(1.0)
        lams = np.linspace(0.5, 8, 16)
        vals = [tail_bound(2, l) for l in lams]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestTailEmpirical:
    def test_exact_enumeration_on_chains(self, two_state, k4):
        rng = np.random.default_rng(131)
        lams = np.arange(0.5, 8.5, 0.5)
        for chain in (two_state, k4):
            cert = poincare_constant(chain)
            for _ in range(50):
                f = random_field(rng, chain.n_states, int(rng.integers(1, 4)))
                for r in check_tail_empirical(chain, energy_report(chain, f), cert, lams):
                    assert r.passed
                    assert r.context["exact"]

    def test_small_lambda_auto_pass(self, two_state):
        cert = poincare_constant(two_state)
        rs = check_tail_empirical(two_state, indicator(two_state), cert, [0.1])
        assert rs[0].passed and rs[0].context["auto_pass"]

    def test_constant_field_passes_everywhere(self, k4):
        cert = poincare_constant(k4)
        f = constant_field(4, np.eye(2))
        for r in check_tail_empirical(k4, energy_report(k4, f), cert, np.arange(0.5, 8.5, 0.5)):
            assert r.passed and r.lhs == 0.0

    def test_pauli_series_monte_carlo(self):
        series = GaussianSeries(np.stack([[[1.0, 0], [0, -1.0]], [[0, 1.0], [1.0, 0]]]))
        cert = ou_certificate()
        mc = gaussian_pass(series, energy_report(series), cert, SampleSpec(n=20000, seed=99),
                           lambda_grid=range(1, 9))
        rs = check_tail_empirical(series, mc, cert, range(1, 9))
        assert all(r.passed for r in rs)
        assert rs[0].context["v_f"] == pytest.approx(2.0)

    def test_sample_floor_enforced(self):
        series = GaussianSeries(np.ones((1, 1, 1)))
        with pytest.raises(DomainError, match="10\\^4"):
            gaussian_pass(series, energy_report(series), ou_certificate(), SampleSpec(n=100, seed=1),
                          lambda_grid=[1.0])

    def test_estimated_proxy_refused_without_certificate(self):
        chaos = GaussianChaos(np.ones((1, 1, 1, 1)))
        cert, spec = ou_certificate(), SampleSpec(n=10 ** 4, seed=1)
        rep = energy_report(chaos, spec=spec)
        # the report's probed v_f is an estimate, never a tail threshold
        with pytest.raises(DomainError, match="certified"):
            gaussian_pass(chaos, rep, cert, spec, lambda_grid=[1.0])
        mc = gaussian_pass(chaos, rep, cert, spec, lambda_grid=[6.0, 8.0], v_f_override=50.0)
        rs = check_tail_empirical(chaos, mc, cert, [6.0, 8.0])
        assert all(r.verdict in ("PASS", "INCONCLUSIVE") for r in rs)
        assert rs[0].context["v_f_mode"] == "USER_CERTIFIED"


class TestPolyMomentRhs:
    def test_zero_energy(self):
        assert poly_moment_rhs(0.5, 1.0, 0.0) == 0.0

    def test_hand_arithmetic(self):
        rhs = poly_moment_rhs(0.5, 1.0, 0.5)
        assert rhs == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_sqrt2_regime(self):
        plain = math.sqrt(2 * 0.5 * 1.2 ** 2) * 0.5 ** (1 / 2.4)
        rhs = poly_moment_rhs(0.5, 1.2, 0.5)
        assert rhs == pytest.approx(math.sqrt(2.0) * plain, abs=1e-12)

    def test_q_below_one_rejected(self):
        with pytest.raises(DomainError):
            poly_moment_rhs(0.5, 0.5, 1.0)


class TestCheckPolyMoment:
    def test_zero_field(self, k4):
        cert = poincare_constant(k4)
        rs = check_poly_moment(k4, energy_report(k4, constant_field(4, np.zeros((2, 2)))), cert,
                               [1, 2])
        for r in rs:
            assert r.passed and r.lhs == 0.0 and r.rhs == 0.0

    def test_two_state_hand_value(self, two_state):
        cert = poincare_constant(two_state)
        r = check_poly_moment(two_state, indicator(two_state), cert, [1])[0]
        assert r.passed
        assert r.lhs == pytest.approx(0.5, abs=1e-12)
        assert r.rhs == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_k4_random_sweep(self, k4):
        cert = poincare_constant(k4)
        rng = np.random.default_rng(137)
        for _ in range(100):
            f = random_field(rng, 4, int(rng.integers(1, 4)))
            for r in check_poly_moment(k4, energy_report(k4, f), cert, [1, 1.5, 2, 3]):
                assert r.passed
                assert r.context["sqrt2_regime"] is False

    def test_sqrt2_regime_flagged(self, two_state):
        cert = poincare_constant(two_state)
        r = check_poly_moment(two_state, indicator(two_state), cert, [1.2])[0]
        assert r.context["sqrt2_regime"] is True

    def test_series_monte_carlo_with_exact_gamma(self):
        series = GaussianSeries(np.array([[[1.3]]]))
        cert = ou_certificate()
        mc = gaussian_pass(series, energy_report(series), cert, SampleSpec(n=50000, seed=21),
                           poly_q=[1, 2])
        rs = check_poly_moment(series, mc, cert, [1, 2])
        for r in rs:
            assert r.verdict in ("PASS",)
            assert r.context["gamma_moment_exact"]

    def test_chaos_monte_carlo(self):
        chaos = GaussianChaos(np.ones((1, 1, 1, 1)))
        cert = ou_certificate()
        spec = SampleSpec(n=50000, seed=23)
        mc = gaussian_pass(chaos, energy_report(chaos, spec=spec), cert, spec, poly_q=[1, 2])
        rs = check_poly_moment(chaos, mc, cert, [1, 2])
        for r in rs:
            assert r.verdict in ("PASS", "INCONCLUSIVE")


class TestVarianceDomination:
    def test_q1_dominates_trace_variance(self, two_state, k4):
        # Schatten-2 bookkeeping: sqrt(tr Var) <= sqrt(d) * rhs at q = 1
        rng = np.random.default_rng(139)
        for chain in (two_state, k4):
            cert = poincare_constant(chain)
            for _ in range(50):
                d = int(rng.integers(1, 4))
                f = random_field(rng, chain.n_states, d)
                mean = np.einsum("z,zij->ij", chain.stationary, f.values)
                centered = FiniteField(f.values - mean)
                tv = float(np.trace(energy_report(chain, centered).variance))
                r = check_poly_moment(chain, energy_report(chain, f), cert, [1])[0]
                assert math.sqrt(tv) <= math.sqrt(d) * r.rhs + 1e-9


class TestIntdimVariant:
    def test_constant_field(self, two_state):
        cert = poincare_constant(two_state)
        (r,) = check_intdim_variant(two_state, energy_report(two_state, constant_field(2, np.eye(2))),
                                    cert, [1])
        assert r.passed and r.lhs == 0.0 and r.rhs == 0.0

    @pytest.mark.parametrize("q,expected_rhs", [(1, 0.5), (2, 0.5), (3, 0.75)])
    def test_two_state_enumeration(self, two_state, q, expected_rhs):
        # g takes values {0, +-1}, so E tr |g|^{2q} = 1/2 for every q; the
        # bound intdim * alpha^q q! v^q enumerates to 1/2, 1/2, 3/4
        cert = poincare_constant(two_state)
        (r,) = check_intdim_variant(two_state, indicator(two_state), cert, [q])
        assert r.passed
        assert r.lhs == pytest.approx(0.5, abs=1e-12)
        assert r.rhs == pytest.approx(expected_rhs, abs=1e-12)

    def test_k4_random_sweep(self, k4):
        cert = poincare_constant(k4)
        rng = np.random.default_rng(149)
        for _ in range(30):
            rep = energy_report(k4, random_field(rng, 4, 2))
            assert all(r.passed for r in check_intdim_variant(k4, rep, cert, [1, 2, 3]))

    def test_overflowing_bounds_read_as_inf(self, two_state):
        # 200! (1/2)^200 and (2 alpha q^2)^q exceed the float range; the lhs
        # stays 1/2, so the vacuous bound passes instead of raising
        cert = poincare_constant(two_state)
        (r,) = check_intdim_variant(two_state, indicator(two_state), cert, [200])
        assert r.passed and r.lhs == pytest.approx(0.5, abs=1e-12)
        assert r.rhs == math.inf and r.context["uniform_poly_bound"] == math.inf

    def test_comparison_recorded(self, two_state):
        cert = poincare_constant(two_state)
        (r,) = check_intdim_variant(two_state, indicator(two_state), cert, [2])
        assert r.context["tighter"] in ("intdim", "uniform")
        assert r.context["uniform_poly_bound"] > 0

    def test_fractional_q_rejected(self, two_state):
        cert = poincare_constant(two_state)
        with pytest.raises(DomainError):
            check_intdim_variant(two_state, indicator(two_state), cert, [1, 1.5])

    @pytest.mark.parametrize("d, lapack_rows", [(2, []), (3, [])])
    def test_no_lapack_call_on_the_grid(self, monkeypatch, d, lapack_rows):
        # the 81 (n^2, d, d) differences take the closed forms of
        # batch_eigvalsh, and at d = 3 the n zero differences g(z, z), a
        # triple root, return their diagonal; the Dirichlet form's spectrum
        # is read from the report, so LAPACK sees nothing
        chain = product_chain(complete_refresh_chain([0.2, 0.3, 0.5]), 2)
        cert = poincare_constant(chain)
        rep = energy_report(chain, random_field(np.random.default_rng(153), chain.n_states, d))
        want = check_intdim_variant(chain, rep, cert, [1, 2, 3])
        stacks = []
        real = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            stacks.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert check_intdim_variant(chain, rep, cert, [1, 2, 3]) == want
        assert stacks == lapack_rows

    def test_order_list_equals_one_order_at_a_time(self, k4):
        cert = poincare_constant(k4)
        rep = energy_report(k4, random_field(np.random.default_rng(151), 4, 3))
        one_by_one = [check_intdim_variant(k4, rep, cert, [q])[0] for q in (3, 1, 2)]
        assert check_intdim_variant(k4, rep, cert, [3, 1, 2]) == one_by_one
        assert check_intdim_variant(k4, rep, cert, []) == []


class TestNonFiniteOrders:
    # NaN >= 1 and NaN < 1 are both false: the checks must refuse it
    def test_poly_moment_rhs(self):
        with pytest.raises(DomainError):
            poly_moment_rhs(0.5, math.nan, 0.5)

    def test_chaos_scalar_bound(self):
        with pytest.raises(DomainError):
            chaos_scalar_bound(np.eye(2), math.nan)

    @pytest.mark.parametrize("q", [math.nan, math.inf])
    def test_intdim_variant(self, two_state, q):
        cert = poincare_constant(two_state)
        with pytest.raises(DomainError):
            check_intdim_variant(two_state, indicator(two_state), cert, [q])


class TestChaosBounds:
    def test_scalar_bound_values(self):
        assert chaos_scalar_bound(np.eye(3), 1) == pytest.approx(8.0)
        assert chaos_scalar_bound(np.eye(3), 2) == pytest.approx(4 * chaos_scalar_bound(np.eye(3), 1))

    def test_non_psd_rejected(self):
        with pytest.raises(DomainError):
            chaos_scalar_bound(np.diag([1.0, -1.0]), 1)

    def test_scalar_check_diagonalises_a_once(self, monkeypatch):
        # one eigvalsh of A for the whole q list, not one per q
        calls = []

        def counted(a, name):
            calls.append(name)
            return psd_eigvalsh(a, name)

        monkeypatch.setattr(bounds, "psd_eigvalsh", counted)
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        chaos = GaussianChaos(a[:, :, None, None])
        est = montecarlo.Estimate(value=4.0, ci_low=2.0, ci_high=8.0, level=0.99, n=100)
        mc = GaussianPass(spec=SampleSpec(n=100, seed=1), v_f=None, v_f_mode=None, tail={},
                          poly={}, chaos={q: (est, est) for q in (1.0, 2.0, 3.0)})
        rows = check_chaos_scalar(chaos, mc, [1, 2, 3])
        assert calls == ["chaos coefficient matrix"]
        assert [r.rhs for r in rows] == [8.0 * 3.0 * q * q for q in (1, 2, 3)]

    def test_huge_order_gives_a_finite_rhs(self):
        # 8 q^2 overflows at q = 1e160, sqrt(8) q and 8 |A| q q do not
        q, est = 1e160, montecarlo.Estimate(value=4.0, ci_low=2.0, ci_high=8.0, level=0.99,
                                             n=100)
        coef = np.zeros((2, 2, 1, 1))
        coef[0, 0, 0, 0] = coef[1, 1, 0, 0] = 1e-300
        chaos = GaussianChaos(coef)
        mc = GaussianPass(spec=SampleSpec(n=100, seed=1), v_f=None, v_f_mode=None, tail={},
                          poly={}, chaos={q: (est, est)})
        (matrix,) = check_chaos_matrix(chaos, mc, [q])
        assert matrix.rhs == pytest.approx(math.sqrt(8.0) * q * 4.0 ** (1.0 / (2.0 * q)))
        # the (2q)-th roots of the Gamma interval's ends round to one value,
        # so the rhs is a point and the row records no rhs_ci
        assert math.isfinite(matrix.rhs) and "rhs_ci" not in matrix.context
        (scalar,) = check_chaos_scalar(chaos, mc, [q])
        assert scalar.rhs == pytest.approx(8e-300 * q * q)
        assert scalar.context["norm_A"] == pytest.approx(1e-300)

    def test_huge_order_poly_moment_gives_a_finite_rhs(self):
        # 4^q overflows at q = 1e160 and used to raise an uncaught
        # OverflowError; the rhs 2 poly_moment_rhs(E tr (Gamma / 4)^q) does
        # not, and the Gamma interval 4^q [2, 8] is read as [inf, inf]
        q, est = 1e160, montecarlo.Estimate(value=4.0, ci_low=2.0, ci_high=8.0, level=0.99,
                                             n=100)
        coef = np.zeros((2, 2, 1, 1))
        coef[0, 0, 0, 0] = coef[1, 1, 0, 0] = 1.0
        mc = GaussianPass(spec=SampleSpec(n=100, seed=1), v_f=None, v_f_mode=None, tail={},
                          poly={q: (est, est)}, chaos={})
        (row,) = check_poly_moment(GaussianChaos(coef), mc, ou_certificate(), [q])
        assert math.isfinite(row.rhs)
        assert row.rhs == pytest.approx(2.0 * math.sqrt(2.0) * q * 4.0 ** (1.0 / (2.0 * q)))
        assert row.context["gamma_moment_ci"] == [math.inf, math.inf]

    def test_scalar_chaos_empirical(self):
        coef = np.zeros((2, 2, 1, 1))
        coef[0, 0, 0, 0] = coef[1, 1, 0, 0] = 1.0
        chaos = GaussianChaos(coef)
        spec = SampleSpec(n=20000, seed=31)
        mc = gaussian_pass(chaos, energy_report(chaos, spec=spec), ou_certificate(), spec,
                           chaos_q=[2])
        rs = check_chaos_scalar(chaos, mc, [2])
        # f = X1^2 + X2^2 ~ chi^2_2: (E f^4)^(1/4) = (2^4 4!)^(1/4) << 32
        assert rs[0].passed
        assert rs[0].lhs == pytest.approx((16 * 24) ** 0.25, rel=0.05)
        assert rs[0].rhs == pytest.approx(32.0)

    def test_scalar_checker_needs_d1(self):
        chaos, spec = GaussianChaos(np.ones((1, 1, 2, 2))), SampleSpec(n=100, seed=1)
        mc = gaussian_pass(chaos, energy_report(chaos, spec=spec), ou_certificate(), spec,
                           chaos_q=[1])
        with pytest.raises(DomainError):
            check_chaos_scalar(chaos, mc, [1])

    def test_scaled_gamma_moments_match_scaled_gamma(self):
        rng = np.random.default_rng(163)
        chaos = GaussianChaos(rng.standard_normal((3, 3, 2, 2)))
        spec = SampleSpec(n=9000, seed=35)
        qs = [1.0, 1.5, 2.0, 3.0]
        quarter = SmoothField(ambient_dim=3, dim=2,
                              batch=lambda xs: 0.25 * chaos_gamma_batch(chaos, xs))

        def per_sample(mats):
            w = np.clip(np.linalg.eigvalsh(mats), 0.0, None)
            return [np.sum(w ** q, axis=1) for q in qs]

        oracle = montecarlo.estimate_statistic(
            SampleSpec(n=9000, seed=35 ^ GAMMA_STREAM), quarter, per_sample)
        got_list = chaos_gamma_moments(chaos, qs, spec)
        assert len(got_list) == len(qs)
        for got, want in zip(got_list, oracle):
            assert abs(got.value - want.value) <= 1e-15 * want.value
            assert abs(got.ci_high - want.ci_high) <= 1e-15 * want.ci_high

    def test_poly_moment_on_chaos_makes_two_passes(self, monkeypatch):
        calls = []
        real = montecarlo.estimate_statistic

        def counted(spec, *args, **kwargs):
            calls.append(spec.seed)
            return real(spec, *args, **kwargs)

        rng = np.random.default_rng(167)
        chaos = GaussianChaos(rng.standard_normal((3, 3, 2, 2)))
        qs, spec, cert = [1, 1.5, 2, 3], SampleSpec(n=4000, seed=37), ou_certificate()
        # the centred f-pass and the Gamma / 4 pass, each made alone
        (f_ests,) = estimate_trace_moment(chaos.as_field(), qs, spec, centers=[chaos.mean()])
        gam_ests = chaos_gamma_moments(chaos, qs, spec)
        rep = energy_report(chaos, spec=spec)
        monkeypatch.setattr(montecarlo, "estimate_statistic", counted)
        mc = gaussian_pass(chaos, rep, cert, spec, poly_q=qs)
        assert [mc.poly[q] for q in qs] == list(zip(f_ests, gam_ests))
        assert len(check_poly_moment(chaos, mc, cert, qs)) == 4
        # one pass for f, one for Gamma on its own stream
        assert sorted(calls) == sorted([37, 37 ^ 0x5DEECE66D])

    def test_matrix_one_step(self):
        rng = np.random.default_rng(151)
        chaos = GaussianChaos(rng.standard_normal((2, 2, 2, 2)))
        spec = SampleSpec(n=30000, seed=33)
        mc = gaussian_pass(chaos, energy_report(chaos, spec=spec), ou_certificate(), spec,
                           chaos_q=[1, 2])
        rs = check_chaos_matrix(chaos, mc, [1, 2])
        for r in rs:
            assert r.verdict in ("PASS", "INCONCLUSIVE")
            assert "rhs_ci" in r.context


class TestGaussianPass:
    def psd_chaos(self):
        coef = np.zeros((2, 2, 1, 1))
        coef[0, 0, 0, 0], coef[1, 1, 0, 0] = 1.0, 0.5
        return GaussianChaos(coef)

    def test_checkers_make_no_draw(self, monkeypatch):
        chaos, cert, qs, lams = self.psd_chaos(), ou_certificate(), [1, 1.5, 2], [1.0, 4.0]
        spec = SampleSpec(n=10 ** 4, seed=3)
        mc = gaussian_pass(chaos, energy_report(chaos, spec=spec), cert, spec, lambda_grid=lams,
                           v_f_override=50.0, poly_q=qs, chaos_q=qs)

        def refuse(*args, **kwargs):
            raise AssertionError("a checker drew a sample")

        monkeypatch.setattr(montecarlo, "estimate_statistic", refuse)
        rs = (check_tail_empirical(chaos, mc, cert, lams)
              + check_poly_moment(chaos, mc, cert, qs)
              + check_chaos_scalar(chaos, mc, qs)
              + check_chaos_matrix(chaos, mc, qs))
        assert len(rs) == 2 + 3 * 3
        assert all(r.verdict in ("PASS", "INCONCLUSIVE") for r in rs)

    def test_missing_order_or_level_refused(self):
        chaos, cert, spec = self.psd_chaos(), ou_certificate(), SampleSpec(n=10 ** 4, seed=3)
        mc = gaussian_pass(chaos, energy_report(chaos, spec=spec), cert, spec, lambda_grid=[1.0],
                           v_f_override=50.0, poly_q=[1, 2])
        with pytest.raises(DomainError, match="no tail estimate at \\[2.0\\]"):
            check_tail_empirical(chaos, mc, cert, [1.0, 2.0])
        with pytest.raises(DomainError, match="no poly-moment estimate at \\[3.0\\]"):
            check_poly_moment(chaos, mc, cert, [1, 3])
        # the chaos suite was not part of the pass
        with pytest.raises(DomainError, match="no chaos estimate"):
            check_chaos_matrix(chaos, mc, [1])
        with pytest.raises(DomainError, match="no chaos estimate"):
            check_chaos_scalar(chaos, mc, [1])

    def test_chain_model_refused(self, two_state):
        with pytest.raises(DomainError, match="unsupported model type"):
            gaussian_pass(two_state, indicator(two_state), ou_certificate(),
                          SampleSpec(n=100, seed=1), poly_q=[1])

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_v_f_override_refused_before_any_draw(self, monkeypatch, bad):
        def refuse(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        chaos, spec = self.psd_chaos(), SampleSpec(n=10 ** 4, seed=3)
        rep = energy_report(chaos, spec=spec)
        monkeypatch.setattr(montecarlo, "estimate_statistic", refuse)
        with pytest.raises(DomainError, match="v_f_override"):
            gaussian_pass(chaos, rep, ou_certificate(), spec, lambda_grid=[1.0],
                          v_f_override=bad)

    def test_small_blocks_take_the_closed_form(self, monkeypatch):
        # every A_ii is a multiple of one rotated diag(1, 2, 4) and A_ij = 0
        # off the diagonal, so f - E f and Gamma(f) are scalar multiples of
        # fixed matrices with simple spectra: no block is near a double root
        rng = np.random.default_rng(173)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        coef = np.zeros((4, 4, 3, 3))
        for i in range(4):
            coef[i, i] = (1.0 + i) * (u * [1.0, 2.0, 4.0]) @ u.T
        chaos = GaussianChaos(coef)
        raw = rng.standard_normal((5, 8, 8))
        series = GaussianSeries(0.5 * (raw + raw.transpose(0, 2, 1)))
        chaos_spec, series_spec = SampleSpec(n=10 ** 4, seed=41), SampleSpec(n=1000, seed=41)
        chaos_rep, series_rep = energy_report(chaos, spec=chaos_spec), energy_report(series)
        calls = []
        real = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        cert, qs = ou_certificate(), [1, 1.5, 2]
        gaussian_pass(chaos, chaos_rep, cert, chaos_spec, poly_q=qs, chaos_q=qs)
        assert calls == []
        # an 8 x 8 series stays on LAPACK: one call per block
        gaussian_pass(series, series_rep, cert, series_spec, poly_q=qs)
        assert calls == [(1000, 8, 8)]


class TestOrthogonalInvariance:
    """A -> U A U^T for an orthogonal U, applied to every coefficient,
    conjugates f(X) and Gamma(f)(X) at every X, so every trace quantity and
    every row of the Monte Carlo suites keeps its value."""

    @staticmethod
    def rows(model):
        cert, qs, lams = ou_certificate(), [1, 1.5, 2, 3], [0.5, 1.0, 2.0]
        chaos, spec = isinstance(model, GaussianChaos), SampleSpec(n=10 ** 4, seed=43)
        mc = gaussian_pass(model, energy_report(model, spec=spec), cert, spec, lambda_grid=lams,
                           v_f_override=4.0 if chaos else None, poly_q=qs,
                           chaos_q=qs if chaos else None)
        rows = check_tail_empirical(model, mc, cert, lams) + check_poly_moment(model, mc, cert, qs)
        return rows + (check_chaos_matrix(model, mc, qs) if chaos else [])

    @staticmethod
    def assert_same_rows(base, conj):
        assert len(base) == len(conj)
        for a, b in zip(base, conj):
            assert b.lhs == pytest.approx(a.lhs, rel=1e-12, abs=0.0)
            assert b.rhs == pytest.approx(a.rhs, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_chaos(self, d):
        rng = np.random.default_rng(177 + d)
        coef = rng.standard_normal((3, 3, d, d))
        u, _ = np.linalg.qr(rng.standard_normal((d, d)))
        conj = np.einsum("ab,ijbc,dc->ijad", u, coef, u)
        self.assert_same_rows(self.rows(GaussianChaos(coef)), self.rows(GaussianChaos(conj)))

    @pytest.mark.parametrize("d", [2, 3])
    def test_series(self, d):
        rng = np.random.default_rng(181 + d)
        coef = rng.standard_normal((4, d, d))
        u, _ = np.linalg.qr(rng.standard_normal((d, d)))
        conj = np.einsum("ab,kbc,dc->kad", u, coef, u)
        self.assert_same_rows(self.rows(GaussianSeries(coef)), self.rows(GaussianSeries(conj)))


class TestPermutationInvariance:
    """Relabelling the states of a reversible chain, together with its
    field, permutes every sum over states and changes no row.  The probe's
    fields are drawn per state index and the mean-value rows read states 0
    and 1, so those two rows are left out."""

    STATE_INDEXED = {"poincare-equivalence", "mean-value-trace"}

    @staticmethod
    def rows(chain, fields):
        cfg = {"seed": 5,
               "model": {"generator": chain.generator.tolist(),
                         "stationary": chain.stationary.tolist()},
               "fields": [{"type": "table", "name": f"f{i}", "values": f.tolist()}
                          for i, f in enumerate(fields)],
               "suites": ["poincare", "subadditivity", "chain-rule", "exp-moment", "tail",
                          "poly-moment", "intdim"],
               "params": {"probe": {"trials": 0}}}
        rows, _, _ = run_experiment(cfg)
        return [r for r in rows if r["citation"] not in TestPermutationInvariance.STATE_INDEXED]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12),
           d=st.sampled_from([2, 3]))
    def test_rows_unchanged(self, seed, n, d):
        rng = np.random.default_rng(seed)
        chain = random_reversible_chain(rng, n)
        fields = [rng.standard_normal(n), random_field(rng, n, d).values]
        perm = rng.permutation(n)
        permuted = FiniteChain(chain.generator[np.ix_(perm, perm)], chain.stationary[perm])
        base = self.rows(chain, fields)
        moved = self.rows(permuted, [f[perm] for f in fields])
        citations = {r["citation"] for r in base}
        assert {"scalar-poincare", "trace-poincare", "variance-subadditivity",
                "poincare-subadditivity", "dirichlet-chain-rule", "exp-moment", "subexp-tail",
                "poly-moment", "intdim-moment"} == citations
        assert [r["citation"] for r in moved] == [r["citation"] for r in base]
        for a, b in zip(base, moved):
            assert b["lhs"] == pytest.approx(a["lhs"], rel=1e-12, abs=0.0), a["citation"]
            assert b["rhs"] == pytest.approx(a["rhs"], rel=1e-12, abs=0.0), a["citation"]


class TestSharedSpectra:
    def test_two_eigvalsh_per_field(self, monkeypatch):
        # the report diagonalises f - E f and Gamma once each, and the
        # exp-moment, tail and poly-moment checkers read both spectra from it
        rng = np.random.default_rng(191)
        n, d = 7, 3
        chain = random_reversible_chain(rng, n)
        f = random_field(rng, n, d)
        stacks = []
        real = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            if np.ndim(a) == 3 and np.shape(a)[0] == n:
                stacks.append(np.array(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        rep = energy_report(chain, f)
        cert = poincare_constant(chain)
        check_exp_moment(chain, rep, cert, default_theta_grid(cert.alpha, rep.v_f))
        check_tail_empirical(chain, rep, cert, [0.5, 1.0, 2.0])
        check_poly_moment(chain, rep, cert, [1, 1.5, 2, 3])
        assert len(stacks) == 2
        mean = np.einsum("z,zij->ij", chain.stationary, f.values)
        np.testing.assert_array_equal(stacks[0], f.values - mean)
        np.testing.assert_array_equal(stacks[1], rep.gamma)

    @pytest.mark.parametrize("fixture, suites", [
        ("pauli-series", ["tail", "poly-moment"]),
        ("psd-chaos", ["poly-moment", "chaos"]),
    ])
    def test_one_energy_report_per_gaussian_run(self, monkeypatch, fixture, suites):
        # one report, which forms sum_i A_i^2 (series) or the Gamma chaos's
        # coefficients C_jl from sum_i A_ij A_il (chaos) once for its
        # Dirichlet form, variance and Gamma; the chaos's Gamma stream
        # (three blocks) reads the same C
        built, squares = [], []
        real_report, real_einsum = energy.energy_report, np.einsum

        def report(*args, **kwargs):
            built.append(args[0])
            return real_report(*args, **kwargs)

        def einsum(subscripts, *operands, **kwargs):
            if subscripts in ("kij,kjl->il", "ijab,ilbc->jlac"):
                squares.append(subscripts)
            return real_einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(energy, "energy_report", report)
        monkeypatch.setattr(cli, "energy_report", report)
        monkeypatch.setattr(np, "einsum", einsum)
        run_experiment({"seed": 5, "samples": {"n": 10 ** 4}, "model": {"fixture": fixture},
                        "suites": suites})
        assert len(built) == 1 and len(squares) == 1

    def test_series_pass_reads_its_report(self, monkeypatch):
        # v_f and the exact Gamma moments come from the report: the
        # poly-moment checker diagonalises nothing
        rng = np.random.default_rng(193)
        raw = rng.standard_normal((4, 3, 3))
        series = GaussianSeries(0.5 * (raw + raw.transpose(0, 2, 1)))
        rep, cert = energy_report(series), ou_certificate()
        mc = gaussian_pass(series, rep, cert, SampleSpec(n=10 ** 4, seed=47), lambda_grid=[1.0],
                           poly_q=[1, 2])
        assert mc.v_f == rep.v_f and mc.v_f_mode == rep.mode == "EXACT"
        # the pass holds E tr (Gamma / 4)^q, and a series's Gamma is D
        assert 4.0 * mc.poly[1.0][1] == pytest.approx(np.trace(rep.dirichlet), rel=1e-13)

        def refuse(*args, **kwargs):
            raise AssertionError("a checker diagonalised a matrix")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        rs = check_poly_moment(series, mc, cert, [1, 2])
        assert [r.context["gamma_moment_exact"] for r in rs] == [True, True]


class TestVerdictMechanics:
    def test_slack_monotonicity(self):
        # enlarging the tolerance can never flip PASS to FAIL
        rng = np.random.default_rng(157)
        for _ in range(200):
            lhs, rhs = rng.standard_normal(2)
            small = CheckReport.from_comparison("x", lhs, rhs, 1e-12)
            big = CheckReport.from_comparison("x", lhs, rhs, 1e-3)
            if small.passed:
                assert big.passed

    def test_interval_trichotomy(self):
        exact = (1.0, 1.0, 1.0)
        r = CheckReport.from_interval("x", 0.5, 0.8, 0.9, exact, 0.0)
        assert r.verdict == "PASS" and "rhs_ci" not in r.context
        r = CheckReport.from_interval("x", 0.95, 1.05, 1.2, exact, 0.0)
        assert r.verdict == "INCONCLUSIVE"
        r = CheckReport.from_interval("x", 1.1, 1.2, 1.3, exact, 0.0)
        assert r.verdict == "FAIL"
        # an estimated rhs: PASS below its lower end, FAIL above its upper end
        estimated = (0.95, 1.0, 1.05)
        r = CheckReport.from_interval("x", 0.5, 0.8, 0.9, estimated, 0.0)
        assert r.verdict == "PASS" and r.context["rhs_ci"] == [0.95, 1.05]
        assert r.rhs == 1.0 and r.margin == pytest.approx(0.2)
        r = CheckReport.from_interval("x", 0.5, 0.8, 0.96, estimated, 0.0)
        assert r.verdict == "INCONCLUSIVE"
        r = CheckReport.from_interval("x", 1.02, 1.1, 1.2, estimated, 0.0)
        assert r.verdict == "INCONCLUSIVE"
        r = CheckReport.from_interval("x", 1.06, 1.1, 1.2, estimated, 0.0)
        assert r.verdict == "FAIL"
