import itertools
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.polynomial.hermite_e import hermegauss
from hypothesis import strategies as st

from tplab import (
    CapacityError,
    DimensionError,
    DomainError,
    NumericError,
    FiniteField,
    GaussianChaos,
    GaussianSeries,
    SampleSpec,
    bivariate_symmetrized,
    carre_table,
    column_energies,
    complete_refresh_chain,
    constant_field,
    energy_report,
    gaussian_pass,
    op_norm,
    ou_certificate,
    poincare_constant,
    product_chain,
)
from tplab import bounds, energy, models, spectral
from tplab.bounds import chaos_gamma_moments
from tplab.cli import run_experiment
from tplab.energy import chaos_gamma_batch
from tplab.spectral import psd_eigvalsh
from tplab.models import FiniteChain
from tplab.montecarlo import draw_standard_normal

from conftest import dense_product_generator, random_field, random_reversible_chain


def chaos_report(chaos):
    """The energy report of a chaos, whose Dirichlet form and variance are
    exact whatever the probe seed."""
    return energy_report(chaos, spec=SampleSpec(n=8, seed=1))


PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestCarreFinite:
    def test_constant_field_vanishes(self, k4):
        f = constant_field(4, [[2.0, 1.0], [1.0, -1.0]])
        np.testing.assert_allclose(carre_table(k4, f), 0.0, atol=1e-15)

    def test_two_state_indicator(self, two_state):
        f = FiniteField.from_scalars([0.0, 1.0])
        # (1/2) * rate 1 * (difference 1)^2 = 1/2 at both states
        gam = carre_table(two_state, f)
        np.testing.assert_allclose(gam[:, 0, 0], [0.5, 0.5], atol=1e-15)

    def test_k4_spike_field(self, k4):
        # f = I at one vertex and 0 elsewhere: three neighbors at rate 1/3,
        # each squared difference I, so the on-site energy is I/2 and each
        # neighbor sees a single I/6 contribution
        vals = np.zeros((4, 2, 2))
        vals[0] = np.eye(2)
        f = FiniteField(vals)
        gam = carre_table(k4, f)
        np.testing.assert_allclose(gam[0], 0.5 * np.eye(2), atol=1e-15)
        np.testing.assert_allclose(gam[1], np.eye(2) / 6.0, atol=1e-15)

    def test_overflowing_table_raises(self, two_state):
        # the squared fluctuations of [0, 1e200] overflow: no finite Gamma
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="not finite"):
            carre_table(two_state, FiniteField.from_scalars([0.0, 1e200]))

    def test_state_count_mismatch(self, k4):
        with pytest.raises(DimensionError):
            carre_table(k4, FiniteField.from_scalars([0.0, 1.0]))

    def test_psd_on_random_fields(self, two_state, k4, cycle4):
        rng = np.random.default_rng(31)
        for chain in (two_state, k4, cycle4):
            for _ in range(100):
                f = random_field(rng, chain.n_states, int(rng.integers(1, 4)))
                for g in carre_table(chain, f):
                    w = np.linalg.eigvalsh(g)
                    assert w[0] >= -1e-10 * (1.0 + abs(w[-1]))

    def test_affine_image_scaling(self, k4):
        # Gamma(a * s * I + C) == a^2 * Gamma(s * I) entrywise
        rng = np.random.default_rng(37)
        scalars = rng.standard_normal(4)
        base = FiniteField(np.einsum("z,ij->zij", scalars, np.eye(3)))
        shifted = FiniteField(np.einsum("z,ij->zij", 2.5 * scalars, np.eye(3))
                              + np.array([[1.0, 0.5, 0], [0.5, -2.0, 0], [0, 0, 1.0]]))
        np.testing.assert_allclose(carre_table(k4, shifted),
                                   2.5 ** 2 * carre_table(k4, base), atol=1e-12)


def naive_carre(chain, f):
    """The defining sum (1/2) sum_w L(z, w) (f(w) - f(z))^2, state by state."""
    v = f.values
    out = np.empty_like(v)
    for z in range(chain.n_states):
        diff = v - v[z]
        out[z] = 0.5 * np.einsum("w,wij->ij", chain.generator[z], diff @ diff)
    return 0.5 * (out + out.transpose(0, 2, 1))


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


chain_cases = dict(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 7),
                   d=st.sampled_from([1, 2, 3]), log_scale=st.integers(-3, 3))


class TestCarreIdentity:
    def test_refresh_product_matches_naive_sum(self):
        rng = np.random.default_rng(43)
        base = complete_refresh_chain([0.2, 0.3, 0.5])
        prod = product_chain(base, 2)
        dense = FiniteChain(dense_product_generator(base, 2), prod.stationary)
        for _ in range(20):
            f = random_field(rng, 9, 2)
            want = naive_carre(dense, f)
            err = np.max(np.abs(carre_table(prod, f) - want))
            assert err <= 1e-12 * (1.0 + np.max(np.abs(want)))

    @settings(max_examples=80, deadline=None)
    @given(shift=st.sampled_from([0.0, 1e3]), **chain_cases)
    def test_matches_naive_sum(self, seed, n, d, log_scale, shift):
        rng = np.random.default_rng(seed)
        chain = random_reversible_chain(rng, n, 10.0 ** log_scale)
        f = FiniteField(random_field(rng, n, d).values + shift * np.eye(d))
        want = naive_carre(chain, f)
        err = np.max(np.abs(carre_table(chain, f) - want))
        assert err <= 1e-12 * (1.0 + np.max(np.abs(want)))

    @settings(max_examples=40, deadline=None)
    @given(c=st.sampled_from([1e-3, 0.5, 7.0, 1e3]), **chain_cases)
    def test_time_rescaling(self, seed, n, d, log_scale, c):
        # L -> cL multiplies Gamma by c and divides the Poincare constant by c
        rng = np.random.default_rng(seed)
        chain = random_reversible_chain(rng, n, 10.0 ** log_scale)
        fast = FiniteChain(c * chain.generator, chain.stationary)
        f = random_field(rng, n, d)
        gam = carre_table(chain, f)
        np.testing.assert_allclose(carre_table(fast, f), c * gam,
                                   rtol=0, atol=1e-12 * c * (1.0 + np.max(np.abs(gam))))
        alpha = poincare_constant(chain).alpha
        assert poincare_constant(fast).alpha == pytest.approx(alpha / c, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(**chain_cases)
    def test_conjugation_keeps_trace(self, seed, n, d, log_scale):
        # Gamma(Q f Q^T) = Q Gamma(f) Q^T, so tr Gamma is unchanged at every state
        rng = np.random.default_rng(seed)
        chain = random_reversible_chain(rng, n, 10.0 ** log_scale)
        f = random_field(rng, n, d)
        q = random_orthogonal(rng, d)
        turned = FiniteField(q @ f.values @ q.T)
        tr = np.trace(carre_table(chain, f), axis1=1, axis2=2)
        tr_turned = np.trace(carre_table(chain, turned), axis1=1, axis2=2)
        assert np.max(np.abs(tr_turned - tr)) <= 1e-12 * (1.0 + np.max(np.abs(tr)))


class TestCarreProductFormula:
    """On a product of complete-refresh chains Gamma is the product-space
    formula (1/2) sum_i E_{Z~mu}[(f(z) - f(z with coordinate i := Z))^2];
    its hand-enumerated values, through carre_table."""

    def test_constant_vanishes(self):
        prod = product_chain(complete_refresh_chain([0.5, 0.5]), 2)
        f = constant_field(4, [[3.0]])
        np.testing.assert_allclose(carre_table(prod, f), 0.0, atol=1e-15)

    def test_single_coordinate_reduces_to_refresh_average(self):
        mu = np.array([0.2, 0.3, 0.5])
        vals = np.array([1.0, -1.0, 2.0])
        gam = carre_table(complete_refresh_chain(mu), FiniteField.from_scalars(vals))
        # direct enumeration of (1/2) E[(f(z) - f(Z))^2]
        for z in range(3):
            expected = 0.5 * np.sum(mu * (vals[z] - vals) ** 2)
            assert gam[z, 0, 0] == pytest.approx(expected, abs=1e-15)

    def test_two_state_sum_field(self):
        # f(z) = z1 + z2 on {0,1}^2 with uniform base: each coordinate
        # replacement contributes E(z_i - Z)^2 = 1/2, so Gamma = 1/2 * (1/2
        # + 1/2) = 1/2 at every state (enumerated by hand)
        prod = product_chain(complete_refresh_chain([0.5, 0.5]), 2)
        vals = np.array([z1 + z2 for z1 in (0.0, 1.0) for z2 in (0.0, 1.0)])
        gam = carre_table(prod, FiniteField.from_scalars(vals))
        np.testing.assert_allclose(gam[:, 0, 0], 0.5, atol=1e-15)


class TestColumnEnergies:
    @settings(max_examples=80, deadline=None)
    @given(shift=st.sampled_from([0.0, 1e3]), **chain_cases)
    def test_matches_energies_of_each_entry_field(self, seed, n, d, log_scale, shift):
        # oracle: the energy report of every entry f_ij as a scalar field; the oracle's variance is E f^2 - (E f)^2, so its
        # rounding grows with the second moment, and its energy with the rate
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        chain = random_reversible_chain(rng, n, scale)
        f = FiniteField(random_field(rng, n, d).values + shift * np.eye(d))
        cols = f.values.reshape(n, d * d)
        var, dirich = column_energies(chain, cols)
        second = chain.stationary @ cols ** 2
        for k in range(d * d):
            entry = FiniteField.from_scalars(cols[:, k])
            want = energy_report(chain, entry)
            want_var, want_dir = want.variance[0, 0], want.dirichlet[0, 0]
            assert abs(var[k] - want_var) <= 1e-12 * (1.0 + second[k])
            assert abs(dirich[k] - want_dir) <= 1e-12 * (1.0 + scale) * (1.0 + want_var)

    def test_trace_is_sum_over_entries(self, k4, cycle4):
        rng = np.random.default_rng(241)
        for chain in (k4, cycle4):
            f = random_field(rng, 4, 3)
            var, dirich = column_energies(chain, f.values.reshape(4, 9))
            rep = energy_report(chain, f)
            assert var.sum() == pytest.approx(np.trace(rep.variance), rel=1e-13)
            assert dirich.sum() == pytest.approx(np.trace(rep.dirichlet), rel=1e-13)

    def test_two_state_indicator(self, two_state):
        var, dirich = column_energies(two_state, [[0.0, 5.0], [1.0, 5.0]])
        np.testing.assert_allclose(var, [0.25, 0.0], atol=1e-15)
        np.testing.assert_allclose(dirich, [0.5, 0.0], atol=1e-15)


def central_gamma(field, xs):
    """Oracle: sum_i (d_i f)^2 at each row of xs, with the central difference
    d_i f(x) = (f(x + e_i) - f(x - e_i)) / 2, exact for a quadratic f."""
    out = 0.0
    for step in np.eye(field.ambient_dim):
        p = 0.5 * (field.eval_batch(xs + step) - field.eval_batch(xs - step))
        out = out + p @ p
    return out


def gauss_hermite_mean(fn, n):
    """Oracle: E fn(X) for X ~ N(0, I_n), by the tensor rule with 3
    Gauss-Hermite nodes per variable, exact for polynomials of degree <= 5
    in each variable; fn maps (m, n) points to (m, d, d) values."""
    nodes, weights = hermegauss(3)
    weights = weights / weights.sum()
    points = np.array(list(itertools.product(nodes, repeat=n)))
    w = np.prod(np.array(list(itertools.product(weights, repeat=n))), axis=1)
    return np.einsum("m,mij->ij", w, fn(points))


class TestCarreSmooth:
    """Gamma = sum_i (d_i f)^2 of the Gaussian models, against central
    differences of the field's evaluator."""

    def test_series_is_sum_of_squared_coefficients(self):
        series = GaussianSeries(np.stack([PAULI_Z, PAULI_X]))
        expected = PAULI_Z @ PAULI_Z + PAULI_X @ PAULI_X  # = 2I
        np.testing.assert_allclose(expected, 2.0 * np.eye(2))
        xs = np.random.default_rng(47).standard_normal((10, 2))
        np.testing.assert_allclose(central_gamma(series.as_field(), xs),
                                   np.broadcast_to(expected, (10, 2, 2)), atol=1e-12)
        np.testing.assert_allclose(energy_report(series).gamma, expected[None], atol=1e-15)

    def test_chaos_closed_form(self):
        rng = np.random.default_rng(53)
        chaos = GaussianChaos(rng.standard_normal((3, 3, 2, 2)))
        xs = rng.standard_normal((10, 3))
        expected = central_gamma(chaos.as_field(), xs)
        assert relative_gap(chaos_gamma_batch(chaos, xs), expected) <= 1e-13


def relative_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestChaosKernels:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_blas_kernels_match_einsum_oracle(self, d):
        rng = np.random.default_rng(300 + d)
        chaos = GaussianChaos(rng.standard_normal((5, 5, d, d)))
        a = chaos.coefficients
        xs = rng.standard_normal((257, 5))
        sums = np.einsum("mj,ijkl->mikl", xs, a)
        gamma = 4.0 * np.einsum("mikl,milp->mkp", sums, sums)
        values = np.einsum("mi,mj,ijkl->mkl", xs, xs, a)
        assert relative_gap(chaos_gamma_batch(chaos, xs), gamma) <= 1e-13
        assert relative_gap(chaos.as_field().eval_batch(xs), values) <= 1e-13


@st.composite
def _chaos_points(draw):
    """A chaos with n in 1..6 variables, d in 1..4 and coefficients of one
    scale between 1e-100 and 1e100, and a few points."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.integers(-100, 100))
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    coef = np.array(draw(st.lists(unit, min_size=n * n * d * d, max_size=n * n * d * d)))
    xs = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=3 * n, max_size=3 * n)))
    return GaussianChaos(scale * coef.reshape(n, n, d, d)), xs.reshape(3, n)


class TestChaosGammaIdentity:
    """Gamma of a chaos evaluated as a chaos, sum_jl x_j x_l C_jl, against
    its definition 4 sum_i M_i^2 with M_i = sum_j x_j A_ij."""

    @settings(max_examples=300, deadline=None)
    @given(_chaos_points())
    def test_matches_the_definition(self, case):
        chaos, xs = case
        a = chaos.coefficients
        n, d = chaos.n_vars, chaos.dim
        m = np.einsum("pj,ijkl->pikl", xs, a)
        want = 4.0 * np.einsum("pikl,pilr->pkr", m, m)
        # the rounding of either form is a few eps of the sum of the
        # absolute terms, which is at most 4 sum_i (sum_j |x_j| |A_ij|)^2,
        # plus a few subnormal steps per term where the terms underflow
        norms = np.sqrt(np.einsum("ijkl,ijkl->ij", a, a))
        scale = 4.0 * np.sum((np.abs(xs) @ norms.T) ** 2, axis=1)
        gap = np.max(np.abs(chaos_gamma_batch(chaos, xs) - want), axis=(1, 2))
        tiny = np.nextafter(0.0, 1.0)
        assert np.all(gap <= 8 * (n * d + 4) * (np.finfo(float).eps * scale + n * tiny))

    def test_coefficients_are_built_once_per_model(self, monkeypatch):
        built = []
        real = models._gamma_coefficients

        def counted(a):
            built.append(a.shape)
            return real(a)

        monkeypatch.setattr(models, "_gamma_coefficients", counted)
        rng = np.random.default_rng(71)
        chaos = GaussianChaos(rng.standard_normal((4, 4, 3, 3)))
        spec = SampleSpec(n=10000, seed=3)  # three blocks
        rep = energy_report(chaos, spec=spec)
        chaos_gamma_moments(chaos, [1, 2], spec)
        assert built == [(4, 4, 3, 3)]
        np.testing.assert_array_equal(rep.variance, 0.5 * rep.dirichlet)
        # another model of the same coefficients builds its own
        chaos_gamma_batch(GaussianChaos(chaos.coefficients), np.ones((1, 4)))
        assert len(built) == 2

    def test_packed_coefficients_are_built_once_per_model(self, monkeypatch):
        built = []
        real = models._packed

        def counted(a):
            built.append(a.shape)
            return real(a)

        monkeypatch.setattr(models, "_packed", counted)
        rng = np.random.default_rng(79)
        chaos = GaussianChaos(rng.standard_normal((4, 4, 3, 3)))
        spec = SampleSpec(n=10000, seed=5)  # three blocks per pass
        rep = energy_report(chaos, spec=spec)
        passes = gaussian_pass(chaos, rep, ou_certificate(), spec,
                               poly_q=[1, 2], chaos_q=[1, 2])
        assert built == [(4, 4, 3, 3), (4, 4, 3, 3)]  # C for the report, then A
        assert set(passes.poly) == {1.0, 2.0}
        # another model of the same coefficients builds its own
        chaos_gamma_batch(GaussianChaos(chaos.coefficients), np.ones((1, 4)))
        assert len(built) == 3

    def test_mean_is_the_trace_of_the_coefficients(self):
        # E Gamma(f) = sum_j C_jj = 4 sum_ij A_ij^2
        rng = np.random.default_rng(73)
        chaos = GaussianChaos(rng.standard_normal((5, 5, 3, 3)))
        a = chaos.coefficients
        square = np.einsum("ijkl,ijlm->km", a, a)
        assert relative_gap(chaos_report(chaos).dirichlet, 4.0 * square) <= 1e-15


class TestDirichletForm:
    def test_constant_vanishes(self, k4):
        f = constant_field(4, np.eye(2))
        np.testing.assert_allclose(energy_report(k4, f).dirichlet, 0.0, atol=1e-15)

    def test_two_state_indicator(self, two_state):
        f = FiniteField.from_scalars([0.0, 1.0])
        assert energy_report(two_state, f).dirichlet[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_series_exact(self):
        series = GaussianSeries(np.stack([PAULI_Z, PAULI_X]))
        np.testing.assert_allclose(energy_report(series).dirichlet, 2.0 * np.eye(2))

    def test_equals_mu_average_of_gamma(self, k4, cycle4):
        rng = np.random.default_rng(61)
        for chain in (k4, cycle4):
            for _ in range(50):
                f = random_field(rng, chain.n_states, 3)
                gam = carre_table(chain, f)
                expected = np.einsum("z,zij->ij", chain.stationary, gam)
                np.testing.assert_allclose(energy_report(chain, f).dirichlet, expected,
                                           atol=1e-12)

    def test_chaos_monte_carlo_matches_analytic_oracle(self):
        # the exact form (the name is older than it):
        # E Gamma = 4 sum_ij A_ij^2 since E[X_j X_k] = delta_jk
        rng = np.random.default_rng(67)
        chaos = GaussianChaos(rng.standard_normal((2, 2, 2, 2)))
        a = chaos.coefficients
        oracle = 4.0 * sum(a[i, j] @ a[i, j] for i in range(2) for j in range(2))
        assert relative_gap(chaos_report(chaos).dirichlet, oracle) <= 1e-14


class TestChaosEnergies:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_match_gauss_hermite_quadrature(self, n, d):
        rng = np.random.default_rng(10 * n + d)
        chaos = GaussianChaos(rng.standard_normal((n, n, d, d)))
        field = chaos.as_field()
        mean = gauss_hermite_mean(field.eval_batch, n)
        second = gauss_hermite_mean(lambda xs: field.eval_batch(xs) @ field.eval_batch(xs), n)
        energy = gauss_hermite_mean(lambda xs: central_gamma(field, xs), n)
        assert relative_gap(chaos.mean(), mean) <= 1e-12
        rep = chaos_report(chaos)
        assert relative_gap(rep.variance, second - mean @ mean) <= 1e-12
        assert relative_gap(rep.dirichlet, energy) <= 1e-12

    def test_variance_is_half_the_energy(self):
        # on the second chaos Var f = E Gamma(f) / 2, bit for bit
        rng = np.random.default_rng(89)
        for n, d in ((1, 1), (4, 2), (8, 3)):
            chaos = GaussianChaos(rng.standard_normal((n, n, d, d)))
            rep = chaos_report(chaos)
            np.testing.assert_array_equal(rep.variance, 0.5 * rep.dirichlet)


class TestMatrixVariance:
    def test_constant_vanishes(self, two_state):
        f = constant_field(2, [[4.0]])
        np.testing.assert_allclose(energy_report(two_state, f).variance, 0.0, atol=1e-15)

    def test_two_state_indicator(self, two_state):
        f = FiniteField.from_scalars([0.0, 1.0])
        assert energy_report(two_state, f).variance[0, 0] == pytest.approx(0.25, abs=1e-15)

    def test_series_scalar_oracle(self):
        a = np.array([0.7, -1.2, 0.4])
        series = GaussianSeries(a[:, None, None])
        # var of sum a_i X_i is sum a_i^2
        assert energy_report(series).variance[0, 0] == pytest.approx(np.sum(a ** 2))

    def test_psd_on_random_fields(self, k4):
        rng = np.random.default_rng(71)
        for _ in range(100):
            f = random_field(rng, 4, 3)
            w = np.linalg.eigvalsh(energy_report(k4, f).variance)
            assert w[0] >= -1e-10 * (1.0 + abs(w[-1]))


class TestVarianceProxy:
    def test_constant_field(self, k4):
        f = constant_field(4, np.eye(2))
        rep = energy_report(k4, f)
        assert rep.v_f == 0.0 and rep.mode == "EXACT"

    def test_two_state_indicator(self, two_state):
        rep = energy_report(two_state, FiniteField.from_scalars([0.0, 1.0]))
        assert rep.v_f == pytest.approx(0.5, abs=1e-15) and rep.mode == "EXACT"

    def test_series_norm(self):
        series = GaussianSeries(np.stack([PAULI_Z, PAULI_X]))
        rep = energy_report(series)
        assert rep.v_f == pytest.approx(2.0) and rep.mode == "EXACT"

    def test_general_smooth_needs_grid(self):
        # a chaos's v_f is only probed: no tail threshold is read from it
        chaos = GaussianChaos(np.ones((1, 1, 1, 1)))
        spec = SampleSpec(n=10 ** 4, seed=1)
        rep = energy_report(chaos, spec=spec)
        assert rep.mode == "ESTIMATED"
        with pytest.raises(DomainError, match="unbounded"):
            gaussian_pass(chaos, rep, ou_certificate(), spec, lambda_grid=[1.0])


class TestBivariateSymmetrized:
    def test_pair_over_byte_budget_refused(self, two_state):
        # 2^16 states: the pair's two (2^32, 1, 1) tables would take 64 GiB
        prod = product_chain(two_state, 16)
        with pytest.raises(CapacityError, match="64 GiB"):
            bivariate_symmetrized(
                prod, energy_report(prod, FiniteField.from_scalars(np.zeros(prod.n_states))))

    def test_budget_counts_both_tables(self, k4, monkeypatch):
        # 2 tables x 16 states x 2 x 2 doubles = 1024 bytes, though the grid
        # alone is half of that
        rep = energy_report(k4, FiniteField(np.zeros((4, 2, 2))))
        monkeypatch.setattr(energy, "PAIR_BYTE_BUDGET", 1024)
        assert bivariate_symmetrized(k4, rep).shape == (4, 4, 2, 2)
        monkeypatch.setattr(energy, "PAIR_BYTE_BUDGET", 1023)
        with pytest.raises(CapacityError):
            bivariate_symmetrized(k4, rep)

    @staticmethod
    def pair_report(chain, rep):
        """The energy report of g(z, z') = f(z) - f(z') on the explicit
        two-fold product chain: the oracle of g's energies, which no suite
        builds."""
        grid = bivariate_symmetrized(chain, rep)
        return energy_report(product_chain(chain, 2),
                             FiniteField(grid.reshape(-1, *grid.shape[2:])))

    def test_constant_field_all_zero(self, two_state):
        rep = energy_report(two_state, constant_field(2, [[5.0]]))
        np.testing.assert_allclose(bivariate_symmetrized(two_state, rep), 0.0, atol=1e-15)
        pair = self.pair_report(two_state, rep)
        np.testing.assert_allclose(pair.gamma, 0.0, atol=1e-15)
        assert pair.v_f == 0.0

    def test_two_state_doubling(self, two_state):
        pair = self.pair_report(
            two_state, energy_report(two_state, FiniteField.from_scalars([0.0, 1.0])))
        assert pair.dirichlet[0, 0] == pytest.approx(1.0, abs=1e-15)  # 2 * (1/2)
        assert pair.v_f == pytest.approx(1.0, abs=1e-15)  # 2 * v_f

    def test_decomposition_identities(self, two_state, k4):
        # Gamma(g)(z, z') = Gamma(f)(z) + Gamma(f)(z') and D(g) = 2 D(f) on the
        # product chain, to 1e-12 for fields of unit scale
        rng = np.random.default_rng(73)
        for chain in (two_state, k4):
            n = chain.n_states
            for _ in range(25):
                rep = energy_report(chain, random_field(rng, n, 2))
                pair = self.pair_report(chain, rep)
                for z in range(n):
                    for zp in range(n):
                        delta = pair.gamma[z * n + zp] - rep.gamma[z] - rep.gamma[zp]
                        assert np.max(np.abs(delta)) <= 1e-12
                assert op_norm(pair.dirichlet - 2.0 * rep.dirichlet) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 5),
           d=st.sampled_from([1, 2, 3]))
    def test_matches_product_chain_route(self, seed, n, d):
        # intdim reads v_g = 2 v_f and D(g) = 2 D(f) from f's report; the
        # product route's own Gamma table rounds differently, so its energies
        # are held to 1e-12 relative, while the additive table's largest
        # norm is exactly 2 v_f (attained on the diagonal z = z')
        rng = np.random.default_rng(seed)
        chain = random_reversible_chain(rng, n, scale=10.0 ** rng.uniform(-3, 3))
        rep = energy_report(chain, random_field(rng, n, d, scale=10.0 ** rng.uniform(-3, 3)))
        pair = self.pair_report(chain, rep)
        additive = (rep.gamma[:, None] + rep.gamma[None]).reshape(-1, d, d)
        assert op_norm(additive) == 2.0 * rep.v_f
        scale = np.max(np.abs(additive))
        assert np.max(np.abs(pair.gamma - additive)) <= 1e-12 * scale
        assert op_norm(pair.dirichlet - 2.0 * rep.dirichlet) <= 1e-12 * scale
        assert pair.v_f == pytest.approx(2.0 * rep.v_f, rel=1e-12)
        for r in bounds.check_intdim_variant(chain, rep, poincare_constant(chain), [1, 2]):
            assert r.context["v_g"] == 2.0 * rep.v_f
            w = np.linalg.eigvalsh(pair.dirichlet)
            assert r.context["intdim_dirichlet"] == pytest.approx(w.sum() / np.abs(w).max(),
                                                                  rel=1e-12)

    def test_no_suite_builds_the_pair_gamma(self, monkeypatch):
        # no Gamma table and no op_norm of an n^2-state stack: both suites
        # that build the pair read its energies from f's report
        cfg = {"seed": 3, "model": {"fixture": "two-state"},
               "fields": [{"type": "fixture", "name": "indicator-1"},
                          {"type": "random", "dim": 2, "count": 2, "seed": 5}],
               "params": {"intdim_q": [1, 2]}, "suites": ["subadditivity", "intdim"]}
        states = []
        real_table, real_norm = energy.carre_table, spectral.op_norm

        def table(chain, f):
            states.append(chain.n_states)
            return real_table(chain, f)

        def norm(a):
            states.append(np.shape(a)[0] if np.ndim(a) == 3 else 1)
            return real_norm(a)

        monkeypatch.setattr(energy, "carre_table", table)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("tplab") and hasattr(module, "op_norm"):
                monkeypatch.setattr(module, "op_norm", norm)
        rows, _, counts = run_experiment(cfg)
        assert len(rows) == 3 * (2 + 2) and counts["PASS"] == 12
        assert states and max(states) == 2


class TestEnergyReport:
    def test_psd_check_names_the_violation(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -0.5]), np.diag([2.0, -1e-12])])
        with pytest.raises(DomainError, match="min eig -5.000e-01"):
            psd_eigvalsh(stack, "gamma")
        np.testing.assert_array_equal(psd_eigvalsh(stack[[0, 2]], "gamma"),
                                      np.linalg.eigvalsh(stack[[0, 2]]))
        psd_eigvalsh(np.empty((0, 2, 2)), "gamma")

    def test_exact_mode_consistency(self, k4):
        rng = np.random.default_rng(79)
        f = random_field(rng, 4, 2)
        rep = energy_report(k4, f)
        assert rep.mode == "EXACT"
        avg = np.einsum("z,zij->ij", k4.stationary, rep.gamma)
        assert op_norm(rep.dirichlet - avg) <= 1e-12
        doc = rep.to_json_dict(0)
        assert set(doc) == {"gamma", "dirichlet", "variance", "v_f", "mode"}
        assert doc["gamma"] == {"file": "gamma-0.npy", "shape": [4, 2, 2]}

    def test_json_dict_holds_the_report_arrays(self, k4):
        # Gamma's TableFile holds the report's own table, which goes to
        # gamma-<k>.npy; the d x d Dirichlet form and variance are lists
        rep = energy_report(k4, random_field(np.random.default_rng(3), 4, 2))
        doc = rep.to_json_dict(5)
        assert doc["gamma"].table is rep.gamma
        assert doc["gamma"] == {"file": "gamma-5.npy", "shape": [4, 2, 2]}
        assert doc["dirichlet"] == rep.dirichlet.tolist()
        assert doc["variance"] == rep.variance.tolist()
        assert type(doc["dirichlet"]) is list and type(doc["variance"]) is list

    def test_report_gamma_and_mean_have_the_table_bits(self, k4):
        # the report's Gamma is carre_table's, and its mean norm is |E_mu f|,
        # bit for bit
        f = random_field(np.random.default_rng(4), 4, 3)
        f = FiniteField(f.values + 1e3)
        rep = energy_report(k4, f)
        np.testing.assert_array_equal(rep.gamma, carre_table(k4, f))
        assert rep.mean_norm == op_norm(np.einsum("z,zij->ij", k4.stationary, f.values))

    def test_estimated_mode_has_meta(self):
        # f = X^2: the energies are exact, Gamma(x) = 4 x^2 is probed
        chaos = GaussianChaos(np.ones((1, 1, 1, 1)))
        with pytest.raises(DomainError, match="SampleSpec"):
            energy_report(chaos)
        rep = energy_report(chaos, spec=SampleSpec(n=2000, seed=3))
        assert rep.mode == "ESTIMATED"
        assert rep.sample_meta == {"probe_n": 8, "probe_seed": 3}
        assert rep.to_json_dict(0)["sample_meta"] == rep.sample_meta
        assert rep.dirichlet.tolist() == [[4.0]] and rep.variance.tolist() == [[2.0]]
        probe = draw_standard_normal(SampleSpec(n=8, seed=3), 1)
        np.testing.assert_allclose(rep.gamma[:, 0, 0], 4.0 * probe[:, 0] ** 2, rtol=1e-15)
        assert rep.v_f == pytest.approx(4.0 * np.max(probe ** 2), rel=1e-15)


    def test_overflowing_gamma_refused(self):
        # every coefficient 1e160: the probed Gamma, about 1e322, overflows
        chaos = GaussianChaos(np.full((2, 2, 3, 3), 1e160))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="the Gamma table is not finite"):
                energy_report(chaos, spec=SampleSpec(n=2000, seed=1))

    def test_huge_constant_field_has_zero_variance(self, two_state):
        # a constant 1e200 field has Gamma = 0, and E_mu[(f - E_mu f)^2] = 0;
        # E f^2 - (E f)^2 would be inf - inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = energy_report(two_state, constant_field(2, 1e200 * np.eye(2)))
        assert not rep.variance.any() and not rep.dirichlet.any()

    def test_report_carries_both_spectra(self, k4):
        rng = np.random.default_rng(83)
        f = random_field(rng, 4, 3)
        rep = energy_report(k4, f)
        mean = np.einsum("z,zij->ij", k4.stationary, f.values)
        np.testing.assert_array_equal(rep.f_eigs, np.linalg.eigvalsh(f.values - mean))
        np.testing.assert_array_equal(rep.gamma_eigs, np.linalg.eigvalsh(rep.gamma))
        assert rep.v_f == float(np.max(np.abs(rep.gamma_eigs)))
        series = energy_report(GaussianSeries(rng.standard_normal((3, 2, 2))))
        assert series.gamma_eigs.shape == (1, 2) and series.f_eigs is None
        assert series.v_f == op_norm(series.dirichlet)


class TestMatrixFreeProducts:
    def test_refresh3_power_12_stays_small(self):
        # 531,441 states: a dense generator would take 2.26 TB, and the
        # chain, a d = 2 Gamma table and the gap stay far below 400 MB
        tracemalloc.start()
        try:
            prod = product_chain(complete_refresh_chain([0.2, 0.3, 0.5]), 12)
            f = random_field(np.random.default_rng(3), prod.n_states, 2)
            gam = carre_table(prod, f)
            cert = poincare_constant(prod)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 400 * 2 ** 20
        assert gam.shape == (3 ** 12, 2, 2)
        assert cert.alpha == pytest.approx(1.0, rel=1e-12)
