import ast
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tplab import (
    DimensionError,
    DomainError,
    NumericError,
    ScalarFnSpec,
    batch_eigvalsh,
    chaos_scalar_bound,
    eigh,
    op_norm,
    symmetrize,
)
from tplab import spectral
from tplab.spectral import _eigvalsh2, _eigvalsh3, psd_eigvalsh

from conftest import random_symmetric, source_uses


class TestSymmetrize:
    def test_averages_off_diagonal(self):
        np.testing.assert_array_equal(symmetrize([[1, 2], [0, 1]]), [[1, 1], [1, 1]])
        np.testing.assert_array_equal(symmetrize([[0, 4], [0, 0]]), [[0, 2], [2, 0]])

    def test_symmetric_input_unchanged(self):
        a = np.array([[2.0, -1.0], [-1.0, 3.0]])
        np.testing.assert_array_equal(symmetrize(a), a)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            symmetrize(np.zeros((2, 3)))

    @given(arrays(np.float64, (4, 4), elements=st.floats(-1e6, 1e6)))
    def test_output_symmetric_and_idempotent(self, raw):
        s = symmetrize(raw)
        np.testing.assert_array_equal(s, s.T)
        np.testing.assert_array_equal(symmetrize(s), s)


class TestEigh:
    def test_identity(self):
        dec = eigh(np.eye(3))
        np.testing.assert_allclose(dec.eigenvalues, [1, 1, 1])

    def test_diagonal_sorted_ascending(self):
        dec = eigh(np.diag([-2.0, 5.0]))
        np.testing.assert_allclose(dec.eigenvalues, [-2, 5])

    def test_swap_matrix(self):
        # characteristic polynomial s^2 - 1 by hand: eigenvalues -1, 1
        dec = eigh([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(dec.eigenvalues, [-1, 1], atol=1e-12)

    def test_invariants_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = int(rng.integers(1, 17))
            a = random_symmetric(rng, d, scale=10.0 ** rng.integers(-3, 4))
            dec = eigh(a)
            scale = 1.0 + op_norm(a)
            assert np.linalg.norm(dec.map(lambda w: w) - a, 2) <= 1e-10 * scale
            assert np.linalg.norm(dec.eigenvectors.T @ dec.eigenvectors - np.eye(d), 2) <= 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_stack_matches_per_matrix_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        stack = rng.standard_normal((40, d, d))
        dec = eigh(stack)
        recon = dec.map(lambda w: w)
        sinh = dec.map(ScalarFnSpec.sinh(0.7))
        for k, a in enumerate(stack):
            one = eigh(a)
            q, w = one.eigenvectors, one.eigenvalues
            assert np.array_equal(dec.eigenvalues[k], w)
            assert np.array_equal(dec.eigenvectors[k], q)
            # the per-matrix reconstruction Q diag(w) Q^T, written out
            assert np.array_equal(recon[k], (q * w) @ q.T)
            assert np.array_equal(sinh[k], one.map(ScalarFnSpec.sinh(0.7)))

    def test_stack_of_non_square_rejected(self):
        with pytest.raises(DimensionError):
            eigh(np.zeros((4, 2, 3)))

    def test_contract_checked_on_every_matrix_of_a_stack(self, monkeypatch):
        solver = np.linalg.eigh

        def corrupt_one(a):
            w, q = solver(a)
            w = w.copy()
            w[3, 0] += 1e-3  # one eigenvalue of one matrix off
            return w, q

        stack = np.random.default_rng(5).standard_normal((6, 3, 3))
        eigh(stack)
        monkeypatch.setattr(np.linalg, "eigh", corrupt_one)
        with pytest.raises(NumericError, match="matrix 3 of 6"):
            eigh(stack)

    def test_contract_runs_no_svd(self, monkeypatch):
        # the residuals are Frobenius norms; a 2-norm would be one SVD per
        # matrix, which np.linalg.norm reaches through its own module
        def refuse(*args, **kwargs):
            raise AssertionError("eigh ran an SVD")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(np.linalg._linalg, "svd", refuse)
        dec = eigh(np.random.default_rng(7).standard_normal((27, 3, 3)))
        assert dec.eigenvalues.shape == (27, 3)


class TestApplySpectralFn:
    """phi(A) = Q diag(phi(w)) Q^T, applied through eigh(a).map."""

    def test_cosh_of_zero(self):
        np.testing.assert_allclose(eigh(np.zeros((4, 4))).map(np.cosh), np.eye(4))

    def test_sinh_diagonal_action(self):
        out = eigh(np.diag([1.0, -1.0])).map(ScalarFnSpec.sinh())
        np.testing.assert_allclose(out, np.diag([math.sinh(1), -math.sinh(1)]), atol=1e-12)

    def test_signed_square_on_pm_one_spectrum(self):
        # eigenvalues +-1, and sgn(s)|s|^2 = s there, so the matrix is fixed
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(eigh(a).map(ScalarFnSpec.signed_pow(2)), a, atol=1e-12)

    def test_commutes_with_argument(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = random_symmetric(rng, 5)
            fa = eigh(a).map(ScalarFnSpec.sinh(0.7))
            comm = a @ fa - fa @ a
            assert np.linalg.norm(comm, 2) <= 1e-9 * op_norm(a) * op_norm(fa) + 1e-15

    def test_affine_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a = random_symmetric(rng, 4)
            out = eigh(a).map(ScalarFnSpec.affine(2.5, -0.75))
            np.testing.assert_allclose(out, 2.5 * a - 0.75 * np.eye(4), atol=1e-9)

    def test_hyperbolic_pythagorean_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            dec = eigh(random_symmetric(rng, 4))
            c2 = dec.map(lambda w: np.cosh(w) ** 2)
            s2 = dec.map(lambda w: np.sinh(w) ** 2)
            np.testing.assert_allclose(c2 - s2, np.eye(4), atol=1e-9)


class TestScalarFnSpec:
    def test_exponent_must_be_positive(self):
        with pytest.raises(DomainError):
            ScalarFnSpec.signed_pow(0.0)
        with pytest.raises(DomainError):
            ScalarFnSpec.signed_pow(-1.0)

    def test_admissible_whitelist(self):
        assert ScalarFnSpec.sinh(2.0).convex_sq_derivative
        assert ScalarFnSpec.signed_pow(1.5).convex_sq_derivative
        assert ScalarFnSpec.affine(3.0, 1.0).convex_sq_derivative
        assert not ScalarFnSpec.signed_pow(1.2).convex_sq_derivative
        for kind in ("cosh", "abs_pow", "custom"):
            with pytest.raises(DomainError, match="unknown scalar function kind"):
                ScalarFnSpec(kind, (2.0,))

    def test_derivatives_match_finite_differences(self):
        specs = [ScalarFnSpec.sinh(1.3), ScalarFnSpec.signed_pow(2.5),
                 ScalarFnSpec.signed_pow(3.0), ScalarFnSpec.affine(2.0, -1.0)]
        xs = np.linspace(-2.0, 2.0, 41)
        xs = xs[np.abs(xs) > 1e-3]  # power kinds are not smooth at 0
        h = 1e-6
        for spec in specs:
            fd = (spec(xs + h) - spec(xs - h)) / (2 * h)
            np.testing.assert_allclose(spec.deriv(xs), fd, rtol=1e-5, atol=1e-6)


class TestOpNorm:
    def test_examples(self):
        assert op_norm(np.zeros((3, 3))) == 0.0
        assert op_norm(np.diag([3.0, -5.0])) == 5.0
        # eigenvalues of [[2,1],[1,2]] are 1 and 3 by hand
        assert abs(op_norm([[2.0, 1.0], [1.0, 2.0]]) - 3.0) <= 1e-12

    def test_batched_max_equals_loop(self):
        # bit for bit, including matrices that are not exactly symmetric
        rng = np.random.default_rng(17)
        for d in (1, 2, 5):
            stack = rng.standard_normal((40, d, d))
            assert op_norm(stack) == max(op_norm(a) for a in stack)
        assert op_norm(np.empty((0, 3, 3))) == 0.0


EPS = np.finfo(float).eps


def structured_stack(kind, d, seed, scale, gap):
    """16 matrices (d, d) of one family, scaled by ``scale``."""
    rng = np.random.default_rng(seed)
    n = 16
    if kind == "random":
        # not symmetric: both solvers read the lower triangle alone
        a = rng.standard_normal((n, d, d))
    elif kind == "near-double":
        # Q diag(lam, lam + gap, mu, ...) Q^T, a random rotation Q per matrix
        lam = rng.standard_normal(n)
        w = np.column_stack([lam, lam + gap, rng.standard_normal((n, max(d, 4) - 2))])[:, :d]
        q, _ = np.linalg.qr(rng.standard_normal((n, d, d)))
        a = (q * w[:, None, :]) @ q.transpose(0, 2, 1)
    elif kind in ("rank-1", "rank-2"):
        s = rng.standard_normal((n, int(kind[-1]), d))
        a = s.transpose(0, 2, 1) @ s
    elif kind == "zero":
        a = np.zeros((n, d, d))
    else:
        a = rng.standard_normal(n)[:, None, None] * np.eye(d)
    return scale * a


def assert_close_to_lapack(a):
    """batch_eigvalsh(a) is ascending and within 64 eps of the largest
    |eigenvalue| of eigvalsh(a), matrix by matrix."""
    got, want = batch_eigvalsh(a), np.linalg.eigvalsh(a)
    assert got.shape == want.shape
    assert np.all(np.diff(got, axis=-1) >= 0.0)
    err = np.max(np.abs(got - want), axis=-1)
    assert np.all(err <= 64 * EPS * np.max(np.abs(want), axis=-1))


class TestBatchEigvalsh:
    """The d = 2 and d = 3 closed forms, and the LAPACK route at every other
    d, against LAPACK's eigvalsh."""

    @pytest.fixture(autouse=True, scope="class")
    def closed_forms_for_every_stack(self):
        # the stacks here are smaller than CLOSED_FORM_ROWS, which would send
        # them to LAPACK and make every comparison with LAPACK vacuous
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "CLOSED_FORM_ROWS", 1)
            yield

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["random", "near-double", "rank-1", "rank-2", "zero", "identity"]),
           st.integers(1, 4), st.integers(0, 2 ** 32 - 1), st.integers(-150, 150),
           st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 1e-2, 3e-2]))
    def test_matches_lapack(self, kind, d, seed, log_scale, gap):
        # gaps of 1e-2 and 3e-2 put 1 - |r| near the double-root cut-off
        assert_close_to_lapack(structured_stack(kind, d, seed, 10.0 ** log_scale, gap))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["random", "near-double", "rank-1", "rank-2", "zero", "identity"]),
           st.sampled_from([1, 2, 3, 8]), st.integers(0, 2 ** 32 - 1), st.integers(-150, 150),
           st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 1e-2, 3e-2]))
    def test_largest_modulus_at_an_end(self, kind, d, seed, log_scale, gap):
        # the tail deviations read max |w| from the two ends of each ascending
        # row; they must equal the max over the whole row, bit for bit
        a = structured_stack(kind, d, seed, 10.0 ** log_scale, gap)
        if d == 3:
            # rows near a double root and of extreme scale, which LAPACK takes
            base = structured_stack("random", 3, seed, 1.0, 0.0)
            lapack = np.concatenate([structured_stack("near-double", 3, seed, 1.0, 1e-9),
                                     1e120 * base, 1e-120 * base])
            with np.errstate(all="ignore"):
                assert not _eigvalsh3(lapack)[1].any()
            a = np.concatenate([a, lapack])
        w = np.abs(batch_eigvalsh(a))
        np.testing.assert_array_equal(np.maximum(w[:, 0], w[:, -1]), np.max(w, axis=1))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["random", "near-double", "rank-1", "zero", "identity", "diagonal"]),
           st.integers(0, 2 ** 32 - 1), st.integers(-150, 150),
           st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 1e-2]))
    def test_two_by_two_closed_form(self, kind, seed, log_scale, gap):
        # every row of these takes the closed form: equal eigenvalues
        # (identity, gap 0) and diagonal rows of any order included
        if kind == "diagonal":
            w = np.random.default_rng(seed).standard_normal((16, 2))
            w[:8, 1] = w[:8, 0] + gap
            a = 10.0 ** log_scale * (w[:, :, None] * np.eye(2))
        else:
            a = structured_stack(kind, 2, seed, 10.0 ** log_scale, gap)
        assert _eigvalsh2(a)[1].all()
        assert_close_to_lapack(a)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 0), (1, 1)])
    def test_two_by_two_non_finite_row_as_lapack(self, value, entry):
        stack = np.random.default_rng(59).standard_normal((5, 2, 2))
        stack[2][entry] = value
        with np.errstate(all="ignore"):
            assert not _eigvalsh2(stack)[1][2]
        try:
            want = np.linalg.eigvalsh(stack[2:3])
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                batch_eigvalsh(stack)
            return
        np.testing.assert_array_equal(batch_eigvalsh(stack)[2], want[0])
        assert_close_to_lapack(np.delete(stack, 2, axis=0))

    def test_every_decade_of_scale(self):
        # p^3 and the determinant leave the normal range near 1e-103 and
        # 1e103 before they under- or overflow
        base = structured_stack("random", 3, 5, 1.0, 0.0)
        for e in range(-160, 161):
            assert_close_to_lapack(10.0 ** e * base)

    def test_spread_whose_cube_overflows(self):
        # p = 5.8e102: p^3 overflows while det(A) = -5.2e307 does not, so the
        # quotient r = det / (2 p^3) would read 0 instead of -0.13
        assert_close_to_lapack(1.03e103 * np.diag([-1.0, 0.05, 0.95])[None])

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("corner", ["first", "last-row", "last"])
    def test_nan_row_as_lapack(self, d, corner):
        stack = np.random.default_rng(d).standard_normal((5, d, d))
        stack[2][{"first": (0, 0), "last-row": (d - 1, 0), "last": (d - 1, d - 1)}[corner]] = math.nan
        try:
            want = np.linalg.eigvalsh(stack)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                batch_eigvalsh(stack)
            return
        np.testing.assert_array_equal(batch_eigvalsh(stack)[2], want[2])
        assert_close_to_lapack(np.delete(stack, 2, axis=0))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            batch_eigvalsh(np.zeros((4, 2, 3)))

    @pytest.mark.parametrize("shape", [(2, 5), (1,)])
    def test_multi_axis_stack_keeps_lapack_shape(self, shape):
        # rows near a double root and of extreme scale go to LAPACK, so the
        # closed form and the fallback both write into the leading axes
        count = math.prod(shape)
        a = structured_stack("random", 3, 41, 1.0, 0.0)[:count]
        if count > 1:
            a[1] = structured_stack("near-double", 3, 41, 1.0, 1e-9)[0]
            a[-1] *= 1e120
        a = a.reshape(*shape, 3, 3)
        with np.errstate(all="ignore"):
            ok = _eigvalsh3(a)[1]
        assert ok.shape == shape and ok.any() and (count == 1 or not ok.all())
        assert_close_to_lapack(a)
        assert batch_eigvalsh(a).shape == (*shape, 3)

    def test_two_by_two_stack_keeps_lapack_shape(self):
        a = structured_stack("random", 2, 47, 1.0, 0.0)[:10].reshape(2, 5, 2, 2)
        a[1, 3, 1, 0] = math.nan
        got = batch_eigvalsh(a)
        assert got.shape == (2, 5, 2)
        np.testing.assert_array_equal(got[1, 3], np.linalg.eigvalsh(a[1, 3]))
        a[1, 3, 1, 0] = 0.0
        assert_close_to_lapack(a)

    def test_samples_last_layout_gives_the_same_bits(self):
        # the closed form is elementwise, so the layout of the stack, C order
        # or each entry a contiguous row, moves no bit
        a = np.concatenate([structured_stack(kind, 3, 43, 1.0, 1e-9)
                            for kind in ("random", "near-double", "rank-1", "identity")])
        rows = np.ascontiguousarray(np.moveaxis(a, 0, -1))
        last = np.moveaxis(rows, -1, 0)
        assert not last.flags.c_contiguous
        got = batch_eigvalsh(last)
        np.testing.assert_array_equal(got, batch_eigvalsh(a))
        # the eigenvalue rows of the closed form are contiguous too
        assert np.moveaxis(got, -1, 0).flags.c_contiguous


class TestEigvalshRoute:
    """Which stacks ``batch_eigvalsh`` hands to LAPACK."""

    @pytest.fixture
    def lapack_calls(self, monkeypatch):
        calls = []
        real = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    def test_one_by_one_returns_the_entries(self, lapack_calls):
        # LAPACK returns exactly these at n = 1, signed zeros and NaN included
        a = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -3.3])
        stack = np.repeat(a, 10)[:, None, None]
        got = batch_eigvalsh(stack)
        assert lapack_calls == []
        want = np.linalg.eigvalsh(stack)
        assert got.shape == want.shape == (80, 1)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        np.testing.assert_array_equal(got[:, 0].view(np.int64), stack[:, 0, 0].view(np.int64))

    @pytest.mark.parametrize("d, closed", [(2, _eigvalsh2), (3, _eigvalsh3)])
    def test_stack_size_picks_the_route(self, lapack_calls, d, closed):
        a = np.random.default_rng(d).standard_normal((spectral.CLOSED_FORM_ROWS, d, d))
        small = a[:-1]
        np.testing.assert_array_equal(batch_eigvalsh(small), np.linalg.eigvalsh(small))
        del lapack_calls[:]
        got = batch_eigvalsh(a)
        assert lapack_calls == []
        w, ok = closed(a)
        assert ok.all()
        np.testing.assert_array_equal(got, w)
        # the two routes differ in the last bits, so the test tells them apart
        assert not np.array_equal(got, np.linalg.eigvalsh(a))

    def test_multiples_of_the_identity_skip_lapack(self, lapack_calls):
        # p = 0 sends c I past the closed form; its spectrum is its diagonal
        c = np.random.default_rng(61).standard_normal(spectral.CLOSED_FORM_ROWS)
        c[:4] = [0.0, -0.0, 1e-320, 1e300]
        stack = c[:, None, None] * np.eye(3)
        got = batch_eigvalsh(stack)
        assert lapack_calls == []
        np.testing.assert_array_equal(got, np.repeat(c[:, None], 3, axis=1))
        # a spread p that underflows is refused too, but the row is no
        # multiple of I, so LAPACK takes it
        stack[5] = 1e-200 * np.diag([1.0, 2.0, 4.0])
        got = batch_eigvalsh(stack)
        assert lapack_calls == [(1, 3, 3)]
        np.testing.assert_array_equal(got[5], np.linalg.eigvalsh(stack[5]))


class TestTraceFn:
    """tr phi(A) for every matrix of a stack, through SpectralDecomposition.map."""

    def test_cosh_of_zero(self):
        out = eigh(np.zeros((2, 3, 3))).map(np.cosh)
        np.testing.assert_allclose(np.trace(out, axis1=1, axis2=2), [3.0, 3.0])

    def test_abs_fourth_power(self):
        stack = np.stack([np.diag([2.0, -2.0]), np.diag([1.0, 0.0])])
        out = eigh(stack).map(lambda w: np.abs(w) ** 4)
        np.testing.assert_allclose(np.trace(out, axis1=1, axis2=2), [32.0, 1.0])

    def test_sinh_squared_swap(self):
        # eigenvalues of theta*[[0,1],[1,0]] are +-theta and sinh^2 is even
        theta = 0.83
        a = theta * np.array([[0.0, 1.0], [1.0, 0.0]])
        out = eigh(np.stack([a, -a])).map(lambda w: np.sinh(w) ** 2)
        np.testing.assert_allclose(np.trace(out, axis1=1, axis2=2),
                                   2 * math.sinh(theta) ** 2, rtol=1e-12)


class TestPsdEigvalsh:
    def test_one_rule_for_every_psd_matrix(self):
        # the rule refuses an eigenvalue below -1e-10 (1 + max |w|), here
        # -3e-10; the scalar chaos bound applies it through psd_eigvalsh
        # and names the matrix it refuses
        inside, outside = np.diag([2.0, -2.9e-10]), np.diag([2.0, -3.1e-10])
        np.testing.assert_array_equal(psd_eigvalsh(inside, "A"), [-2.9e-10, 2.0])
        assert chaos_scalar_bound(inside, 1) == 16.0
        for refuse, name in ((lambda a: psd_eigvalsh(a, "A"), "A"),
                             (lambda a: chaos_scalar_bound(a, 1), "chaos coefficient matrix")):
            with pytest.raises(DomainError, match=f"^{name} is not PSD within tolerance "
                                                  r"\(min eig -3.100e-10\)$"):
                refuse(outside)

    def test_stack_names_the_first_refused_matrix(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -0.5]), np.diag([2.0, -1e-12]),
                          np.diag([1.0, -0.25])])
        with pytest.raises(DomainError, match="min eig -5.000e-01"):
            psd_eigvalsh(stack, "gamma")
        assert psd_eigvalsh(np.empty((0, 2, 2)), "gamma").shape == (0, 2)
        assert psd_eigvalsh(np.empty((0, 0)), "gamma").shape == (0,)


def linalg_solvers(node):
    """The ``*.linalg`` eigvalsh or eigh a node refers to, and every name it
    imports from a linalg module."""
    if (isinstance(node, ast.Attribute) and node.attr in ("eigvalsh", "eigh")
            and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
        yield node.attr
    if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
        yield from (alias.name for alias in node.names)


def test_eigensolvers_are_called_in_one_place_each():
    # every eigenvalue route is chosen inside batch_eigvalsh, and every
    # eigendecomposition is checked inside eigh
    assert source_uses(linalg_solvers) == {("spectral.py", "batch_eigvalsh", "eigvalsh"),
                                           ("spectral.py", "eigh", "eigh")}
