"""Dense real-symmetric matrix algebra and spectral scalar functions.

Everything downstream (energies, Poincare constants, moment checkers) is
built on these kernels.  Matrices are plain float64 ``numpy`` arrays that are
symmetrized on construction instead of validated, so asymmetry can never
drift in from arithmetic.  Scalar functions are applied through the
eigendecomposition: ``phi(A) = Q diag(phi(w)) Q^T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError, NumericError

# Shared relative tolerance for equality-style comparisons, scaled by
# (1 + magnitude).  Inequality checkers use their own slack (reports.slack_for).
RTOL = 1e-10


def symmetric_part(a, axes=(-2, -1)) -> np.ndarray:
    """(A + A^T)/2 of each matrix of a float stack (..., d, d), transposing
    ``axes``, as a fresh array.  When A + A^T overflows, the stack is formed
    again as A/2 + A^T/2, so no finite entry overflows; halving is exact in
    the normal range, so the two forms agree there bit for bit, and only the
    first keeps a symmetric subnormal input as it is."""
    a = np.asarray(a, dtype=float)
    try:
        with np.errstate(over="raise"):
            out = a + np.swapaxes(a, *axes)
    except FloatingPointError:
        half = 0.5 * a
        return half + np.swapaxes(half, *axes)
    out *= 0.5
    return out


def square_matrix(raw) -> np.ndarray:
    """``raw`` as a float64 array, not copied when it is one; DimensionError
    unless it is one square matrix."""
    a = np.asarray(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def symmetrize(raw) -> np.ndarray:
    """Return the symmetric part (A + A^T)/2 as a fresh float64 array."""
    return symmetric_part(square_matrix(raw))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of one
    matrix, or of each matrix of a stack (..., d, d)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def map(self, fn: Callable) -> np.ndarray:
        """Q diag(fn(w)) Q^T for each matrix; fn acts elementwise."""
        return self.with_eigenvalues(fn(self.eigenvalues))

    def with_eigenvalues(self, vals) -> np.ndarray:
        """Q diag(v) Q^T for each matrix, with v read from ``vals``, whose
        trailing axes are the eigenvalues' shape (..., d): leading axes of
        ``vals`` give a stack of maps, all from one product, and each map has
        the bits of the ``map`` of its values alone."""
        q = self.eigenvectors
        return (q * np.asarray(vals)[..., None, :]) @ np.swapaxes(q, -1, -2)


def eigh(a) -> SpectralDecomposition:
    """Spectral decomposition of a symmetric matrix or of each matrix of a
    stack (..., d, d), each symmetrized first.

    Verifies the reconstruction and orthogonality contracts on every matrix
    (residuals below RTOL * (1 + |A|)) and raises NumericError with a
    condition report if the solver fails or a contract is violated.  The
    residuals are Frobenius norms: they bound the 2-norms from above, so
    the contract is at least as strict, and need no SVD per matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    a = symmetric_part(a)
    try:
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "symmetric eigensolver failed to converge: "
            f"shape={a.shape}, fro_norm={np.linalg.norm(a):.3e}, "
            f"max_entry={np.max(np.abs(a)):.3e}"
        ) from exc
    dec = SpectralDecomposition(eigenvalues=w, eigenvectors=q)
    if a.size == 0:
        return dec
    recon_err = np.linalg.norm(dec.map(lambda x: x) - a, axis=(-2, -1)).reshape(-1)
    orth_err = np.linalg.norm(np.swapaxes(q, -1, -2) @ q - np.eye(a.shape[-1]),
                              axis=(-2, -1)).reshape(-1)
    w = w.reshape(len(recon_err), -1)
    scale = np.max(np.abs(w), axis=1)
    bad = (recon_err > RTOL * (1.0 + scale)) | (orth_err > RTOL)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NumericError(
            f"eigendecomposition accuracy contract violated (matrix {k} of {len(bad)}): "
            f"reconstruction={recon_err[k]:.3e}, orthogonality={orth_err[k]:.3e}, "
            f"spectral_range=({w[k, 0]:.3e}, {w[k, -1]:.3e})"
        )
    return dec


@dataclass(frozen=True)
class ScalarFnSpec:
    """A scalar function, applicable to matrices through the spectrum.

    ``kind`` is one of sinh, signed_pow, affine: sinh carries a scale t and
    acts as s -> sinh(t*s), signed_pow carries the exponent q > 0 of
    s -> sgn(s) |s|^q, and affine carries (a, b) of s -> a s + b.  ``deriv``
    and ``sq_deriv`` give phi' and psi = (phi')^2, needed by the mean-value
    and chain-rule checkers, which only admit functions whose psi is convex
    (see ``convex_sq_derivative``).
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in ("sinh", "signed_pow", "affine"):
            raise DomainError(f"unknown scalar function kind {self.kind!r} "
                              "(known: sinh, signed_pow, affine)")
        if self.kind == "signed_pow" and not self.params[0] > 0:
            raise DomainError(f"signed_pow exponent must be positive, got {self.params[0]}")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def sinh(scale: float = 1.0) -> "ScalarFnSpec":
        return ScalarFnSpec("sinh", (float(scale),))

    @staticmethod
    def signed_pow(q: float) -> "ScalarFnSpec":
        return ScalarFnSpec("signed_pow", (float(q),))

    @staticmethod
    def affine(a: float, b: float = 0.0) -> "ScalarFnSpec":
        return ScalarFnSpec("affine", (float(a), float(b)))

    # -- evaluation ---------------------------------------------------------
    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        k, p = self.kind, self.params
        if k == "sinh":
            return np.sinh(p[0] * x)
        if k == "signed_pow":
            return np.sign(x) * np.abs(x) ** p[0]
        return p[0] * x + p[1]

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        k, p = self.kind, self.params
        if k == "sinh":
            return p[0] * np.cosh(p[0] * x)
        if k == "signed_pow":
            return p[0] * np.abs(x) ** (p[0] - 1.0)
        return np.full_like(x, p[0])

    def sq_deriv(self, x):
        d = self.deriv(x)
        return d * d

    @property
    def convex_sq_derivative(self) -> bool:
        """Whether (phi')^2 is convex: for sinh and affine always, for
        signed_pow when the exponent is >= 1.5.  No symbolic convexity
        analysis."""
        return self.kind != "signed_pow" or self.params[0] >= 1.5

    def label(self) -> str:
        args = ",".join(f"{v:g}" for v in self.params)
        return f"{self.kind}({args})"


def op_norm(a) -> float:
    """l2 operator norm, the largest absolute eigenvalue, of a matrix, or
    the largest over a stack (..., d, d) of matrices from one
    ``batch_eigvalsh``; each matrix is symmetrized first, and an empty
    stack gives 0."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    w = batch_eigvalsh(symmetric_part(a))
    return float(np.max(np.abs(w))) if w.size else 0.0


# Stacks of at least this many 2x2 or 3x3 matrices take the closed forms of
# ``batch_eigvalsh``, smaller ones LAPACK.  Median per call on a 2-core
# x86-64 VM: a (1, 3, 3) stack 53 us by the closed form against 9.9 us by
# LAPACK, (27, 3, 3) 37 against 30 us, (48, 3, 3) 37 against 47 us,
# (729, 3, 3) 72 against 723 us and (2187, 2, 2) 49 against 653 us; the two
# routes cross between 32 and 48 matrices at both d.  The constant stays
# above the crossing: moving it would move the bits of 48-63-matrix stacks.
CLOSED_FORM_ROWS = 64
# A 3x3 matrix with 1 - |r| below this (r = cos 3 phi, see _eigvalsh3) is
# near a double root, where arccos amplifies the rounding of r: the closed
# form's error grows like 0.6 eps / sqrt(1 - |r|) times the largest
# |eigenvalue| (about 20 eps here, 60 eps at 1e-4), so such rows go to LAPACK.
_DOUBLE_ROOT = 1e-3
# The spread p of a 3x3 spectrum enters cubed; outside this range p^3 or the
# determinant could overflow or underflow, so such rows go to LAPACK too.
_P_MIN, _P_MAX = 1e-100, 1e100
_SQRT3 = math.sqrt(3.0)


def _eigvalsh3(a):
    """Smith's trigonometric method (CACM 1961): with m = tr(A)/3 and
    B = A - m I, p^2 = tr(B^2)/6 and r = det(B)/(2 p^3) = cos(3 phi), the
    eigenvalues are m + 2p cos(phi + 2 pi k/3).  With c = cos(phi) and
    s = sin(phi), one cosine and one sine give them all: the highest is
    m + 2pc, the lowest m - p(c + sqrt(3) s), since cos(phi + 2 pi/3) =
    -c/2 - (sqrt(3)/2) s, and the middle one tr(A) minus the two.

    Every step is elementwise over a stack (..., 3, 3), on a few work
    arrays updated in place, so on a samples-last stack (each entry a
    contiguous row, as ``models.chaos_values`` returns) it runs on
    contiguous rows.  The lowest, middle and highest eigenvalue are written
    straight into the three contiguous rows of one (3, ...) array, whose
    (..., 3) view comes back, with the stack's leading axes in their
    order, together with which rows the method accepts."""
    a00, a11, a22 = a[..., 0, 0], a[..., 1, 1], a[..., 2, 2]
    a10, a20, a21 = a[..., 1, 0], a[..., 2, 0], a[..., 2, 1]
    w = np.empty((3, *a.shape[:-2]))
    lo, mid, hi = w
    tr = a00 + a11
    tr += a22
    m = tr / 3.0
    b00, b11, b22 = a00 - m, a11 - m, a22 - m
    # p^2 = (b00^2 + b11^2 + b22^2 + 2 (a10^2 + a20^2 + a21^2)) / 6, with
    # ``hi`` as scratch until the end
    off = a10 * a10
    off += np.multiply(a20, a20, out=hi)
    off += np.multiply(a21, a21, out=hi)
    off *= 2.0
    p = b00 * b00
    p += np.multiply(b11, b11, out=hi)
    p += np.multiply(b22, b22, out=hi)
    p += off
    p /= 6.0
    np.sqrt(p, out=p)
    # det(B) = b00 (b11 b22 - a21^2) - a10 (a10 b22 - a21 a20)
    #          + a20 (a10 a21 - b11 a20), the terms reusing ``off``
    r = b11 * b22
    r -= np.multiply(a21, a21, out=hi)
    r *= b00
    np.multiply(a10, b22, out=off)
    off -= np.multiply(a21, a20, out=hi)
    off *= a10
    r -= off
    np.multiply(a10, a21, out=off)
    off -= np.multiply(b11, a20, out=hi)
    off *= a20
    r += off
    two_p = 2.0 * p
    np.multiply(two_p, p, out=off)
    off *= p
    r /= off
    # NaN fails every comparison, so a NaN entry, p = 0 and inf / inf all
    # land outside ``ok``
    ok = (p >= _P_MIN) & (p <= _P_MAX) & (np.abs(r) <= 1.0 - _DOUBLE_ROOT)
    np.copyto(r, 0.0, where=~ok)
    phi = np.arccos(r, out=r)
    phi /= 3.0
    c = np.cos(phi, out=b00)
    s = np.sin(phi, out=b11)
    np.multiply(two_p, c, out=hi)
    hi += m
    s *= _SQRT3
    s += c
    s *= p
    np.subtract(m, s, out=lo)
    np.subtract(tr, hi, out=mid)
    mid -= lo
    return np.moveaxis(w, 0, -1), ok


def _eigvalsh2(a):
    """m -+ hypot(a/2 - c/2, b) for [[a, b], [b, c]] with m = a/2 + c/2,
    halved first so that no finite entry overflows; the (..., 2) view of a
    (2, ...) array, as ``_eigvalsh3`` returns, and which rows are finite."""
    a00, a10, a11 = a[..., 0, 0], a[..., 1, 0], a[..., 1, 1]
    m = 0.5 * a00 + 0.5 * a11
    r = np.hypot(0.5 * a00 - 0.5 * a11, a10)
    w = np.stack([m - r, m + r])
    return np.moveaxis(w, 0, -1), np.isfinite(w).all(axis=0)


def batch_eigvalsh(stack) -> np.ndarray:
    """Ascending eigenvalues of each matrix of a stack (..., d, d), read from
    the lower triangle as ``np.linalg.eigvalsh`` reads it, in LAPACK's
    shape (..., d).  The one caller of ``np.linalg.eigvalsh``: the route
    follows from d and the number of matrices.

    d = 1 returns the entries, as LAPACK does.  At d = 2 and d = 3 a stack
    of at least CLOSED_FORM_ROWS matrices takes a closed form, within a few
    tens of eps of the largest |eigenvalue| of LAPACK's: m -+ hypot((a - c)/2,
    b) with m the mean of the diagonal, and the trigonometric method.  They
    return the (..., d) view of a (d, ...) array: each eigenvalue index is
    one contiguous row, so the elementwise work and row sums that follow run
    on contiguous data.  The values do not depend on the stack's memory
    layout.  Rows whose closed form is not finite, or (d = 3) that lie near
    a double root or are of extreme scale, are handed to
    ``np.linalg.eigvalsh`` unless exactly c I, as are smaller stacks and
    every other d, so a NaN row gives whatever LAPACK gives.
    """
    a = np.asarray(stack, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    d = a.shape[-1]
    if d == 1:
        return a[..., 0].copy()
    closed = {2: _eigvalsh2, 3: _eigvalsh3}.get(d)
    if closed is None or math.prod(a.shape[:-2]) < CLOSED_FORM_ROWS:
        return np.linalg.eigvalsh(a)
    # an overflow or a NaN here lands outside ``ok``; LAPACK takes the row
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w, ok = closed(a)
    if not ok.all():
        # the refused rows, gathered and scattered by index: one that is
        # exactly c I has its diagonal as its spectrum; LAPACK takes every
        # other
        refused = np.unravel_index(np.flatnonzero(~ok), ok.shape)
        rows = a[refused]
        flat = rows.reshape(len(rows), -1)
        lapack = (flat != np.where(np.eye(d, dtype=bool).ravel(), flat[:, :1], 0.0)).any(axis=1)
        out = np.repeat(flat[:, :1], d, axis=1)
        if lapack.any():
            out[lapack] = np.linalg.eigvalsh(rows[lapack])
        w[refused] = out
    return w


def psd_eigvalsh(a, name: str) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, or of each matrix of a
    stack (..., d, d), each symmetrized first, from ``batch_eigvalsh``.  A
    matrix with an eigenvalue below -RTOL * (1 + its largest |eigenvalue|)
    is not PSD within rounding and is refused: DomainError naming ``name``
    and the first such eigenvalue."""
    w = batch_eigvalsh(symmetric_part(a))
    if w.size:
        low = w[..., 0].reshape(-1)
        bad = low < -RTOL * (1.0 + np.max(np.abs(w), axis=-1).reshape(-1))
        if np.any(bad):
            raise DomainError(f"{name} is not PSD within tolerance "
                              f"(min eig {low[np.argmax(bad)]:.3e})")
    return w
