"""Squared-derivative (carre du champ) operators, Dirichlet forms, matrix
variances and variance proxies.

On a finite chain every quantity is an exact finite sum: for a jump process
the small-time limit of the defining squared-difference formula collapses to

    Gamma(f)(z) = (1/2) * sum_{z'} L(z, z') (f(z') - f(z))^2,

which avoids time-discretization error entirely.  Expanding the square gives
the generator identity (the definition of the carre du champ)

    Gamma(f) = (1/2) [L(f^2) - f (Lf) - (Lf) f + r f^2],   r = L 1,

so the whole table costs two dense products of L with an (n, d^2) block plus
n small matrix products: O(n^2 d^2 + n d^3) instead of a per-state loop.  The
row-sum term r makes the identity hold for the floating-point generator, not
only for exact zero row sums.  On Gaussian models the squared derivative is
sum_i (d_i f)^2, computed from analytic partials when the model carries them
and by central differences otherwise.  Dirichlet forms and variances are
exact on finite chains and for Gaussian series, and Monte Carlo estimates
elsewhere (mode ESTIMATED).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import montecarlo
from .errors import DimensionError, DomainError
from .models import (
    FiniteChain,
    FiniteField,
    GaussianChaos,
    GaussianSeries,
    SmoothField,
)
from .montecarlo import SampleSpec
from .spectral import max_op_norm, op_norm

EXACT = "EXACT"
ESTIMATED = "ESTIMATED"

_PSD_TOL = 1e-10


def carre_table(chain: FiniteChain, f: FiniteField) -> np.ndarray:
    """Squared derivative at every state: (n_states, d, d), each PSD.

    Evaluates (1/2) [L(c^2) - c (Lc) - (Lc) c + r c^2] with r = L 1, which
    equals (1/2) sum_w L(z, w) (f(w) - f(z))^2 for any generator.  The field
    is centred first, c = f - E_mu f; Gamma is shift-invariant, and centring
    keeps the cancellation at the scale of the fluctuations rather than of
    the mean.  Cost O(n^2 d^2 + n d^3).
    """
    v = f.values
    n = chain.n_states
    if v.shape[0] != n:
        raise DimensionError(
            f"field has {v.shape[0]} states but chain has {n}"
        )
    gen = chain.generator
    c = v - np.einsum("z,zij->ij", chain.stationary, v)
    sq = c @ c
    lc = (gen @ c.reshape(n, -1)).reshape(c.shape)
    lsq = (gen @ sq.reshape(n, -1)).reshape(c.shape)
    rows = gen.sum(axis=1)
    out = 0.5 * (lsq - c @ lc - lc @ c + rows[:, None, None] * sq)
    return 0.5 * (out + out.transpose(0, 2, 1))


def column_energies(chain: FiniteChain, cols) -> tuple[np.ndarray, np.ndarray]:
    """mu-variance and Dirichlet form of every column of an (n_states, k)
    block of scalar fields, as two (k,) arrays: the scalar form
    Gamma(c) = (1/2) [L(c^2) - 2 c (Lc) + r c^2] of ``carre_table``'s
    identity, with the same centring c = f - E_mu f and r = L 1.  Traces are
    sums over entries, tr Gamma(f) = sum_ij Gamma(f_ij), so the d^2 entry
    columns of a matrix field give its trace energies without a Gamma table.
    """
    cols = np.asarray(cols, dtype=float)
    mu, gen = chain.stationary, chain.generator
    c = cols - mu @ cols
    sq = c * c
    gam = 0.5 * (gen @ sq - 2.0 * c * (gen @ c) + gen.sum(axis=1)[:, None] * sq)
    return mu @ sq, mu @ gam


def carre_smooth(f: SmoothField, x) -> np.ndarray:
    """Squared derivative sum_i (d_i f(x))^2.

    Uses analytic partials when the field carries them; otherwise central
    differences with step h_i = cbrt(eps) * (1 + |x_i|), a second-order
    estimate.
    """
    x = np.asarray(x, dtype=float)
    if f.partials is not None:
        p = np.asarray(f.partials(x), dtype=float)
    else:
        h = np.cbrt(np.finfo(float).eps) * (1.0 + np.abs(x))
        p = np.empty((f.ambient_dim, f.dim, f.dim))
        for i in range(f.ambient_dim):
            step = np.zeros_like(x)
            step[i] = h[i]
            p[i] = (f(x + step) - f(x - step)) / (2.0 * h[i])
    out = np.einsum("kij,kjl->il", p, p)
    return 0.5 * (out + out.T)


def chaos_gamma_batch(chaos: GaussianChaos, xs: np.ndarray) -> np.ndarray:
    """Exact squared derivative 4 sum_i (sum_j x_j A_ij)^2 at a batch of
    points xs: (m, n) -> (m, d, d).

    One BLAS product M = xs @ A.reshape(n, n d^2) gives every
    M_i = sum_j x_j A_ij (A is symmetric in (i, j)).  Stacking the M_i of a
    sample into S = M.reshape(m, n d, d), a view of the same memory, gives
    sum_i M_i^T M_i = S^T S, and M_i^T = M_i, so Gamma = 4 S^T S is one
    batched matmul.  S^T is a strided view, which matmul hands to BLAS as a
    transposed operand: nothing is copied beyond M itself.
    """
    n, d = chaos.n_vars, chaos.dim
    s = (xs @ chaos.coefficients.reshape(n, n * d * d)).reshape(len(xs), n * d, d)
    return 4.0 * (s.transpose(0, 2, 1) @ s)


def _require_spec(spec):
    if spec is None or spec.n < 1:
        raise DomainError("Monte Carlo estimation requires a SampleSpec with n >= 1")


def _gamma_batch(model, xs: np.ndarray) -> np.ndarray:
    if isinstance(model, GaussianChaos):
        return chaos_gamma_batch(model, xs)
    return np.stack([carre_smooth(model, x) for x in xs])


def dirichlet_form(model, f=None, spec: SampleSpec | None = None) -> np.ndarray:
    """Total energy E_mu[Gamma(f)].

    Exact for finite chains and Gaussian series (sum_i A_i^2); Monte Carlo
    for other Gaussian models, which requires a SampleSpec.  The Monte Carlo
    mean streams: each block of draws is reduced to its sum of Gamma before
    the next is drawn, so memory stays at one block whatever the spec's n.
    """
    if isinstance(model, FiniteChain):
        gam = carre_table(model, f)
        return np.einsum("z,zij->ij", model.stationary, gam)
    if isinstance(model, GaussianSeries):
        a = model.coefficients
        return np.einsum("kij,kjl->il", a, a)
    if isinstance(model, (GaussianChaos, SmoothField)):
        _require_spec(spec)
        ambient = model.n_vars if isinstance(model, GaussianChaos) else model.ambient_dim
        (total,) = montecarlo.sum_blocks(
            spec, ambient, lambda xs: (_gamma_batch(model, xs).sum(axis=0),))
        return total / spec.n
    raise DomainError(f"unsupported model type {type(model).__name__}")


def matrix_variance(model, f=None, spec: SampleSpec | None = None) -> np.ndarray:
    """E[f^2] - (E f)^2, a PSD matrix; exact where the Dirichlet form is.
    The Monte Carlo moments stream block by block, like ``dirichlet_form``."""
    if isinstance(model, FiniteChain):
        v = f.values
        mu = model.stationary
        mean = np.einsum("z,zij->ij", mu, v)
        second = np.einsum("z,zij->ij", mu, v @ v)
        out = second - mean @ mean
        return 0.5 * (out + out.T)
    if isinstance(model, GaussianSeries):
        # E f = 0 and E[f^2] = sum_i A_i^2 for independent standard normals
        a = model.coefficients
        return np.einsum("kij,kjl->il", a, a)
    if isinstance(model, (GaussianChaos, SmoothField)):
        _require_spec(spec)
        field = model.as_field() if isinstance(model, GaussianChaos) else model

        def moments(xs):
            vals = field.eval_batch(xs)
            return vals.sum(axis=0), np.einsum("mij,mjl->il", vals, vals)

        first, second = montecarlo.sum_blocks(spec, field.ambient_dim, moments)
        mean = first / spec.n
        out = second / spec.n - mean @ mean
        return 0.5 * (out + out.T)
    raise DomainError(f"unsupported model type {type(model).__name__}")


def variance_proxy(model, f=None, grid=None) -> tuple[float, str]:
    """Essential supremum of |Gamma(f)| over the state space.

    Finite chains (full-support mu) and Gaussian series are exact; for any
    other smooth model the supremum over a caller-declared grid of points is
    reported with mode ESTIMATED.  Checkers that need a true supremum must
    refuse ESTIMATED values without an explicit user-supplied bound.
    """
    if isinstance(model, FiniteChain):
        return max_op_norm(carre_table(model, f)), EXACT
    if isinstance(model, GaussianSeries):
        a = model.coefficients
        return op_norm(np.einsum("kij,kjl->il", a, a)), EXACT
    if isinstance(model, (GaussianChaos, SmoothField)):
        if grid is None:
            raise DomainError(
                "variance proxy for a general smooth field needs a declared "
                "evaluation grid (result is a lower estimate, mode ESTIMATED)"
            )
        field = model.as_field() if isinstance(model, GaussianChaos) else model
        sup = 0.0
        for x in np.asarray(grid, dtype=float):
            sup = max(sup, op_norm(carre_smooth(field, x)))
        return sup, ESTIMATED
    raise DomainError(f"unsupported model type {type(model).__name__}")


@dataclass(frozen=True)
class SymmetrizedPair:
    """The antisymmetric difference field g(z, z') = f(z) - f(z') on the
    two-fold product chain, with its energies.

    Gamma(g)(z, z') = Gamma(f)(z) + Gamma(f)(z') exactly, because each
    coordinate of the product moves one argument of g; so the table comes
    from one ``carre_table(base, f)`` in O(m^2 d^2) without building the
    m^2-state product chain.  ``stationary`` is mu x mu in the row-major
    order of (z, z').  Also dirichlet = 2 * dirichlet(f) and v <= 2 * v_f
    (exactly 2 v_f when |Gamma(f)| is state-independent).
    """

    base: FiniteChain
    stationary: np.ndarray
    g: FiniteField
    gamma: np.ndarray
    dirichlet: np.ndarray
    v: float

    @property
    def g_grid(self) -> np.ndarray:
        m = self.base.n_states
        d = self.g.dim
        return self.g.values.reshape(m, m, d, d)


def bivariate_symmetrized(chain: FiniteChain, f: FiniteField) -> SymmetrizedPair:
    """Build g(z, z') = f(z) - f(z') over the squared state space."""
    gam_f = carre_table(chain, f)
    v = f.values
    d = f.dim
    g = FiniteField((v[:, None, :, :] - v[None, :, :, :]).reshape(-1, d, d))
    gamma = (gam_f[:, None, :, :] + gam_f[None, :, :, :]).reshape(-1, d, d)
    mu2 = np.kron(chain.stationary, chain.stationary)
    dirichlet = np.einsum("z,zij->ij", mu2, gamma)
    return SymmetrizedPair(base=chain, stationary=mu2, g=g, gamma=gamma,
                           dirichlet=dirichlet, v=max_op_norm(gamma))


@dataclass(frozen=True)
class EnergyReport:
    """Bundle of Gamma, Dirichlet form, variance and variance proxy with
    provenance (EXACT on finite chains and Gaussian series, ESTIMATED via
    Monte Carlo elsewhere)."""

    gamma: np.ndarray
    dirichlet: np.ndarray
    variance: np.ndarray
    v_f: float
    mode: str
    sample_meta: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "gamma": [m.tolist() for m in self.gamma],
            "dirichlet": self.dirichlet.tolist(),
            "variance": self.variance.tolist(),
            "v_f": self.v_f,
            "mode": self.mode,
        }
        if self.sample_meta is not None:
            out["sample_meta"] = self.sample_meta
        return out


def _check_psd_stack(name: str, stack: np.ndarray):
    if stack.size == 0:
        return
    w = np.linalg.eigvalsh(0.5 * (stack + stack.transpose(0, 2, 1)))
    low = w[:, 0]
    bad = low < -_PSD_TOL * (1.0 + np.max(np.abs(w), axis=1))
    if np.any(bad):
        raise DomainError(f"{name} is not PSD within tolerance "
                          f"(min eig {low[np.argmax(bad)]:.3e})")


def energy_report(model, f=None, spec: SampleSpec | None = None, grid=None) -> EnergyReport:
    """Assemble a validated EnergyReport for any supported model."""
    if isinstance(model, FiniteChain):
        gam = carre_table(model, f)
        dirichlet = np.einsum("z,zij->ij", model.stationary, gam)
        variance = matrix_variance(model, f)
        v_f = max_op_norm(gam)
        report = EnergyReport(gam, dirichlet, variance, v_f, EXACT)
    elif isinstance(model, GaussianSeries):
        dirichlet = dirichlet_form(model)
        gam = dirichlet[None, :, :]  # x-independent
        variance = matrix_variance(model)
        report = EnergyReport(gam, dirichlet, variance, op_norm(dirichlet), EXACT)
    elif isinstance(model, (GaussianChaos, SmoothField)):
        _require_spec(spec)
        dirichlet = dirichlet_form(model, spec=spec)
        variance = matrix_variance(model, spec=spec)
        field = model.as_field() if isinstance(model, GaussianChaos) else model
        if grid is not None:
            probe = np.asarray(grid, dtype=float)[:8]
        else:
            probe = montecarlo.draw_standard_normal(
                SampleSpec(n=8, seed=spec.seed), field.ambient_dim)
        gam = np.stack([carre_smooth(field, x) for x in probe])
        v_f = variance_proxy(model, grid=grid)[0] if grid is not None else max_op_norm(gam)
        meta = {"n": spec.n, "seed": spec.seed, "v_f_is_grid_sup": grid is not None}
        report = EnergyReport(gam, dirichlet, variance, v_f, ESTIMATED, meta)
    else:
        raise DomainError(f"unsupported model type {type(model).__name__}")
    _check_psd_stack("gamma", report.gamma)
    _check_psd_stack("dirichlet", report.dirichlet[None])
    _check_psd_stack("variance", report.variance[None])
    return report
