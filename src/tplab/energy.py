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
sum_i (d_i f)^2: the constant sum_i A_i^2 for a series f = sum_i X_i A_i,
and 4 sum_i (sum_j X_j A_ij)^2 for a chaos f = sum_ij X_i X_j A_ij.  Their
Dirichlet forms and variances are exact too.  For a series both are
sum_i A_i^2.  For a chaos, Isserlis' theorem (E[X_i X_j X_k X_l] is a sum
over pairings) gives E Gamma(f) = 4 S and Var f = 2 S with
S = sum_ij A_ij^2, so nothing is sampled.  Only the Gamma table and the
variance proxy of a chaos's energy report come from a seeded probe (mode
ESTIMATED), because Gamma is not constant there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import montecarlo
from .errors import DimensionError, DomainError
from .models import FiniteChain, FiniteField, GaussianChaos, GaussianSeries
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


def _chaos_square(chaos: GaussianChaos) -> np.ndarray:
    """S = sum_ij A_ij^2, which gives E Gamma(f) = 4 S and Var f = 2 S."""
    a = chaos.coefficients
    return np.einsum("ijkl,ijlm->km", a, a)


def dirichlet_form(model, f=None) -> np.ndarray:
    """Total energy E_mu[Gamma(f)], exact for every model: a mu-average on a
    finite chain, sum_i A_i^2 for a Gaussian series and 4 sum_ij A_ij^2 for
    a Gaussian chaos."""
    if isinstance(model, FiniteChain):
        gam = carre_table(model, f)
        return np.einsum("z,zij->ij", model.stationary, gam)
    if isinstance(model, GaussianSeries):
        a = model.coefficients
        return np.einsum("kij,kjl->il", a, a)
    if isinstance(model, GaussianChaos):
        return 4.0 * _chaos_square(model)
    raise DomainError(f"unsupported model type {type(model).__name__}")


def matrix_variance(model, f=None) -> np.ndarray:
    """E[f^2] - (E f)^2, a PSD matrix, exact for every model: sum_i A_i^2 for
    a Gaussian series and 2 sum_ij A_ij^2 for a Gaussian chaos."""
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
    if isinstance(model, GaussianChaos):
        return 2.0 * _chaos_square(model)
    raise DomainError(f"unsupported model type {type(model).__name__}")


def variance_proxy(model, f=None) -> tuple[float, str]:
    """Essential supremum of |Gamma(f)| over the state space, exact on finite
    chains (full-support mu) and Gaussian series.  A Gaussian chaos has none:
    its Gamma grows without bound in x unless A = 0."""
    if isinstance(model, FiniteChain):
        return max_op_norm(carre_table(model, f)), EXACT
    if isinstance(model, GaussianSeries):
        a = model.coefficients
        return op_norm(np.einsum("kij,kjl->il", a, a)), EXACT
    if isinstance(model, GaussianChaos):
        raise DomainError("Gamma of a Gaussian chaos, 4 sum_i (sum_j x_j A_ij)^2, "
                          "is unbounded in x, so it has no finite variance proxy")
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
    provenance.  Everything is EXACT on finite chains and Gaussian series.
    On a Gaussian chaos the Dirichlet form and the variance are exact, but
    Gamma is tabled at an 8-point probe and v_f is its largest norm there:
    mode ESTIMATED, with the probe's size and seed in ``sample_meta``."""

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


_GAMMA_PROBE = 8


def energy_report(model, f=None, spec: SampleSpec | None = None) -> EnergyReport:
    """Assemble a validated EnergyReport for any supported model.  A Gaussian
    chaos needs ``spec``, whose seed draws the Gamma probe."""
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
    elif isinstance(model, GaussianChaos):
        if spec is None:
            raise DomainError("the energy report of a Gaussian chaos needs a SampleSpec "
                              "to seed its Gamma probe")
        probe = montecarlo.draw_standard_normal(SampleSpec(n=_GAMMA_PROBE, seed=spec.seed),
                                                model.n_vars)
        gam = chaos_gamma_batch(model, probe)
        report = EnergyReport(gam, dirichlet_form(model), matrix_variance(model),
                              max_op_norm(gam), ESTIMATED,
                              {"probe_n": _GAMMA_PROBE, "probe_seed": spec.seed})
    else:
        raise DomainError(f"unsupported model type {type(model).__name__}")
    _check_psd_stack("gamma", report.gamma)
    _check_psd_stack("dirichlet", report.dirichlet[None])
    _check_psd_stack("variance", report.variance[None])
    return report
