"""Squared-derivative (carre du champ) operators and the energy report of a
model: its Gamma, Dirichlet form, variance and variance proxy.

On a finite chain every quantity is an exact finite sum: for a jump process
the small-time limit of the defining squared-difference formula collapses to

    Gamma(f)(z) = (1/2) * sum_{z'} L(z, z') (f(z') - f(z))^2,

which avoids time-discretization error entirely.  Expanding the square gives
the generator identity (the definition of the carre du champ)

    Gamma(f) = (1/2) [L(f^2) - f (Lf) - (Lf) f + r f^2],   r = L 1,

so the whole table costs two products of L with an (n, d^2) block plus n
small matrix products instead of a per-state loop.  On a product chain each
product with L is one mode product per coordinate (``FiniteChain.apply``),
so no n x n matrix is formed.  The row-sum term r makes the identity hold
for the floating-point generator, not only for exact zero row sums.

Every model's energies (Gamma, Dirichlet form, variance, v_f) and spectra
are computed only by ``energy_report``, once per (chain, field) and once
per Gaussian model; every checker reads that report and none diagonalises
f - E_mu f or Gamma again.  On Gaussian models the squared derivative is
sum_i (d_i f)^2: the constant sum_i A_i^2 for a series f = sum_i X_i A_i,
which is also its Dirichlet form and its variance, and
4 sum_i (sum_j X_j A_ij)^2 for a chaos f = sum_ij X_i X_j A_ij.  For a
chaos, Isserlis' theorem (E[X_i X_j X_k X_l] is a sum over pairings) gives
E Gamma(f) = 4 S and Var f = 2 S with S = sum_ij A_ij^2, so nothing is
sampled.  Only the Gamma table and the variance proxy of a chaos's energy
report come from a seeded probe (mode ESTIMATED), because Gamma is not
constant there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import montecarlo
from .errors import CapacityError, DimensionError, DomainError, NumericError
from .models import FiniteChain, FiniteField, GaussianChaos, GaussianSeries
from .montecarlo import SampleSpec
from .spectral import op_norm

EXACT = "EXACT"
ESTIMATED = "ESTIMATED"

_PSD_TOL = 1e-10


def carre_table(chain: FiniteChain, f: FiniteField) -> np.ndarray:
    """Squared derivative at every state: (n_states, d, d), each PSD.

    Evaluates (1/2) [L(c^2) - c (Lc) - (Lc) c + r c^2] with r = L 1, which
    equals (1/2) sum_w L(z, w) (f(w) - f(z))^2 for any generator.  The field
    is centred first, c = f - E_mu f; Gamma is shift-invariant, and centring
    keeps the cancellation at the scale of the fluctuations rather than of
    the mean.  L is read only through ``chain.apply`` and ``chain.row_sums``:
    O(n m k d^2 + n d^3) on a k-factor chain with an (m, m) factor, and
    O(n^2 d^2 + n d^3) on a plain one.  A table that is not finite (the
    squared fluctuations overflow) raises NumericError, since no bound read
    from it would mean anything.
    """
    n = chain.n_states
    c = _centre(chain, f)[1]
    sq = c @ c
    lc = chain.apply(c.reshape(n, -1)).reshape(c.shape)
    lsq = chain.apply(sq.reshape(n, -1)).reshape(c.shape)
    out = 0.5 * (lsq - c @ lc - lc @ c + chain.row_sums[:, None, None] * sq)
    out = 0.5 * (out + out.transpose(0, 2, 1))
    if not np.all(np.isfinite(out)):
        raise NumericError("carre-du-champ: no verdict, the Gamma table is not finite; "
                           "the squared fluctuations of the field overflow")
    return out


def _centre(chain: FiniteChain, f: FiniteField) -> tuple[np.ndarray, np.ndarray]:
    """(E_mu f, f - E_mu f) as arrays; DimensionError when f and the chain
    differ in their number of states."""
    v = f.values
    if v.shape[0] != chain.n_states:
        raise DimensionError(
            f"field has {v.shape[0]} states but chain has {chain.n_states}"
        )
    mean = np.einsum("z,zij->ij", chain.stationary, v)
    return mean, v - mean


def column_energies(chain: FiniteChain, cols) -> tuple[np.ndarray, np.ndarray]:
    """mu-variance and Dirichlet form of every column of an (n_states, k)
    block of scalar fields, as two (k,) arrays: the scalar form
    Gamma(c) = (1/2) [L(c^2) - 2 c (Lc) + r c^2] of ``carre_table``'s
    identity, with the same centring c = f - E_mu f and r = L 1.  Traces are
    sums over entries, tr Gamma(f) = sum_ij Gamma(f_ij), so the d^2 entry
    columns of a matrix field give its trace energies without a Gamma table.
    """
    cols = np.asarray(cols, dtype=float)
    mu = chain.stationary
    c = cols - mu @ cols
    sq = c * c
    gam = 0.5 * (chain.apply(sq) - 2.0 * c * chain.apply(c) + chain.row_sums[:, None] * sq)
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


@dataclass(frozen=True)
class SymmetrizedPair:
    """The antisymmetric difference field g(z, z') = f(z) - f(z') on the
    two-fold product chain, with its energies.

    Gamma(g)(z, z') = Gamma(f)(z) + Gamma(f)(z') exactly, because each
    coordinate of the product moves one argument of g; so the table comes
    from f's Gamma table in O(m^2 d^2) without building the m^2-state
    product chain.  ``stationary`` is mu x mu in the row-major
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


# bytes the bivariate pair's g and Gamma tables, (n^2, d, d) each, may take
PAIR_BYTE_BUDGET = 2 << 30


def bivariate_symmetrized(chain: FiniteChain, rep: EnergyReport) -> SymmetrizedPair:
    """Build g(z, z') = f(z) - f(z') over the squared state space from f's
    energy report.  Raises CapacityError, before allocating, when the g and
    Gamma tables (2 n^2 d^2 doubles) exceed PAIR_BYTE_BUDGET (2 GiB)."""
    n, d = chain.n_states, rep.field.dim
    need = 2 * n * n * d * d * 8
    if need > PAIR_BYTE_BUDGET:
        raise CapacityError(f"the bivariate pair of '{chain.name}' ({n}^2 states, d = {d}) "
                            f"needs {need / 2 ** 30:.3g} GiB for its g and Gamma tables, "
                            f"over the budget of {PAIR_BYTE_BUDGET / 2 ** 30:g} GiB")
    gam_f = rep.gamma
    v = rep.field.values
    g = FiniteField((v[:, None, :, :] - v[None, :, :, :]).reshape(-1, d, d))
    gamma = (gam_f[:, None, :, :] + gam_f[None, :, :, :]).reshape(-1, d, d)
    mu2 = np.kron(chain.stationary, chain.stationary)
    dirichlet = np.einsum("z,zij->ij", mu2, gamma)
    return SymmetrizedPair(base=chain, stationary=mu2, g=g, gamma=gamma,
                           dirichlet=dirichlet, v=op_norm(gamma))


@dataclass(frozen=True)
class EnergyReport:
    """Bundle of Gamma, its spectrum, the Dirichlet form, variance and
    variance proxy with provenance.  ``gamma_eigs`` holds Gamma's ascending
    eigenvalues, one row per state (per probe point on a chaos), and v_f is
    their largest absolute value.  Everything is EXACT on finite chains and
    Gaussian series.  On a Gaussian chaos the Dirichlet form and the
    variance are exact, but Gamma is tabled at an 8-point probe and v_f is
    its largest norm there: mode ESTIMATED, with the probe's size and seed
    in ``sample_meta``.  A chain's report also keeps, for the checkers and
    not in the JSON, its ``field``, the ``mean`` E_mu f and ``f_eigs``, the
    (n_states, d) eigenvalues of f - E_mu f."""

    gamma: np.ndarray
    gamma_eigs: np.ndarray
    dirichlet: np.ndarray
    variance: np.ndarray
    v_f: float
    mode: str
    sample_meta: dict | None = None
    field: FiniteField | None = None
    mean: np.ndarray | None = None
    f_eigs: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        """The report's JSON document.  Gamma, the Dirichlet form and the
        variance are the report's own float64 arrays, not lists:
        ``reports.rows_to_json`` writes them as their ``tolist()`` would be
        written, rendering each distinct value once, and a run that writes
        no JSON never converts them."""
        out = {
            "gamma": self.gamma,
            "dirichlet": self.dirichlet,
            "variance": self.variance,
            "v_f": self.v_f,
            "mode": self.mode,
        }
        if self.sample_meta is not None:
            out["sample_meta"] = self.sample_meta
        return out


def _sym_eigvalsh(stack: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(0.5 * (stack + stack.transpose(0, 2, 1)))


def _check_psd(name: str, w: np.ndarray):
    """Refuse eigenvalue rows (m, d) of which one has an eigenvalue below
    -_PSD_TOL * (1 + its largest |eigenvalue|)."""
    low = w[:, 0]
    bad = low < -_PSD_TOL * (1.0 + np.max(np.abs(w), axis=1))
    if np.any(bad):
        raise DomainError(f"{name} is not PSD within tolerance "
                          f"(min eig {low[np.argmax(bad)]:.3e})")


_GAMMA_PROBE = 8


def energy_report(model, f=None, spec: SampleSpec | None = None) -> EnergyReport:
    """Assemble a validated EnergyReport for any supported model, with one
    ``carre_table`` on a chain and one eigvalsh of each of Gamma and, on a
    chain, f - E_mu f.  A Gaussian chaos needs ``spec``, whose seed draws
    the Gamma probe.  A Gamma table, Dirichlet form or variance that is not
    finite (the model's values overflow) raises NumericError."""
    chain_only, mode, meta = {}, EXACT, None
    # an overflow is refused below, so it need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(model, FiniteChain):
            gam = carre_table(model, f)
            mean, c = _centre(model, f)
            mu = model.stationary
            var = np.einsum("z,zij->ij", mu, c @ c)
            dirichlet, variance = np.einsum("z,zij->ij", mu, gam), 0.5 * (var + var.T)
            chain_only = {"field": f, "mean": mean, "f_eigs": np.linalg.eigvalsh(c)}
        elif isinstance(model, GaussianSeries):
            a = model.coefficients
            # Gamma is the x-independent sum_i A_i^2, also the Dirichlet form
            # and the variance (E f = 0)
            dirichlet = variance = np.einsum("kij,kjl->il", a, a)
            gam = dirichlet[None, :, :]
        elif isinstance(model, GaussianChaos):
            if spec is None:
                raise DomainError("the energy report of a Gaussian chaos needs a SampleSpec "
                                  "to seed its Gamma probe")
            probe = montecarlo.draw_standard_normal(SampleSpec(n=_GAMMA_PROBE, seed=spec.seed),
                                                    model.n_vars)
            gam = chaos_gamma_batch(model, probe)
            square = _chaos_square(model)
            dirichlet, variance = 4.0 * square, 2.0 * square
            mode, meta = ESTIMATED, {"probe_n": _GAMMA_PROBE, "probe_seed": spec.seed}
        else:
            raise DomainError(f"unsupported model type {type(model).__name__}")
    for name, a in (("Gamma table", gam), ("Dirichlet form", dirichlet), ("variance", variance)):
        if not np.all(np.isfinite(a)):
            raise NumericError(f"energy report: no verdict, the {name} is not finite; "
                               "the values of the model overflow")
    gamma_eigs = _sym_eigvalsh(gam)
    _check_psd("gamma", gamma_eigs)
    _check_psd("dirichlet", _sym_eigvalsh(dirichlet[None]))
    _check_psd("variance", _sym_eigvalsh(variance[None]))
    return EnergyReport(gam, gamma_eigs, dirichlet, variance,
                        float(np.max(np.abs(gamma_eigs))), mode, meta, **chain_only)
