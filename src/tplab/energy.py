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
product with L is one dense product per group of coordinates
(``FiniteChain.apply``), so no n x n matrix is formed.  The row-sum term r
makes the identity hold for the floating-point generator, not only for
exact zero row sums.

Every model's energies (Gamma, Dirichlet form, variance, v_f) and spectra
are computed only by ``energy_report``, once per (chain, field) and once
per Gaussian model; every checker reads that report and none diagonalises
f - E_mu f or Gamma again.  On Gaussian models the squared derivative is
sum_i (d_i f)^2: the constant sum_i A_i^2 for a series f = sum_i X_i A_i,
which is also its Dirichlet form and its variance, and
4 sum_i (sum_j X_j A_ij)^2 for a chaos f = sum_ij X_i X_j A_ij.

Gamma of a chaos is again a chaos.  With M_i = sum_j x_j A_ij,

    Gamma(f)(x) = 4 sum_i M_i^2 = sum_jl x_j x_l C_jl,
    C_jl = 2 sum_i (A_ij A_il + A_il A_ij),

an exact identity: the symmetric part of each product A_ij A_il is what
the symmetric sum over (j, l) keeps.  So Gamma is evaluated like f itself
(``models.chaos_values``: the monomials x_j x_l, j <= l, as rows and one
BLAS product per block) on coefficients C built and packed once per model
(``GaussianChaos.gamma_coefficients``, ``packed_gamma_coefficients``),
instead of a Gram product 4 S^T S per sample.  Its mean is that of a chaos, E Gamma(f) = sum_j C_jj,
which is 4 S with S = sum_ij A_ij^2, and Isserlis' theorem
(E[X_i X_j X_k X_l] is a sum over pairings) gives Var f = 2 S, so the
Dirichlet form and the variance are exact and nothing is sampled.  Only
the Gamma table and the variance proxy of a chaos's energy report come
from a seeded probe (mode ESTIMATED), because Gamma is not constant there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import montecarlo
from .errors import CapacityError, DimensionError, DomainError, NumericError
from .models import FiniteChain, FiniteField, GaussianChaos, GaussianSeries, chaos_values
from .montecarlo import SampleSpec
from .spectral import batch_eigvalsh, op_norm, psd_eigvalsh, symmetric_part

EXACT = "EXACT"
ESTIMATED = "ESTIMATED"


def carre_table(chain: FiniteChain, f: FiniteField) -> np.ndarray:
    """Squared derivative at every state: (n_states, d, d), each PSD.

    Evaluates (1/2) [L(c^2) - c (Lc) - (Lc) c + r c^2] with r = L 1, which
    equals (1/2) sum_w L(z, w) (f(w) - f(z))^2 for any generator.  The field
    is centred first, c = f - E_mu f; Gamma is shift-invariant, and centring
    keeps the cancellation at the scale of the fluctuations rather than of
    the mean.  L is read only through ``chain.apply`` and ``chain.row_sums``:
    O(n w d^2 + n d^3) on a product chain whose coordinate groups are w
    states wide in all (``FiniteChain.group_sums``), and
    O(n^2 d^2 + n d^3) on a plain one.  A table that is not finite (the
    squared fluctuations overflow) raises NumericError, since no bound read
    from it would mean anything.
    """
    n = chain.n_states
    c = _centre(chain, f)[1]
    sq = c @ c
    lc = chain.apply(c.reshape(n, -1)).reshape(c.shape)
    lsq = chain.apply(sq.reshape(n, -1)).reshape(c.shape)
    out = symmetric_part(0.5 * (lsq - c @ lc - lc @ c + chain.row_sums[:, None, None] * sq))
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
    points xs: (m, n) -> (m, d, d), the samples-last view that
    ``models.chaos_values`` returns (each matrix entry one contiguous row).

    Gamma of a quadratic chaos is a quadratic chaos,
    Gamma(f)(x) = sum_jl x_j x_l C_jl with C_jl = 2 sum_i (A_ij A_il +
    A_il A_ij), so it is evaluated by ``models.chaos_values``, the kernel of
    the field itself, on the model's ``gamma_coefficients`` C in the packed
    form ``packed_gamma_coefficients``, both built once per model.  The
    Gram form 4 S^T S of the stacked M_i = sum_j x_j A_ij takes one batched
    (d, n d) @ (n d, d) matmul per sample: 1.25 ms for a block of 4096
    samples at n = 8, d = 3 on one core of an x86-64 VM, against 0.78 ms for
    sum_i x_i M_i over sample-major M_i and 0.24-0.30 ms for the packed
    monomials.
    """
    return chaos_values(chaos.gamma_coefficients, chaos.packed_gamma_coefficients, xs)


# bytes the bivariate pair's g and one table of g's size, (n^2, d, d) each,
# may take
PAIR_BYTE_BUDGET = 2 << 30


def bivariate_symmetrized(chain: FiniteChain, rep: EnergyReport) -> np.ndarray:
    """The difference field g(z, z') = f(z) - f(z') on the two-fold product
    chain, as the (n, n, d, d) grid of its values, from f's energy report.
    Raises CapacityError, before allocating, when g and one table of its
    size (2 n^2 d^2 doubles) would exceed PAIR_BYTE_BUDGET (2 GiB): both
    subadditivity checkers form g @ g beside g.

    g's energies need no table of their own.  The product generator moves
    one coordinate per jump, so Gamma(g)(z, z') = Gamma(f)(z) + Gamma(f)(z')
    exactly; hence D(g) = 2 D(f), and v_g = 2 v_f, attained on the
    diagonal z = z'.  ``bounds.check_intdim_variant`` reads them from f's
    report."""
    n, d = chain.n_states, rep.field.dim
    need = 2 * n * n * d * d * 8
    if need > PAIR_BYTE_BUDGET:
        raise CapacityError(f"the bivariate pair of '{chain.name}' ({n}^2 states, d = {d}) "
                            f"needs {need / 2 ** 30:.3g} GiB for g and a table of its size, "
                            f"over the budget of {PAIR_BYTE_BUDGET / 2 ** 30:g} GiB")
    v = rep.field.values
    return v[:, None] - v[None]


@dataclass(frozen=True)
class EnergyReport:
    """Bundle of Gamma, the Dirichlet form, variance and variance proxy with
    provenance, and the spectra of the first two: ``gamma_eigs`` holds
    Gamma's ascending eigenvalues, one row per state (per probe point on a
    chaos), v_f is their largest absolute value, and ``dirichlet_eigs``
    holds the Dirichlet form's.  Everything is EXACT on finite chains and
    Gaussian series.  On a Gaussian chaos the Dirichlet form and the
    variance are exact, but Gamma is tabled at an 8-point probe and v_f is
    its largest norm there: mode ESTIMATED, with the probe's size and seed
    in ``sample_meta``.  A chain's report also keeps, for the checkers and
    not in the JSON, its ``field``, the ``mean`` E_mu f, its ``mean_norm``
    and ``f_eigs``, the (n_states, d) eigenvalues of f - E_mu f."""

    gamma: np.ndarray
    gamma_eigs: np.ndarray
    dirichlet: np.ndarray
    dirichlet_eigs: np.ndarray
    variance: np.ndarray
    v_f: float
    mode: str
    sample_meta: dict | None = None
    field: FiniteField | None = None
    mean: np.ndarray | None = None
    mean_norm: float | None = None
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


_GAMMA_PROBE = 8


def energy_report(model, f=None, spec: SampleSpec | None = None) -> EnergyReport:
    """Assemble a validated EnergyReport for any supported model, with one
    ``carre_table`` on a chain; the one place a model's matrices are
    diagonalised, each once.  A Gaussian chaos needs ``spec``, whose seed
    draws the Gamma probe.  A Gamma table, Dirichlet form or variance that
    is not finite (the model's values overflow) raises NumericError."""
    chain_only, mode, meta = {}, EXACT, None
    # an overflow is refused below, so it need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(model, FiniteChain):
            gam = carre_table(model, f)
            mean, c = _centre(model, f)
            mu = model.stationary
            var = np.einsum("z,zij->ij", mu, c @ c)
            dirichlet, variance = np.einsum("z,zij->ij", mu, gam), symmetric_part(var)
            chain_only = {"field": f, "mean": mean, "mean_norm": op_norm(mean),
                          "f_eigs": batch_eigvalsh(c)}
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
            # E Gamma(f) is the mean of the Gamma chaos, sum_j C_jj
            dirichlet = np.einsum("jjkl->kl", model.gamma_coefficients)
            variance = 0.5 * dirichlet
            mode, meta = ESTIMATED, {"probe_n": _GAMMA_PROBE, "probe_seed": spec.seed}
        else:
            raise DomainError(f"unsupported model type {type(model).__name__}")
    for name, a in (("Gamma table", gam), ("Dirichlet form", dirichlet), ("variance", variance)):
        if not np.all(np.isfinite(a)):
            raise NumericError(f"energy report: no verdict, the {name} is not finite; "
                               "the values of the model overflow")
    gamma_eigs = psd_eigvalsh(gam, "gamma")
    if isinstance(model, GaussianSeries):  # Gamma, D and Var are one matrix
        dirichlet_eigs = gamma_eigs[0]
    else:
        dirichlet_eigs = psd_eigvalsh(dirichlet, "dirichlet")
    if isinstance(model, FiniteChain):  # a chaos's variance is exactly D / 2
        psd_eigvalsh(variance, "variance")
    return EnergyReport(gam, gamma_eigs, dirichlet, dirichlet_eigs, variance,
                        float(np.max(np.abs(gamma_eigs))), mode, meta, **chain_only)
