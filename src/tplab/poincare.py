"""Poincare constants from spectral gaps, and the scalar/trace inequality
checkers with an equivalence probe.

For a reversible chain the similarity transform S = D^{1/2} L D^{-1/2} with
D = diag(mu) is symmetric, so a symmetric eigensolver gives the spectrum of
the generator; the gap is the smallest nonzero eigenvalue of -S and the
Poincare constant is its reciprocal.  The spectrum of a Kronecker sum is the
set of sums of its factors' eigenvalues, so a product chain's gap is its
factor's, exactly (tensorization; Bakry-Gentil-Ledoux 2014, 4.3), and only
the (m, m) factor is diagonalised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import EnergyReport, column_energies
from .errors import DimensionError, ModelError
from .models import FiniteChain
from .montecarlo import normal_stream
from .reports import CheckReport, slack_for

SPECTRAL_GAP = "SPECTRAL_GAP"
USER_SUPPLIED = "USER_SUPPLIED"

_GAP_REL_TOL = 1e-10
_PROBE_SLACK = 1e-9


@dataclass(frozen=True)
class PoincareCertificate:
    """alpha bounds Var <= alpha * dirichlet for all fields of the chain."""

    alpha: float
    gap: float
    method: str

    def __post_init__(self):
        if not self.gap > 0:
            raise ModelError(f"spectral gap must be positive, got {self.gap}")


def poincare_constant(chain: FiniteChain) -> PoincareCertificate:
    """Certificate with alpha = 1/gap from the symmetrized (m, m) factor
    generator and the factor's measure: O(m^3) for any number of factors,
    and the exact gap of the product."""
    mu = chain.factor_stationary
    root = np.sqrt(mu)
    sym = (root[:, None] * chain.generator) / root[None, :]
    sym = 0.5 * (sym + sym.T)
    w = np.linalg.eigvalsh(-sym)
    scale = max(1.0, float(np.max(np.abs(w))))
    m = mu.shape[0]
    if m < 2 or w[1] <= _GAP_REL_TOL * scale:
        raise ModelError(
            f"chain '{chain.name}' has zero spectral gap (disconnected or "
            f"non-ergodic); second eigenvalue {w[1] if m > 1 else 0.0:.3e}"
        )
    gap = float(w[1])
    return PoincareCertificate(alpha=1.0 / gap, gap=gap, method=SPECTRAL_GAP)


def user_certificate(alpha: float) -> PoincareCertificate:
    if not alpha > 0:
        raise ModelError(f"alpha must be positive, got {alpha}")
    return PoincareCertificate(alpha=alpha, gap=1.0 / alpha, method=USER_SUPPLIED)


def ou_certificate() -> PoincareCertificate:
    """The Ornstein-Uhlenbeck / standard Gaussian constant alpha = 1."""
    return PoincareCertificate(alpha=1.0, gap=1.0, method=USER_SUPPLIED)


def check_scalar_poincare(chain: FiniteChain, rep: EnergyReport,
                          cert: PoincareCertificate) -> CheckReport:
    """Var_mu[f] <= alpha * dirichlet(f) for a real-valued f, read from its
    energy report (a 1 x 1 field)."""
    if rep.field.dim != 1:
        raise DimensionError(f"the scalar inequality needs a 1 x 1 field, got d = {rep.field.dim}")
    var = float(rep.variance[0, 0])
    rhs = cert.alpha * float(rep.dirichlet[0, 0])
    return CheckReport.from_comparison(
        "scalar-poincare", var, rhs, slack_for(rhs),
        {"alpha": cert.alpha, "chain": chain.name, "method": cert.method})


def check_trace_poincare(chain: FiniteChain, rep: EnergyReport,
                         cert: PoincareCertificate) -> CheckReport:
    """tr Var_mu[f] <= alpha * tr dirichlet(f) for a matrix field, read from
    its energy report."""
    lhs = float(np.trace(rep.variance))
    rhs = cert.alpha * float(np.trace(rep.dirichlet))
    return CheckReport.from_comparison(
        "trace-poincare", lhs, rhs, slack_for(rhs),
        {"alpha": cert.alpha, "chain": chain.name, "d": rep.field.dim,
         "method": cert.method})


@dataclass(frozen=True)
class ProbeReport:
    """Empirical supremum of tr Var / tr dirichlet over random matrix fields
    and their scalar compressions u^T f v (the route by which the trace
    inequality reduces to the scalar one)."""

    sup_ratio: float | None
    alpha: float
    trials: int
    dims: tuple
    seed: int
    maximizer: dict | None

    def to_check(self, chain_name: str = "") -> CheckReport:
        if self.trials == 0 or self.sup_ratio is None:
            return CheckReport.skipped(
                "poincare-equivalence", 0.0, self.alpha,
                {"trials": 0, "chain": chain_name, "seed": self.seed})
        rhs = self.alpha
        slim = {k: v for k, v in (self.maximizer or {}).items() if k != "field"}
        return CheckReport.from_comparison(
            "poincare-equivalence", self.sup_ratio, rhs,
            _PROBE_SLACK * abs(rhs),
            {"trials": self.trials, "dims": list(self.dims), "seed": self.seed,
             "chain": chain_name, "maximizer": slim})


# the signs draw the same values from the same stream as
# rng.choice([-1.0, 1.0], size=d), without choice's per-call overhead
_SIGNS = np.array([-1.0, 1.0])


def _probe_field(seed: int, t: int, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Trial t's symmetrized standard normal field (n, d, d) and its random
    sign vector u, from the trial's own stream."""
    rng = normal_stream(seed, t)
    raw = rng.standard_normal((n, d, d))
    return 0.5 * (raw + raw.transpose(0, 2, 1)), _SIGNS[rng.integers(0, 2, size=d)]


# entries of the stacked probe columns per ``column_energies`` call: at most
# 128 KiB per array, so that stacking trials saves calls without raising the
# peak memory of a small chain's probe
_PROBE_ENTRIES = 2 ** 14


def _probe_chunks(n: int, trial_dims, limit: int) -> list[range]:
    """Runs of consecutive trials whose blocks (d^2 + d columns of n entries
    each) stack to at most ``limit`` entries; a trial over the limit is a
    run of its own."""
    chunks, start, entries = [], 0, 0
    for t, d in enumerate(trial_dims):
        size = n * (d * d + d)
        if t > start and entries + size > limit:
            chunks.append(range(start, t))
            start, entries = t, 0
        entries += size
    if trial_dims:
        chunks.append(range(start, len(trial_dims)))
    return chunks


def equivalence_probe(chain: FiniteChain, trials: int, dims, seed: int,
                      cert: PoincareCertificate | None = None) -> ProbeReport:
    """Search for the worst variance/energy ratio; it never exceeds alpha.

    Fields are sampled with i.i.d. standard normal entries and symmetrized;
    each trial also probes the scalar compressions z -> <u, f(z) e_i> with a
    random sign vector u, mirroring the reduction used to pass from scalar
    to trace inequalities.  Per-trial RNG streams are split deterministically
    from the seed, so trials are order-independent.  A trace ratio is a
    ratio of sums over the field's entries, so the d^2 entries and the d
    compressions of a trial are columns of one block, and the blocks of
    consecutive trials are stacked into one ``column_energies`` call of at
    most _PROBE_ENTRIES entries.  The maximizer is the first (trial,
    candidate) whose ratio lies within _PROBE_SLACK (relative) of the
    supremum, so exact ties, which every field makes on a two-state chain or
    K_n, resolve to the earliest; its trial is redrawn from its stream to
    report its field.  ``cert`` is the chain's certificate when the caller
    already has it; by default it is computed here.
    """
    if cert is None:
        cert = poincare_constant(chain)
    dims = tuple(int(d) for d in dims)
    n = chain.n_states
    ratios = []  # (ratio, trial, compression axis or None), in search order
    trial_dims = [dims[t % len(dims)] for t in range(trials)]
    for chunk in _probe_chunks(n, trial_dims, _PROBE_ENTRIES):
        fields = [_probe_field(seed, t, n, trial_dims[t]) for t in chunk]
        var, dirich = column_energies(
            chain, np.hstack([np.hstack([vals.reshape(n, -1), u @ vals]) for vals, u in fields]))
        start = 0
        for t, (vals, _) in zip(chunk, fields):
            d = vals.shape[1]
            k = start + d * d
            candidates = [(var[start:k].sum(), dirich[start:k].sum(), None)]
            candidates += [(var[k + i], dirich[k + i], i) for i in range(d)]
            ratios += [(float(v / e), t, axis) for v, e, axis in candidates if e > 1e-14]
            start = k + d

    if not ratios:
        return ProbeReport(sup_ratio=None, alpha=cert.alpha, trials=trials, dims=dims,
                           seed=seed, maximizer=None)
    sup = max(r for r, _, _ in ratios)
    # the first near-tie, so that rounding never picks among exact ties
    _, t, axis = next(c for c in ratios if c[0] >= sup * (1.0 - _PROBE_SLACK))
    d = dims[t % len(dims)]
    vals, u = _probe_field(seed, t, n, d)
    if axis is None:
        argmax = {"trial": t, "kind": "matrix", "d": d, "field": vals.tolist()}
    else:  # <u, f(z) e_axis>
        argmax = {"trial": t, "kind": "compression", "d": d,
                  "field": (vals[:, :, axis] @ u).tolist(), "axis": axis}
    return ProbeReport(sup_ratio=sup, alpha=cert.alpha, trials=trials, dims=dims,
                       seed=seed, maximizer=argmax)
