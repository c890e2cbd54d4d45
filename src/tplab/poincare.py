"""Poincare constants from spectral gaps, and the scalar/trace inequality
checkers with an equivalence probe.

For a reversible chain the similarity transform S = D^{1/2} L D^{-1/2} with
D = diag(mu) is symmetric, so a symmetric eigensolver gives the spectrum of
the generator; the gap is the smallest nonzero eigenvalue of -S and the
Poincare constant is its reciprocal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import column_energies, dirichlet_form, matrix_variance
from .errors import ModelError
from .models import FiniteChain, FiniteField
from .montecarlo import normal_stream
from .reports import DEFAULT_SLACK, CheckReport, slack_for

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
    chain_id: str

    def __post_init__(self):
        if not self.gap > 0:
            raise ModelError(f"spectral gap must be positive, got {self.gap}")


def poincare_constant(chain: FiniteChain) -> PoincareCertificate:
    """Certificate with alpha = 1/gap from the symmetrized generator."""
    mu = chain.stationary
    root = np.sqrt(mu)
    sym = (root[:, None] * chain.generator) / root[None, :]
    sym = 0.5 * (sym + sym.T)
    w = np.linalg.eigvalsh(-sym)
    scale = max(1.0, float(np.max(np.abs(w))))
    if chain.n_states < 2 or w[1] <= _GAP_REL_TOL * scale:
        raise ModelError(
            f"chain '{chain.name}' has zero spectral gap (disconnected or "
            f"non-ergodic); second eigenvalue {w[1] if chain.n_states > 1 else 0.0:.3e}"
        )
    gap = float(w[1])
    return PoincareCertificate(alpha=1.0 / gap, gap=gap,
                               method=SPECTRAL_GAP, chain_id=chain.name)


def user_certificate(alpha: float, chain_id: str = "user") -> PoincareCertificate:
    if not alpha > 0:
        raise ModelError(f"alpha must be positive, got {alpha}")
    return PoincareCertificate(alpha=alpha, gap=1.0 / alpha,
                               method=USER_SUPPLIED, chain_id=chain_id)


def ou_certificate() -> PoincareCertificate:
    """The Ornstein-Uhlenbeck / standard Gaussian constant alpha = 1."""
    return PoincareCertificate(alpha=1.0, gap=1.0, method=USER_SUPPLIED,
                               chain_id="gaussian-ou")


def check_scalar_poincare(chain: FiniteChain, f, cert: PoincareCertificate,
                          slack_scale: float = DEFAULT_SLACK) -> CheckReport:
    """Var_mu[f] <= alpha * dirichlet(f) for a real-valued f per state."""
    field = FiniteField.from_scalars(np.asarray(f, dtype=float).reshape(-1))
    var = float(matrix_variance(chain, field)[0, 0])
    rhs = cert.alpha * float(dirichlet_form(chain, field)[0, 0])
    return CheckReport.from_comparison(
        "scalar-poincare", var, rhs, slack_for(rhs, slack_scale),
        {"alpha": cert.alpha, "chain": chain.name, "method": cert.method})


def check_trace_poincare(chain: FiniteChain, f: FiniteField,
                         cert: PoincareCertificate,
                         slack_scale: float = DEFAULT_SLACK) -> CheckReport:
    """tr Var_mu[f] <= alpha * tr dirichlet(f) for a matrix field."""
    lhs = float(np.trace(matrix_variance(chain, f)))
    rhs = cert.alpha * float(np.trace(dirichlet_form(chain, f)))
    return CheckReport.from_comparison(
        "trace-poincare", lhs, rhs, slack_for(rhs, slack_scale),
        {"alpha": cert.alpha, "chain": chain.name, "d": f.dim,
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
    passed: bool | None
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


def _probe_field(seed: int, t: int, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Trial t's symmetrized standard normal field (n, d, d) and its random
    sign vector u, from the trial's own stream."""
    rng = normal_stream(seed, t)
    raw = rng.standard_normal((n, d, d))
    return 0.5 * (raw + raw.transpose(0, 2, 1)), rng.choice([-1.0, 1.0], size=d)


def equivalence_probe(chain: FiniteChain, trials: int, dims, seed: int,
                      cert: PoincareCertificate | None = None) -> ProbeReport:
    """Search for the worst variance/energy ratio; it never exceeds alpha.

    Fields are sampled with i.i.d. standard normal entries and symmetrized;
    each trial also probes the scalar compressions z -> <u, f(z) e_i> with a
    random sign vector u, mirroring the reduction used to pass from scalar
    to trace inequalities.  Per-trial RNG streams are split deterministically
    from the seed, so trials are order-independent.  A trace ratio is a
    ratio of sums over the field's entries, so one ``column_energies`` call
    per trial covers the d^2 entries and the d compressions.  The maximizer
    is the first (trial, candidate) whose ratio lies within _PROBE_SLACK
    (relative) of the supremum, so exact ties, which every field makes on a
    two-state chain or K_n, resolve to the earliest; its trial is redrawn
    from its stream to report its field.  ``cert`` is the chain's
    certificate when the caller already has it; by default it is computed
    here.
    """
    if cert is None:
        cert = poincare_constant(chain)
    dims = tuple(int(d) for d in dims)
    n = chain.n_states
    ratios = []  # (ratio, trial, compression axis or None), in search order
    for t in range(trials):
        d = dims[t % len(dims)]
        vals, u = _probe_field(seed, t, n, d)
        var, dirich = column_energies(chain, np.hstack([vals.reshape(n, -1), u @ vals]))
        k = d * d
        candidates = [(var[:k].sum(), dirich[:k].sum(), None)]
        candidates += [(var[k + i], dirich[k + i], i) for i in range(d)]
        ratios += [(float(v / e), t, axis) for v, e, axis in candidates if e > 1e-14]

    if not ratios:
        return ProbeReport(sup_ratio=None, alpha=cert.alpha, trials=trials, dims=dims,
                           seed=seed, passed=None, maximizer=None)
    sup = max(r for r, _, _ in ratios)
    # the first near-tie, so that rounding never picks among exact ties
    _, t, axis = next(c for c in ratios if c[0] >= sup * (1.0 - _PROBE_SLACK))
    d = dims[t % len(dims)]
    vals, u = _probe_field(seed, t, n, d)
    argmax = {"trial": t, "kind": "matrix", "d": d, "field": vals.tolist()}
    if axis is not None:  # <u, f(z) e_axis>
        argmax.update(kind="compression", axis=axis, field=(vals[:, :, axis] @ u).tolist())
    return ProbeReport(sup_ratio=sup, alpha=cert.alpha, trials=trials, dims=dims,
                       seed=seed, passed=bool(sup <= cert.alpha * (1.0 + _PROBE_SLACK)),
                       maximizer=argmax)
