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
from .montecarlo import rekeyed_streams
from .reports import CheckReport, slack_for
from .spectral import batch_eigvalsh, symmetric_part

SPECTRAL_GAP = "SPECTRAL_GAP"
USER_SUPPLIED = "USER_SUPPLIED"

_GAP_REL_TOL = 1e-10
_PROBE_SLACK = 1e-9
# a probe column whose Dirichlet form is at most this times the chain's
# largest exit rate times its variance is rounding, and gives no ratio
_PROBE_FLOOR = 1e-14


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
    sym = symmetric_part((root[:, None] * chain.generator) / root[None, :])
    w = batch_eigvalsh(-sym)
    m = mu.shape[0]
    # relative to the spectrum's own scale, so rescaling time L -> cL never
    # changes the verdict
    if m < 2 or w[1] <= _GAP_REL_TOL * float(np.max(np.abs(w))):
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
            reason = ("no trials" if self.trials == 0 else
                      "every candidate's Dirichlet form is at the rounding floor")
            return CheckReport.skipped(
                "poincare-equivalence", 0.0, self.alpha,
                {"trials": self.trials, "chain": chain_name, "seed": self.seed,
                 "reason": reason})
        rhs = self.alpha
        slim = {k: v for k, v in (self.maximizer or {}).items() if k != "field"}
        return CheckReport.from_comparison(
            "poincare-equivalence", self.sup_ratio, rhs,
            _PROBE_SLACK * abs(rhs),
            {"trials": self.trials, "dims": list(self.dims), "seed": self.seed,
             "chain": chain_name, "maximizer": slim})


_SIGNS = np.array([-1.0, 1.0])
# the shifts that bring bit 31 of the low and of the high 32-bit half of a
# 64-bit word to bit 0
_HALF_TOPS = np.array([31, 63], dtype=np.uint64)


def _sign_words(rng: np.random.Generator, d: int) -> np.ndarray:
    """The (d + 1) // 2 raw 64-bit words that hold d random signs."""
    return rng.bit_generator.random_raw((d + 1) // 2)


def _signs(words: np.ndarray, d: int) -> np.ndarray:
    """The d signs (-1.0 or 1.0) held by the raw words (..., (d + 1) // 2)
    of ``_sign_words``: bit 31 of each 32-bit half, low half first, picks
    the sign.  These are the values ``rng.integers(0, 2, size=d)`` draws
    from the same state, picking from [-1, 1] as ``rng.choice`` would:
    numpy bounds a draw from 32-bit halves of its words, low half first,
    and for two outcomes the bounded draw is the half's top bit.  That holds
    while no half is left over from an earlier 32-bit draw, as after a
    trial's ``standard_normal``, which reads whole words.  Reading the bits
    costs a fraction of ``integers``' per-call overhead."""
    bits = (words[..., None] >> _HALF_TOPS) & 1
    return _SIGNS[bits.reshape(*words.shape[:-1], -1)[..., :d]]


# entries of one run's block, trials of one dimension stacked into one
# ``column_energies`` call: at most 128 KiB per array, so that stacking
# trials saves calls without raising the peak memory of a small chain's probe
_PROBE_ENTRIES = 2 ** 14


def _probe_block(stream, trials, n: int, d: int) -> np.ndarray:
    """The probe columns of a run of trials of one dimension d as one
    (n, k, d^2 + d) block: per trial its d^2 symmetrized entries and then
    its d compressions <u, f(z) e_i>.  Each trial draws its field and then
    its signs u from its own stream(t); symmetrization and compressions run
    once per run, straight into the block."""
    k, w = len(trials), d * d
    raws = np.empty((k, n, d, d))
    words = np.empty((k, (d + 1) // 2), dtype=np.uint64)
    for j, t in enumerate(trials):
        rng = stream(t)
        rng.standard_normal(out=raws[j])
        words[j] = _sign_words(rng, d)
    block = np.empty((n, k, w + d))
    vals = block[:, :, :w].reshape(n, k, d, d)  # a view: one axis split in two
    np.add(raws.transpose(1, 0, 2, 3), raws.transpose(1, 0, 3, 2), out=vals)
    vals *= 0.5
    np.matmul(_signs(words, d)[:, None, :], vals, out=block[:, :, None, w:])
    return block


def equivalence_probe(chain: FiniteChain, trials: int, dims, seed: int,
                      cert: PoincareCertificate | None = None) -> ProbeReport:
    """Search for the worst variance/energy ratio; it never exceeds alpha.

    Fields are sampled with i.i.d. standard normal entries and symmetrized;
    each trial also probes the scalar compressions z -> <u, f(z) e_i> with a
    random sign vector u, mirroring the reduction used to pass from scalar
    to trace inequalities.  Trial t has dimension dims[t % len(dims)] and
    draws from stream t of the seed (``normal_stream(seed, t)``), so trials
    are order-independent; one Philox, re-keyed per trial
    (``montecarlo.rekeyed_streams``), serves them all.  A trace ratio is a
    ratio of sums over the field's entries, so the d^2 entries and the d
    compressions of a trial are columns of one block.  The trials of each
    position of ``dims`` are cut into runs of at most _PROBE_ENTRIES
    entries (a trial over the bound is a run of its own), and each run is
    one (n, k, d^2 + d) block (``_probe_block``) and one
    ``column_energies`` call.  Each trial's candidates, its matrix ratio and
    then its d compression ratios, are read from those energies with array
    operations.  The maximizer is the first (trial, candidate) whose ratio
    lies within _PROBE_SLACK (relative) of the supremum, so exact ties,
    which every field makes on a two-state chain or K_n, resolve to the
    earliest; its trial is redrawn by ``_probe_block`` to report its field.
    A candidate whose Dirichlet form is at most _PROBE_FLOOR times the
    chain's largest exit rate times its variance is rounding and gives no
    ratio; the floor scales with the rates, so L -> cL keeps every trial.
    ``cert`` is the chain's certificate when the caller already has it; by
    default it is computed here.
    """
    if cert is None:
        cert = poincare_constant(chain)
    dims = tuple(int(d) for d in dims)
    n = chain.n_states
    # E(c) <= 2 q Var(c) with q the largest exit rate, the factors' sum
    rate = chain.factors * float(np.max(np.abs(np.diag(chain.generator))))
    stream = rekeyed_streams(seed)
    found = []  # (trials, (k, d + 1) ratios: matrix, then axes 0..d-1) per run
    for r, d in enumerate(dims):
        w = d * d
        size = max(1, _PROBE_ENTRIES // (n * (w + d)))
        ts = range(r, trials, len(dims))
        for i in range(0, len(ts), size):
            run = ts[i:i + size]
            block = _probe_block(stream, run, n, d)
            energies = column_energies(chain, block.reshape(n, -1))
            # a matrix ratio sums d^2 contiguous entries, as e[i:j].sum() adds them
            var, dirich = (np.column_stack((e[:, :w].sum(axis=1), e[:, w:]))
                           for e in (x.reshape(len(run), w + d) for x in energies))
            ratios = np.full_like(var, -np.inf)
            np.divide(var, dirich, out=ratios, where=dirich > _PROBE_FLOOR * rate * var)
            found.append((run, ratios))

    sup = max((float(r.max()) for _, r in found), default=-np.inf)
    if sup == -np.inf:
        return ProbeReport(sup_ratio=None, alpha=cert.alpha, trials=trials, dims=dims,
                           seed=seed, maximizer=None)
    # the first near-tie in search order, so that rounding never picks
    # among exact ties: the earliest trial, and within it the first candidate
    near = []
    for run, ratios in found:
        hit = ratios >= sup * (1.0 - _PROBE_SLACK)
        rows = np.flatnonzero(hit.any(axis=1))
        if rows.size:
            near.append((run[rows[0]], int(np.argmax(hit[rows[0]]))))
    t, col = min(near)
    d = dims[t % len(dims)]
    block = _probe_block(stream, [t], n, d)[:, 0]
    if col == 0:
        argmax = {"trial": t, "kind": "matrix", "d": d,
                  "field": block[:, :d * d].reshape(n, d, d).tolist()}
    else:  # <u, f(z) e_axis>
        axis = col - 1
        argmax = {"trial": t, "kind": "compression", "d": d,
                  "field": block[:, d * d + axis].tolist(), "axis": axis}
    return ProbeReport(sup_ratio=sup, alpha=cert.alpha, trials=trials, dims=dims,
                       seed=seed, maximizer=argmax)
