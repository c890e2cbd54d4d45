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

import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergyReport, column_energies
from .errors import DimensionError, ModelError
from .models import FiniteChain
from .montecarlo import normal_stream, rekeyed_streams
from .reports import CheckReport, slack_for
from .spectral import batch_eigvalsh, symmetric_part

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
    sym = symmetric_part((root[:, None] * chain.generator) / root[None, :])
    w = batch_eigvalsh(-sym)
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


def _probe_field(seed: int, t: int, n: int, d: int,
                 rng: np.random.Generator | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Trial t's symmetrized standard normal field (n, d, d) and its random
    sign vector u, from the trial's own stream: ``rng`` when the caller has
    it at its start already, else ``normal_stream(seed, t)``."""
    if rng is None:
        rng = normal_stream(seed, t)
    raw = rng.standard_normal((n, d, d))
    return symmetric_part(raw), _signs(_sign_words(rng, d), d)


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


def _trial_view(arr: np.ndarray, start: int, k: int, period: int, shape) -> np.ndarray:
    """The (..., k, *shape) view of k runs of columns along the last axis of
    the C-contiguous ``arr``, the first at ``start`` and each ``period``
    columns after the previous, each run read row-major as ``shape``.  The
    ndarray constructor refuses a view that would reach past ``arr``."""
    step = arr.itemsize
    inner = tuple(step * math.prod(shape[i + 1:]) for i in range(len(shape)))
    return np.ndarray(arr.shape[:-1] + (k, *shape), arr.dtype, arr, start * step,
                      arr.strides[:-1] + (period * step, *inner))


def _probe_block(stream, n: int, chunk, dims) -> tuple[np.ndarray, dict]:
    """The probe columns of a run of consecutive trials as one (n, width)
    block, per trial its d^2 entries and then its d compressions
    <u, f(z) e_i>, and the trials of the run grouped by their position in
    ``dims`` as {position: (first column, trials)}.  The trials of a group
    lie one cycle of ``dims`` apart, so each group is one strided view of
    the block.  Each trial draws its field and then its signs from its own
    stream, as ``_probe_field`` does; symmetrization and compressions run
    once per group, straight into the block."""
    widths = [d * d + d for d in dims]
    period = sum(widths)
    groups: dict = {}
    width = 0
    for t in chunk:
        groups.setdefault(t % len(dims), (width, []))[1].append(t)
        width += widths[t % len(dims)]
    block = np.empty((n, width))
    for r, (start, ts) in groups.items():
        d, k = dims[r], len(ts)
        raws = np.empty((k, n, d, d))
        words = np.empty((k, (d + 1) // 2), dtype=np.uint64)
        for j, t in enumerate(ts):
            rng = stream(t)
            rng.standard_normal(out=raws[j])
            words[j] = _sign_words(rng, d)
        vals = _trial_view(block, start, k, period, (d, d))
        np.add(raws.transpose(1, 0, 2, 3), raws.transpose(1, 0, 3, 2), out=vals)
        vals *= 0.5
        np.matmul(_signs(words, d)[:, None, :], vals,
                  out=_trial_view(block, start + d * d, k, period, (1, d)))
    return block, groups


def equivalence_probe(chain: FiniteChain, trials: int, dims, seed: int,
                      cert: PoincareCertificate | None = None) -> ProbeReport:
    """Search for the worst variance/energy ratio; it never exceeds alpha.

    Fields are sampled with i.i.d. standard normal entries and symmetrized;
    each trial also probes the scalar compressions z -> <u, f(z) e_i> with a
    random sign vector u, mirroring the reduction used to pass from scalar
    to trace inequalities.  Trial t draws from stream t of the seed
    (``normal_stream(seed, t)``), so trials are order-independent; one
    Philox, re-keyed per trial (``montecarlo.rekeyed_streams``), serves
    them all.  A trace ratio is a ratio of sums over the field's entries, so
    the d^2 entries and the d compressions of a trial are columns of one
    block, and the blocks of consecutive trials are stacked into one
    ``column_energies`` call of at most _PROBE_ENTRIES entries
    (``_probe_block``).  Each trial's candidates, its matrix ratio and then
    its d compression ratios, are read from those energies with array
    operations.  The maximizer is the first (trial, candidate) whose ratio
    lies within _PROBE_SLACK (relative) of the supremum, so exact ties,
    which every field makes on a two-state chain or K_n, resolve to the
    earliest; its trial is redrawn from its stream to report its field.
    ``cert`` is the chain's certificate when the caller already has it; by
    default it is computed here.
    """
    if cert is None:
        cert = poincare_constant(chain)
    dims = tuple(int(d) for d in dims)
    n = chain.n_states
    stream = rekeyed_streams(seed)
    trial_dims = [dims[t % len(dims)] for t in range(trials)]
    period = sum(d * d + d for d in dims)  # columns of one cycle of dims
    found = []  # (trials, (k, d + 1) ratios: matrix, then axes 0..d-1) per group
    for chunk in _probe_chunks(n, trial_dims, _PROBE_ENTRIES):
        block, groups = _probe_block(stream, n, chunk, dims)
        energies = column_energies(chain, block)
        for r, (start, ts) in groups.items():
            d = dims[r]
            cand = []
            for e in energies:
                per_trial = _trial_view(e, start, len(ts), period, (d * d + d,))
                out = np.empty((len(ts), d + 1))
                # a sum over d^2 contiguous entries, as e[i:j].sum() adds them
                out[:, 0] = per_trial[:, :d * d].sum(axis=1)
                out[:, 1:] = per_trial[:, d * d:]
                cand.append(out)
            ratios = np.full_like(cand[0], -np.inf)
            np.divide(cand[0], cand[1], out=ratios, where=cand[1] > 1e-14)
            found.append((ts, ratios))

    sup = max((float(r.max()) for _, r in found), default=-np.inf)
    if sup == -np.inf:
        return ProbeReport(sup_ratio=None, alpha=cert.alpha, trials=trials, dims=dims,
                           seed=seed, maximizer=None)
    # the first near-tie in search order, so that rounding never picks
    # among exact ties: the earliest trial, and within it the first candidate
    near = []
    for ts, ratios in found:
        hit = ratios >= sup * (1.0 - _PROBE_SLACK)
        rows = np.flatnonzero(hit.any(axis=1))
        if rows.size:
            near.append((ts[rows[0]], int(np.argmax(hit[rows[0]]))))
    t, col = min(near)
    d = trial_dims[t]
    vals, u = _probe_field(seed, t, n, d, stream(t))
    if col == 0:
        argmax = {"trial": t, "kind": "matrix", "d": d, "field": vals.tolist()}
    else:  # <u, f(z) e_axis>
        axis = col - 1
        argmax = {"trial": t, "kind": "compression", "d": d,
                  "field": (vals[:, :, axis] @ u).tolist(), "axis": axis}
    return ProbeReport(sup_ratio=sup, alpha=cert.alpha, trials=trials, dims=dims,
                       seed=seed, maximizer=argmax)
