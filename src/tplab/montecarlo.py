"""Sampling and estimation backbone for the Gaussian-model checks.

RNG streams are counter-based (Philox): the draws of block b of a run are a
pure function of (seed, b), so estimates are bit-identical regardless of how
many workers process the blocks.  Reductions run in block order.  The worker
count can be capped with the TPL_THREADS environment variable.

A run makes one pass per sample stream: ``estimate_statistic`` draws and
evaluates each block once and returns one Estimate per per-sample
statistic.  ``estimate_trace_moment`` diagonalises each block once per
centre and reads every moment order and every tail threshold from those
eigenvalues, and ``estimate_tail`` turns the tail frequencies of the same
pass into Wilson estimates.  So on the f-stream the tail, poly-moment and
chaos suites share draws and evaluations, and suites with the same centre
share one ``eigvalsh``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ConfigError, DomainError

BLOCK = 4096
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SampleSpec:
    """Monte Carlo budget: sample count, 64-bit seed, worker count and the
    optional antithetic (x, -x) pairing for symmetric integrands."""

    n: int
    seed: int
    workers: int = 1
    antithetic: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"sample count must be >= 1, got {self.n}")
        if self.workers < 1:
            raise DomainError(f"worker count must be >= 1, got {self.workers}")
        if self.antithetic and self.n % 2 != 0:
            raise DomainError("antithetic sampling needs an even sample count")


@dataclass(frozen=True)
class Estimate:
    """Point estimate with a two-sided confidence interval."""

    value: float
    ci_low: float
    ci_high: float
    level: float
    n: int


def normal_stream(seed: int, stream: int) -> np.random.Generator:
    """Deterministic stream: a pure function of (seed, stream index)."""
    key = (seed & _MASK64) | ((stream & _MASK64) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _worker_count(spec: SampleSpec) -> int:
    cap = os.environ.get("TPL_THREADS")
    workers = spec.workers
    if cap is not None:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            raise ConfigError(f"TPL_THREADS: expected an integer, got {cap!r}") from None
    return max(1, workers)


def _block_plan(n: int) -> list[tuple[int, int]]:
    plan = []
    b = 0
    while n > 0:
        take = min(BLOCK, n)
        plan.append((b, take))
        n -= take
        b += 1
    return plan


def _map_blocks(spec: SampleSpec, job):
    """Apply ``job(block_index, count)`` to every block; results are returned
    in block order, so the reduction is independent of the worker count."""
    plan = _block_plan(spec.n)
    workers = _worker_count(spec)
    if workers == 1 or len(plan) == 1:
        return [job(b, c) for b, c in plan]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda bc: job(*bc), plan))


def draw_standard_normal(spec: SampleSpec, dim: int) -> np.ndarray:
    """All (n, dim) draws of a run, assembled in block order."""
    chunks = _map_blocks(spec, lambda b, c: normal_stream(spec.seed, b).standard_normal((c, dim)))
    return np.concatenate(chunks, axis=0)


def normal_quantile(level: float) -> float:
    """z with P{|Z| <= z} = level for a standard normal Z (Wichura's AS241,
    through the standard library)."""
    return NormalDist().inv_cdf(0.5 * (1.0 + level))


def wilson_interval(successes: int, trials: int, level: float = 0.99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    z = normal_quantile(level)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    spread = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return (max(0.0, center - spread), min(1.0, center + spread))


def _clt_interval(mean: float, var: float, n: int, level: float) -> tuple[float, float]:
    if n <= 1 or not np.isfinite(var):
        return (mean, mean) if var == 0.0 else (-math.inf, math.inf)
    z = normal_quantile(level)
    half = z * math.sqrt(max(var, 0.0) / n)
    return (mean - half, mean + half)


def _estimate(parts, level: float) -> Estimate:
    """Estimate from per-block (count, sum, sum of squares) tuples, reduced
    in block order with math.fsum."""
    n_eff = sum(p[0] for p in parts)
    s1 = math.fsum(p[1] for p in parts)
    s2 = math.fsum(p[2] for p in parts)
    mean = s1 / n_eff
    var = max(s2 / n_eff - mean * mean, 0.0) if np.isfinite(s2) else math.inf
    lo, hi = _clt_interval(mean, var, n_eff, level)
    return Estimate(value=mean, ci_low=min(lo, mean), ci_high=max(hi, mean),
                    level=level, n=n_eff)


def estimate_statistic(spec: SampleSpec, field, per_sample,
                       level: float = 0.99) -> list[Estimate]:
    """One Monte Carlo pass: the means of several per-sample statistics of
    f(X), each with a CLT interval.

    Each block is drawn and evaluated once; ``per_sample(mats)`` maps the
    (m, d, d) block of values to a list of (m,) arrays, one per statistic,
    so every statistic reuses the same draws, evaluations and eigenvalues.
    Returns one Estimate per array, in the same order.  The block sums of
    each statistic are kept apart and reduced in block order with
    math.fsum, so each Estimate is bit-identical to a pass that computed
    that statistic alone, for any worker count.  With antithetic pairing on,
    each statistic is averaged over each (x, -x) pair and the CLT runs on
    the n/2 pair means.
    """

    def job(b: int, count: int):
        rng = normal_stream(spec.seed, b)
        if spec.antithetic:
            xs = rng.standard_normal((count // 2, field.ambient_dim))
            vals = [0.5 * (plus + minus) for plus, minus in
                    zip(per_sample(field.eval_batch(xs)), per_sample(field.eval_batch(-xs)))]
        else:
            xs = rng.standard_normal((count, field.ambient_dim))
            vals = per_sample(field.eval_batch(xs))
        with np.errstate(over="ignore", invalid="ignore"):
            return [(len(v), v.sum(), np.sum(v ** 2)) for v in vals]

    parts = _map_blocks(spec, job)
    return [_estimate([p[k] for p in parts], level)
            for k in range(len(parts[0]))]


def estimate_trace_moment(field, q, spec: SampleSpec,
                          center: np.ndarray | None = None,
                          level: float = 0.99, thresholds=(), centers=None):
    """Estimate E tr |f(X) - center|^(2q) with a CLT interval.

    ``q`` is one order or a sequence of orders.  A sequence gives one
    Estimate per order from a single pass: each block is drawn, evaluated
    and diagonalised once, and every order takes its sums from the same
    eigenvalues.

    ``thresholds`` appends, from the same eigenvalues, one Estimate per
    threshold t of the frequency of ||f(X) - center|| >= t (the mean of an
    indicator; ``estimate_tail`` gives it a Wilson interval).  Indicators
    are never averaged over antithetic pairs, so thresholds refuse pairing.

    ``centers`` replaces ``center`` by a list of centres (None for no
    centre): the draws and evaluations are still shared, each block is
    diagonalised once per centre, every order and threshold is read at
    every centre, and the result is one list per centre.
    """
    scalar = np.ndim(q) == 0
    orders = [float(q)] if scalar else [float(x) for x in q]
    for order in orders:
        if not order >= 1:
            raise DomainError(f"moment order q must be >= 1, got {order}")
    thresholds = [float(t) for t in thresholds]
    if thresholds and spec.antithetic:
        raise DomainError("antithetic pairing breaks the Bernoulli model of "
                          "the Wilson interval; disable it for tail estimation")
    several = centers is not None
    if several and center is not None:
        raise DomainError("give either one center or a list of centers")
    centres = list(centers) if several else [center]

    def per_sample(mats):
        out = []
        for c in centres:
            w = np.abs(np.linalg.eigvalsh(mats if c is None else mats - c))
            out += [np.sum(w ** (2.0 * order), axis=1) for order in orders]
            if thresholds:
                dev = np.max(w, axis=1)
                out += [(dev >= t).astype(float) for t in thresholds]
        return out

    estimates = estimate_statistic(spec, field, per_sample, level)
    width = len(orders) + len(thresholds)
    groups = [estimates[i * width:(i + 1) * width] for i in range(len(centres))]
    if several:
        return groups
    return groups[0][0] if scalar and not thresholds else groups[0]


def estimate_tail(field, center, thresholds, spec: SampleSpec,
                  level: float = 0.99, orders=(), centers=None) -> list:
    """Empirical survival P{ |f(X) - center| >= t } with Wilson intervals,
    one pass over the samples.  Thresholds must be ascending.

    ``orders`` and ``centers`` are passed on to ``estimate_trace_moment``,
    so the tail shares its pass with trace moments: the result is the
    survival Estimates followed by one Estimate per order (one such list
    per centre when ``centers`` is given).
    """
    thresholds = np.asarray(thresholds, dtype=float)
    if np.any(np.diff(thresholds) < 0):
        raise DomainError("thresholds must be ascending")
    orders = list(orders)
    if center is not None:
        center = np.asarray(center, dtype=float)
    groups = estimate_trace_moment(field, orders, spec, center, level, thresholds, centers)
    out = []
    for ests in (groups if centers is not None else [groups]):
        tail = []
        for est in ests[len(orders):]:
            # the indicator sum is an exact integer and the mean its correctly
            # rounded ratio to n, so rounding recovers the count exactly
            k = round(est.value * spec.n)
            lo, hi = wilson_interval(k, spec.n, level)
            tail.append(Estimate(value=k / spec.n, ci_low=lo, ci_high=hi,
                                 level=level, n=spec.n))
        out.append(tail + ests[:len(orders)])
    return out if centers is not None else out[0]
