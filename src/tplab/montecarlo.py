"""Sampling and estimation backbone for the Gaussian-model checks.

RNG streams are counter-based (Philox): the draws of block b of a run are a
pure function of (seed, b), so estimates are bit-identical regardless of how
many workers process the blocks.  Reductions run in block order.  Workers
are forked processes, one per strided share of the blocks, where the
platform has the ``fork`` start method; elsewhere the blocks run in a
serial loop.  Threads would collide in LAPACK's dense tridiagonal
reduction, where the 8x8 eigensolves of a series spend most of their
time.  The TPL_THREADS environment variable caps the worker count, and so
do the number of blocks and of usable CPUs.  A stream is only a key and a
zero counter, so a sequential caller that opens many streams re-keys one
Philox (``rekeyed_streams``) instead of building one per stream, with the
same draws as ``normal_stream``: a pass re-keys one per process for its
blocks, and the equivalence probe one for its trials.

A run makes one pass per sample stream: ``estimate_statistic`` draws and
evaluates each block once and returns one Estimate per per-sample
statistic, from one row sum of the block's stacked statistics and one of
their squares.  ``estimate_trace_moment`` diagonalises each block once per
centre and reads every moment order and every tail threshold from those
eigenvalues, and ``estimate_tail`` turns the tail frequencies of the same
pass into Wilson estimates; both return one list of Estimates per centre.
``bounds.gaussian_pass`` makes these passes once per run, so on the
f-stream the tail, poly-moment and chaos suites share draws and
evaluations, and suites with the same centre share one
``spectral.batch_eigvalsh`` per block.  The moments and the tail indicators
read the same eigenvalues.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ConfigError, DomainError, NumericError
from .spectral import batch_eigvalsh

BLOCK = 4096
_MASK64 = (1 << 64) - 1
LEVEL = 0.99  # the confidence level of every interval


@dataclass(frozen=True)
class SampleSpec:
    """Monte Carlo budget: sample count, 64-bit seed and worker count.

    There is no antithetic (x, -x) pairing: every statistic a Gaussian pass
    reads is even in x (a chaos is even, and a series is odd, so its
    moduli are even), so a pair would evaluate one sample twice and only
    halve the effective n."""

    n: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"sample count must be >= 1, got {self.n}")
        if self.workers < 1:
            raise DomainError(f"worker count must be >= 1, got {self.workers}")


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


def rekeyed_streams(seed: int):
    """A function ``at`` whose ``at(t)`` draws exactly what
    ``normal_stream(seed, t)`` draws, from one Philox built here and
    re-keyed on each call.

    A Philox stream is its key plus a counter, so setting the state to the
    key [seed, t] (each masked to 64 bits), a zero counter, an empty buffer
    and no cached uint32 starts stream t afresh, whatever the previous
    stream drew.  That costs about a tenth of building a new Philox, whose
    construction also gathers OS entropy only for the key to override it.
    Every call returns the same Generator, so this is for sequential use
    only: a pass re-keys one per process, and a forked worker its own copy.
    """
    bits = np.random.Philox(key=seed & _MASK64)
    gen = np.random.Generator(bits)
    zeros = np.zeros(4, dtype=np.uint64)
    key = np.array([seed & _MASK64, 0], dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def at(stream: int) -> np.random.Generator:
        key[1] = stream & _MASK64
        bits.state = state
        return gen

    return at


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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_share(job, share, send):
    """Send the results of a share's blocks, in order, up to its first
    error, with that error (None if there is none)."""
    out = []
    for b, c in share:
        try:
            out.append(job(b, c))
        except Exception as exc:
            send.send((out, exc))
            return
    send.send((out, None))


def _fork_context():
    import multiprocessing
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def _map_blocks(spec: SampleSpec, job):
    """Apply ``job(block_index, count)`` to every block; results are returned
    in block order, so the reduction is independent of the worker count.

    With w = min(workers, blocks, usable CPUs) > 1, w forked processes take
    the strided shares ``plan[i::w]``.  They inherit ``job``, so only the
    results cross their pipes.  A share stops at its first error, so the
    error of the lowest failing block, the one the serial loop raises, is
    raised here with its type and message.  A worker that dies without a
    result is a ChildProcessError, not a wait without end.  Every worker has
    exited when this returns or raises."""
    plan = _block_plan(spec.n)
    workers = min(_worker_count(spec), len(plan), _usable_cpus())
    ctx = _fork_context() if workers > 1 else None
    if ctx is None:
        return [job(b, c) for b, c in plan]
    shares = [plan[i::workers] for i in range(workers)]
    procs, done = [], []
    try:
        for share in shares:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_run_share, args=(job, share, send), daemon=True)
            proc.start()
            procs.append((proc, recv))
            # the worker's copy is now the only one, so its death reads as EOF
            send.close()
        for i, (proc, recv) in enumerate(procs):
            try:
                done.append(recv.recv())
            except EOFError:
                proc.join()
                raise ChildProcessError(f"Monte Carlo: worker {i} of {workers} exited with "
                                        f"code {proc.exitcode} before sending its blocks") from None
    finally:
        # every result is in by now, unless the pass is failing
        for proc, recv in procs:
            recv.close()
            proc.terminate()
            proc.join()
    errors = [(share[len(out)][0], exc) for share, (out, exc) in zip(shares, done)
              if exc is not None]
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    out = [None] * len(plan)
    for i, (results, _) in enumerate(done):
        out[i::workers] = results
    return out


def draw_standard_normal(spec: SampleSpec, dim: int) -> np.ndarray:
    """All (n, dim) draws of a run, assembled in block order, drawn in this
    process: the draws are the result, so a worker would only copy them."""
    return np.concatenate([normal_stream(spec.seed, b).standard_normal((c, dim))
                           for b, c in _block_plan(spec.n)], axis=0)


def normal_quantile(level: float) -> float:
    """z with P{|Z| <= z} = level for a standard normal Z (Wichura's AS241,
    through the standard library)."""
    return NormalDist().inv_cdf(0.5 * (1.0 + level))


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval at LEVEL for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    z = normal_quantile(LEVEL)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    spread = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return (max(0.0, center - spread), min(1.0, center + spread))


def _clt_interval(mean: float, var: float, n: int) -> tuple[float, float]:
    # one sample says nothing about its spread, so it decides no verdict
    if n <= 1 or not np.isfinite(var):
        return (-math.inf, math.inf)
    z = normal_quantile(LEVEL)
    half = z * math.sqrt(max(var, 0.0) / n)
    return (mean - half, mean + half)


def _estimate(n_eff: int, sums, squares) -> Estimate:
    """Estimate at LEVEL from n_eff samples' per-block sums and sums of
    squares, each reduced in block order with math.fsum."""
    s1 = math.fsum(sums)
    s2 = math.fsum(squares)
    mean = s1 / n_eff
    var = max(s2 / n_eff - mean * mean, 0.0) if np.isfinite(s2) else math.inf
    lo, hi = _clt_interval(mean, var, n_eff)
    return Estimate(value=mean, ci_low=min(lo, mean), ci_high=max(hi, mean),
                    level=LEVEL, n=n_eff)


def estimate_statistic(spec: SampleSpec, field, per_sample) -> list[Estimate]:
    """One Monte Carlo pass: the means of several per-sample statistics of
    f(X), each with a CLT interval.

    Each block is drawn and evaluated once; ``per_sample(mats)`` maps the
    (m, d, d) block of values to a list of (m,) arrays, one per statistic,
    so every statistic reuses the same draws, evaluations and eigenvalues.
    Returns one Estimate per array, in the same order.  A block stacks the
    arrays into one (k, m) array and takes its k sums, and then the k sums
    of its squares, each as one row sum; numpy adds each contiguous row
    pairwise, as it adds a lone (m,) array, so the sums keep their bits.
    The block sums of each statistic are kept apart and reduced in block
    order with math.fsum, so each Estimate is bit-identical to a pass that
    computed that statistic alone, for any worker count.  Block b draws
    stream b of the seed from one re-keyed Philox (``rekeyed_streams``);
    a forked worker re-keys its own copy.
    """
    stream = rekeyed_streams(spec.seed)

    def job(b: int, count: int):
        xs = stream(b).standard_normal((count, field.ambient_dim))
        # an overflowing value is refused and an overflowing statistic is
        # inf, which the checkers refuse: neither needs a warning
        with np.errstate(over="ignore", invalid="ignore"):
            mats = field.eval_batch(xs)
            if not np.all(np.isfinite(mats)):
                raise NumericError(f"Monte Carlo: no estimate, the values of the field at the "
                                   f"samples of block {b} are not finite; the model overflows")
            # (k, count), and (0, count) for a pass with no statistic
            v = np.array(per_sample(mats), dtype=float).reshape(-1, count)
            sums = v.sum(axis=1)
            v *= v
            return sums, v.sum(axis=1)

    parts = _map_blocks(spec, job)
    # (blocks, k) arrays of the block sums and of the block sums of squares
    sums, squares = (np.array(x) for x in zip(*parts))
    return [_estimate(spec.n, s1, s2) for s1, s2 in zip(sums.T, squares.T)]


# the exponents whose powers are products of w and sqrt(w)
_PRODUCT_EXPONENTS = frozenset([1.0, 1.5, 2.0, 3.0, 4.0, 6.0])


def _power(w: np.ndarray, e: float) -> np.ndarray:
    """w ** e, formed in one new array (w itself at e = 1): w sqrt(w) at
    1.5, and at 2, 3, 4 and 6 the products w w, w^2 w, (w^2)^2 and
    (w^2 w)^2, each within a few ulp of ``w ** e``; every other exponent,
    huge ones included, takes ``w ** e``."""
    if e == 1.0:
        return w
    if e == 1.5:
        p = np.sqrt(w)
        p *= w
        return p
    if e not in _PRODUCT_EXPONENTS:
        return w ** e
    p = w * w
    if e in (3.0, 6.0):
        p *= w
    if e in (4.0, 6.0):
        p *= p
    return p


def power_sums(w: np.ndarray, exponents) -> list[np.ndarray]:
    """sum_k w[:, k] ** e for each exponent e, one (m,) array per exponent,
    for an (m, d) block of nonnegative values.

    The exponents of _PRODUCT_EXPONENTS take products of w (``_power``):
    numpy's general ``pow`` is several times slower.  Each power lives only
    until its sum is taken, so a block holds one power at a time, in w's
    own layout: d contiguous columns of m for the samples-last eigenvalues
    of ``spectral.batch_eigvalsh`` at d = 3, where each sum adds three
    contiguous rows, and m contiguous rows of d for LAPACK's.  Each row sum
    is one ``einsum``, about three times as fast as ``np.sum(axis=1)`` over
    the short axis of sample-major rows.  On sample-major rows, adding
    columns or a product with a vector of ones was faster still at d = 3,
    but each raised the peak RSS of a two-worker series run by 0.2-0.7 MB
    when the workers were threads; that was not measured again with forked
    workers.
    """
    return [np.einsum("ij->i", _power(w, float(e))) for e in exponents]


def estimate_trace_moment(field, orders, spec: SampleSpec, centers=(None,),
                          thresholds=()) -> list[list[Estimate]]:
    """Estimates of E tr |f(X) - c|^(2q) with CLT intervals, one list per
    centre c of ``centers`` (None for no centre) and one Estimate per order
    q of ``orders`` in each list, all from a single pass: each block is
    drawn and evaluated once and diagonalised once per centre, and every
    order takes its sums from the same eigenvalues.

    ``thresholds`` appends to each list, from the same eigenvalues, one
    Estimate per threshold t of the frequency of ||f(X) - c|| >= t (the mean
    of an indicator; ``estimate_tail`` gives it a Wilson interval).
    """
    orders = [float(q) for q in orders]
    for order in orders:
        if not order >= 1:
            raise DomainError(f"moment order q must be >= 1, got {order}")
    thresholds = [float(t) for t in thresholds]
    centres = list(centers)

    def per_sample(mats):
        out = []
        for c in centres:
            w = np.abs(batch_eigvalsh(mats if c is None else mats - c))
            out += power_sums(w, [2.0 * order for order in orders])
            if thresholds:
                # ascending eigenvalues: the largest |w| is at an end, 70
                # times faster than np.max over the short axis of a block
                dev = np.maximum(w[:, 0], w[:, -1])
                out += [(dev >= t).astype(float) for t in thresholds]
        return out

    estimates = estimate_statistic(spec, field, per_sample)
    width = len(orders) + len(thresholds)
    return [estimates[i * width:(i + 1) * width] for i in range(len(centres))]


def estimate_tail(field, thresholds, spec: SampleSpec, orders=(),
                  centers=(None,)) -> list[list[Estimate]]:
    """Empirical survival P{ |f(X) - c| >= t } with Wilson intervals, one
    pass over the samples: per centre c of ``centers``, one Estimate per
    threshold t (in any order) followed by one Estimate per order of
    ``orders``, read from the same eigenvalues by ``estimate_trace_moment``.
    """
    orders = list(orders)
    k = len(orders)
    out = []
    for ests in estimate_trace_moment(field, orders, spec, centers, thresholds):
        tail = []
        for est in ests[k:]:
            # the indicator sum is an exact integer and the mean its correctly
            # rounded ratio to n, so rounding recovers the count exactly
            count = round(est.value * spec.n)
            lo, hi = wilson_interval(count, spec.n)
            tail.append(Estimate(value=count / spec.n, ci_low=lo, ci_high=hi,
                                 level=LEVEL, n=spec.n))
        out.append(tail + ests[:k])
    return out
