import ast
import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tplab import (
    DomainError,
    GaussianSeries,
    NumericError,
    SampleSpec,
    SmoothField,
    estimate_tail,
    estimate_trace_moment,
    montecarlo,
    normal_stream,
    wilson_interval,
)
from tplab.montecarlo import (
    BLOCK,
    draw_standard_normal,
    estimate_statistic,
    normal_quantile,
    power_sums,
    rekeyed_streams,
)

from conftest import moment, source_uses


def scalar_series(a=1.0):
    return GaussianSeries(np.array([[[float(a)]]])).as_field()


ZERO = [np.zeros((1, 1))]


class TestStreams:
    def test_replay_is_identical(self):
        a = normal_stream(123, 4).standard_normal(16)
        b = normal_stream(123, 4).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        a = normal_stream(123, 0).standard_normal(16)
        b = normal_stream(123, 1).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_draw_indexing_deterministic(self):
        s = normal_stream(9, 2)
        first = s.standard_normal(8)
        again = normal_stream(9, 2).standard_normal(8)
        np.testing.assert_array_equal(first, again)

    def test_mean_within_clt_band(self):
        xs = normal_stream(7, 0).standard_normal((10 ** 6, 3))
        assert np.max(np.abs(xs.mean(axis=0))) <= 4.0 / math.sqrt(10 ** 6)

    def test_covariance_near_identity(self):
        xs = normal_stream(8, 0).standard_normal((10 ** 6, 4))
        cov = xs.T @ xs / xs.shape[0]
        assert np.linalg.norm(cov - np.eye(4)) <= 0.01 * np.linalg.norm(np.eye(4))


class TestRekeyedStreams:
    """rekeyed_streams(seed)(t) draws what normal_stream(seed, t) draws."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(-2 ** 66, 2 ** 130), stream=st.integers(-2 ** 66, 2 ** 130))
    @example(seed=2 ** 64 + 5, stream=2 ** 64 - 1)
    @example(seed=2 ** 64 - 1, stream=2 ** 64)
    @example(seed=-1, stream=3 * 2 ** 64 + 7)
    def test_masked_like_normal_stream(self, seed, stream):
        # seeds and stream indices beyond 64 bits keep their low 64 bits
        want = normal_stream(seed, stream).standard_normal(17)
        np.testing.assert_array_equal(rekeyed_streams(seed)(stream).standard_normal(17), want)

    def test_cached_uint32_is_dropped(self):
        # an odd-length integers draw leaves half of a 64-bit output cached;
        # the next stream must not start from it
        at = rekeyed_streams(41)
        rng = at(0)
        rng.integers(0, 2, size=3)
        assert rng.bit_generator.state["has_uint32"] == 1
        for t in (1, 0, 1):
            fresh = normal_stream(41, t)
            np.testing.assert_array_equal(at(t).integers(0, 2, size=5),
                                          fresh.integers(0, 2, size=5))
            at(t).standard_normal(3)  # leaves a partly read buffer behind

    def test_probe_order_of_draws(self):
        # a trial draws its (n, d, d) field, then its d signs
        at = rekeyed_streams(31)
        for t, (n, d) in enumerate([(5, 1), (4, 3), (27, 2), (3, 3), (1, 1), (8, 4)]):
            rng, fresh = at(t), normal_stream(31, t)
            np.testing.assert_array_equal(rng.standard_normal((n, d, d)),
                                          fresh.standard_normal((n, d, d)))
            np.testing.assert_array_equal(rng.integers(0, 2, size=d),
                                          fresh.integers(0, 2, size=d))
            np.testing.assert_array_equal(rng.random(3), fresh.random(3))


class TestSampleSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            SampleSpec(n=0, seed=1)
        with pytest.raises(DomainError):
            SampleSpec(n=10, seed=1, workers=0)


class TestTraceMoment:
    def test_zero_field_zero_width(self):
        est = moment(scalar_series(0.0), 1, SampleSpec(n=1000, seed=2))
        assert est.value == 0.0 and est.ci_low == 0.0 and est.ci_high == 0.0

    def test_one_sample_has_no_interval(self):
        # a single draw has no spread to measure, not a zero one
        for a in (0.0, 1.7):
            est = moment(scalar_series(a), 1, SampleSpec(n=1, seed=2))
            assert (est.ci_low, est.ci_high) == (-math.inf, math.inf)

    def test_second_moment_oracle(self):
        a = 1.7
        est = moment(scalar_series(a), 1, SampleSpec(n=100000, seed=3))
        assert est.ci_low <= a ** 2 <= est.ci_high

    def test_fourth_moment_oracle(self):
        a = 1.7
        est = moment(scalar_series(a), 2, SampleSpec(n=100000, seed=3))
        assert est.ci_low <= 3 * a ** 4 <= est.ci_high

    def test_orthogonal_conjugation_invariance(self):
        rng = np.random.default_rng(15)
        coefs = rng.standard_normal((3, 4, 4))
        coefs = 0.5 * (coefs + coefs.transpose(0, 2, 1))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        spec = SampleSpec(n=20000, seed=77)
        base = moment(GaussianSeries(coefs).as_field(), 2, spec)
        conj = moment(
            GaussianSeries(np.einsum("ab,kbc,dc->kad", q, coefs, q)).as_field(), 2, spec)
        assert conj.value == pytest.approx(base.value, abs=1e-12 * (1 + abs(base.value)))

    def test_worker_count_does_not_change_bits(self):
        f = scalar_series(1.3)
        one = moment(f, 2, SampleSpec(n=50000, seed=5, workers=1))
        four = moment(f, 2, SampleSpec(n=50000, seed=5, workers=4))
        assert one == four

    def test_tpl_threads_env_caps_workers(self, monkeypatch):
        f = scalar_series(1.3)
        base = moment(f, 2, SampleSpec(n=50000, seed=5, workers=1))
        monkeypatch.setenv("TPL_THREADS", "1")
        started = fake_workers(monkeypatch)
        capped = moment(f, 2, SampleSpec(n=50000, seed=5, workers=8))
        assert capped == base
        assert started == []

    def test_q_below_one_rejected(self):
        with pytest.raises(DomainError):
            moment(scalar_series(), 0.5, SampleSpec(n=100, seed=1))
        with pytest.raises(DomainError):
            estimate_trace_moment(scalar_series(), [1, 0.5], SampleSpec(n=100, seed=1))

    def test_nan_order_rejected(self):
        # NaN < 1 is false, so the order check has to be phrased as q >= 1
        with pytest.raises(DomainError):
            estimate_trace_moment(scalar_series(), [1, math.nan], SampleSpec(n=100, seed=1))


def fake_workers(monkeypatch, cpus=None):
    """Replace the fork context's Process with a fake that runs in this
    process; returns the list of the fakes started.  ``cpus`` sets the CPUs
    that the scheduler lets this process use."""
    started = []

    class FakeProcess:
        def __init__(self, target, args, daemon):
            self.target, self.args = target, args

        def start(self):
            started.append(self)
            self.target(*self.args)

        def terminate(self):
            pass

        def join(self):
            pass

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Process", FakeProcess)
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return started


class TestForkedWorkers:
    @pytest.mark.parametrize("workers, cpus, n, forked", [
        # a million workers used to cost nothing, as threads were lazy
        (10 ** 6, 64, 3 * BLOCK, 3),
        (10 ** 6, 2, 10 * BLOCK, 2),
        (3, 64, 10 * BLOCK, 3),
        # one block, or one usable CPU, runs the serial loop
        (4, 64, BLOCK, 0),
        (4, 1, 10 * BLOCK, 0),
    ])
    def test_process_count_is_capped(self, monkeypatch, workers, cpus, n, forked):
        f = scalar_series(0.7)
        base = moment(f, 2, SampleSpec(n=n, seed=9))
        started = fake_workers(monkeypatch, cpus)
        assert moment(f, 2, SampleSpec(n=n, seed=9, workers=workers)) == base
        assert len(started) == forked

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        # the fork path, whatever this machine's CPU count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def test_results_come_back_in_block_order(self, two_cpus):
        spec = SampleSpec(n=5 * BLOCK + 7, seed=3, workers=2)
        got = montecarlo._map_blocks(spec, lambda b, c: (b, c))
        assert got == montecarlo._block_plan(spec.n)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lowest_failing_block_raises(self, two_cpus, workers):
        # blocks 1 and 2 fail, in the second share and the first; block 1's
        # error is raised, as in the serial loop, and no child outlives the
        # pass
        def job(b, count):
            if b in (1, 2):
                raise NumericError(f"block {b}")
            return b

        with pytest.raises(NumericError, match="^block 1$"):
            montecarlo._map_blocks(SampleSpec(n=4 * BLOCK, seed=1, workers=workers), job)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="workers fork")
    def test_dead_worker_is_an_error_not_a_wait(self, two_cpus):
        parent = os.getpid()

        def job(b, count):
            if b == 1 and os.getpid() != parent:
                os._exit(3)
            return b

        with pytest.raises(ChildProcessError, match="worker 1 of 2 exited with code 3"):
            montecarlo._map_blocks(SampleSpec(n=4 * BLOCK, seed=1, workers=2), job)
        assert multiprocessing.active_children() == []


class TestFusedPass:
    ORDERS = [1, 1.5, 2, 3]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("centred", [False, True])
    def test_each_order_matches_its_own_pass_bit_for_bit(self, workers, reverse, centred):
        rng = np.random.default_rng(211)
        coefs = rng.standard_normal((4, 3, 3))
        f = GaussianSeries(0.5 * (coefs + coefs.transpose(0, 2, 1))).as_field()
        center = np.diag([0.5, -0.25, 1.0]) if centred else None
        # 10,000 samples span three blocks, the last one short; the orders
        # may come in any order
        spec = SampleSpec(n=10000, seed=17, workers=workers)
        orders = self.ORDERS[::-1] if reverse else self.ORDERS
        (fused,) = estimate_trace_moment(f, orders, spec, centers=[center])
        assert len(fused) == len(orders)
        for q, est in zip(orders, fused):
            assert est == moment(f, q, spec, center)

    def test_one_evaluation_per_block(self):
        calls = []
        base = scalar_series(1.0)

        def counted(xs):
            calls.append(len(xs))
            return base.eval_batch(xs)

        f = SmoothField(ambient_dim=1, dim=1, batch=counted)
        estimate_trace_moment(f, self.ORDERS, SampleSpec(n=10000, seed=3))
        assert calls == [4096, 4096, 1808]

    def test_statistics_list_in_estimates_list_out(self):
        f = scalar_series(2.0)
        spec = SampleSpec(n=5000, seed=8)
        ests = estimate_statistic(spec, f, lambda mats: [mats[:, 0, 0], mats[:, 0, 0] ** 2])
        assert len(ests) == 2
        assert ests[0].ci_low <= 0.0 <= ests[0].ci_high
        assert ests[1].ci_low <= 4.0 <= ests[1].ci_high
        # no statistic (an empty lambda_grid, say) is no Estimate, not an error
        assert estimate_statistic(spec, f, lambda mats: []) == []

    def test_series_second_moment_closed_form(self):
        # E tr f^2 = tr sum_i A_i^2 for f = sum_i X_i A_i
        rng = np.random.default_rng(223)
        coefs = rng.standard_normal((5, 3, 3))
        series = GaussianSeries(0.5 * (coefs + coefs.transpose(0, 2, 1)))
        a = series.coefficients
        exact = float(np.trace(np.einsum("kij,kjl->il", a, a)))
        est = moment(series.as_field(), 1, SampleSpec(n=100000, seed=29))
        assert est.level == 0.99
        assert est.ci_low <= exact <= est.ci_high


# the moment orders q, read at exponent 2q from f and at exponent q from Gamma
_ORDERS = [1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 7.0]
_EXPONENTS = sorted({e for q in _ORDERS for e in (q, 2.0 * q)})
_TINY = np.nextafter(0.0, 1.0)
_EDGES = [0.0, _TINY, 1e-310, np.finfo(float).tiny, 1e-160, 1e-100, 1.0, 1e51, 1e77, 1e103,
          math.inf]


class TestPowerSums:
    """The moment kernel against np.sum(w ** e, axis=1)."""

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 9)),
                  elements=st.sampled_from(_EDGES) | st.floats(0.0, 1e120)))
    def test_matches_pow_and_sum(self, w):
        tol = 16 * np.finfo(float).eps
        big = np.finfo(float).max / (1.0 + tol)
        with np.errstate(over="ignore", invalid="ignore"):
            got = power_sums(w, _EXPONENTS)
            for e, g in zip(_EXPONENTS, got):
                r = np.sum(w ** e, axis=1)
                assert g.shape == r.shape == (w.shape[0],)
                # a power within a few ulp of the largest float may round
                # to inf on one side only
                edge = (np.isinf(g) != np.isinf(r)) & (np.minimum(g, r) >= big)
                close = np.abs(g - r) <= tol * r + w.shape[1] * 4 * _TINY
                assert np.all((g == r) | edge | close), e

    def test_products_and_the_general_power(self, monkeypatch):
        # only the orders outside _PRODUCT_EXPONENTS reach numpy's pow
        w = np.abs(np.random.default_rng(5).standard_normal((7, 3)))
        pows = []

        class Spy(np.ndarray):
            def __pow__(self, e):
                pows.append(e)
                return np.asarray(self) ** e

        power_sums(w.view(Spy), _EXPONENTS)
        assert sorted(pows) == [1.25, 2.5, 5.0, 7.0, 14.0]

    def test_exact_where_pow_is(self):
        w = np.array([[0.0, 1.0, 2.0], [0.5, 4.0, 0.25]])
        for e, got in zip(_EXPONENTS, power_sums(w, _EXPONENTS)):
            np.testing.assert_array_equal(got, np.sum(w ** e, axis=1))


def counting_field(field, calls):
    """``field`` with every batch evaluation counted in ``calls``, a
    ``multiprocessing.Value`` that forked workers share."""

    def batch(xs):
        with calls.get_lock():
            calls.value += 1
        return field.eval_batch(xs)

    return SmoothField(ambient_dim=field.ambient_dim, dim=field.dim, batch=batch)


def series_field(seed, n=4, d=3):
    coefs = np.random.default_rng(seed).standard_normal((n, d, d))
    return GaussianSeries(0.5 * (coefs + coefs.transpose(0, 2, 1))).as_field()


class TestSharedPass:
    ORDERS = [1, 1.5, 2, 3]
    THRESHOLDS = [0.5, 1.0, 2.0, 4.0]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_centres_share_draws_and_match_their_own_passes(self, workers, reverse):
        f = series_field(227)
        centres = [np.diag([0.5, -0.25, 1.0]), None]
        if reverse:
            centres.reverse()
        spec = SampleSpec(n=10000, seed=19, workers=workers)
        calls = multiprocessing.Value("i", 0)
        both = estimate_trace_moment(counting_field(f, calls), self.ORDERS, spec,
                                     centers=centres)
        assert both == [estimate_trace_moment(f, self.ORDERS, spec, centers=[c])[0]
                        for c in centres]
        # one evaluation per block
        assert calls.value == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tail_and_moments_from_one_pass(self, workers):
        f = series_field(229)
        spec = SampleSpec(n=10000, seed=23, workers=workers)
        calls = multiprocessing.Value("i", 0)
        (shared,) = estimate_tail(counting_field(f, calls), self.THRESHOLDS, spec,
                                  orders=self.ORDERS)
        assert calls.value == 3
        k = len(self.THRESHOLDS)
        assert shared[:k] == estimate_tail(f, self.THRESHOLDS, spec,
                                           centers=[np.zeros((3, 3))])[0]
        assert shared[k:] == estimate_trace_moment(f, self.ORDERS, spec)[0]

    def test_tail_at_several_centres(self):
        f = series_field(233)
        center = np.eye(3)
        spec = SampleSpec(n=10000, seed=29)
        got = estimate_tail(f, self.THRESHOLDS, spec, orders=[2], centers=[center, None])
        assert got == [estimate_tail(f, self.THRESHOLDS, spec, orders=[2], centers=[center])[0],
                       estimate_tail(f, self.THRESHOLDS, spec, orders=[2])[0]]


class TestTail:
    def test_threshold_zero_survival_one(self):
        (ests,) = estimate_tail(scalar_series(), [0.0], SampleSpec(n=5000, seed=4),
                                centers=ZERO)
        assert ests[0].value == 1.0

    def test_monotone_in_threshold(self):
        (ests,) = estimate_tail(scalar_series(), [0.0, 0.5, 1.0, 2.0],
                                SampleSpec(n=20000, seed=4), centers=ZERO)
        vals = [e.value for e in ests]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_normal_two_sided_oracle(self):
        # P(|X| >= 1.96) ~ 0.05 for a standard normal
        (ests,) = estimate_tail(scalar_series(), [1.96], SampleSpec(n=100000, seed=6),
                                centers=ZERO)
        assert ests[0].ci_low <= 0.05 <= ests[0].ci_high

    def test_thresholds_in_any_order(self):
        # each threshold is its own indicator: a reversed list gives the
        # same estimates in reversed order
        spec = SampleSpec(n=10000, seed=1)
        (up,) = estimate_tail(scalar_series(), [0.5, 1.0, 2.0], spec)
        (down,) = estimate_tail(scalar_series(), [2.0, 1.0, 0.5], spec)
        assert down == up[::-1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_equal_a_direct_count(self, workers):
        # n is not a multiple of BLOCK: the last block is short; the d = 3
        # case counts the indicators of the closed-form spectra against LAPACK
        n = 3 * BLOCK + 517
        thresholds = [0.0, 0.5, 1.0, 1.5, 2.5, 4.0]
        spec = SampleSpec(n=n, seed=31, workers=workers)
        cases = [(series_field(239, d=2), np.diag([0.3, -0.3])),
                 (series_field(241, d=3), np.diag([0.3, -0.3, 0.1]))]
        for f, center in cases:
            mats = f.eval_batch(draw_standard_normal(spec, f.ambient_dim)) - center
            dev = np.max(np.abs(np.linalg.eigvalsh(mats)), axis=1)
            for t, est in zip(thresholds,
                              estimate_tail(f, thresholds, spec, centers=[center])[0]):
                k = int(np.count_nonzero(dev >= t))
                assert est.value == k / n
                assert (est.ci_low, est.ci_high) == wilson_interval(k, n)

    def test_worker_invariance(self):
        one = estimate_tail(scalar_series(), [1.0, 2.0], SampleSpec(n=30000, seed=8, workers=1),
                            centers=ZERO)
        four = estimate_tail(scalar_series(), [1.0, 2.0], SampleSpec(n=30000, seed=8, workers=4),
                             centers=ZERO)
        assert one == four


class TestNormalQuantile:
    # scipy.stats.norm.ppf(0.5 * (1 + level)), written out so that the test
    # needs no scipy
    @pytest.mark.parametrize("level, z", [
        (0.9, 1.6448536269514722),
        (0.95, 1.959963984540054),
        (0.99, 2.5758293035489004),
        (0.999, 3.2905267314919255),
    ])
    def test_matches_reference_values(self, level, z):
        assert abs(normal_quantile(level) - z) <= 4 * math.ulp(z)

    def test_wilson_interval_uses_it(self):
        z, p, n = 2.5758293035489004, 0.3, 1000
        denom = 1.0 + z * z / n
        center = (p + z * z / (2.0 * n)) / denom
        spread = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
        lo, hi = wilson_interval(300, n)
        assert lo == pytest.approx(center - spread, rel=1e-15)
        assert hi == pytest.approx(center + spread, rel=1e-15)


class TestWilson:
    def test_basic_properties(self):
        lo, hi = wilson_interval(50, 100)
        assert 0.0 <= lo <= 0.5 <= hi <= 1.0
        assert wilson_interval(0, 0) == (0.0, 1.0)
        lo0, hi0 = wilson_interval(0, 1000)
        assert lo0 == 0.0 and hi0 > 0.0

    @pytest.mark.parametrize("p", [0.5, 0.1, 0.01])
    def test_coverage_calibration(self, p):
        # 500 repetitions of Bernoulli(p) batteries at N=10^4; the 99%
        # interval must cover the truth in at least 97% of them
        rng = np.random.default_rng(12321)
        n, reps = 10 ** 4, 500
        ks = rng.binomial(n, p, size=reps)
        covered = 0
        for k in ks:
            lo, hi = wilson_interval(int(k), n)
            covered += lo <= p <= hi
        assert covered / reps >= 0.97


ESTIMATORS = ("estimate_statistic", "estimate_trace_moment", "estimate_tail")


def estimator_calls(node):
    """The Monte Carlo estimator a call node calls, by bare name or as an
    attribute."""
    if isinstance(node, ast.Call):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in ESTIMATORS:
            yield name


def test_monte_carlo_passes_are_made_in_one_place_each():
    # one pass per sample stream: outside montecarlo.py only the run's
    # gaussian_pass (the f-stream) and chaos_gamma_moments (the Gamma
    # stream) call an estimator
    calls = {use for use in source_uses(estimator_calls) if use[0] != "montecarlo.py"}
    assert calls == {("bounds.py", "gaussian_pass", "estimate_tail"),
                     ("bounds.py", "gaussian_pass", "estimate_trace_moment"),
                     ("bounds.py", "chaos_gamma_moments", "estimate_statistic")}
