import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplab import (
    DimensionError,
    FiniteChain,
    FiniteField,
    ModelError,
    chain_from_graph,
    check_scalar_poincare,
    check_trace_poincare,
    complete_refresh_chain,
    energy_report,
    equivalence_probe,
    poincare_constant,
    product_chain,
    two_state_chain,
    user_certificate,
)

from tplab import poincare
from tplab.energy import column_energies
from tplab.montecarlo import normal_stream

from conftest import dense_product_generator, k_complete, random_field, random_reversible_chain


def scalar_report(chain, vals):
    """The energy report of a real-valued field given by its values."""
    return energy_report(chain, FiniteField.from_scalars(np.asarray(vals, dtype=float)))


def probe_field(seed, t, n, d):
    """Oracle: trial t's symmetrized standard normal field (n, d, d) and its
    sign vector u, drawn from ``normal_stream(seed, t)`` as the probe
    documents it, the signs by ``rng.choice``."""
    rng = normal_stream(seed, t)
    raw = rng.standard_normal((n, d, d))
    return 0.5 * (raw + raw.transpose(0, 2, 1)), rng.choice([-1.0, 1.0], size=d)


def rounding_floor(chain):
    """The probe's floor on a candidate's Dirichlet form per unit of its
    variance: 1e-14 times the chain's largest exit rate."""
    return 1e-14 * chain.factors * np.max(np.abs(np.diag(chain.generator)))


def per_trial_ratios(chain, trials, dims, seed):
    """Oracle: the probe's ratios in search order, from one energy report
    per trial and per compression, each with the maximizer record it would
    report."""
    n = chain.n_states
    out = []
    for t in range(trials):
        d = dims[t % len(dims)]
        vals, u = probe_field(seed, t, n, d)
        f = FiniteField(vals)
        cases = [(f, {"trial": t, "kind": "matrix", "d": d, "field": f.values.tolist()})]
        for i in range(d):
            g = f.values[:, :, i] @ u
            cases.append((FiniteField.from_scalars(g),
                          {"trial": t, "kind": "compression", "d": d, "axis": i,
                           "field": g.tolist()}))
        for field, info in cases:
            rep = energy_report(chain, field)
            var, dirich = float(np.trace(rep.variance)), float(np.trace(rep.dirichlet))
            if dirich > rounding_floor(chain) * var:
                out.append((var / dirich, info))
    return out


def stacked_ratios(chain, trials, dims, seed):
    """Oracle: the probe's (ratio, trial, compression axis or None) in
    search order, from the same runs of trials, each run's columns stacked
    trial by trial from ``probe_field`` and read back one slice per
    candidate: the probe's arithmetic, one trial at a time."""
    n = chain.n_states
    out = []
    runs = []  # (d, trials) per run of at most _PROBE_ENTRIES entries, or one trial
    for r, d in enumerate(dims):
        size = max(1, poincare._PROBE_ENTRIES // (n * (d * d + d)))
        ts = list(range(r, trials, len(dims)))
        runs += [(d, ts[i:i + size]) for i in range(0, len(ts), size)]
    for d, run in runs:
        fields = [probe_field(seed, t, n, d) for t in run]
        var, dirich = column_energies(
            chain, np.hstack([np.hstack([vals.reshape(n, -1), u @ vals]) for vals, u in fields]))
        start = 0
        for t in run:
            k = start + d * d
            candidates = [(var[start:k].sum(), dirich[start:k].sum(), None)]
            candidates += [(var[k + i], dirich[k + i], i) for i in range(d)]
            out += [(float(v / e), t, axis) for v, e, axis in candidates
                    if e > rounding_floor(chain) * v]
            start = k + d
    # runs group trials by their position in dims; a stable sort by trial
    # keeps each trial's candidates in their order
    return sorted(out, key=lambda c: c[1])


class TestPoincareConstant:
    def test_two_state(self, two_state):
        cert = poincare_constant(two_state)
        assert cert.gap == pytest.approx(2.0, abs=1e-12)
        assert cert.alpha == pytest.approx(0.5, abs=1e-12)
        assert cert.method == "SPECTRAL_GAP"
        assert cert.alpha == pytest.approx(1.0 / cert.gap)

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_complete_graph_oracle(self, n):
        # adjacency spectrum of K_n is {n-1, -1^(n-1)}, so the gap of
        # A/(n-1) - I is n/(n-1) and alpha = (n-1)/n
        cert = poincare_constant(chain_from_graph(k_complete(n), n - 1))
        assert cert.alpha == pytest.approx((n - 1) / n, abs=1e-10)

    def test_complete_refresh_alpha_one(self):
        for mu in ([0.5, 0.5], [0.2, 0.3, 0.5], np.full(5, 0.2)):
            cert = poincare_constant(complete_refresh_chain(mu))
            assert cert.alpha == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("c", [2.0, 10.0])
    def test_generator_scaling_divides_alpha(self, c):
        base = poincare_constant(two_state_chain(1.0))
        scaled = poincare_constant(two_state_chain(c))
        assert scaled.alpha == pytest.approx(base.alpha / c, abs=1e-12)

    @pytest.mark.parametrize("c", [1e-12, 1e-15, 1e-300])
    def test_slow_chains_keep_their_gap(self, c):
        # the gap's floor is relative to the spectrum, so L -> cL gives
        # alpha -> alpha / c at any rate; a zero generator has no gap
        assert poincare_constant(two_state_chain(c)).alpha == pytest.approx(0.5 / c, rel=1e-12)
        with pytest.raises(ModelError, match="zero spectral gap"):
            poincare_constant(FiniteChain(np.zeros((2, 2)), [0.5, 0.5]))

    @pytest.mark.parametrize("k", [2, 3])
    def test_product_gap_is_the_factor_gap(self, k):
        # tensorization: the Kronecker sum's gap is its factor's, exactly
        rng = np.random.default_rng(90 + k)
        for _ in range(10):
            base = random_reversible_chain(rng, int(rng.integers(2, 5)))
            prod = product_chain(base, k)
            gap = poincare_constant(prod).gap
            assert gap == pytest.approx(poincare_constant(base).gap, rel=1e-14)
            root = np.sqrt(prod.stationary)
            sym = root[:, None] * dense_product_generator(base, k) / root[None, :]
            dense = np.linalg.eigvalsh(-0.5 * (sym + sym.T))[1]
            assert gap == pytest.approx(dense, rel=1e-10)

    @pytest.mark.parametrize("c", [1e-3, 0.5, 7.0, 1e3])
    def test_base_time_rescaling_divides_product_alpha(self, c):
        rng = np.random.default_rng(97)
        base = random_reversible_chain(rng, 3)
        fast = FiniteChain(c * base.generator, base.stationary)
        alpha = poincare_constant(product_chain(base, 4)).alpha
        assert poincare_constant(product_chain(fast, 4)).alpha == pytest.approx(alpha / c,
                                                                               rel=1e-12)

    def test_disconnected_chain_rejected(self):
        gen = np.zeros((4, 4))
        gen[:2, :2] = [[-1.0, 1.0], [1.0, -1.0]]
        gen[2:, 2:] = [[-1.0, 1.0], [1.0, -1.0]]
        chain = FiniteChain(gen, np.full(4, 0.25))
        with pytest.raises(ModelError, match="gap"):
            poincare_constant(chain)

    def test_user_certificate(self):
        cert = user_certificate(0.25)
        assert cert.method == "USER_SUPPLIED"
        assert cert.gap == pytest.approx(4.0)


class TestScalarCheck:
    def test_constant_passes_with_zero_margin(self, k4):
        cert = poincare_constant(k4)
        r = check_scalar_poincare(k4, scalar_report(k4, np.full(4, 3.0)), cert)
        assert r.passed and r.lhs == 0.0 and r.rhs == 0.0

    def test_two_state_gap_eigenfunction_equality(self, two_state):
        cert = poincare_constant(two_state)
        r = check_scalar_poincare(two_state, scalar_report(two_state, [0.0, 1.0]), cert)
        assert r.passed
        assert abs(r.margin) <= 1e-12
        assert r.lhs == pytest.approx(0.25, abs=1e-15)

    def test_random_sweep_on_k4(self, k4):
        cert = poincare_constant(k4)
        rng = np.random.default_rng(83)
        for _ in range(1000):
            r = check_scalar_poincare(k4, scalar_report(k4, rng.standard_normal(4)), cert)
            assert r.passed

    def test_matrix_field_refused(self, two_state):
        rep = energy_report(two_state, FiniteField(np.zeros((2, 2, 2))))
        with pytest.raises(DimensionError, match="1 x 1"):
            check_scalar_poincare(two_state, rep, poincare_constant(two_state))

    def test_report_shape(self, two_state):
        cert = poincare_constant(two_state)
        r = check_scalar_poincare(two_state, scalar_report(two_state, [0.0, 1.0]), cert)
        assert r.citation == "scalar-poincare"
        assert r.margin == r.rhs - r.lhs
        assert r.context["alpha"] == pytest.approx(0.5)


class TestTraceCheck:
    def test_constant_zero_margin(self, cycle4):
        cert = poincare_constant(cycle4)
        f = FiniteField(np.broadcast_to(np.eye(2), (4, 2, 2)).copy())
        r = check_trace_poincare(cycle4, energy_report(cycle4, f), cert)
        assert r.passed and r.margin == 0.0

    def test_d1_matches_scalar_verdicts(self, k4):
        cert = poincare_constant(k4)
        rng = np.random.default_rng(89)
        for _ in range(200):
            vals = rng.standard_normal(4)
            scalar = check_scalar_poincare(k4, scalar_report(k4, vals), cert)
            trace = check_trace_poincare(k4, scalar_report(k4, vals), cert)
            assert scalar.passed == trace.passed
            assert trace.lhs == pytest.approx(scalar.lhs, abs=1e-14)

    def test_diagonal_field_margin_adds(self, k4):
        cert = poincare_constant(k4)
        rng = np.random.default_rng(97)
        comps = rng.standard_normal((3, 4))  # three scalar fields
        diag = FiniteField(np.stack([np.diag(comps[:, z]) for z in range(4)]))
        total = check_trace_poincare(k4, energy_report(k4, diag), cert)
        margins = [check_scalar_poincare(k4, scalar_report(k4, comps[i]), cert).margin
                   for i in range(3)]
        assert total.margin == pytest.approx(sum(margins), abs=1e-12)

    def test_property_sweep_all_chains(self, two_state, k4, cycle4):
        rng = np.random.default_rng(101)
        for chain in (two_state, k4, cycle4):
            cert = poincare_constant(chain)
            for _ in range(1000):
                f = random_field(rng, chain.n_states, int(rng.integers(1, 5)))
                assert check_trace_poincare(chain, energy_report(chain, f), cert).passed


class TestEquivalenceProbe:
    def test_two_state_sign_fields_exhaustive(self, two_state):
        # on the two-state chain every non-constant field is a gap
        # eigenfunction plus a constant, so the ratio is exactly 1/2
        for vals in itertools.product([-1.0, 1.0], repeat=2):
            if vals[0] == vals[1]:
                continue
            rep = scalar_report(two_state, vals)
            ratio = np.trace(rep.variance) / np.trace(rep.dirichlet)
            assert ratio == pytest.approx(0.5, abs=1e-14)

    def test_two_state_probe_attains_alpha(self, two_state):
        report = equivalence_probe(two_state, trials=50, dims=[1, 2], seed=5)
        assert report.to_check().verdict == "PASS"
        assert report.sup_ratio == pytest.approx(0.5, abs=1e-12)

    def test_k4_sup_below_alpha(self, k4):
        report = equivalence_probe(k4, trials=400, dims=[1, 2, 3], seed=11)
        assert report.to_check().verdict == "PASS"
        assert report.sup_ratio <= 0.75 * (1 + 1e-9)
        assert report.maximizer is not None

    def test_zero_trials_vacuous(self, k4):
        report = equivalence_probe(k4, trials=0, dims=[1], seed=1)
        assert report.sup_ratio is None
        row = report.to_check("k4")
        assert row.verdict == "SKIPPED"
        assert (row.context["trials"], row.context["reason"]) == (0, "no trials")

    def test_slow_chain_keeps_its_trials(self):
        # the floor on a candidate's Dirichlet form scales with the rates:
        # at rate 1e-15 every field of the two-state chain still attains alpha
        chain = two_state_chain(1e-15)
        cert = poincare_constant(chain)
        row = equivalence_probe(chain, trials=6, dims=[1, 2], seed=5, cert=cert).to_check()
        assert row.verdict == "PASS" and row.context["trials"] == 6
        assert row.lhs == pytest.approx(cert.alpha, rel=1e-9)

    def test_skipped_row_records_its_trials(self):
        # a chain that never moves gives every candidate a zero Dirichlet
        # form: the row is SKIPPED, and says how many trials ran and why
        frozen = FiniteChain(np.zeros((2, 2)), [0.5, 0.5])
        report = equivalence_probe(frozen, trials=6, dims=[1, 2], seed=5,
                                   cert=user_certificate(1.0))
        row = report.to_check("frozen")
        assert row.verdict == "SKIPPED" and row.context["trials"] == 6
        assert "rounding floor" in row.context["reason"]

    def test_caller_certificate_is_used(self, k4):
        own = equivalence_probe(k4, trials=30, dims=[1, 2], seed=3)
        shared = equivalence_probe(k4, trials=30, dims=[1, 2], seed=3,
                                   cert=poincare_constant(k4))
        assert shared == own
        tight = equivalence_probe(k4, trials=30, dims=[1, 2], seed=3,
                                  cert=user_certificate(0.5))
        assert tight.alpha == 0.5 and tight.to_check().verdict == "FAIL"

    def test_matches_per_trial_oracle(self, two_state, k4):
        # on a two-state chain and on K4 every field attains alpha, so the
        # ratios tie; the maximizer is the first within the probe's relative
        # slack 1e-9 of the supremum, there as elsewhere
        rng = np.random.default_rng(257)
        chains = [two_state, k4] + [random_reversible_chain(rng, n, 10.0 ** e)
                                    for n, e in ((2, 0), (3, -3), (5, 0), (8, 3))]
        for chain in chains:
            for seed, dims in ((11, [1, 2, 3]), (12, [2]), (13, [3, 1])):
                report = equivalence_probe(chain, trials=60, dims=dims, seed=seed)
                ratios = per_trial_ratios(chain, 60, dims, seed)
                sup = max(r for r, _ in ratios)
                assert abs(report.sup_ratio - sup) <= 1e-11 * sup
                ties = [info for r, info in ratios if r >= sup * (1 - 1e-9)]
                assert report.maximizer == ties[0]
                if chain.n_states > 2 and chain is not k4:
                    assert abs(report.sup_ratio - sup) <= 1e-13 * sup

    @settings(max_examples=60, deadline=None)
    @given(chain_seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 6),
           scale=st.integers(-3, 3),
           dims=st.lists(st.integers(1, 3), min_size=1, max_size=4),
           trials=st.integers(1, 30), seed=st.integers(0, 2 ** 64 - 1),
           entries=st.sampled_from([1, 20, 60, 150, 2 ** 14]))
    def test_bulk_probe_matches_per_trial_oracles(self, chain_seed, n, scale, dims, trials,
                                                  seed, entries):
        # dims may repeat a dimension and need not divide the trial count,
        # and small chunks end inside a run of same-dimension trials
        chain = random_reversible_chain(np.random.default_rng(chain_seed), n, 10.0 ** scale)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poincare, "_PROBE_ENTRIES", entries)
            report = equivalence_probe(chain, trials, dims, seed)
            stacked = stacked_ratios(chain, trials, dims, seed)
        sup = max(r for r, _, _ in stacked)
        _, t, axis = next(c for c in stacked if c[0] >= sup * (1 - 1e-9))
        assert report.sup_ratio == sup
        assert (report.maximizer["trial"], report.maximizer.get("axis")) == (t, axis)
        # the energy-report oracle sums the trace in another order
        ratios = per_trial_ratios(chain, trials, dims, seed)
        top = max(r for r, _ in ratios)
        assert abs(report.sup_ratio - top) <= 1e-13 * top
        assert report.maximizer == next(info for r, info in ratios if r >= top * (1 - 1e-9))

    def test_one_philox_per_probe(self, k4, monkeypatch):
        # trials re-key one bit generator, and the maximizer's redraw reuses it
        built = []
        real = np.random.Philox

        def counted(*args, **kwargs):
            built.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        report = equivalence_probe(k4, trials=400, dims=[1, 2, 3], seed=17)
        assert report.maximizer is not None
        assert len(built) == 1

    def test_probe_field_signs_match_choice(self):
        # a block holds each trial's symmetrized field and its compressions
        # u @ f, with u drawn from the same stream values as
        # rng.choice([-1.0, 1.0], size=d)
        for d in range(1, 5):
            block = poincare._probe_block(functools.partial(normal_stream, 31), range(8), 5, d)
            assert block.shape == (5, 8, d * d + d)
            for t in range(8):
                vals, u = probe_field(31, t, 5, d)
                assert np.array_equal(block[:, t, :d * d].reshape(5, d, d), vals)
                assert np.array_equal(block[:, t, d * d:], u @ vals)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1), st.integers(1, 8),
           st.integers(0, 300))
    def test_signs_from_raw_words_match_integers(self, seed, t, d, normals):
        # the probe reads its signs from raw words; this pins them to what
        # Generator.integers(0, 2) draws after a normal draw of any size,
        # so a change in how numpy bounds its integers fails here
        rng = normal_stream(seed, t)
        rng.standard_normal(normals)
        want = rng.integers(0, 2, size=d)
        rng = normal_stream(seed, t)
        rng.standard_normal(normals)
        got = poincare._signs(poincare._sign_words(rng, d), d)
        np.testing.assert_array_equal(got, np.array([-1.0, 1.0])[want])

    def test_stacked_trials_match_one_trial_per_call(self, monkeypatch):
        chain = random_reversible_chain(np.random.default_rng(263), 27)
        stacked = equivalence_probe(chain, trials=90, dims=[1, 2, 3], seed=7)
        monkeypatch.setattr(poincare, "_PROBE_ENTRIES", 1)
        single = equivalence_probe(chain, trials=90, dims=[1, 2, 3], seed=7)
        assert abs(stacked.sup_ratio - single.sup_ratio) <= 1e-13 * single.sup_ratio
        assert stacked.maximizer == single.maximizer

    def test_chunks_respect_the_entry_bound(self, monkeypatch):
        # each column_energies call holds the block of one run: trials of one
        # dimension, at most the bound's entries unless it is one trial, and
        # every trial in exactly one run
        base = complete_refresh_chain(np.full(3, 1.0 / 3.0))
        dims = [1, 2, 3]
        real_block = poincare._probe_block
        blocks, calls = [], []

        def block(stream, trials, n, d):
            blocks.append((list(trials), d))
            return real_block(stream, trials, n, d)

        def energies(chain, cols):
            calls.append((blocks[-1], cols.shape))
            return np.ones(cols.shape[1]), np.ones(cols.shape[1])

        monkeypatch.setattr(poincare, "_probe_block", block)
        monkeypatch.setattr(poincare, "column_energies", energies)
        for k, bound in ((3, 2 ** 20), (7, 2 ** 16), (12, 2 ** 20), (1, 30)):
            chain = product_chain(base, k)
            n = chain.n_states
            monkeypatch.setattr(poincare, "_PROBE_ENTRIES", bound)
            blocks.clear()
            calls.clear()
            equivalence_probe(chain, 21, dims, seed=2, cert=user_certificate(1.0))
            seen = []
            for (trials, d), shape in calls:
                assert {dims[t % len(dims)] for t in trials} == {d}
                assert shape == (n, len(trials) * (d * d + d))
                assert len(trials) == 1 or n * shape[1] <= bound
                seen += trials
            assert sorted(seen) == list(range(21))
            # and the maximizer's redraw is one block of one trial
            assert len(blocks) == len(calls) + 1 and len(blocks[-1][0]) == 1

    def test_deterministic_given_seed(self, k4):
        a = equivalence_probe(k4, trials=60, dims=[2], seed=21)
        b = equivalence_probe(k4, trials=60, dims=[2], seed=21)
        assert a.sup_ratio == b.sup_ratio and a.maximizer == b.maximizer
        assert a.seed == 21
