import itertools

import numpy as np
import pytest

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
from tplab.montecarlo import normal_stream

from conftest import dense_product_generator, k_complete, random_field, random_reversible_chain


def scalar_report(chain, vals):
    """The energy report of a real-valued field given by its values."""
    return energy_report(chain, FiniteField.from_scalars(np.asarray(vals, dtype=float)))


def per_trial_ratios(chain, trials, dims, seed):
    """Oracle: the probe's ratios in search order, from one energy report
    per trial and per compression, each with the maximizer record it would
    report."""
    n = chain.n_states
    out = []
    for t in range(trials):
        rng = normal_stream(seed, t)
        d = dims[t % len(dims)]
        raw = rng.standard_normal((n, d, d))
        f = FiniteField(0.5 * (raw + raw.transpose(0, 2, 1)))
        u = rng.choice([-1.0, 1.0], size=d)
        cases = [(f, {"trial": t, "kind": "matrix", "d": d, "field": f.values.tolist()})]
        for i in range(d):
            g = f.values[:, :, i] @ u
            cases.append((FiniteField.from_scalars(g),
                          {"trial": t, "kind": "compression", "d": d, "axis": i,
                           "field": g.tolist()}))
        for field, info in cases:
            rep = energy_report(chain, field)
            var, dirich = float(np.trace(rep.variance)), float(np.trace(rep.dirichlet))
            if dirich > 1e-14:
                out.append((var / dirich, info))
    return out


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
        assert report.to_check("k4").verdict == "SKIPPED"

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

    def test_probe_field_signs_match_choice(self):
        # the sign vector is drawn by indexing, from the same stream values
        # as rng.choice([-1.0, 1.0], size=d)
        for d in range(1, 5):
            for t in range(8):
                vals, u = poincare._probe_field(31, t, 5, d)
                rng = normal_stream(31, t)
                raw = rng.standard_normal((5, d, d))
                assert np.array_equal(vals, 0.5 * (raw + raw.transpose(0, 2, 1)))
                assert np.array_equal(u, rng.choice([-1.0, 1.0], size=d))

    def test_stacked_trials_match_one_trial_per_call(self, monkeypatch):
        chain = random_reversible_chain(np.random.default_rng(263), 27)
        stacked = equivalence_probe(chain, trials=90, dims=[1, 2, 3], seed=7)
        monkeypatch.setattr(poincare, "_PROBE_ENTRIES", 1)
        single = equivalence_probe(chain, trials=90, dims=[1, 2, 3], seed=7)
        assert abs(stacked.sup_ratio - single.sup_ratio) <= 1e-13 * single.sup_ratio
        assert stacked.maximizer == single.maximizer

    def test_chunks_respect_the_entry_bound(self):
        dims = [1, 2, 3] * 7
        for n, bound in ((27, 2 ** 20), (2187, 2 ** 16), (3 ** 12, 2 ** 20), (5, 30)):
            chunks = poincare._probe_chunks(n, dims, bound)
            assert [t for c in chunks for t in c] == list(range(len(dims)))
            for c in chunks:
                entries = sum(n * (dims[t] ** 2 + dims[t]) for t in c)
                assert len(c) == 1 or entries <= bound

    def test_deterministic_given_seed(self, k4):
        a = equivalence_probe(k4, trials=60, dims=[2], seed=21)
        b = equivalence_probe(k4, trials=60, dims=[2], seed=21)
        assert a.sup_ratio == b.sup_ratio and a.maximizer == b.maximizer
        assert a.seed == 21
