import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplab import (
    CapacityError,
    DimensionError,
    DomainError,
    FiniteChain,
    FiniteField,
    GaussianChaos,
    GaussianSeries,
    ModelError,
    chain_from_graph,
    chain_from_json,
    chaos_as_field,
    complete_refresh_chain,
    product_chain,
    series_as_field,
    two_state_chain,
)
from tplab.models import _packed, chaos_values, component_count

from conftest import (
    cycle_adjacency,
    dense_product_generator,
    k_complete,
    random_reversible_chain,
)


def spectral_gap(chain, generator=None):
    """The gap of ``generator`` (by default the chain's own) against the
    chain's stationary measure, from a dense symmetric eigensolve."""
    gen = chain.generator if generator is None else generator
    root = np.sqrt(chain.stationary)
    sym = (root[:, None] * gen) / root[None, :]
    w = np.linalg.eigvalsh(-0.5 * (sym + sym.T))
    return w[1]


class TestFiniteChainInvariants:
    def test_rows_must_sum_to_zero(self):
        with pytest.raises(ModelError, match="sum to 0"):
            FiniteChain([[-1.0, 0.5], [1.0, -1.0]], [0.5, 0.5])

    def test_negative_rate_rejected(self):
        with pytest.raises(ModelError, match="nonnegative"):
            FiniteChain([[1.0, -1.0], [-1.0, 1.0]], [0.5, 0.5])

    def test_detailed_balance_enforced(self):
        gen = np.array([[-2.0, 2.0], [1.0, -1.0]])
        with pytest.raises(ModelError, match="detailed balance"):
            FiniteChain(gen, [0.5, 0.5])
        # the same generator is reversible for mu = (1/3, 2/3)
        chain = FiniteChain(gen, [1.0 / 3.0, 2.0 / 3.0])
        assert chain.n_states == 2

    def test_stationary_must_be_positive_probability(self):
        gen = [[-1.0, 1.0], [1.0, -1.0]]
        with pytest.raises(ModelError):
            FiniteChain(gen, [1.0, 0.0])
        with pytest.raises(ModelError):
            FiniteChain(gen, [0.7, 0.7])

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_valid_chains_accepted_at_every_rate_scale(self, scale):
        rng = np.random.default_rng(43)
        for _ in range(200):
            assert random_reversible_chain(rng, 4, scale).n_states == 4

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_tolerances_follow_the_rate_scale(self, scale):
        # a defect of 1e-9 relative to the rates is rejected at every scale
        off = scale * (1.0 + 1e-9)
        with pytest.raises(ModelError, match="sum to 0"):
            FiniteChain([[-scale, off], [scale, -scale]], [0.5, 0.5])
        with pytest.raises(ModelError, match="detailed balance"):
            FiniteChain([[-off, off], [scale, -scale]], [0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ModelError, match="finite"):
            FiniteChain([[-1.0, 1.0], [1.0, bad]], [0.5, 0.5])
        with pytest.raises(ModelError, match="finite"):
            FiniteChain([[-1.0, 1.0], [1.0, -1.0]], [0.5, bad])

    def test_arrays_immutable(self, two_state):
        with pytest.raises(ValueError):
            two_state.generator[0, 0] = 3.0


class TestChainFromGraph:
    def test_complete_graph_k2(self):
        chain = chain_from_graph(k_complete(2), 1)
        np.testing.assert_allclose(chain.generator, [[-1, 1], [1, -1]])
        np.testing.assert_allclose(chain.stationary, [0.5, 0.5])

    def test_complete_graph_k4(self):
        chain = chain_from_graph(k_complete(4), 3)
        np.testing.assert_allclose(chain.generator, k_complete(4) / 3 - np.eye(4))
        np.testing.assert_allclose(chain.stationary, np.full(4, 0.25))

    def test_cycle_detailed_balance_uniform(self):
        chain = chain_from_graph(cycle_adjacency(4), 2)
        flux = chain.stationary[:, None] * chain.generator
        assert np.max(np.abs(flux - flux.T)) <= 1e-12

    def test_not_regular_rejected(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = 1.0
        with pytest.raises(ModelError, match="regular"):
            chain_from_graph(adj, 1)

    def test_disconnected_rejected(self):
        adj = np.zeros((4, 4))
        adj[0, 1] = adj[1, 0] = 1.0
        adj[2, 3] = adj[3, 2] = 1.0
        with pytest.raises(ModelError, match="disconnected"):
            chain_from_graph(adj, 1)

    def test_component_count_on_a_path(self):
        n = 7
        adj = np.zeros((n, n))
        idx = np.arange(n - 1)
        adj[idx, idx + 1] = adj[idx + 1, idx] = 1.0
        assert component_count(adj) == 1
        adj[2, 3] = adj[3, 2] = 0.0
        assert component_count(adj) == 2

    @pytest.mark.parametrize("blocks", [2, 3])
    def test_disconnected_regular_graph_counted(self, blocks):
        # disjoint copies of the 3-regular K4, shuffled so that no component
        # is a contiguous index range
        adj = np.kron(np.eye(blocks), k_complete(4))
        perm = np.random.default_rng(blocks).permutation(4 * blocks)
        adj = adj[np.ix_(perm, perm)]
        assert component_count(adj) == blocks
        with pytest.raises(ModelError, match=rf"disconnected \({blocks} components\)"):
            chain_from_graph(adj, 3)

    def test_self_loops_rejected(self):
        adj = k_complete(3)
        adj[0, 0] = 1.0
        with pytest.raises(ModelError, match="loop"):
            chain_from_graph(adj, 2)

    @pytest.mark.parametrize("adj,k", [(k_complete(3), 2), (k_complete(4), 3),
                                       (cycle_adjacency(4), 2), (cycle_adjacency(6), 2)])
    def test_exactly_one_zero_eigenvalue(self, adj, k):
        chain = chain_from_graph(adj, k)
        w = np.linalg.eigvalsh(-0.5 * (chain.generator + chain.generator.T))
        assert np.sum(np.abs(w) < 1e-10) == 1


class TestTwoStateChain:
    def test_gap_scales_linearly(self):
        # eigenvalues of -L are {0, 2 rate} by hand
        assert spectral_gap(two_state_chain(1.0)) == pytest.approx(2.0, abs=1e-12)
        assert spectral_gap(two_state_chain(2.0)) == pytest.approx(4.0, abs=1e-12)

    def test_rate_must_be_positive(self):
        with pytest.raises(ModelError):
            two_state_chain(0.0)


class TestCompleteRefresh:
    def test_generator_rows(self):
        mu = np.array([0.2, 0.3, 0.5])
        chain = complete_refresh_chain(mu)
        np.testing.assert_allclose(chain.generator, np.tile(mu, (3, 1)) - np.eye(3))

    def test_gap_is_one(self):
        chain = complete_refresh_chain([0.2, 0.3, 0.5])
        assert spectral_gap(chain) == pytest.approx(1.0, abs=1e-10)


class TestProductChain:
    def test_single_factor_unchanged(self, two_state):
        assert product_chain(two_state, 1) is two_state

    def test_two_state_square_uniform(self, two_state):
        prod = product_chain(two_state, 2)
        assert prod.n_states == 4
        np.testing.assert_allclose(prod.stationary, np.full(4, 0.25))
        # no labels: the states are indices, their coordinates row-major
        assert prod.states == (0, 1, 2, 3)
        coords = np.unravel_index(prod.states, (2,) * prod.factors)
        assert np.stack(coords, axis=1).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_moves_exactly_one_coordinate(self, two_state):
        prod = product_chain(two_state, 2)
        gen = dense_product_generator(two_state, 2)
        np.testing.assert_array_equal(prod.apply(np.eye(4)), gen)
        coords = [np.unravel_index(z, (2,) * prod.factors) for z in prod.states]
        for a, za in enumerate(coords):
            for b, zb in enumerate(coords):
                if a == b:
                    continue
                hamming = sum(x != y for x, y in zip(za, zb))
                if hamming > 1:
                    assert gen[a, b] == 0.0
                else:
                    assert gen[a, b] > 0.0

    def test_k3_square_satisfies_invariants(self):
        base = chain_from_graph(k_complete(3), 2)
        prod = product_chain(base, 2)  # constructor validates detailed balance
        assert prod.n_states == 9
        flux = prod.stationary[:, None] * dense_product_generator(base, 2)
        assert np.max(np.abs(flux - flux.T)) <= 1e-12

    def test_stationary_is_product_measure(self):
        base = FiniteChain([[-2.0, 2.0], [1.0, -1.0]], [1.0 / 3.0, 2.0 / 3.0])
        prod = product_chain(base, 3)
        expected = np.kron(np.kron(base.stationary, base.stationary), base.stationary)
        np.testing.assert_allclose(prod.stationary, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_gap_tensorization(self, n):
        base = chain_from_graph(k_complete(3), 2)
        prod = product_chain(base, n)
        gen = dense_product_generator(base, n)
        assert spectral_gap(prod, gen) == pytest.approx(spectral_gap(base), abs=1e-9)

    def test_budget_enforced(self):
        base = complete_refresh_chain(np.full(11, 1.0 / 11.0))
        with pytest.raises(CapacityError):
            product_chain(base, 6)  # 11^6 > 10^6

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 4), k=st.sampled_from([1, 2, 3, 4]),
           cols=st.sampled_from([1, 4, 9]), log_scale=st.integers(-3, 3))
    def test_apply_matches_dense_kronecker_sum(self, seed, m, k, cols, log_scale):
        rng = np.random.default_rng(seed)
        base = random_reversible_chain(rng, m, 10.0 ** log_scale)
        prod = product_chain(base, k)
        assert prod.factors == k and prod.n_states == m ** k
        gen = dense_product_generator(base, k)
        x = rng.standard_normal((m ** k, cols))
        want = gen @ x
        assert np.max(np.abs(prod.apply(x) - want)) <= 1e-13 * np.max(np.abs(want))
        np.testing.assert_allclose(prod.apply(x[:, 0]), want[:, 0], rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))
        np.testing.assert_allclose(prod.row_sums, gen.sum(axis=1), rtol=0,
                                   atol=1e-13 * np.max(np.abs(gen)))

    def test_single_factor_apply_is_the_dense_product(self):
        rng = np.random.default_rng(71)
        for n in (2, 3, 5, 9, 27, 64):
            chain = random_reversible_chain(rng, n)
            assert chain.factors == 1
            np.testing.assert_array_equal(chain.row_sums, chain.generator.sum(axis=1))
            for shape in ((n,), (n, 1), (n, 4), (n, 12)):
                x = rng.standard_normal(shape)
                np.testing.assert_array_equal(chain.apply(x), chain.generator @ x)

    def test_product_of_products_is_flattened(self):
        base = complete_refresh_chain([0.2, 0.3, 0.5])
        nested = product_chain(product_chain(base, 2), 3)
        flat = product_chain(base, 6)
        assert nested.factors == 6 and nested.n_states == 3 ** 6
        np.testing.assert_array_equal(nested.generator, base.generator)
        np.testing.assert_allclose(nested.stationary, flat.stationary, rtol=1e-15)
        x = np.random.default_rng(5).standard_normal((3 ** 6, 2))
        np.testing.assert_allclose(nested.apply(x), flat.apply(x), rtol=0, atol=1e-14)
        # row-major over the six flattened coordinates: state 1 moves the last
        assert nested.states == tuple(range(3 ** 6))
        assert np.unravel_index(nested.states[1], (3,) * nested.factors) == (0, 0, 0, 0, 0, 1)

    def test_invalid_base_refused(self, two_state):
        with pytest.raises(ModelError, match="finite chain"):
            product_chain(GaussianSeries(np.eye(1)[None]), 2)
        # the product's validation is its base's: a generator that is not
        # reversible for the marginal is refused at any number of factors
        gen = np.array([[-2.0, 2.0], [1.0, -1.0]])
        mu = np.kron([0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ModelError, match="detailed balance"):
            FiniteChain(gen, mu, factors=2)
        with pytest.raises(ModelError, match="product of its marginal"):
            FiniteChain(two_state.generator, [0.3, 0.2, 0.2, 0.3], factors=2)
        with pytest.raises(ModelError, match="shape"):
            FiniteChain(two_state.generator, [0.5, 0.5], factors=2)
        with pytest.raises(ModelError, match="factors"):
            FiniteChain(two_state.generator, [0.5, 0.5], factors=0)


class TestGaussianSeriesField:
    def test_zero_point(self):
        field = series_as_field(GaussianSeries(np.stack([np.eye(2), np.diag([1.0, -1.0])])))
        np.testing.assert_array_equal(field(np.zeros(2)), np.zeros((2, 2)))

    def test_single_identity_coefficient(self):
        field = series_as_field(GaussianSeries(np.eye(1)[None]))
        np.testing.assert_allclose(field([2.0]), 2.0 * np.eye(1))

    def test_two_coefficient_sum(self):
        a1 = np.array([[1.0, 0.0], [0.0, -1.0]])
        a2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        field = series_as_field(GaussianSeries(np.stack([a1, a2])))
        np.testing.assert_allclose(field([1.0, 1.0]), [[1.0, 1.0], [1.0, -1.0]])

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(3)
        coefs = rng.standard_normal((3, 2, 2))
        series = GaussianSeries(coefs)
        field = series_as_field(series)
        xs = rng.standard_normal((5, 3))
        values = np.einsum("mi,ikl->mkl", xs, series.coefficients)
        np.testing.assert_allclose(field.eval_batch(xs), values, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(np.stack([field(x) for x in xs]), values,
                                   rtol=1e-13, atol=1e-15)

    def test_needs_at_least_one_term(self):
        with pytest.raises(ModelError):
            GaussianSeries(np.zeros((0, 2, 2)))


class TestGaussianChaosField:
    def test_zero_point(self):
        chaos = GaussianChaos(np.ones((1, 1, 2, 2)))
        np.testing.assert_array_equal(chaos_as_field(chaos)(np.zeros(1)), np.zeros((2, 2)))

    def test_single_identity_coefficient(self):
        chaos = GaussianChaos(np.eye(2)[None, None])
        np.testing.assert_allclose(chaos_as_field(chaos)([3.0]), 9.0 * np.eye(2))

    def test_coefficients_symmetrized_in_index_pair(self):
        coef = np.zeros((2, 2, 1, 1))
        coef[0, 1, 0, 0] = 2.0
        chaos = GaussianChaos(coef)
        assert chaos.coefficients[0, 1, 0, 0] == chaos.coefficients[1, 0, 0, 0] == 1.0

    def test_mean_is_trace_of_diagonal_coefficients(self):
        rng = np.random.default_rng(5)
        coef = rng.standard_normal((3, 3, 2, 2))
        chaos = GaussianChaos(coef)
        np.testing.assert_allclose(chaos.mean(),
                                   sum(chaos.coefficients[i, i] for i in range(3)))


def exact_chaos(a, xs):
    """sum_ij x_i x_j A_ij with each term formed from the mantissas of its
    three factors and scaled by a power of two last, so that no term under-
    or overflows before its last rounding, and the terms of each entry summed
    by math.fsum: within 2 eps of the sum of the absolute terms, plus half a
    subnormal step per term."""
    mx, ex = np.frexp(xs)
    ma, ea = np.frexp(a)
    mant = mx[:, :, None, None, None] * mx[:, None, :, None, None] * ma
    terms = np.ldexp(mant, ex[:, :, None, None, None] + ex[:, None, :, None, None] + ea)
    p, n, d = len(xs), a.shape[0], a.shape[2]
    flat = terms.reshape(p, n * n, d * d)
    return np.array([[math.fsum(flat[q, :, e]) for e in range(d * d)]
                     for q in range(p)]).reshape(p, d, d)


def _signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


# nonzero |x| below 2^-511 or above 2^511 leaves a monomial's normal range
_TINY_X = _signed(st.floats(5e-324, 2.0 ** -512))
_HUGE_X = _signed(st.floats(2.0 ** 512, 2.0 ** 540))


@st.composite
def _raw_chaos_rows(draw):
    """Coefficients A (n, n, d, d), n in 1..6 and d in 1..4, not symmetric in
    the index pair or in a matrix, of one scale between 1e-100 and 1e100, and
    five points: the first of entries in [-4, 4], the others also with
    zeros, tiny entries and, where x^2 A cannot overflow, huge ones."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    log_scale = draw(st.integers(-100, 100))
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    coef = np.array(draw(st.lists(unit, min_size=n * n * d * d, max_size=n * n * d * d)))
    kinds = [st.floats(-4.0, 4.0), st.just(0.0), _TINY_X]
    if log_scale <= -20:
        kinds.append(_HUGE_X)
    first = draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n))
    rest = draw(st.lists(st.one_of(kinds), min_size=4 * n, max_size=4 * n))
    xs = np.array(first + rest).reshape(5, n)
    return 10.0 ** log_scale * coef.reshape(n, n, d, d), xs


class TestChaosValues:
    """The packed evaluation of a chaos, sum_ij x_i x_j A_ij, against an
    oracle that neither under- nor overflows before its last rounding."""

    @settings(max_examples=300, deadline=None)
    @given(_raw_chaos_rows())
    def test_matches_the_definition(self, case):
        a, xs = case
        n = a.shape[0]
        got = chaos_values(a, _packed(a), xs)
        want = exact_chaos(a, xs)
        # a few eps of the sum of the absolute terms, plus a few subnormal
        # steps per term; a sample off the monomials' range takes
        # sum_i x_i (sum_j x_j A_ij), whose subnormal steps in the inner sum
        # are scaled by |x_i|
        inner = np.einsum("pj,ijkl->pikl", np.abs(xs), np.abs(a))
        scale = np.einsum("pi,pikl->pkl", np.abs(xs), inner)
        tiny = np.nextafter(0.0, 1.0)
        spread = n * tiny * (1.0 + np.sum(np.abs(xs), axis=1))[:, None, None]
        assert np.all(np.abs(got - want) <= 8 * (n + 4) * (np.finfo(float).eps * scale + spread))

    def test_underflowing_monomial_takes_the_m_first_form(self):
        # x^2 underflows to 0, while x (x A) is a subnormal 3.6e-322
        a = np.full((1, 1, 1, 1), 4e150)
        xs = np.array([[9.5e-237], [1.0]])
        got = chaos_values(a, _packed(a), xs)
        assert got[0, 0, 0] == 9.5e-237 * (9.5e-237 * 4e150) > 0.0
        assert got[1, 0, 0] == 4e150

    def test_returns_the_samples_last_view(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((4, 4, 3, 3))
        got = chaos_values(a, _packed(a), rng.standard_normal((50, 4)))
        assert got.shape == (50, 3, 3)
        assert np.moveaxis(got, 0, -1).flags.c_contiguous

    @pytest.mark.parametrize("n, d", [(8, 3), (64, 1)])
    def test_peak_memory_within_the_m_first_form(self, n, d):
        # the M_i of x_i M_i take m n d^2 doubles; the 2,080 monomials of a
        # 64-variable scalar chaos would take 33 times that unsliced
        rng = np.random.default_rng(19)
        a = rng.standard_normal((n, n, d, d))
        packed, xs, m = _packed(a), rng.standard_normal((4096, n)), 4096
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            got = chaos_values(a, packed, xs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= m * n * d * d * 8
        want = np.einsum("mi,mj,ijkl->mkl", xs, xs, a)
        scale = np.einsum("mi,mj,ijkl->mkl", np.abs(xs), np.abs(xs), np.abs(a))
        assert np.all(np.abs(got - want) <= 8 * (n + 4) * np.finfo(float).eps * scale)


class TestChainFromJson:
    def test_explicit_form(self):
        obj = {"states": ["a", "b"], "generator": [[-1.0, 1.0], [1.0, -1.0]],
               "stationary": [0.5, 0.5]}
        chain = chain_from_json(obj)
        assert chain.states == ("a", "b")
        np.testing.assert_allclose(chain.generator, [[-1, 1], [1, -1]])

    def test_graph_form(self):
        obj = {"graph": {"edges": [[0, 1], [1, 2], [2, 3], [3, 0]], "k": 2}}
        chain = chain_from_json(obj)
        assert chain.n_states == 4
        np.testing.assert_allclose(chain.stationary, np.full(4, 0.25))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ModelError):
            chain_from_json({"generator": [[0.0]]})
        with pytest.raises(ModelError):
            chain_from_json({"graph": {"edges": [[0, 0]], "k": 1}})
        with pytest.raises(ModelError):
            chain_from_json({"states": [], "generator": [[-1.0, 1.0], [1.0, -1.0]],
                             "stationary": [0.9, 0.5]})


class TestFiniteField:
    def test_symmetrized_on_construction(self):
        f = FiniteField(np.array([[[1.0, 2.0], [0.0, 1.0]]]))
        np.testing.assert_array_equal(f.values[0], [[1.0, 1.0], [1.0, 1.0]])

    def test_scalar_constructor(self):
        f = FiniteField.from_scalars([0.0, 1.0])
        assert f.dim == 1 and f.n_states == 2

    def test_ragged_rejected(self):
        with pytest.raises(DimensionError):
            FiniteField(np.zeros((3, 2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        vals = np.zeros((3, 2, 2))
        vals[1, 0, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            FiniteField(vals)
        with pytest.raises(DomainError, match="finite"):
            FiniteField.from_scalars([0.0, bad])
