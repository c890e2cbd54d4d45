import numpy as np
import pytest

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
from tplab.models import component_count

from conftest import cycle_adjacency, k_complete, random_reversible_chain


def spectral_gap(chain):
    root = np.sqrt(chain.stationary)
    sym = (root[:, None] * chain.generator) / root[None, :]
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
        assert prod.states == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_moves_exactly_one_coordinate(self, two_state):
        prod = product_chain(two_state, 2)
        for a, za in enumerate(prod.states):
            for b, zb in enumerate(prod.states):
                if a == b:
                    continue
                hamming = sum(x != y for x, y in zip(za, zb))
                if hamming > 1:
                    assert prod.generator[a, b] == 0.0
                else:
                    assert prod.generator[a, b] > 0.0

    def test_k3_square_satisfies_invariants(self):
        base = chain_from_graph(k_complete(3), 2)
        prod = product_chain(base, 2)  # constructor validates detailed balance
        assert prod.n_states == 9
        flux = prod.stationary[:, None] * prod.generator
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
        assert spectral_gap(prod) == pytest.approx(spectral_gap(base), abs=1e-9)

    def test_budget_enforced(self):
        base = complete_refresh_chain(np.full(11, 1.0 / 11.0))
        with pytest.raises(CapacityError):
            product_chain(base, 6)  # 11^6 > 10^6


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
        field = series_as_field(GaussianSeries(coefs))
        xs = rng.standard_normal((5, 3))
        np.testing.assert_allclose(field.eval_batch(xs), np.stack([field(x) for x in xs]))

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
