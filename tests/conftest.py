import numpy as np
import pytest

from tplab import (FiniteChain, FiniteField, chain_from_graph, estimate_trace_moment,
                   two_state_chain)


def random_symmetric(rng, d, scale=1.0):
    raw = rng.standard_normal((d, d))
    return scale * 0.5 * (raw + raw.T)


def random_field(rng, n_states, d, scale=1.0):
    raw = rng.standard_normal((n_states, d, d))
    return FiniteField(scale * 0.5 * (raw + raw.transpose(0, 2, 1)))


def random_reversible_chain(rng, n_states, scale=1.0):
    """Random reversible chain: symmetric edge weights W with mu_z L(z, w) =
    scale * W(z, w), so detailed balance holds by construction."""
    mu = rng.uniform(0.05, 1.0, n_states)
    mu /= mu.sum()
    w = np.triu(rng.uniform(0.0, 1.0, (n_states, n_states)), 1)
    gen = scale * (w + w.T) / mu[:, None]
    np.fill_diagonal(gen, -gen.sum(axis=1))
    return FiniteChain(gen, mu)


def dense_product_generator(base, k):
    """The Kronecker sum L (+) ... (+) L of k copies of a one-factor base's
    (m, m) generator as a dense (m^k, m^k) matrix, coordinates in row-major
    order: the oracle for a product chain's matrix-free ``apply``."""
    m = base.generator.shape[0]
    gen = np.zeros((m ** k, m ** k))
    for i in range(k):
        gen += np.kron(np.kron(np.eye(m ** i), base.generator), np.eye(m ** (k - 1 - i)))
    return gen


def moment(field, q, spec, center=None):
    """The Estimate of E tr |f(X) - center|^(2q) at one order and one centre
    (None for no centre), from ``estimate_trace_moment``."""
    return estimate_trace_moment(field, [q], spec, centers=[center])[0][0]


def k_complete(n):
    return np.ones((n, n)) - np.eye(n)


def cycle_adjacency(n):
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
    return adj


@pytest.fixture(scope="session")
def two_state():
    return two_state_chain(1.0)


@pytest.fixture(scope="session")
def k4():
    return chain_from_graph(k_complete(4), 3, name="k4")


@pytest.fixture(scope="session")
def cycle4():
    return chain_from_graph(cycle_adjacency(4), 2, name="cycle4")
