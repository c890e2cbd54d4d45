import ast
import types
from pathlib import Path

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


def kronecker_sum_apply(base, k, x):
    """The Kronecker sum of k copies of a one-factor base's generator applied
    to an (m^k, cols) block, one contraction per coordinate axis of the
    block viewed as (m,) * k + (cols,): the oracle for ``apply`` at sizes
    where the dense matrix would not fit."""
    m = base.generator.shape[0]
    t = x.reshape((m,) * k + (-1,))
    out = np.zeros_like(t)
    for i in range(k):
        out += np.moveaxis(np.tensordot(base.generator, t, axes=([1], [i])), 0, i)
    return out.reshape(x.shape)


def moment(field, q, spec, center=None):
    """The Estimate of E tr |f(X) - center|^(2q) at one order and one centre
    (None for no centre), from ``estimate_trace_moment``."""
    return estimate_trace_moment(field, [q], spec, centers=[center])[0][0]


def load_perfbench(name: str):
    """perfbench/<name>.py, executed from its text so that nothing is
    written beside it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


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


SOURCE = Path(__file__).resolve().parent.parent / "src" / "tplab"


def source_uses(names_at) -> set:
    """(file, enclosing function, name) for every name that ``names_at(node)``
    yields at a node of the package's source files, walked by ``ast``; the
    function is None at module level."""
    found = set()
    for path in sorted(SOURCE.glob("*.py")):

        def visit(node, func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            found.update((path.name, func, name) for name in names_at(node))
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(ast.parse(path.read_text()), None)
    return found
