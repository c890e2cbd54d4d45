"""State spaces and probability models: finite reversible chains and
Gaussian-space matrix models.

Finite chains are continuous-time generators L (rows sum to zero,
off-diagonal rates nonnegative) together with a fully supported stationary
measure satisfying detailed balance.  Matrix fields map states (or points of
R^n) to symmetric d x d matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapacityError, DimensionError, DomainError, ModelError
from .spectral import symmetrize

ROW_SUM_TOL = 1e-12
BALANCE_TOL = 1e-12
STATIONARY_TOL = 1e-12
STATE_BUDGET = 10 ** 6


def _frozen_array(obj, name, arr):
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class FiniteChain:
    """Reversible continuous-time Markov chain on a finite state space.

    generator: (n, n) rate matrix L; stationary: (n,) measure mu with full
    support; states: hashable labels in index order.  Invariants (finite
    entries, row sums, nonnegative off-diagonal rates, detailed balance
    mu_i L_ij = mu_j L_ji) are validated on construction and raise
    ModelError.  Row sums and balance are checked relative to the rate scale
    max_z |L(z, z)|, so rescaling time L -> cL never changes the verdict.
    """

    generator: np.ndarray
    stationary: np.ndarray
    states: tuple = ()
    name: str = "chain"

    def __post_init__(self):
        gen = np.array(self.generator, dtype=float)
        mu = np.array(self.stationary, dtype=float)
        if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
            raise ModelError(f"generator must be square, got shape {gen.shape}")
        n = gen.shape[0]
        if mu.shape != (n,):
            raise ModelError(f"stationary measure has shape {mu.shape}, expected ({n},)")
        if not (np.all(np.isfinite(gen)) and np.all(np.isfinite(mu))):
            raise ModelError("generator and stationary measure must be finite")
        off = gen.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0.0):
            raise ModelError("off-diagonal generator entries must be nonnegative")
        rate_scale = float(np.max(np.abs(np.diag(gen))))
        row_err = float(np.max(np.abs(gen.sum(axis=1))))
        if row_err > ROW_SUM_TOL * rate_scale:
            raise ModelError(f"generator rows must sum to 0 (max |sum| = {row_err:.3e})")
        if np.any(mu <= 0.0):
            raise ModelError("stationary measure must be strictly positive everywhere")
        if abs(float(mu.sum()) - 1.0) > STATIONARY_TOL:
            raise ModelError(f"stationary measure must sum to 1, got {mu.sum()!r}")
        flux = mu[:, None] * gen
        bal_err = float(np.max(np.abs(flux - flux.T)))
        if bal_err > BALANCE_TOL * rate_scale:
            raise ModelError(f"detailed balance violated (max |mu_i L_ij - mu_j L_ji| = {bal_err:.3e})")
        states = tuple(self.states) if self.states else tuple(range(n))
        if len(states) != n:
            raise ModelError(f"{len(states)} state labels for {n} states")
        _frozen_array(self, "generator", gen)
        _frozen_array(self, "stationary", mu)
        object.__setattr__(self, "states", states)

    @property
    def n_states(self) -> int:
        return self.generator.shape[0]


def two_state_chain(rate: float = 1.0, name: str = "two-state") -> FiniteChain:
    """Symmetric two-state chain with jump rate ``rate``; spectral gap 2*rate."""
    if not rate > 0:
        raise ModelError(f"rate must be positive, got {rate}")
    gen = rate * np.array([[-1.0, 1.0], [1.0, -1.0]])
    return FiniteChain(gen, np.array([0.5, 0.5]), name=name)


def component_count(adjacency: np.ndarray) -> int:
    """Number of connected components of an undirected graph, by a frontier
    search over its 0/1 adjacency: each level is one row gather, and every
    vertex enters a frontier once."""
    unseen = np.ones(adjacency.shape[0], dtype=bool)
    count = 0
    while unseen.any():
        count += 1
        frontier = np.zeros_like(unseen)
        frontier[np.argmax(unseen)] = True
        while frontier.any():
            unseen &= ~frontier
            frontier = adjacency[frontier].any(axis=0) & unseen
    return count


def chain_from_graph(adjacency, k: int, name: str = "graph-walk") -> FiniteChain:
    """Continuous-time random walk on a connected k-regular simple graph.

    Generator L = adjacency/k - I; the stationary measure is uniform.
    """
    adj = np.asarray(adjacency, dtype=float)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ModelError(f"adjacency must be square, got shape {adj.shape}")
    n = adj.shape[0]
    if not np.array_equal(adj, adj.T):
        raise ModelError("adjacency must be symmetric")
    if np.any((adj != 0.0) & (adj != 1.0)):
        raise ModelError("adjacency entries must be 0 or 1")
    if np.any(np.diag(adj) != 0.0):
        raise ModelError("self-loops are not allowed")
    degrees = adj.sum(axis=1)
    if np.any(degrees != k):
        raise ModelError(f"graph is not {k}-regular (degrees range {degrees.min()}..{degrees.max()})")
    n_comp = component_count(adj)
    if n_comp != 1:
        raise ModelError(f"graph is disconnected ({n_comp} components)")
    gen = adj / float(k) - np.eye(n)
    return FiniteChain(gen, np.full(n, 1.0 / n), name=name)


def complete_refresh_chain(mu, name: str = "refresh") -> FiniteChain:
    """Complete-refresh chain L = Pi - I, where Pi projects onto mu.

    Every jump resamples the state from mu, so the squared-difference energy
    at z is half the mu-average of (f(Z)-f(z))^2.  Spectral gap 1.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or np.any(mu <= 0) or abs(float(mu.sum()) - 1.0) > STATIONARY_TOL:
        raise ModelError("mu must be a strictly positive probability vector")
    n = mu.shape[0]
    gen = np.tile(mu, (n, 1)) - np.eye(n)
    return FiniteChain(gen, mu, name=name)


def product_chain(base: FiniteChain, n: int) -> FiniteChain:
    """n-fold product chain: each coordinate refreshed by an independent
    unit-rate copy of the base dynamics (generator = sum over coordinates).

    States are n-tuples of base states enumerated in row-major coordinate
    order (first coordinate varies slowest); the stationary measure is the
    n-fold product.  Raises CapacityError beyond the exact-enumeration
    budget of 10^6 states.
    """
    if n < 1:
        raise ModelError(f"number of factors must be >= 1, got {n}")
    if n == 1:
        return base
    m = base.n_states
    if m ** n > STATE_BUDGET:
        raise CapacityError(f"product state space {m}^{n} exceeds budget {STATE_BUDGET}")
    gen = np.zeros((m ** n, m ** n))
    for i in range(n):
        left = np.eye(m ** i)
        right = np.eye(m ** (n - 1 - i))
        gen += np.kron(np.kron(left, base.generator), right)
    mu = base.stationary
    for _ in range(n - 1):
        mu = np.kron(mu, base.stationary)
    states = tuple(itertools.product(base.states, repeat=n))
    return FiniteChain(gen, mu, states=states, name=f"{base.name}^{n}")


# ---------------------------------------------------------------------------
# matrix fields


@dataclass(frozen=True)
class FiniteField:
    """Matrix field over a finite state space: values[z] is a symmetric
    (d, d) matrix; symmetrized on construction.  Non-finite values raise
    DomainError."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 3 or vals.shape[1] != vals.shape[2]:
            raise DimensionError(
                f"finite field values must have shape (n_states, d, d), got {vals.shape}"
            )
        if vals.shape[1] < 1:
            raise DimensionError("finite field values must be at least 1x1 matrices")
        if not np.all(np.isfinite(vals)):
            raise DomainError("finite field values must be finite (no NaN or inf)")
        vals = 0.5 * (vals + vals.transpose(0, 2, 1))
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_scalars(cls, values) -> "FiniteField":
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1:
            raise DimensionError(f"scalar field values must be 1-d, got shape {vals.shape}")
        return cls(vals[:, None, None])

    @property
    def n_states(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SmoothField:
    """Matrix field on R^n given by an evaluator and an optional batched
    evaluator (batch(X: (m, n)) -> (m, d, d)): what a Monte Carlo pass reads
    of a Gaussian series or chaos."""

    ambient_dim: int
    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        if self.batch is not None:
            return np.asarray(self.batch(xs), dtype=float)
        return np.stack([self(x) for x in xs])


@dataclass(frozen=True)
class GaussianSeries:
    """Linear matrix model sum_i X_i A_i of a standard normal vector X.

    coefficients: (n, d, d), each symmetrized on construction.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        coef = np.array(self.coefficients, dtype=float)
        if coef.ndim != 3 or coef.shape[1] != coef.shape[2]:
            raise DimensionError(f"coefficients must have shape (n, d, d), got {coef.shape}")
        if coef.shape[0] < 1:
            raise ModelError("a Gaussian series needs at least one coefficient")
        if not np.all(np.isfinite(coef)):
            raise DomainError("Gaussian series coefficients must be finite (no NaN or inf)")
        coef = 0.5 * (coef + coef.transpose(0, 2, 1))
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)

    @property
    def n_terms(self) -> int:
        return self.coefficients.shape[0]

    @property
    def dim(self) -> int:
        return self.coefficients.shape[1]

    def as_field(self) -> SmoothField:
        return series_as_field(self)


@dataclass(frozen=True)
class GaussianChaos:
    """Quadratic matrix model sum_{ij} X_i X_j A_ij with A_ij = A_ji.

    coefficients: (n, n, d, d); symmetrized in the index pair and in each
    matrix on construction.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        coef = np.array(self.coefficients, dtype=float)
        if coef.ndim != 4 or coef.shape[0] != coef.shape[1] or coef.shape[2] != coef.shape[3]:
            raise DimensionError(f"coefficients must have shape (n, n, d, d), got {coef.shape}")
        if not np.all(np.isfinite(coef)):
            raise DomainError("Gaussian chaos coefficients must be finite (no NaN or inf)")
        coef = 0.5 * (coef + coef.transpose(1, 0, 2, 3))
        coef = 0.5 * (coef + coef.transpose(0, 1, 3, 2))
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)

    @property
    def n_vars(self) -> int:
        return self.coefficients.shape[0]

    @property
    def dim(self) -> int:
        return self.coefficients.shape[2]

    def mean(self) -> np.ndarray:
        """E f = sum_i A_ii (E[X_i X_j] = delta_ij)."""
        return np.einsum("iikl->kl", self.coefficients)

    def as_field(self) -> SmoothField:
        return chaos_as_field(self)


def series_as_field(s: GaussianSeries) -> SmoothField:
    a = s.coefficients

    def func(x):
        return np.tensordot(x, a, axes=1)

    def batch(xs):
        return np.tensordot(xs, a, axes=([1], [0]))

    return SmoothField(ambient_dim=s.n_terms, dim=s.dim, func=func, batch=batch)


def chaos_as_field(c: GaussianChaos) -> SmoothField:
    a = c.coefficients
    n, d = c.n_vars, c.dim

    def func(x):
        return np.einsum("i,j,ijkl->kl", x, x, a)

    def batch(xs):
        # f(x) = sum_i x_i M_i with M_i = sum_j x_j A_ij: one BLAS product
        # gives every M_i, then a contraction over i
        m = (xs @ a.reshape(n, n * d * d)).reshape(len(xs), n, d * d)
        return np.einsum("mi,mik->mk", xs, m).reshape(len(xs), d, d)

    return SmoothField(ambient_dim=c.n_vars, dim=c.dim, func=func, batch=batch)


def constant_field(n_states: int, matrix) -> FiniteField:
    m = symmetrize(np.atleast_2d(matrix))
    return FiniteField(np.broadcast_to(m, (n_states,) + m.shape).copy())


def chain_from_json(obj: dict, name: str = "chain") -> FiniteChain:
    """Build a chain from one of the two accepted JSON shapes:

    {"states": [...], "generator": [[...]], "stationary": [...]}  or
    {"graph": {"edges": [[i, j], ...], "k": int}}
    """
    if not isinstance(obj, dict):
        raise ModelError("chain description must be a JSON object")
    if "graph" in obj:
        g = obj["graph"]
        if not isinstance(g, dict) or "edges" not in g or "k" not in g:
            raise ModelError("graph description needs 'edges' and 'k'")
        edges = g["edges"]
        if not edges:
            raise ModelError("graph has no edges")
        n = max(max(int(i), int(j)) for i, j in edges) + 1
        adj = np.zeros((n, n))
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise ModelError(f"self-loop at vertex {i}")
            adj[i, j] = adj[j, i] = 1.0
        return chain_from_graph(adj, int(g["k"]), name=name)
    missing = [k for k in ("generator", "stationary") if k not in obj]
    if missing:
        raise ModelError(f"chain description missing keys: {missing}")
    states = tuple(obj.get("states", ()))
    return FiniteChain(obj["generator"], obj["stationary"], states=states, name=name)
