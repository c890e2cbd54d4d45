"""State spaces and probability models: finite reversible chains and
Gaussian-space matrix models.

Finite chains are continuous-time generators L (rows sum to zero,
off-diagonal rates nonnegative) together with a fully supported stationary
measure satisfying detailed balance.  A product chain keeps its factor's
generator and applies the Kronecker sum over its coordinates a group of
coordinates at a time, so no chain holds a matrix larger than its factor or
GROUP_STATES x GROUP_STATES.  Matrix fields map states (or points of R^n)
to symmetric d x d matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import CapacityError, DimensionError, DomainError, ModelError
from .spectral import symmetric_part, symmetrize

ROW_SUM_TOL = 1e-12
BALANCE_TOL = 1e-12
STATIONARY_TOL = 1e-12
STATE_BUDGET = 10 ** 6
# bytes the n x n float64 arrays of a plain chain's build and validation may
# take at once (chain_from_json checks it before the first of them).  A graph
# holds seven at the balance check: the adjacency, the generator
# adj / k - I, FiniteChain's copy of it, its off-diagonal part, the flux
# pi L, flux - flux.T and its absolute value.  A generator given as a JSON
# list holds the last five.
DENSE_BYTE_BUDGET = 2 << 30
_GRAPH_ARRAYS = 7
_GENERATOR_ARRAYS = 5
# A group of g coordinates of an (m, m) factor is applied as one dense
# (m^g, m^g) Kronecker sum, with g the largest such that m^g <= GROUP_STATES.
# On 2 cores of an x86-64 VM, 27 applies a (531441, 12) block of refresh3^12
# in four passes in 0.11 s, against 0.30 s for twelve mode products; 81
# took 0.12-0.13 s there, and 0.14-0.17 ms against 0.11 ms on a (2187, 9)
# block of refresh3^7.
GROUP_STATES = 27


def _frozen_array(obj, name, arr):
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class FiniteChain:
    """Reversible continuous-time Markov chain on a finite state space, the
    product of ``factors`` independent copies of one factor chain (a plain
    chain has one factor).

    generator: the factor's (m, m) rate matrix L.  The chain's generator is
    the Kronecker sum L (+) ... (+) L, one term per coordinate; it is never
    formed, and the chain layer reads it only through ``apply`` and
    ``row_sums``.  ``apply`` multiplies the Kronecker sums of groups of
    coordinates (``group_sums``), each at most GROUP_STATES states wide
    unless the factor itself is wider.  stationary: the (n,) measure mu
    with full support, n = m ** factors, the product of the factor's measure
    ``factor_stationary`` (its first-coordinate marginal).  states: hashable
    labels in index order; a product's are its indices, and the coordinates
    of state z are ``np.unravel_index(z, (m,) * factors)``.

    Invariants (finite entries, row sums, nonnegative off-diagonal rates,
    detailed balance pi_i L_ij = pi_j L_ji of the factor with its measure
    pi, and mu the product of pi) are validated on construction and raise
    ModelError; a product of reversible factors is reversible for the
    product measure, so nothing of size n x n is checked.  Row sums and
    balance are checked relative to the rate scale max_z |L(z, z)|, so
    rescaling time L -> cL never changes the verdict.
    """

    generator: np.ndarray
    stationary: np.ndarray
    states: tuple = ()
    name: str = "chain"
    factors: int = 1

    def __post_init__(self):
        gen = np.array(self.generator, dtype=float)
        mu = np.array(self.stationary, dtype=float)
        if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
            raise ModelError(f"generator must be square, got shape {gen.shape}")
        k = self.factors
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ModelError(f"factors must be an integer >= 1, got {k!r}")
        m = gen.shape[0]
        n = m ** k
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
        pi = mu.reshape(m, -1).sum(axis=1)  # mu itself for one factor
        flux = pi[:, None] * gen
        bal_err = float(np.max(np.abs(flux - flux.T)))
        if bal_err > BALANCE_TOL * rate_scale:
            raise ModelError(f"detailed balance violated (max |mu_i L_ij - mu_j L_ji| = {bal_err:.3e})")
        if k > 1 and np.max(np.abs(mu - _kron_power(pi, k))) > STATIONARY_TOL * np.max(mu):
            raise ModelError(f"stationary measure of a {k}-factor chain must be the "
                             f"product of its marginal")
        states = tuple(self.states) if self.states else tuple(range(n))
        if len(states) != n:
            raise ModelError(f"{len(states)} state labels for {n} states")
        _frozen_array(self, "generator", gen)
        _frozen_array(self, "stationary", mu)
        _frozen_array(self, "factor_stationary", pi)
        object.__setattr__(self, "states", states)

    @property
    def n_states(self) -> int:
        return self.stationary.shape[0]

    def apply(self, x) -> np.ndarray:
        """L x for an (n_states,) vector or an (n_states, cols) block: one
        product with each group's (s, s) Kronecker sum K of ``group_sums``,
        K @ x.reshape(lead, s, -1) with lead the states of the coordinates
        before the group, so O(n s) per column and group.  For one factor
        this is generator @ x, bit for bit."""
        x = np.asarray(x, dtype=float)
        out = term = None
        lead = 1
        for k in self.group_sums:
            block = x.reshape(lead, k.shape[0], -1)
            if out is None:
                out = k @ block
            else:
                # one buffer serves every later group's product
                buf = None if term is None else term.reshape(block.shape)
                term = np.matmul(k, block, out=buf)
                out += term.reshape(out.shape)
            lead *= k.shape[0]
        return out.reshape(x.shape)

    @cached_property
    def group_sums(self) -> tuple:
        """The Kronecker sums ``apply`` multiplies, first coordinates first:
        one group of the remainder, then the other coordinates in groups of
        g, the largest g with m^g <= GROUP_STATES (at least 1).  A
        group of s coordinates has the (m^s, m^s) sum L (+) ... (+) L, built
        by the mode products of the factor on an identity; one group is the
        generator itself.  Built on first use and kept, so once per chain,
        and equal groups share one array."""
        m, k = self.generator.shape[0], self.factors
        g = 1
        while g < k and m ** (g + 1) <= GROUP_STATES:
            g += 1
        # the remainder goes first, where its narrow product is one BLAS
        # call over the whole block rather than one per leading state
        sizes = ([k % g] if k % g else []) + [g] * (k // g)
        sums = {s: self.generator if s == 1 else _mode_products(self.generator, s)
                for s in set(sizes)}
        return tuple(sums[s] for s in sizes)

    @cached_property
    def row_sums(self) -> np.ndarray:
        """L 1, zero up to rounding: the Kronecker sum of the factor's row
        sums, which is generator.sum(axis=1) for one factor."""
        r = self.generator.sum(axis=1)
        out = r
        for _ in range(self.factors - 1):
            out = (out[:, None] + r).ravel()
        return out


def _mode_products(gen: np.ndarray, s: int) -> np.ndarray:
    """The dense (m^s, m^s) Kronecker sum of s copies of an (m, m)
    generator, row-major: one mode product per coordinate on the identity."""
    m = gen.shape[0]
    eye = np.eye(m ** s)
    out = (gen @ eye.reshape(1, m, -1)).reshape(eye.shape)
    for i in range(1, s):
        out += (gen @ eye.reshape(m ** i, m, -1)).reshape(eye.shape)
    out.setflags(write=False)
    return out


def _kron_power(v: np.ndarray, k: int) -> np.ndarray:
    """v (x) ... (x) v, k factors, in row-major order."""
    out = v
    for _ in range(k - 1):
        out = np.kron(out, v)
    return out


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
    unit-rate copy of the base dynamics (generator = the Kronecker sum over
    coordinates, applied a group of coordinates at a time and never formed).

    Keeps the base's (m, m) generator, so the only validation is the
    base's, which is exact: a product of reversible, validated factors is
    reversible for the product measure.  A product of products is flattened:
    the n-fold product of a k-factor chain is its factor's (n k)-fold
    product, with the same row-major state order.  States are indices, no
    labels: z has coordinates ``np.unravel_index(z, (m,) * factors)``, the
    first varying slowest; the stationary measure is the n-fold product.  No
    (n_states, n_states) array is allocated.  Raises CapacityError beyond
    the exact-enumeration budget of 10^6 states.
    """
    if not isinstance(base, FiniteChain):
        raise ModelError(f"the base of a product must be a finite chain, "
                         f"got {type(base).__name__}")
    if n < 1:
        raise ModelError(f"number of factors must be >= 1, got {n}")
    if n == 1:
        return base
    m = base.n_states
    if m ** n > STATE_BUDGET:
        raise CapacityError(f"product state space {m}^{n} exceeds budget {STATE_BUDGET}")
    return FiniteChain(base.generator, _kron_power(base.stationary, n),
                       name=f"{base.name}^{n}", factors=base.factors * n)


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
        vals = symmetric_part(vals)
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
    """Matrix field on R^n given by its batched evaluator (batch(X: (m, n))
    -> (m, d, d)): what a Monte Carlo pass reads of a Gaussian series or
    chaos."""

    ambient_dim: int
    dim: int
    batch: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> np.ndarray:
        return self.eval_batch(np.asarray(x, dtype=float)[None])[0]

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(self.batch(xs), dtype=float)


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
        coef = symmetric_part(coef)
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
        coef = symmetric_part(symmetric_part(coef, axes=(0, 1)))
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

    @cached_property
    def gamma_coefficients(self) -> np.ndarray:
        """The coefficients C of Gamma(f) = sum_i (d_i f)^2, itself a
        quadratic chaos: Gamma(f)(x) = sum_jl x_j x_l C_jl with
        C_jl = 2 sum_i (A_ij A_il + A_il A_ij), (n, n, d, d).  Built on first
        use and kept, so once per model."""
        return _gamma_coefficients(self.coefficients)

    @cached_property
    def packed_coefficients(self) -> np.ndarray:
        """A in the packed form ``chaos_values`` multiplies, built on first
        use and kept (``_packed``)."""
        return _packed(self.coefficients)

    @cached_property
    def packed_gamma_coefficients(self) -> np.ndarray:
        """C, the ``gamma_coefficients``, in packed form, built once."""
        return _packed(self.gamma_coefficients)

    def as_field(self) -> SmoothField:
        return chaos_as_field(self)


def series_as_field(s: GaussianSeries) -> SmoothField:
    a = s.coefficients

    def batch(xs):
        return np.tensordot(xs, a, axes=([1], [0]))

    return SmoothField(ambient_dim=s.n_terms, dim=s.dim, batch=batch)


def _gamma_coefficients(a: np.ndarray) -> np.ndarray:
    """C_jl = 2 sum_i (A_ij A_il + A_il A_ij) of a chaos's coefficients A.

    d_i f = 2 M_i with M_i = sum_j x_j A_ij, so Gamma(f) = 4 sum_i M_i^2 =
    4 sum_jl x_j x_l sum_i A_ij A_il, and the symmetric part of each
    matrix product gives C.  With P_jl = sum_i A_ij A_il, A_il A_ij is
    P_jl^T, so C_jl = 2 (P_jl + P_jl^T), symmetric in each matrix."""
    p = np.einsum("ijab,ilbc->jlac", a, a)
    c = 2.0 * (p + p.transpose(0, 1, 3, 2))
    c.setflags(write=False)
    return c


# x^2 of a nonzero x lies in [2^-1022, 2^1022] exactly when |x| lies in
# [2^-511, 2^511]; then every monomial x_j x_l is a normal number
_SQUARE_MIN, _SQUARE_MAX = 2.0 ** -1022, 2.0 ** 1022


def _packed(a: np.ndarray) -> np.ndarray:
    """The (d^2, n(n+1)/2) coefficients of the monomials of ``chaos_values``:
    first A_jj for each j, then A_jl + A_lj for each pair j < l in
    ``np.triu_indices`` order, each matrix read row-major.  Since
    x_j x_l A_jl + x_l x_j A_lj = x_j x_l (A_jl + A_lj), this holds for any A,
    symmetric in the index pair or not."""
    n, d = a.shape[0], a.shape[2]
    j, l = np.triu_indices(n, 1)
    rows = np.concatenate([a[np.arange(n), np.arange(n)], a[j, l] + a[l, j]])
    packed = np.ascontiguousarray(rows.reshape(len(rows), d * d).T)
    packed.setflags(write=False)
    return packed


def _m_first(a: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum_i x_i M_i with M_i = sum_j x_j A_ij, (m, n) -> (m, d^2): one BLAS
    product gives every M_i, then a contraction over i."""
    n, d = a.shape[0], a.shape[2]
    m = (xs @ a.reshape(n, n * d * d)).reshape(len(xs), n, d * d)
    return np.einsum("mi,mik->mk", xs, m)


def chaos_values(a: np.ndarray, packed: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum_ij x_i x_j A_ij at each row x of xs for coefficients A of shape
    (n, n, d, d), given ``packed = _packed(A)``: (m, n) -> (m, d, d), the
    samples-last view of a (d^2, m) array, so that each matrix entry of the
    block is one contiguous row.

    The n(n+1)/2 monomials x_j x_l (j <= l), squares first, are formed as
    contiguous rows, each from two columns of xs, and multiplied by the
    packed coefficients in one BLAS product; both halves of the symmetric
    (j, l) sum are one coefficient.  When the monomials and the result
    would take more rows than the n d^2 columns of the M_i = sum_j x_j A_ij
    (and n > 2), the monomials are formed in slabs, so that a slab, the
    result and one partial product hold fewer rows than the M_i would.

    A sample with a nonzero |x_i| outside [2^-511, 2^511] would leave the
    normal range in a monomial and lose its value to underflow or overflow
    there; such samples, found from the squares, take the form
    sum_i x_i M_i instead.
    """
    xs = np.asarray(xs, dtype=float)
    m, n = xs.shape
    dd, k = packed.shape
    pairs = itertools.chain(zip(range(n), range(n)), itertools.combinations(range(n), 2))
    size = (n - 2) * dd - 1
    if k + dd <= n * dd or size < 1:
        size = max(k, 1)
    mono, part, outside = np.empty((size, m)), None, None
    out = np.empty((dd, m)) if k else np.zeros((dd, m))
    # an overflow here is either a monomial of a sample that is evaluated
    # again below or a value that overflows, which every caller refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, k, size):
            rows = mono[:min(size, k - start)]
            for r, (j, l) in enumerate(itertools.islice(pairs, len(rows))):
                np.multiply(xs[:, j], xs[:, l], out=rows[r])
            coef = packed[:, start:start + len(rows)]
            if start == 0:
                np.matmul(coef, rows, out=out)
            else:
                part = np.matmul(coef, rows, out=part)
                out += part
            squares = rows[:max(n - start, 0)]
            if not (squares.min(initial=_SQUARE_MIN) >= _SQUARE_MIN
                    and squares.max(initial=_SQUARE_MAX) <= _SQUARE_MAX):
                # NaN fails both bounds, so its sample is evaluated again too
                hit = ~((squares >= _SQUARE_MIN) & (squares <= _SQUARE_MAX))
                hit &= xs[:, start:start + len(squares)].T != 0.0
                outside = hit.any(axis=0) if outside is None else outside | hit.any(axis=0)
    if outside is not None and outside.any():
        redo = np.flatnonzero(outside)
        out[:, redo] = _m_first(a, xs[redo]).T
    d = a.shape[2]
    return np.moveaxis(out.reshape(d, d, m), -1, 0)


def chaos_as_field(c: GaussianChaos) -> SmoothField:
    a, packed = c.coefficients, c.packed_coefficients
    return SmoothField(ambient_dim=c.n_vars, dim=c.dim,
                       batch=lambda xs: chaos_values(a, packed, xs))


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
        _dense_budget(n, _GRAPH_ARRAYS, name)
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
    if isinstance(obj["generator"], list):
        _dense_budget(len(obj["generator"]), _GENERATOR_ARRAYS, name)
    return FiniteChain(obj["generator"], obj["stationary"], states=states, name=name)


def _dense_budget(n: int, arrays: int, name: str) -> None:
    """CapacityError, before any of them is allocated, when ``arrays``
    n x n float64 arrays exceed DENSE_BYTE_BUDGET."""
    need = arrays * 8 * n * n
    if need > DENSE_BYTE_BUDGET:
        raise CapacityError(f"the plain chain '{name}' ({n} states) needs "
                            f"{need / 2 ** 30:.3g} GiB for {arrays} dense {n} x {n} arrays, "
                            f"over the budget of {DENSE_BYTE_BUDGET / 2 ** 30:g} GiB")
