"""Executable checkers for the concentration machinery: subadditivity of the
trace variance, the bivariate trace Poincare inequality, the mean-value trace
inequality, the Dirichlet-form chain rule, exponential and polynomial moment
bounds, subexponential tails, the intrinsic-dimension variant and the
Gaussian-chaos corollaries.

Each checker evaluates both sides of one inequality instance (exactly on
finite chains, by Monte Carlo on Gaussian models) and returns CheckReports.
An unbounded right-hand side is a first-class verdict (SKIPPED), not an
exception; Monte Carlo comparisons violated only within the confidence
intervals of the two sides come back INCONCLUSIVE rather than FAIL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import montecarlo
from .energy import (
    EnergyReport,
    bivariate_symmetrized,
    chaos_gamma_batch,
    column_energies,
)
from .errors import DimensionError, DomainError, NumericError
from .models import FiniteChain, FiniteField, GaussianChaos, GaussianSeries, SmoothField
from .montecarlo import SampleSpec, estimate_tail, estimate_trace_moment, power_sums
from .poincare import PoincareCertificate
from .reports import CheckReport, slack_for
from .spectral import ScalarFnSpec, batch_eigvalsh, eigh, psd_eigvalsh, symmetric_part, symmetrize

UNBOUNDED = math.inf


def _as_grid(base: FiniteChain, g) -> np.ndarray:
    """g as an (m, m, d, d) float grid, symmetric in its last two axes: a
    float64 grid that is exactly symmetric already, as
    ``bivariate_symmetrized``'s is, is returned as it is, with no copy;
    any other is symmetrized."""
    arr = np.asarray(g, dtype=float)
    m = base.n_states
    if arr.ndim != 4 or arr.shape[0] != m or arr.shape[1] != m or arr.shape[2] != arr.shape[3]:
        raise DimensionError(
            f"bivariate field must have shape ({m}, {m}, d, d), got {arr.shape}")
    if np.array_equal(arr, arr.transpose(0, 1, 3, 2)):
        return arr
    return symmetric_part(arr)


def _trace_variance(mu: np.ndarray, grid: np.ndarray, sq: np.ndarray) -> float:
    """tr Var_{mu x mu}[g] of a grid g of shape (m, m, d, d), given its
    square sq = g @ g."""
    w = np.einsum("a,b->ab", mu, mu)
    mean = np.einsum("ab,abij->ij", w, grid)
    second = np.einsum("ab,abij->ij", w, sq)
    return float(np.trace(second - mean @ mean))


def check_subadditivity(base: FiniteChain, g) -> CheckReport:
    """tr Var_{mu x mu}[g] <= E_2 tr Var_1[g] + E_1 tr Var_2[g]."""
    grid = _as_grid(base, g)
    sq = grid @ grid
    mu = base.stationary
    lhs = _trace_variance(mu, grid, sq)

    mean1 = np.einsum("a,abij->bij", mu, grid)            # E_1 g (per z2)
    var1 = np.einsum("a,abij->bij", mu, sq) - mean1 @ mean1
    term1 = float(np.einsum("b,bii->", mu, var1))         # E_2 tr Var_1

    mean2 = np.einsum("b,abij->aij", mu, grid)            # E_2 g (per z1)
    var2 = np.einsum("b,abij->aij", mu, sq) - mean2 @ mean2
    term2 = float(np.einsum("a,aii->", mu, var2))         # E_1 tr Var_2

    rhs = term1 + term2
    return CheckReport.from_comparison(
        "variance-subadditivity", lhs, rhs, slack_for(rhs),
        {"chain": base.name, "d": grid.shape[2]})


def check_bivariate_poincare(base: FiniteChain, g, cert: PoincareCertificate) -> CheckReport:
    """tr Var_{mu x mu}[g] <= alpha * tr E[dirichlet_1(g) + dirichlet_2(g)];
    the energies of all slices z1 -> g(z1, z2), and then of all slices
    z2 -> g(z1, z2), are one ``column_energies`` call each."""
    grid = _as_grid(base, g)
    mu, m = base.stationary, base.n_states
    energy = 0.0
    for slices in (grid, grid.transpose(1, 0, 2, 3)):
        _, dirichlet = column_energies(base, slices.reshape(m, -1))
        energy += float(mu @ dirichlet.reshape(m, -1).sum(axis=1))
    rhs = cert.alpha * energy
    lhs = _trace_variance(mu, grid, grid @ grid)
    return CheckReport.from_comparison(
        "poincare-subadditivity", lhs, rhs, slack_for(rhs),
        {"chain": base.name, "alpha": cert.alpha, "d": grid.shape[2]})


def _require_convex_sq_derivative(phi: ScalarFnSpec):
    if not phi.convex_sq_derivative:
        raise DomainError(
            f"scalar function {phi.label()} is not in the admissible class "
            "(sinh, signed_pow with exponent >= 1.5, affine)")


def check_mean_value_trace(a, b, phis) -> list[CheckReport]:
    """tr[(phi(A) - phi(B))^2] <= (1/2) tr[(A - B)^2 (psi(A) + psi(B))]
    for psi = (phi')^2 convex, one report per phi of ``phis``; the pair
    (A, B) is diagonalised once for the list."""
    for phi in phis:
        _require_convex_sq_derivative(phi)
    a = symmetrize(a)
    b = symmetrize(b)
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    dec = eigh(np.stack([a, b]))
    diff = a - b
    sq_diff = diff @ diff
    out = []
    for phi in phis:
        phi_a, phi_b = dec.map(phi)
        psi_a, psi_b = dec.map(phi.sq_deriv)
        diff_phi = phi_a - phi_b
        lhs = float(np.trace(diff_phi @ diff_phi))
        rhs = 0.5 * float(np.trace(sq_diff @ (psi_a + psi_b)))
        out.append(CheckReport.from_comparison(
            "mean-value-trace", lhs, rhs, slack_for(rhs),
            {"phi": phi.label(), "d": a.shape[0]}))
    return out


def check_chain_rule(chain: FiniteChain, rep: EnergyReport, phis) -> list[CheckReport]:
    """tr dirichlet(phi(f)) <= E_mu tr[Gamma(f) psi(f)], both exact sums,
    one report per phi of ``phis``; f's eigendecomposition is computed once
    for the list, and Gamma(f) is read from its energy report.  The trace of
    a Dirichlet form is the sum of its entries' energies, so the left sides
    are one ``column_energies`` call over the entries of every phi(f)."""
    for phi in phis:
        _require_convex_sq_derivative(phi)
    if not phis:
        return []
    f = rep.field
    dec = eigh(f.values)
    entries = [FiniteField(dec.map(phi)).values.reshape(chain.n_states, -1) for phi in phis]
    _, energies = column_energies(chain, np.hstack(entries))
    if not np.all(np.isfinite(energies)):
        raise NumericError("chain rule: no verdict, an energy of phi(f) overflows")
    out = []
    for phi, lhs in zip(phis, energies.reshape(len(phis), -1).sum(axis=1).tolist()):
        rhs = float(np.einsum("z,zij,zji->", chain.stationary, rep.gamma,
                              dec.map(phi.sq_deriv)))
        out.append(CheckReport.from_comparison(
            "dirichlet-chain-rule", lhs, rhs, slack_for(rhs),
            {"chain": chain.name, "phi": phi.label(), "d": f.dim}))
    return out


def exp_moment_rhs(alpha: float, v_f: float, d: int, theta: float, trbar: float) -> float:
    """d * [1 + alpha theta^2 trbar / (1 - alpha v_f theta^2 / 2)_+], with
    trbar the normalized trace tr(dirichlet) / d.

    Returns UNBOUNDED (inf) when the positive part in the denominator
    vanishes; callers record such grid points as SKIPPED.
    """
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if v_f < 0:
        raise DomainError(f"variance proxy must be nonnegative, got {v_f}")
    if d < 1:
        raise DomainError(f"matrix dimension must be >= 1, got {d}")
    if theta < 0:
        raise DomainError(f"theta must be nonnegative, got {theta}")
    denom = 1.0 - alpha * v_f * theta * theta / 2.0
    if denom <= 0.0:
        return UNBOUNDED
    return d * (1.0 + alpha * theta * theta * trbar / denom)


def default_theta_grid(alpha: float, v_f: float, points: int = 20) -> np.ndarray:
    """Grid anchored at the tail-optimal theta = (alpha v_f)^(-1/2), staying
    below the singular value sqrt(2) * anchor."""
    if v_f <= 0.0:
        return np.linspace(0.1, 2.0, points)
    anchor = 1.0 / math.sqrt(alpha * v_f)
    return anchor * np.linspace(0.05, 1.35, points)


def check_exp_moment(chain: FiniteChain, rep: EnergyReport,
                     cert: PoincareCertificate, theta_grid) -> list[CheckReport]:
    """E_mu tr cosh(theta f) <= exp_moment_rhs for each grid theta, with f
    centered first (the subtracted mean is logged in the context); the
    spectrum of f - E_mu f and the energies are read from f's report, since
    Gamma is shift-invariant."""
    eigs, v_f, d = rep.f_eigs, rep.v_f, rep.field.dim
    trbar = float(np.trace(rep.dirichlet)) / d
    mu = chain.stationary
    base_ctx = {"chain": chain.name, "alpha": cert.alpha, "v_f": v_f,
                "trbar_dirichlet": trbar, "d": d,
                "centered_mean_norm": rep.mean_norm}
    out = []
    for theta in np.asarray(theta_grid, dtype=float):
        rhs = exp_moment_rhs(cert.alpha, v_f, d, float(theta), trbar)
        ctx = dict(base_ctx, theta=float(theta))
        with np.errstate(over="ignore"):
            lhs = float(np.einsum("z,zi->", mu, np.cosh(theta * eigs)))
        if not math.isfinite(rhs):
            ctx["reason"] = "bound unbounded: alpha*v_f*theta^2/2 >= 1"
            out.append(CheckReport.skipped("exp-moment", lhs, UNBOUNDED, ctx))
            continue
        out.append(CheckReport.from_comparison(
            "exp-moment", lhs, rhs, slack_for(rhs), ctx))
    return out


def tail_bound(d: int, lam: float) -> float:
    """6 d exp(-lambda)."""
    if d < 1:
        raise DomainError(f"matrix dimension must be >= 1, got {d}")
    if not lam > 0:
        raise DomainError(f"tail level must be positive, got {lam}")
    return 6.0 * d * math.exp(-lam)


@dataclass(frozen=True)
class GaussianPass:
    """The Monte Carlo estimates every Gaussian checker of a run reads, from
    one pass per sample stream (``gaussian_pass``).

    ``tail`` maps each level lambda to its survival Estimate, ``poly`` and
    ``chaos`` map each order q to a pair (Estimate of E tr |f - c|^{2q},
    E tr (Gamma / 4)^q): c is the chaos mean (the series is mean zero) for
    poly-moment and no centre for the chaos corollaries.  The Gamma entry
    comes from the pass's one Gamma table, so the two suites hold the same
    object at an order: an Estimate on a chaos and, on a series, whose
    Gamma is constant, the exact float read from its energy report.
    ``v_f`` and ``v_f_mode`` are those of the tail, None without one.
    """

    spec: SampleSpec
    v_f: float | None
    v_f_mode: str | None
    tail: dict
    poly: dict
    chaos: dict


def _read(table: dict, keys, suite: str) -> list:
    """The entries of ``table`` at ``keys``; a key the pass did not
    estimate is refused, never matched to another by position."""
    missing = [float(k) for k in keys if float(k) not in table]
    if missing:
        raise DomainError(f"the Gaussian pass has no {suite} estimate at {missing}; "
                          f"give them to gaussian_pass")
    return [table[float(k)] for k in keys]


def gaussian_pass(model, rep: EnergyReport, cert: PoincareCertificate, spec: SampleSpec,
                  lambda_grid=None, v_f_override: float | None = None, poly_q=None,
                  chaos_q=None) -> GaussianPass:
    """One Monte Carlo pass per sample stream for the Gaussian suites of a
    run: the tail at the levels of ``lambda_grid``, poly-moment at the
    orders of ``poly_q`` and the chaos corollaries at those of ``chaos_q``
    (None leaves a suite out).  ``rep`` is the model's ``energy_report``.

    The tail needs N >= 10^4 samples and an exact variance proxy (a
    series's, read from ``rep``) or a user-certified one (``v_f_override``,
    for a chaos, whose Gamma is unbounded, so the probed v_f of its report
    is no bound; a negative, NaN or infinite one is refused before any
    draw); its thresholds are sqrt(alpha v_f) * lambda.  The f-stream
    (``spec.seed``) is drawn and evaluated once.  The tail and poly-moment
    read the centred spectrum (the chaos mean; the series is mean zero and
    needs no centre), the chaos corollaries the uncentred one: one
    ``spectral.batch_eigvalsh`` per centre and block, with every order of
    the union of the q lists read at each centre.  Both suites read one
    Gamma moment per order, E tr (Gamma / 4)^q: on a chaos one more pass
    (``chaos_gamma_moments``), on a series an exact sum over the
    eigenvalues in ``rep``.
    """
    if not isinstance(model, (GaussianSeries, GaussianChaos)):
        raise DomainError(f"unsupported model type {type(model).__name__}")
    if v_f_override is not None and not (math.isfinite(v_f_override) and v_f_override >= 0):
        raise DomainError(f"v_f_override must be a finite number >= 0, got {v_f_override}")
    tail, poly, chaos = lambda_grid is not None, poly_q is not None, chaos_q is not None
    v_f = mode = None
    lams, thresholds = [], []
    if tail:
        if spec.n < 10 ** 4:
            raise DomainError(f"tail estimation needs N >= 10^4 samples, got {spec.n}")
        if isinstance(model, GaussianSeries):
            v_f, mode = rep.v_f, rep.mode
        elif v_f_override is None:
            raise DomainError(
                "Gamma of a Gaussian chaos is unbounded, so it has no exact variance "
                "proxy; supply an explicit certified bound (v_f_override)")
        else:
            v_f, mode = float(v_f_override), "USER_CERTIFIED"
        lams = [float(lam) for lam in lambda_grid]
        thresholds = math.sqrt(cert.alpha * v_f) * np.asarray(lams)
    centred = None if isinstance(model, GaussianSeries) else model.mean()
    centres = ([centred] if tail or poly else []) + ([None] if chaos else [])
    orders = sorted({float(q) for q in [*(poly_q or []), *(chaos_q or [])]})
    field = model.as_field()
    if tail:
        groups = estimate_tail(field, thresholds, spec, orders, centres)
    else:
        groups = estimate_trace_moment(field, orders, spec, centres)
    k = len(lams)
    moments = [dict(zip(orders, g[k:])) for g in groups]
    if isinstance(model, GaussianSeries):
        gam_eigs = 0.25 * np.clip(rep.gamma_eigs[0], 0.0, None)
        gammas = {q: float(np.sum(gam_eigs ** q)) for q in orders}
    else:  # a chaos tail alone has no order, and reads no Gamma moment
        gammas = dict(zip(orders, chaos_gamma_moments(model, orders, spec))) if orders else {}
    return GaussianPass(
        spec=spec, v_f=v_f, v_f_mode=mode,
        tail=dict(zip(lams, groups[0][:k])) if tail else {},
        poly={float(q): (moments[0][float(q)], gammas[float(q)]) for q in poly_q or []},
        chaos={float(q): (moments[-1][float(q)], gammas[float(q)]) for q in chaos_q or []})


def check_tail_empirical(model, rep, cert: PoincareCertificate, lambda_grid) -> list[CheckReport]:
    """P{ |f - E f| >= sqrt(alpha v_f) * lambda } <= 6 d exp(-lambda).

    Finite chains are enumerated exactly from f's energy report ``rep``.  On
    a Gaussian model ``rep`` is the run's ``gaussian_pass``, which holds a
    Wilson estimate per level and the exact (series) or user-certified
    (chaos) variance proxy.  Bounds >= 1 pass automatically since the left
    side is a probability.
    """
    lam_grid = np.asarray(lambda_grid, dtype=float)
    out = []
    if isinstance(model, FiniteChain):
        v_f, d = rep.v_f, rep.field.dim
        scale = math.sqrt(cert.alpha * v_f)
        devs = np.maximum(np.abs(rep.f_eigs[:, 0]), np.abs(rep.f_eigs[:, -1]))
        mu = model.stationary
        for lam in lam_grid:
            bound = tail_bound(d, float(lam))
            if scale == 0.0:
                # constant field: the meaningful event is a strictly positive
                # deviation, which never happens
                survival = float(mu[devs > 0.0].sum())
            else:
                survival = float(mu[devs >= scale * lam].sum())
            out.append(CheckReport.from_comparison(
                "subexp-tail", survival, bound, slack_for(bound),
                {"chain": model.name, "lambda": float(lam), "alpha": cert.alpha,
                 "v_f": v_f, "d": d, "exact": True,
                 "auto_pass": bound >= 1.0}))
        return out

    d = model.dim
    for lam, est in zip(lam_grid, _read(rep.tail, lam_grid, "tail")):
        bound = tail_bound(d, float(lam))
        ctx = {"lambda": float(lam), "alpha": cert.alpha, "v_f": rep.v_f,
               "v_f_mode": rep.v_f_mode, "d": d, "n": est.n, "seed": rep.spec.seed,
               "level": est.level, "auto_pass": bound >= 1.0}
        out.append(CheckReport.from_interval(
            "subexp-tail", est.ci_low, est.value, est.ci_high, (bound,) * 3,
            slack_for(bound), ctx))
    return out


def _sqrt2_regime(q: float) -> bool:
    return 1.0 < q < 1.5


def poly_moment_rhs(alpha: float, q: float, trace_gamma_q: float) -> float:
    """sqrt(2 alpha) q (E tr Gamma^q)^(1/(2q)), with the extra sqrt(2) in
    the exceptional regime q in (1, 1.5); q stays outside the square root,
    so a huge finite q gives a finite rhs."""
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if not q >= 1.0:
        raise DomainError(f"moment order q must be >= 1, got {q}")
    if trace_gamma_q < 0:
        raise DomainError("E tr Gamma^q must be nonnegative")
    rhs = math.sqrt(2.0 * alpha) * q * trace_gamma_q ** (1.0 / (2.0 * q))
    if _sqrt2_regime(q):
        rhs *= math.sqrt(2.0)
    return rhs


def _root_interval(est: montecarlo.Estimate, q: float) -> tuple[float, float, float]:
    """The (2q)-th roots of an Estimate's interval and value, as the
    (lower, value, upper) sides of a moment norm."""
    root = 1.0 / (2.0 * q)
    return max(est.ci_low, 0.0) ** root, est.value ** root, est.ci_high ** root


def _times_four_to(q: float, x: float) -> float:
    """4^q x as x 4^(q - k) 2^(2k) with k = floor(q), by ldexp: finite where
    only 4^q overflows (q >= 512), +-inf beyond the float range, and 0,
    inf or NaN where x is."""
    k = math.floor(q)
    try:
        return math.ldexp(x * 4.0 ** (q - k), 2 * k)
    except OverflowError:
        return math.copysign(math.inf, x)


def check_poly_moment(model, rep, cert: PoincareCertificate, q_list) -> list[CheckReport]:
    """(E tr |f|^{2q})^{1/(2q)} <= poly_moment_rhs, exact on finite chains
    and Monte Carlo on Gaussian models (fields centered first).

    On a finite chain ``rep`` is f's energy report, which holds the spectra
    of f - E f and of Gamma, and both sides are scale-free, so no power
    overflows before its root: s (E tr (|f| / s)^{2q})^{1/(2q)} with
    s = max |f - E f|, and sqrt(s_G) poly_moment_rhs(E tr (Gamma / s_G)^q)
    with s_G = max |Gamma|.

    On a Gaussian model ``rep`` is the run's ``gaussian_pass``, which holds
    the centred f-moments and the moments t = E tr (Gamma / 4)^q: estimated
    on a chaos, whose rhs then carries the Gamma moment's interval
    (``rhs_ci``), and exact on a series, whose Gamma is x-independent.  The
    rhs is the scale-free 2 poly_moment_rhs(t), since
    (4^q t)^{1/(2q)} = 2 t^{1/(2q)}, and ``gamma_moment_ci`` is 4^q times
    t's interval, that of E tr Gamma^q.
    """
    out = []
    if isinstance(model, FiniteChain):
        f_eigs = np.abs(rep.f_eigs)
        gam_eigs = np.clip(rep.gamma_eigs, 0.0, None)
        s, s_gam = float(np.max(f_eigs)), float(np.max(gam_eigs))
        f_eigs, gam_eigs = f_eigs / (s or 1.0), gam_eigs / (s_gam or 1.0)
        mu, d = model.stationary, rep.field.dim
        for q in q_list:
            q = float(q)
            tgq = float(np.einsum("z,zi->", mu, gam_eigs ** q))
            rhs = poly_moment_rhs(cert.alpha, q, tgq) * math.sqrt(s_gam)
            lhs = s * float(np.einsum("z,zi->", mu, f_eigs ** (2.0 * q))) ** (1.0 / (2.0 * q))
            out.append(CheckReport.from_comparison(
                "poly-moment", lhs, rhs, slack_for(rhs),
                {"chain": model.name, "q": q, "alpha": cert.alpha, "d": d,
                 "centered_mean_norm": rep.mean_norm,
                 "sqrt2_regime": _sqrt2_regime(q), "exact": True}))
        return out

    q_list = [float(q) for q in q_list]
    d = model.dim
    for q, (est, gam_est) in zip(q_list, _read(rep.poly, q_list, "poly-moment")):
        if isinstance(gam_est, float):
            tgqs, gamma_ctx = (gam_est,) * 3, {"gamma_moment_exact": True}
        else:
            tgqs = (max(gam_est.ci_low, 0.0), gam_est.value, gam_est.ci_high)
            gamma_ctx = {"gamma_moment_ci": [_times_four_to(q, gam_est.ci_low),
                                             _times_four_to(q, gam_est.ci_high)]}
        rhs = tuple(2.0 * poly_moment_rhs(cert.alpha, q, t) for t in tgqs)
        out.append(CheckReport.from_interval(
            "poly-moment", *_root_interval(est, q), rhs, slack_for(rhs[1]),
            {"q": q, "alpha": cert.alpha, "d": d, "n": est.n, "seed": rep.spec.seed,
             "sqrt2_regime": _sqrt2_regime(q), **gamma_ctx}))
    return out


GAMMA_STREAM = 0x5DEECE66D


def chaos_gamma_moments(chaos: GaussianChaos, q_list,
                        spec: SampleSpec) -> list[montecarlo.Estimate]:
    """Monte Carlo estimates of E tr (Gamma(f) / 4)^q for a Gaussian chaos,
    one Estimate per q, all from one pass with one
    ``spectral.batch_eigvalsh`` per block.

    Gamma / 4 = sum_i (sum_j X_j A_ij)^2 is the matrix of the chaos
    corollary, and poly-moment reads the same moments, as
    (E tr Gamma^q)^{1/(2q)} = 2 (E tr (Gamma / 4)^q)^{1/(2q)}.  The clipped
    eigenvalues of Gamma are scaled by 1/4, which agrees exactly with
    scaling Gamma.  The pass runs on its own stream (seed ^ GAMMA_STREAM),
    so the Gamma side is independent of the f-pass on ``spec``.
    """
    gamma = SmoothField(ambient_dim=chaos.n_vars, dim=chaos.dim,
                        batch=lambda xs: chaos_gamma_batch(chaos, xs))

    def per_sample(mats):
        return power_sums(0.25 * np.clip(batch_eigvalsh(mats), 0.0, None), q_list)

    stream = SampleSpec(n=spec.n, seed=spec.seed ^ GAMMA_STREAM, workers=spec.workers)
    return montecarlo.estimate_statistic(stream, gamma, per_sample)


def check_intdim_variant(chain: FiniteChain, rep: EnergyReport,
                         cert: PoincareCertificate, q_list) -> list[CheckReport]:
    """E tr |g|^{2q} <= intdim(dirichlet(g)) * alpha^q q! * v_g^q for the
    symmetrized difference field g(z, z') = f(z) - f(z'), one report per
    natural q of q_list; g and its spectrum are built once for the whole
    list, the spectrum by one ``spectral.batch_eigvalsh`` over the
    (n^2, d, d) grid.  g's energies are read
    from f's energy report ``rep``: Gamma(g)(z, z') = Gamma(f)(z) +
    Gamma(f)(z') gives v_g = 2 v_f and dirichlet(g) = 2 dirichlet(f), and
    intdim(2 D) = intdim(D), which is sum(w) / max |w| over the report's
    ``dirichlet_eigs`` w, and 0 when D = 0.

    The context also records the uniform bound (2 alpha q^2)^q * d * v_f^q
    that follows from the polynomial moment inequality, and which of the two
    is tighter; no inequality is asserted between them.
    """
    for q in q_list:
        if not (q >= 1 and float(q).is_integer()):
            raise DomainError(f"the intrinsic-dimension bound needs a natural q, got {q}")
    v_f, d = rep.v_f, rep.field.dim
    v_g = 2.0 * v_f
    grid = bivariate_symmetrized(chain, rep)
    mu2 = np.kron(chain.stationary, chain.stationary)
    g_eigs = np.abs(batch_eigvalsh(grid.reshape(-1, d, d)))
    w = rep.dirichlet_eigs
    norm = float(np.max(np.abs(w)))
    idim = float(np.sum(w)) / norm if norm else 0.0
    out = []
    for q in q_list:
        q = int(q)
        lhs = float(np.einsum("z,zi->", mu2, g_eigs ** (2 * q)))
        # q! in log space; a bound beyond the float range is read as inf
        if idim == 0.0 or v_g == 0.0:
            rhs = 0.0
        else:
            try:
                rhs = math.exp(math.log(idim) + q * math.log(cert.alpha)
                               + math.lgamma(q + 1) + q * math.log(v_g))
            except OverflowError:
                rhs = math.inf
        try:
            uniform = (2.0 * cert.alpha * q * q) ** q * d * v_f ** q
        except OverflowError:
            uniform = math.inf
        out.append(CheckReport.from_comparison(
            "intdim-moment", lhs, rhs, slack_for(rhs),
            {"chain": chain.name, "q": q, "alpha": cert.alpha,
             "intdim_dirichlet": idim, "v_g": v_g, "d": d,
             "uniform_poly_bound": uniform,
             "tighter": "intdim" if rhs <= uniform else "uniform"}))
    return out


def _coefficient_norm(a) -> float:
    """|A| of a PSD coefficient matrix, from one eigvalsh; DomainError when
    A is not PSD."""
    w = psd_eigvalsh(symmetrize(a), "chaos coefficient matrix")
    return float(np.max(np.abs(w))) if w.size else 0.0


def _scalar_bound(norm: float, q: float) -> float:
    if not q >= 1:
        raise DomainError(f"moment order q must be >= 1, got {q}")
    return 8.0 * norm * q * q


def chaos_scalar_bound(a, q: float) -> float:
    """8 q^2 |A| for a PSD coefficient matrix A of a scalar Gaussian chaos;
    q^2 is never formed on its own, so a huge q overflows the bound only
    when 8 q^2 |A| itself does."""
    return _scalar_bound(_coefficient_norm(a), q)


def check_chaos_scalar(chaos: GaussianChaos, mc: GaussianPass, q_list) -> list[CheckReport]:
    """Scalar chaos corollary (E |f|^{2q})^{1/(2q)} <= 8 q^2 |A| for PSD A,
    read from the uncentred f-moments of the run's ``gaussian_pass``; A is
    diagonalised once for the whole list."""
    if chaos.dim != 1:
        raise DomainError("the scalar chaos corollary needs d = 1 coefficients")
    norm = _coefficient_norm(chaos.coefficients[:, :, 0, 0])
    q_list = [float(q) for q in q_list]
    out = []
    for q, (est, _) in zip(q_list, _read(mc.chaos, q_list, "chaos")):
        rhs = _scalar_bound(norm, q)
        out.append(CheckReport.from_interval(
            "chaos-scalar", *_root_interval(est, q), (rhs,) * 3, slack_for(rhs),
            {"q": q, "norm_A": norm, "n": est.n, "seed": mc.spec.seed}))
    return out


def check_chaos_matrix(chaos: GaussianChaos, mc: GaussianPass, q_list) -> list[CheckReport]:
    """One-step matrix chaos inequality with alpha = 1:

        (E tr |f|^{2q})^{1/(2q)}
            <= sqrt(8 q^2) * (E tr [sum_i (sum_j X_j A_ij)^2]^q)^{1/(2q)}

    Both sides are Monte Carlo estimates on independent streams, read from
    the run's ``gaussian_pass``, and the verdict compares their intervals
    (the rhs's is ``rhs_ci``); no iterated closed form is asserted.  The
    inner sum is Gamma(f) / 4, whose moments poly-moment reads too.  The
    factor is sqrt(8) q, so a huge q with finite estimates gives a finite rhs.
    """
    q_list = [float(q) for q in q_list]
    out = []
    for q, (est, gam_est) in zip(q_list, _read(mc.chaos, q_list, "chaos")):
        factor = math.sqrt(8.0) * q
        rhs = tuple(factor * t for t in _root_interval(gam_est, q))
        out.append(CheckReport.from_interval(
            "chaos-matrix", *_root_interval(est, q), rhs, slack_for(rhs[1]),
            {"q": q, "d": chaos.dim, "n": est.n, "seed": mc.spec.seed}))
    return out
