"""Executable checkers for the concentration machinery: subadditivity of the
trace variance, the bivariate trace Poincare inequality, the mean-value trace
inequality, the Dirichlet-form chain rule, exponential and polynomial moment
bounds, subexponential tails, the intrinsic-dimension variant and the
Gaussian-chaos corollaries.

Each checker evaluates both sides of one inequality instance (exactly on
finite chains, by Monte Carlo on Gaussian models) and returns CheckReports.
An unbounded right-hand side is a first-class verdict (SKIPPED), not an
exception; Monte Carlo comparisons violated only within the confidence
interval come back INCONCLUSIVE rather than FAIL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import montecarlo
from .energy import (
    SymmetrizedPair,
    bivariate_symmetrized,
    carre_table,
    chaos_gamma_batch,
    column_energies,
    dirichlet_form,
    variance_proxy,
)
from .errors import DimensionError, DomainError
from .models import FiniteChain, FiniteField, GaussianChaos, GaussianSeries, SmoothField
from .montecarlo import SampleSpec, estimate_tail, estimate_trace_moment
from .poincare import PoincareCertificate
from .reports import DEFAULT_SLACK, CheckReport, slack_for
from .spectral import ScalarFnSpec, eigh, intdim, max_op_norm, op_norm, symmetrize

UNBOUNDED = math.inf


@dataclass(frozen=True)
class BoundParams:
    """Parameters entering the moment/tail bounds.  theta is the exponential
    scale, q the moment order, lam the tail level; unused entries may stay
    None.  q in (1, 1.5) is admissible only through the sqrt(2)-adjusted
    regime of poly_moment_rhs."""

    alpha: float
    v_f: float
    d: int
    theta: float | None = None
    q: float | None = None
    lam: float | None = None

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if self.v_f < 0:
            raise DomainError(f"variance proxy must be nonnegative, got {self.v_f}")
        if self.d < 1:
            raise DomainError(f"matrix dimension must be >= 1, got {self.d}")
        if self.theta is not None and self.theta < 0:
            raise DomainError(f"theta must be nonnegative, got {self.theta}")
        if self.lam is not None and not self.lam > 0:
            raise DomainError(f"tail level must be positive, got {self.lam}")


def _centered(chain: FiniteChain, f: FiniteField) -> tuple[np.ndarray, np.ndarray]:
    mean = np.einsum("z,zij->ij", chain.stationary, f.values)
    return f.values - mean, mean


def _as_grid(base: FiniteChain, g) -> np.ndarray:
    if isinstance(g, SymmetrizedPair):
        return g.g_grid
    arr = np.asarray(g, dtype=float)
    m = base.n_states
    if arr.ndim != 4 or arr.shape[0] != m or arr.shape[1] != m or arr.shape[2] != arr.shape[3]:
        raise DimensionError(
            f"bivariate field must have shape ({m}, {m}, d, d), got {arr.shape}")
    return 0.5 * (arr + arr.transpose(0, 1, 3, 2))


def _trace_variance(mu: np.ndarray, grid: np.ndarray) -> float:
    """tr Var_{mu x mu}[g] of a grid g of shape (m, m, d, d)."""
    w = np.einsum("a,b->ab", mu, mu)
    mean = np.einsum("ab,abij->ij", w, grid)
    second = np.einsum("ab,abij->ij", w, grid @ grid)
    return float(np.trace(second - mean @ mean))


def check_subadditivity(base: FiniteChain, g,
                        slack_scale: float = DEFAULT_SLACK) -> CheckReport:
    """tr Var_{mu x mu}[g] <= E_2 tr Var_1[g] + E_1 tr Var_2[g]."""
    grid = _as_grid(base, g)
    mu = base.stationary
    lhs = _trace_variance(mu, grid)

    mean1 = np.einsum("a,abij->bij", mu, grid)            # E_1 g (per z2)
    var1 = np.einsum("a,abij->bij", mu, grid @ grid) - mean1 @ mean1
    term1 = float(np.einsum("b,bii->", mu, var1))         # E_2 tr Var_1

    mean2 = np.einsum("b,abij->aij", mu, grid)            # E_2 g (per z1)
    var2 = np.einsum("b,abij->aij", mu, grid @ grid) - mean2 @ mean2
    term2 = float(np.einsum("a,aii->", mu, var2))         # E_1 tr Var_2

    rhs = term1 + term2
    return CheckReport.from_comparison(
        "variance-subadditivity", lhs, rhs, slack_for(rhs, slack_scale),
        {"chain": base.name, "d": grid.shape[2]})


def check_bivariate_poincare(base: FiniteChain, g, cert: PoincareCertificate,
                             slack_scale: float = DEFAULT_SLACK) -> CheckReport:
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
    lhs = _trace_variance(mu, grid)
    return CheckReport.from_comparison(
        "poincare-subadditivity", lhs, rhs, slack_for(rhs, slack_scale),
        {"chain": base.name, "alpha": cert.alpha, "d": grid.shape[2]})


def _require_convex_sq_derivative(phi: ScalarFnSpec):
    if not phi.convex_sq_derivative:
        raise DomainError(
            f"scalar function {phi.label()} is not in the admissible class "
            "(sinh, signed_pow with exponent >= 1.5, affine)")


def check_mean_value_trace(a, b, phi: ScalarFnSpec,
                           slack_scale: float = DEFAULT_SLACK) -> CheckReport:
    """tr[(phi(A) - phi(B))^2] <= (1/2) tr[(A - B)^2 (psi(A) + psi(B))]
    for psi = (phi')^2 convex."""
    _require_convex_sq_derivative(phi)
    a = symmetrize(a)
    b = symmetrize(b)
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    dec = eigh(np.stack([a, b]))
    phi_a, phi_b = dec.map(phi)
    psi_a, psi_b = dec.map(phi.sq_deriv)
    diff_phi = phi_a - phi_b
    lhs = float(np.trace(diff_phi @ diff_phi))
    diff = a - b
    rhs = 0.5 * float(np.trace(diff @ diff @ (psi_a + psi_b)))
    return CheckReport.from_comparison(
        "mean-value-trace", lhs, rhs, slack_for(rhs, slack_scale),
        {"phi": phi.label(), "d": a.shape[0]})


def check_chain_rule(chain: FiniteChain, f: FiniteField, phi: ScalarFnSpec,
                     slack_scale: float = DEFAULT_SLACK) -> CheckReport:
    """tr dirichlet(phi(f)) <= E_mu tr[Gamma(f) psi(f)], both exact sums."""
    _require_convex_sq_derivative(phi)
    dec = eigh(f.values)
    lhs = float(np.trace(dirichlet_form(chain, FiniteField(dec.map(phi)))))
    gam = carre_table(chain, f)
    rhs = float(np.einsum("z,zij,zji->", chain.stationary, gam, dec.map(phi.sq_deriv)))
    return CheckReport.from_comparison(
        "dirichlet-chain-rule", lhs, rhs, slack_for(rhs, slack_scale),
        {"chain": chain.name, "phi": phi.label(), "d": f.dim})


def exp_moment_rhs(p: BoundParams, trace_dirichlet_normalized: float) -> float:
    """d * [1 + alpha theta^2 trbar(dirichlet) / (1 - alpha v_f theta^2 / 2)_+].

    Returns UNBOUNDED (inf) when the positive part in the denominator
    vanishes; callers record such grid points as SKIPPED.
    """
    theta = p.theta if p.theta is not None else 1.0
    denom = 1.0 - p.alpha * p.v_f * theta * theta / 2.0
    if denom <= 0.0:
        return UNBOUNDED
    return p.d * (1.0 + p.alpha * theta * theta * trace_dirichlet_normalized / denom)


def default_theta_grid(alpha: float, v_f: float, points: int = 20) -> np.ndarray:
    """Grid anchored at the tail-optimal theta = (alpha v_f)^(-1/2), staying
    below the singular value sqrt(2) * anchor."""
    if v_f <= 0.0:
        return np.linspace(0.1, 2.0, points)
    anchor = 1.0 / math.sqrt(alpha * v_f)
    return anchor * np.linspace(0.05, 1.35, points)


def check_exp_moment(chain: FiniteChain, f: FiniteField,
                     cert: PoincareCertificate, theta_grid,
                     slack_scale: float = DEFAULT_SLACK) -> list[CheckReport]:
    """E_mu tr cosh(theta f) <= exp_moment_rhs for each grid theta, with f
    centered first (the subtracted mean is logged in the context)."""
    centered, mean = _centered(chain, f)
    cf = FiniteField(centered)
    gam = carre_table(chain, cf)
    dirichlet = np.einsum("z,zij->ij", chain.stationary, gam)
    v_f = max_op_norm(gam)
    d = cf.dim
    trbar = float(np.trace(dirichlet)) / d
    eigs = np.linalg.eigvalsh(cf.values)  # (n_states, d)
    mu = chain.stationary
    base_ctx = {"chain": chain.name, "alpha": cert.alpha, "v_f": v_f,
                "trbar_dirichlet": trbar, "d": d,
                "centered_mean_norm": op_norm(mean)}
    out = []
    for theta in np.asarray(theta_grid, dtype=float):
        params = BoundParams(alpha=cert.alpha, v_f=v_f, d=d, theta=float(theta))
        rhs = exp_moment_rhs(params, trbar)
        ctx = dict(base_ctx, theta=float(theta))
        with np.errstate(over="ignore"):
            lhs = float(np.einsum("z,zi->", mu, np.cosh(theta * eigs)))
        if not math.isfinite(rhs):
            ctx["reason"] = "bound unbounded: alpha*v_f*theta^2/2 >= 1"
            out.append(CheckReport.skipped("exp-moment", lhs, UNBOUNDED, ctx))
            continue
        out.append(CheckReport.from_comparison(
            "exp-moment", lhs, rhs, slack_for(rhs, slack_scale), ctx))
    return out


def tail_bound(p: BoundParams) -> float:
    """6 d exp(-lambda)."""
    if p.lam is None:
        raise DomainError("tail bound needs the level lambda")
    return 6.0 * p.d * math.exp(-p.lam)


def _gaussian_center(model) -> np.ndarray:
    if isinstance(model, GaussianSeries):
        return np.zeros((model.dim, model.dim))
    return model.mean()


def gaussian_tail_thresholds(model, cert: PoincareCertificate, lambda_grid,
                             spec: SampleSpec | None,
                             v_f_override: float | None = None):
    """The sampled tail check's field, thresholds sqrt(alpha v_f) * lambda,
    v_f and v_f mode on a Gaussian model, after its admissibility checks:
    a SampleSpec with N >= 10^4 and an exact (series) or user-certified
    (chaos) variance proxy."""
    if spec is None:
        raise DomainError("tail check on a Gaussian model needs a SampleSpec")
    if spec.n < 10 ** 4:
        raise DomainError(f"tail estimation needs N >= 10^4 samples, got {spec.n}")
    if isinstance(model, GaussianSeries):
        v_f, mode = variance_proxy(model)
        field = model.as_field()
    else:
        if v_f_override is None:
            raise DomainError(
                "Gamma of a Gaussian chaos is unbounded, so it has no exact variance "
                "proxy; supply an explicit certified bound (v_f_override)")
        v_f, mode = float(v_f_override), "USER_CERTIFIED"
        field = model.as_field()
    thresholds = math.sqrt(cert.alpha * v_f) * np.asarray(lambda_grid, dtype=float)
    return field, thresholds, v_f, mode


def check_tail_empirical(model, f, cert: PoincareCertificate, lambda_grid,
                         spec: SampleSpec | None = None,
                         v_f_override: float | None = None,
                         slack_scale: float = DEFAULT_SLACK,
                         tail_ests=None) -> list[CheckReport]:
    """P{ |f - E f| >= sqrt(alpha v_f) * lambda } <= 6 d exp(-lambda).

    Finite chains are enumerated exactly (no sampling).  Gaussian models are
    sampled with Wilson-interval verdicts; this requires an exact variance
    proxy (Gaussian series) or an explicit user-certified bound (a chaos,
    whose Gamma is unbounded).  Bounds >= 1 pass automatically since the left
    side is a probability.  ``tail_ests`` may carry the caller's
    ``estimate_tail`` at ``gaussian_tail_thresholds`` (a pass shared with
    other suites); None makes the pass.
    """
    lam_grid = np.asarray(lambda_grid, dtype=float)
    out = []
    if isinstance(model, FiniteChain):
        centered, mean = _centered(model, f)
        cf = FiniteField(centered)
        v_f, _ = variance_proxy(model, cf)
        d = cf.dim
        scale = math.sqrt(cert.alpha * v_f)
        devs = np.max(np.abs(np.linalg.eigvalsh(cf.values)), axis=1)
        mu = model.stationary
        for lam in lam_grid:
            bound = tail_bound(BoundParams(cert.alpha, v_f, d, lam=float(lam)))
            if scale == 0.0:
                # constant field: the meaningful event is a strictly positive
                # deviation, which never happens
                survival = float(mu[devs > 0.0].sum())
            else:
                survival = float(mu[devs >= scale * lam].sum())
            out.append(CheckReport.from_comparison(
                "subexp-tail", survival, bound, slack_for(bound, slack_scale),
                {"chain": model.name, "lambda": float(lam), "alpha": cert.alpha,
                 "v_f": v_f, "d": d, "exact": True,
                 "auto_pass": bound >= 1.0}))
        return out

    field, thresholds, v_f, mode = gaussian_tail_thresholds(model, cert, lam_grid, spec,
                                                            v_f_override)
    d = field.dim
    if tail_ests is None:
        tail_ests = estimate_tail(field, _gaussian_center(model), thresholds, spec)
    for lam, est in zip(lam_grid, tail_ests):
        bound = tail_bound(BoundParams(cert.alpha, v_f, d, lam=float(lam)))
        ctx = {"lambda": float(lam), "alpha": cert.alpha, "v_f": v_f,
               "v_f_mode": mode, "d": d, "n": est.n, "seed": spec.seed,
               "level": est.level, "auto_pass": bound >= 1.0}
        out.append(CheckReport.from_interval(
            "subexp-tail", est.ci_low, est.value, est.ci_high, bound,
            slack_for(bound, slack_scale), ctx))
    return out


def poly_moment_rhs(p: BoundParams, trace_gamma_q: float) -> float:
    """sqrt(2 alpha q^2) * (E tr Gamma^q)^(1/(2q)), with the extra sqrt(2)
    in the exceptional regime q in (1, 1.5)."""
    q = p.q
    if q is None or not q >= 1.0:
        raise DomainError(f"moment order q must be >= 1, got {q}")
    if trace_gamma_q < 0:
        raise DomainError("E tr Gamma^q must be nonnegative")
    rhs = math.sqrt(2.0 * p.alpha * q * q) * trace_gamma_q ** (1.0 / (2.0 * q))
    if 1.0 < q < 1.5:
        rhs *= math.sqrt(2.0)
    return rhs


def _sqrt2_regime(q: float) -> bool:
    return 1.0 < q < 1.5


def check_poly_moment(model, f, cert: PoincareCertificate, q_list,
                      spec: SampleSpec | None = None,
                      slack_scale: float = DEFAULT_SLACK,
                      f_ests=None, gam_ests=None) -> list[CheckReport]:
    """(E tr |f|^{2q})^{1/(2q)} <= poly_moment_rhs, exact on finite chains
    and Monte Carlo on Gaussian models (fields centered first).

    On a Gaussian model ``f_ests`` may carry the caller's centred f-pass
    (``estimate_trace_moment`` at the chaos mean, or with no centre for a
    series) and, on a chaos, ``gam_ests`` the scale-1 list of
    ``chaos_gamma_moments``, one Estimate per q each; None makes the pass.
    """
    out = []
    if isinstance(model, FiniteChain):
        centered, mean = _centered(model, f)
        cf = FiniteField(centered)
        gam = carre_table(model, cf)
        gam_eigs = np.clip(np.linalg.eigvalsh(gam), 0.0, None)
        f_eigs = np.abs(np.linalg.eigvalsh(cf.values))
        mu = model.stationary
        for q in q_list:
            q = float(q)
            tgq = float(np.einsum("z,zi->", mu, gam_eigs ** q))
            rhs = poly_moment_rhs(BoundParams(cert.alpha, 0.0, cf.dim, q=q), tgq)
            lhs = float(np.einsum("z,zi->", mu, f_eigs ** (2.0 * q))) ** (1.0 / (2.0 * q))
            out.append(CheckReport.from_comparison(
                "poly-moment", lhs, rhs, slack_for(rhs, slack_scale),
                {"chain": model.name, "q": q, "alpha": cert.alpha, "d": cf.dim,
                 "centered_mean_norm": op_norm(mean),
                 "sqrt2_regime": _sqrt2_regime(q), "exact": True}))
        return out

    if spec is None:
        raise DomainError("polynomial moment check on a Gaussian model needs a SampleSpec")
    q_list = [float(q) for q in q_list]
    if isinstance(model, GaussianSeries):
        field = model.as_field()
        gamma = dirichlet_form(model)  # Gamma is x-independent
        gam_eigs = np.clip(np.linalg.eigvalsh(gamma), 0.0, None)
        # the series is mean zero: no centre
        if f_ests is None:
            f_ests = estimate_trace_moment(field, q_list, spec)
        for q, est in zip(q_list, f_ests):
            tgq = float(np.sum(gam_eigs ** q))
            rhs = poly_moment_rhs(BoundParams(cert.alpha, 0.0, field.dim, q=q), tgq)
            root = 1.0 / (2.0 * q)
            out.append(CheckReport.from_interval(
                "poly-moment", max(est.ci_low, 0.0) ** root, est.value ** root,
                est.ci_high ** root, rhs, slack_for(rhs, slack_scale),
                {"q": q, "alpha": cert.alpha, "d": field.dim, "n": est.n,
                 "seed": spec.seed, "sqrt2_regime": _sqrt2_regime(q),
                 "gamma_moment_exact": True}))
        return out
    if isinstance(model, GaussianChaos):
        field = model.as_field()
        if gam_ests is None:
            (gam_ests,) = chaos_gamma_moments(model, q_list, spec)
        if f_ests is None:
            f_ests = estimate_trace_moment(field, q_list, spec, center=model.mean())
        for q, gam_est, est in zip(q_list, gam_ests, f_ests):
            rhs = poly_moment_rhs(BoundParams(cert.alpha, 0.0, field.dim, q=q),
                                  gam_est.value)
            root = 1.0 / (2.0 * q)
            out.append(CheckReport.from_interval(
                "poly-moment", max(est.ci_low, 0.0) ** root, est.value ** root,
                est.ci_high ** root, rhs, slack_for(rhs, slack_scale),
                {"q": q, "alpha": cert.alpha, "d": field.dim, "n": est.n,
                 "seed": spec.seed, "sqrt2_regime": _sqrt2_regime(q),
                 "gamma_moment_ci": [gam_est.ci_low, gam_est.ci_high]}))
        return out
    raise DomainError(f"unsupported model type {type(model).__name__}")


GAMMA_STREAM = 0x5DEECE66D


def chaos_gamma_moments(chaos: GaussianChaos, q_list, spec: SampleSpec,
                        scales=(1.0,)) -> list[list[montecarlo.Estimate]]:
    """Monte Carlo estimates of E tr (scale * Gamma(f))^q for a Gaussian
    chaos: one list per scale, one Estimate per q, all from one pass with
    one eigvalsh per block.

    The pass runs on its own stream (seed ^ GAMMA_STREAM, never paired), so
    the Gamma side is independent of the f-pass on ``spec``.  The clipped
    eigenvalues of Gamma are scaled rather than Gamma itself; for a
    power-of-two scale the two agree exactly.
    """
    gamma = SmoothField(ambient_dim=chaos.n_vars, dim=chaos.dim,
                        func=lambda x: chaos_gamma_batch(chaos, x[None])[0],
                        batch=lambda xs: chaos_gamma_batch(chaos, xs))
    q_list = [float(q) for q in q_list]

    def per_sample(mats):
        w = np.clip(np.linalg.eigvalsh(mats), 0.0, None)
        out = []
        for scale in scales:
            scaled = scale * w
            out += [np.sum(scaled ** q, axis=1) for q in q_list]
        return out

    stream = SampleSpec(n=spec.n, seed=spec.seed ^ GAMMA_STREAM, workers=spec.workers)
    ests = montecarlo.estimate_statistic(stream, gamma, per_sample)
    k = len(q_list)
    return [ests[i * k:(i + 1) * k] for i in range(len(scales))]


def check_intdim_variant(chain: FiniteChain, f: FiniteField,
                         cert: PoincareCertificate, q_list,
                         slack_scale: float = DEFAULT_SLACK) -> list[CheckReport]:
    """E tr |g|^{2q} <= intdim(dirichlet(g)) * alpha^q q! * v_g^q for the
    symmetrized difference field g(z, z') = f(z) - f(z'), one report per
    natural q of q_list; the pair, its spectrum, intdim and v_f are built
    once for the whole list.

    The context also records the uniform bound (2 alpha q^2)^q * d * v_f^q
    that follows from the polynomial moment inequality, and which of the two
    is tighter; no inequality is asserted between them.
    """
    for q in q_list:
        if not (q >= 1 and float(q).is_integer()):
            raise DomainError(f"the intrinsic-dimension bound needs a natural q, got {q}")
    pair = bivariate_symmetrized(chain, f)
    mu2 = pair.stationary
    g_eigs = np.abs(np.linalg.eigvalsh(pair.g.values))
    idim = intdim(pair.dirichlet)
    v_f, _ = variance_proxy(chain, f)
    d = f.dim
    out = []
    for q in q_list:
        q = int(q)
        lhs = float(np.einsum("z,zi->", mu2, g_eigs ** (2 * q)))
        # q! in log space; a bound beyond the float range is read as inf
        if idim == 0.0 or pair.v == 0.0:
            rhs = 0.0
        else:
            try:
                rhs = math.exp(math.log(idim) + q * math.log(cert.alpha)
                               + math.lgamma(q + 1) + q * math.log(pair.v))
            except OverflowError:
                rhs = math.inf
        try:
            uniform = (2.0 * cert.alpha * q * q) ** q * d * v_f ** q
        except OverflowError:
            uniform = math.inf
        out.append(CheckReport.from_comparison(
            "intdim-moment", lhs, rhs, slack_for(rhs, slack_scale),
            {"chain": chain.name, "q": q, "alpha": cert.alpha,
             "intdim_dirichlet": idim, "v_g": pair.v, "d": d,
             "uniform_poly_bound": uniform,
             "tighter": "intdim" if rhs <= uniform else "uniform"}))
    return out


def chaos_scalar_bound(a, q: float) -> float:
    """8 q^2 |A| for a PSD coefficient matrix A of a scalar Gaussian chaos."""
    if not q >= 1:
        raise DomainError(f"moment order q must be >= 1, got {q}")
    a = symmetrize(a)
    w = np.linalg.eigvalsh(a)
    norm = float(np.max(np.abs(w))) if w.size else 0.0
    if w.size and w[0] < -1e-10 * (1.0 + norm):
        raise DomainError(
            f"chaos coefficient matrix must be PSD (min eigenvalue {w[0]:.3e})")
    return 8.0 * q * q * norm


def check_chaos_scalar(chaos: GaussianChaos, q_list, spec: SampleSpec,
                       slack_scale: float = DEFAULT_SLACK,
                       f_ests=None) -> list[CheckReport]:
    """Scalar chaos corollary (E |f|^{2q})^{1/(2q)} <= 8 q^2 |A| for PSD A.

    ``f_ests`` are the caller's ``estimate_trace_moment(chaos.as_field(),
    q_list, spec)``, shared with ``check_chaos_matrix``; None makes the pass.
    """
    if chaos.dim != 1:
        raise DomainError("the scalar chaos corollary needs d = 1 coefficients")
    a = chaos.coefficients[:, :, 0, 0]
    q_list = [float(q) for q in q_list]
    rhs_list = [chaos_scalar_bound(a, q) for q in q_list]
    if f_ests is None:
        f_ests = estimate_trace_moment(chaos.as_field(), q_list, spec)
    out = []
    for q, rhs, est in zip(q_list, rhs_list, f_ests):
        root = 1.0 / (2.0 * q)
        out.append(CheckReport.from_interval(
            "chaos-scalar", max(est.ci_low, 0.0) ** root, est.value ** root,
            est.ci_high ** root, rhs, slack_for(rhs, slack_scale),
            {"q": q, "norm_A": rhs / (8.0 * q * q), "n": est.n,
             "seed": spec.seed}))
    return out


def check_chaos_matrix(chaos: GaussianChaos, q_list, spec: SampleSpec,
                       slack_scale: float = DEFAULT_SLACK,
                       f_ests=None, gam_ests=None) -> list[CheckReport]:
    """One-step matrix chaos inequality with alpha = 1:

        (E tr |f|^{2q})^{1/(2q)}
            <= sqrt(8 q^2) * (E tr [sum_i (sum_j X_j A_ij)^2]^q)^{1/(2q)}

    Both sides are Monte Carlo estimates on independent streams, one pass
    each for the whole q_list; no iterated closed form is asserted.  The
    inner sum is Gamma(f) / 4.  ``f_ests`` may carry the caller's f-pass, as
    in ``check_chaos_scalar``, and ``gam_ests`` the scale-1/4 list of
    ``chaos_gamma_moments``.
    """
    q_list = [float(q) for q in q_list]
    if gam_ests is None:
        (gam_ests,) = chaos_gamma_moments(chaos, q_list, spec, scales=(0.25,))
    if f_ests is None:
        f_ests = estimate_trace_moment(chaos.as_field(), q_list, spec)
    out = []
    for q, gam_est, est in zip(q_list, gam_ests, f_ests):
        root = 1.0 / (2.0 * q)
        rhs = math.sqrt(8.0 * q * q) * gam_est.value ** root
        out.append(CheckReport.from_interval(
            "chaos-matrix", max(est.ci_low, 0.0) ** root, est.value ** root,
            est.ci_high ** root, rhs, slack_for(rhs, slack_scale),
            {"q": q, "d": chaos.dim, "n": est.n, "seed": spec.seed,
             "rhs_ci": [math.sqrt(8.0 * q * q) * max(gam_est.ci_low, 0.0) ** root,
                        math.sqrt(8.0 * q * q) * gam_est.ci_high ** root]}))
    return out
