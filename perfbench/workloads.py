"""The benchmark's workloads: one tplab experiment config per workload.

Every random field and coefficient is drawn here from the workload seed, so
tplab receives only the finished config (the same JSON a user would pass to
`tplab run --config`).  `size="tiny"` shrinks a workload for the smoke test
while keeping its suites and code paths.

Why each workload exists:

- chain-large: the 7-fold product of the 3-state complete-refresh chain
  (2,187 states, a dense 38 MB generator) with two fields.  The dense
  O(n^2 d^3) Gamma table and the O(n^3) eigensolve dominate, so sparse
  storage, the tensorized gap and memory savings show here.  It runs no
  chain-rule suite and one random field, not two, so that a repetition
  takes about 5 s and a run holds several: chain-many-fields covers the
  chain rule.
- chain-many-fields: the same base at 3 factors (27 states) with 9 fields and
  all seven chain suites.  The cost is repeated per-(chain, field) work
  (about 1,900 Gamma builds, 36 bivariate product chains, 18 energy reports)
  rather than big kernels, so a shared energy bundle or the bivariate
  identity shows here and barely moves chain-large.
- series-mc: a Gaussian series of 16 random symmetric 8x8 coefficients,
  N = 2e5 on 2 workers.  Per-sample eigvalsh of 8x8 matrices through the
  thread pool dominates; q = 1.5 keeps a non-integer moment beside the
  integer ones, so a matmul-moment change shows where it applies and where
  it does not.
- chaos-mc: a Gaussian chaos in 8 variables with random 3x3 coefficients,
  N = 1e5 on 1 worker.  Einsum evaluation and chaos_gamma_batch dominate, the
  draws repeat for every q, and the serial path is the single-threaded
  baseline: a threading change that helps series-mc must not cost here.  It
  is the only workload that reaches the Monte Carlo branch of the energy
  layer and the chaos checkers.  No tail suite runs, because a chaos has no
  finite certified v_f.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("chain-large", "chain-many-fields", "series-mc", "chaos-mc")

# Threads each workload may use: Monte Carlo workers (TPL_THREADS caps them)
# and BLAS threads per worker.  The product is the thread budget, which the
# runner checks against the core count before starting.
THREADS = {
    "chain-large": {"mc_workers": 1, "blas": 2},
    "chain-many-fields": {"mc_workers": 1, "blas": 2},
    "series-mc": {"mc_workers": 2, "blas": 1},
    "chaos-mc": {"mc_workers": 1, "blas": 1},
}

REFRESH_MU = [0.2, 0.3, 0.5]

CHAIN_PARAMS = {
    "lambda_grid": [0.5 * k for k in range(1, 17)],
    "q_list": [1, 1.5, 2, 3],
    "intdim_q": [1, 2, 3],
    "phis": [
        {"kind": "sinh", "scale": 1.0},
        {"kind": "signed_pow", "exponent": 2.0},
        {"kind": "affine", "a": 2.0, "b": 1.0},
    ],
}

SIZES = {
    # workload: {size: parameters}
    "chain-large": {"full": {"factors": 7, "trials": 4},
                    "tiny": {"factors": 3, "trials": 4}},
    "chain-many-fields": {"full": {"factors": 3, "trials": 400},
                          "tiny": {"factors": 2, "trials": 12}},
    "series-mc": {"full": {"n": 200_000}, "tiny": {"n": 10_000}},
    "chaos-mc": {"full": {"n": 100_000}, "tiny": {"n": 2_000}},
}


def _symmetric(rng: np.random.Generator, shape) -> np.ndarray:
    raw = rng.standard_normal(shape)
    return 0.5 * (raw + np.swapaxes(raw, -1, -2))


def _refresh_product(factors: int) -> dict:
    return {"product": {"base": {"complete_refresh": {"stationary": REFRESH_MU}},
                        "n": factors}}


def _table_fields(rng, n_states: int, dims) -> list[dict]:
    return [{"type": "table", "name": f"random-d{d}-{i}",
             "values": _symmetric(rng, (n_states, d, d)).tolist()}
            for i, d in enumerate(dims)]


def _chain_config(rng, seed: int, factors: int, dims, suites, trials: int) -> dict:
    n_states = len(REFRESH_MU) ** factors
    return {
        "seed": seed,
        "model": _refresh_product(factors),
        "fields": [{"type": "fixture", "name": "indicator-1"}]
                  + _table_fields(rng, n_states, dims),
        "suites": suites,
        "params": dict(CHAIN_PARAMS, probe={"trials": trials, "dims": [1, 2, 3]}),
    }


def build_config(workload: str, seed: int, size: str = "full") -> dict:
    """The experiment config of `workload`, a pure function of `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (known: {list(WORKLOADS)})")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    config_seed = int(rng.integers(1 << 32))
    p = SIZES[workload][size]
    if workload == "chain-large":
        return _chain_config(rng, config_seed, p["factors"], [2],
                             ["poincare", "exp-moment", "tail", "poly-moment"], p["trials"])
    if workload == "chain-many-fields":
        return _chain_config(rng, config_seed, p["factors"], [2] * 4 + [3] * 4,
                             ["poincare", "subadditivity", "chain-rule",
                              "exp-moment", "tail", "poly-moment", "intdim"],
                             p["trials"])
    workers = THREADS[workload]["mc_workers"]
    samples = {"n": p["n"], "workers": workers, "antithetic": False}
    if workload == "series-mc":
        return {
            "seed": config_seed,
            "samples": samples,
            "model": {"name": "series-16x8",
                      "gaussian_series": {"coefficients": _symmetric(rng, (16, 8, 8)).tolist()}},
            "suites": ["tail", "poly-moment"],
            "params": {"lambda_grid": [0.5, 1, 2, 3, 4, 6], "q_list": [1, 1.5, 2, 3]},
        }
    return {
        "seed": config_seed,
        "samples": samples,
        "model": {"name": "chaos-8x3",
                  "gaussian_chaos": {"coefficients": rng.standard_normal((8, 8, 3, 3)).tolist()}},
        "suites": ["poly-moment", "chaos"],
        "params": {"q_list": [1, 1.5, 2, 3]},
    }
