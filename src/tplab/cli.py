"""Experiment runner: load a model and fields from a JSON config, execute the
selected check suites, and write CSV/JSON reports.

Exit codes are a stable interface for CI: 0 all checks passed (SKIPPED and
INCONCLUSIVE are counted but do not fail), 1 at least one FAIL verdict,
2 configuration problem, 3 enumeration capacity exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds, fixtures
from .energy import bivariate_symmetrized, energy_report
from .errors import CapacityError, ConfigError, LabError
from .models import (
    FiniteChain,
    FiniteField,
    GaussianChaos,
    GaussianSeries,
    chain_from_json,
    complete_refresh_chain,
    product_chain,
    two_state_chain,
)
from .montecarlo import SampleSpec, estimate_tail, estimate_trace_moment, normal_stream
from .poincare import (
    check_scalar_poincare,
    check_trace_poincare,
    equivalence_probe,
    ou_certificate,
    poincare_constant,
)
from .reports import FAIL, INCONCLUSIVE, PASS, SKIPPED, rows_to_csv, rows_to_json
from .spectral import ScalarFnSpec

KNOWN_SUITES = ("poincare", "subadditivity", "chain-rule", "exp-moment",
                "tail", "poly-moment", "intdim", "chaos")

CHAIN_ONLY = {"poincare", "subadditivity", "chain-rule", "exp-moment", "intdim"}


def default_config() -> dict:
    """Built-in experiment: all chain suites on the two-state fixture."""
    return {
        "seed": 20240601,
        "samples": {"n": 20000, "workers": 1, "antithetic": False},
        "model": {"fixture": "two-state"},
        "fields": [
            {"type": "fixture", "name": "indicator-1"},
            {"type": "random", "dim": 2, "count": 3, "seed": 101},
        ],
        "suites": ["poincare", "subadditivity", "chain-rule", "exp-moment",
                   "tail", "poly-moment", "intdim"],
        "params": {
            "lambda_grid": [0.5 * k for k in range(1, 17)],
            "q_list": [1, 1.5, 2, 3],
            "intdim_q": [1, 2, 3],
            "probe": {"trials": 50, "dims": [1, 2, 3]},
            "phis": [
                {"kind": "sinh", "scale": 1.0},
                {"kind": "signed_pow", "exponent": 2.0},
                {"kind": "affine", "a": 2.0, "b": 1.0},
            ],
        },
        "output": {"dir": "tplab-out", "format": "both"},
    }


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return cfg


MODEL_KEYS = ("fixture", "graph", "generator", "two_state", "complete_refresh", "product",
              "gaussian_series", "gaussian_chaos")


def _labelled(label: str, refused: tuple, build, *args):
    """build(*args), with a missing key, a value of the wrong type or one of
    the ``refused`` package errors turned into a ConfigError that names the
    descriptor's path, such as ``model.product`` or ``fields[2]``."""
    try:
        return build(*args)
    except KeyError as exc:
        raise ConfigError(f"{label}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, AttributeError, *refused) as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def build_model(desc, label: str = "model") -> tuple[object, str]:
    if not isinstance(desc, dict):
        raise ConfigError(f"{label}: descriptor must be a JSON object")
    key = next((k for k in MODEL_KEYS if k in desc), None)
    if key is None:
        raise ConfigError(f"{label}: unrecognized descriptor with keys {sorted(desc)}")
    return _labelled(f"{label}.{key}", (), _model, desc, key, label)


def _model(desc: dict, key: str, label: str) -> tuple[object, str]:
    if key == "fixture":
        return fixtures.get_model(desc["fixture"]), desc["fixture"]
    if key in ("graph", "generator"):
        chain = chain_from_json(desc, name=desc.get("name", "chain"))
    elif key == "two_state":
        chain = two_state_chain(float(desc["two_state"].get("rate", 1.0)))
    elif key == "complete_refresh":
        chain = complete_refresh_chain(desc["complete_refresh"]["stationary"])
    elif key == "product":
        base, _ = build_model(desc["product"]["base"], f"{label}.product.base")
        if not isinstance(base, FiniteChain):
            raise ConfigError(f"{label}.product.base: must describe a finite chain")
        chain = product_chain(base, _integer(desc["product"]["n"], f"{label}.product.n"))
    elif key == "gaussian_series":
        series = GaussianSeries(np.asarray(desc["gaussian_series"]["coefficients"], dtype=float))
        return series, desc.get("name", "gaussian-series")
    else:
        chaos = GaussianChaos(np.asarray(desc["gaussian_chaos"]["coefficients"], dtype=float))
        return chaos, desc.get("name", "gaussian-chaos")
    return chain, chain.name


def _table_field(values) -> FiniteField:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        return FiniteField.from_scalars(arr)
    if arr.ndim == 3:
        return FiniteField(arr)
    raise ConfigError(f"table values must be 1-d (scalars) or 3-d, got {arr.ndim}-d")


def build_fields(descs, chain: FiniteChain, master_seed: int) -> list[tuple[str, FiniteField]]:
    if not isinstance(descs, list):
        raise ConfigError(f"fields: expected a list of field descriptors, got {descs!r}")
    out = []
    for idx, desc in enumerate(descs):
        out += _labelled(f"fields[{idx}]", (LabError,), _fields, desc, idx, chain, master_seed)
    return out


def _fields(desc: dict, idx: int, chain: FiniteChain, master_seed: int) -> list:
    kind, n = desc.get("type"), chain.n_states
    if kind == "table":
        f = _table_field(desc["values"])
        if f.n_states != n:
            raise ConfigError(f"table has {f.n_states} states, chain has {n}")
        return [(desc.get("name", f"table-{idx}"), f)]
    if kind == "constant":
        m = np.atleast_2d(np.asarray(desc.get("matrix", [[float(desc.get("value", 0.0))]]),
                                     dtype=float))
        return [(desc.get("name", f"constant-{idx}"),
                 FiniteField(np.broadcast_to(m, (n,) + m.shape).copy()))]
    if kind == "random":
        dim = _integer(desc.get("dim", 2), "dim", low=1)
        sub = _integer(desc.get("seed", 0), "seed")
        out = []
        for i in range(_integer(desc.get("count", 1), "count", low=0)):
            raw = normal_stream(master_seed ^ sub, i).standard_normal((n, dim, dim))
            out.append((f"random-{idx}-{i}", FiniteField(0.5 * (raw + raw.transpose(0, 2, 1)))))
        return out
    if kind == "fixture":
        return [(desc["name"], fixtures.get_field(desc["name"], chain))]
    raise ConfigError(f"unknown field type {kind!r}")


def _build_phi(desc: dict) -> ScalarFnSpec:
    kind = desc.get("kind")
    if kind == "sinh":
        return ScalarFnSpec.sinh(float(desc.get("scale", 1.0)))
    if kind == "signed_pow":
        return ScalarFnSpec.signed_pow(float(desc.get("exponent", 2.0)))
    if kind == "affine":
        return ScalarFnSpec.affine(float(desc.get("a", 1.0)), float(desc.get("b", 0.0)))
    raise ConfigError(f"unsupported scalar function kind {kind!r} "
                      "(chain-rule admits sinh, signed_pow, affine)")


def _chain_rows(chain, name, fields, reports, suites, params, seed):
    """The rows of the chain suites; ``reports`` holds each field's energy
    report, whose v_f anchors the default theta grid."""
    cert = poincare_constant(chain)
    rows = []

    def add(suite, report):
        rows.append(report.to_row(suite=suite, fixture=name))

    for suite in suites:
        if suite == "poincare":
            for fname, f in fields:
                if f.dim == 1:
                    r = check_scalar_poincare(chain, f.values[:, 0, 0], cert)
                    r.context["field"] = fname
                    add(suite, r)
                r = check_trace_poincare(chain, f, cert)
                r.context["field"] = fname
                add(suite, r)
            probe_cfg = params.get("probe", {})
            probe = equivalence_probe(chain, probe_cfg.get("trials", 50),
                                      probe_cfg.get("dims", [1, 2, 3]), seed, cert)
            add(suite, probe.to_check(chain.name))
        elif suite == "subadditivity":
            for fname, f in fields:
                pair = bivariate_symmetrized(chain, f)
                r = bounds.check_subadditivity(chain, pair)
                r.context["field"] = fname
                add(suite, r)
                r = bounds.check_bivariate_poincare(chain, pair, cert)
                r.context["field"] = fname
                add(suite, r)
        elif suite == "chain-rule":
            descs = params.get("phis", [{"kind": "sinh"}])
            if not isinstance(descs, list):
                raise ConfigError(f"params.phis: expected a list, got {descs!r}")
            phis = [_labelled(f"params.phis[{i}]", (LabError,), _build_phi, desc)
                    for i, desc in enumerate(descs)]
            for fname, f in fields:
                for phi in phis:
                    r = bounds.check_chain_rule(chain, f, phi)
                    r.context["field"] = fname
                    add(suite, r)
                    if chain.n_states >= 2:
                        r = bounds.check_mean_value_trace(f.values[0], f.values[1], phi)
                        r.context["field"] = fname
                        add(suite, r)
        elif suite == "exp-moment":
            for (fname, f), rep in zip(fields, reports):
                grid = params.get("theta_grid")
                if grid is None:
                    grid = bounds.default_theta_grid(cert.alpha, rep.v_f)
                for r in bounds.check_exp_moment(chain, f, cert, grid):
                    r.context["field"] = fname
                    add(suite, r)
        elif suite == "tail":
            grid = params.get("lambda_grid", [0.5 * k for k in range(1, 17)])
            for fname, f in fields:
                for r in bounds.check_tail_empirical(chain, f, cert, grid):
                    r.context["field"] = fname
                    add(suite, r)
        elif suite == "poly-moment":
            q_list = params.get("q_list", [1, 1.5, 2, 3])
            for fname, f in fields:
                for r in bounds.check_poly_moment(chain, f, cert, q_list):
                    r.context["field"] = fname
                    add(suite, r)
        elif suite == "intdim":
            q_list = params.get("intdim_q", [1, 2, 3])
            for fname, f in fields:
                for r in bounds.check_intdim_variant(chain, f, cert, q_list):
                    r.context["field"] = fname
                    add(suite, r)
        else:
            raise ConfigError(f"suites: '{suite}' requires a Gaussian model, "
                              f"but the config model is a finite chain")
    return rows


def _shared_passes(model, suites, cert, grid, override, poly_q, chaos_q, spec) -> dict:
    """One Monte Carlo pass per sample stream for all the Gaussian suites of
    a run; returns the estimates each checker takes, in its own q order.

    The f-stream (``spec.seed``) is drawn and evaluated once.  The tail and
    poly-moment suites read the centred spectrum (the chaos mean; the
    series is mean zero and needs no centre), the chaos corollaries the
    uncentred one: one eigvalsh per centre and block, with every order of
    the union of the suites' q lists read at each centre.  A chaos's Gamma
    stream is one more pass, read at scale 1 (poly-moment) and 1/4
    (chaos-matrix).
    """
    tail, poly, chaos = "tail" in suites, "poly-moment" in suites, "chaos" in suites
    centred = None if isinstance(model, GaussianSeries) else model.mean()
    centres = ([centred] if tail or poly else []) + ([None] if chaos else [])
    orders = sorted({float(q) for q in (poly_q if poly else []) + (chaos_q if chaos else [])})
    if tail:
        field, thresholds, _, _ = bounds.gaussian_tail_thresholds(model, cert, grid, spec,
                                                                   override)
        groups = estimate_tail(field, None, thresholds, spec, orders=orders, centers=centres)
    else:
        thresholds = []
        groups = estimate_trace_moment(model.as_field(), orders, spec, centers=centres)
    k = len(thresholds)
    moments = [dict(zip(orders, g[k:])) for g in groups]
    shared = {"tail": groups[0][:k] if tail else None,
              "poly": [moments[0][float(q)] for q in poly_q] if poly else None,
              "chaos": [moments[-1][float(q)] for q in chaos_q] if chaos else None,
              "poly-gamma": None, "chaos-gamma": None}
    if isinstance(model, GaussianChaos) and (poly or chaos):
        scales = ([1.0] if poly else []) + ([0.25] if chaos else [])
        gammas = [dict(zip(orders, g))
                  for g in bounds.chaos_gamma_moments(model, orders, spec, scales)]
        if poly:
            shared["poly-gamma"] = [gammas[0][float(q)] for q in poly_q]
        if chaos:
            shared["chaos-gamma"] = [gammas[-1][float(q)] for q in chaos_q]
    return shared


def _gaussian_rows(model, name, suites, params, sample_spec):
    for suite in suites:
        if suite in CHAIN_ONLY:
            raise ConfigError(f"suites: '{suite}' requires a finite chain model")
        if suite == "chaos" and not isinstance(model, GaussianChaos):
            raise ConfigError("suites: 'chaos' requires a gaussian_chaos model")
    cert = ou_certificate()
    grid = params.get("lambda_grid", [float(k) for k in range(1, 9)])
    override = params.get("v_f_bound")
    poly_q = params.get("q_list", [1, 1.5, 2, 3])
    chaos_q = params.get("q_list", [1, 2, 3])
    shared = _shared_passes(model, set(suites), cert, grid, override, poly_q, chaos_q,
                            sample_spec)
    rows = []
    for suite in suites:
        if suite == "tail":
            reports = bounds.check_tail_empirical(model, None, cert, grid, spec=sample_spec,
                                                  v_f_override=override,
                                                  tail_ests=shared["tail"])
        elif suite == "poly-moment":
            reports = bounds.check_poly_moment(model, None, cert, poly_q, spec=sample_spec,
                                               f_ests=shared["poly"],
                                               gam_ests=shared["poly-gamma"])
        else:
            reports = []
            if model.dim == 1:
                reports += bounds.check_chaos_scalar(model, chaos_q, sample_spec,
                                                     f_ests=shared["chaos"])
            reports += bounds.check_chaos_matrix(model, chaos_q, sample_spec,
                                                 f_ests=shared["chaos"],
                                                 gam_ests=shared["chaos-gamma"])
        rows += [r.to_row(suite=suite, fixture=name) for r in reports]
    return rows


def validate_config(cfg: dict):
    unknown = [s for s in cfg.get("suites", []) if s not in KNOWN_SUITES]
    if unknown:
        raise ConfigError(f"suites: unknown suite names {unknown} "
                          f"(known: {list(KNOWN_SUITES)})")
    if not cfg.get("suites"):
        raise ConfigError("suites: at least one suite is required")
    if "model" not in cfg:
        raise ConfigError("model: missing")
    samples = cfg.get("samples", {})
    if not isinstance(samples, dict):
        raise ConfigError("samples: must be an object with n/workers/antithetic")
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int) or seed < 0 or seed > (1 << 64) - 1:
        raise ConfigError("seed: must be an unsigned 64-bit integer")


def _integer(value, label: str, low: int | None = None) -> int:
    """An integer JSON number, at least ``low`` when given; an integral float
    such as 2e5 counts, a fractional one is refused rather than truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool) or (low is not None
                                                                 and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ConfigError(f"{label}: expected an integer{bound}, got {value!r}")
    return value


def _sample_flag(samples: dict, key: str) -> bool:
    value = samples.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"samples.{key}: expected true or false, got {value!r}")
    return value


# params lists checked once per run: (valid(float value), what is expected)
PARAM_LISTS = {
    "q_list": (lambda v: math.isfinite(v) and v >= 1, "finite numbers >= 1"),
    "intdim_q": (lambda v: v.is_integer() and v >= 1, "integers >= 1"),
    "lambda_grid": (lambda v: math.isfinite(v) and v > 0, "finite numbers > 0"),
    "theta_grid": (lambda v: math.isfinite(v) and v >= 0, "finite numbers >= 0"),
}


def _checked_params(params) -> dict:
    """params with every list of PARAM_LISTS and the probe settings checked:
    a NaN or out-of-range order, level, scale or trial count is refused
    rather than reaching a verdict, and intdim_q and the probe's trials and
    dims become integers (an integral float such as 2.0 counts)."""
    if not isinstance(params, dict):
        raise ConfigError("params: must be a JSON object")
    out = dict(params)
    for key, (valid, what) in PARAM_LISTS.items():
        if key not in out:
            continue
        values = out[key]
        try:
            ok = isinstance(values, list) and all(
                isinstance(x, (int, float)) and not isinstance(x, bool) and valid(float(x))
                for x in values)
        except OverflowError:
            ok = False
        if not ok:
            raise ConfigError(f"params.{key}: expected a list of {what}, got {values!r}")
        if key == "intdim_q":
            out[key] = [int(x) for x in values]
    if "probe" in out:
        probe = out["probe"]
        if not isinstance(probe, dict):
            raise ConfigError(f"params.probe: must be a JSON object with trials/dims, "
                              f"got {probe!r}")
        dims = probe.get("dims", [1, 2, 3])
        if not isinstance(dims, list) or not dims:
            raise ConfigError(f"params.probe.dims: expected a non-empty list of "
                              f"integers >= 1, got {dims!r}")
        out["probe"] = dict(
            probe, trials=_integer(probe.get("trials", 50), "params.probe.trials", low=0),
            dims=[_integer(d, "params.probe.dims", low=1) for d in dims])
    return out


def run_experiment(cfg: dict) -> tuple[list[dict], list[dict], dict]:
    """Execute the configured suites; returns (rows, energy reports, counts)."""
    validate_config(cfg)
    seed = int(cfg.get("seed", 0))
    samples = cfg.get("samples", {})
    sample_spec = SampleSpec(
        n=_integer(samples.get("n", 20000), "samples.n"),
        seed=seed,
        workers=_integer(samples.get("workers", 1), "samples.workers"),
        antithetic=_sample_flag(samples, "antithetic"),
    )
    params = _checked_params(cfg.get("params", {}))
    suites = cfg["suites"]
    model, name = build_model(cfg["model"])

    if isinstance(model, FiniteChain):
        fields = build_fields(cfg.get("fields", []), model, seed)
        if not fields:
            raise ConfigError("fields: a finite-chain experiment needs at least one field")
        reports = [energy_report(model, f) for _, f in fields]
        rows = _chain_rows(model, name, fields, reports, suites, params, seed)
        names = [fname for fname, _ in fields]
    else:
        rows = _gaussian_rows(model, name, suites, params, sample_spec)
        reports, names = [energy_report(model, spec=sample_spec)], ["model"]
    energy_dicts = [{"fixture": name, "field": fname, "report": rep.to_json_dict()}
                    for fname, rep in zip(names, reports)]

    counts = {PASS: 0, FAIL: 0, SKIPPED: 0, INCONCLUSIVE: 0}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    return rows, energy_dicts, counts


def _write_outputs(rows, energy_dicts, out_dir: Path, fmt: str) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in ("csv", "both"):
        path = out_dir / "report.csv"
        path.write_text(rows_to_csv(rows))
        written.append(path)
    if fmt in ("json", "both"):
        path = out_dir / "report.json"
        path.write_text(rows_to_json(rows, energy_dicts))
        written.append(path)
    return written


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config) if args.config else default_config()
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.samples is not None:
            cfg.setdefault("samples", {})["n"] = args.samples
        if args.suite:
            cfg["suites"] = args.suite
        out_cfg = cfg.get("output", {})
        out_dir = Path(args.out) if args.out else Path(out_cfg.get("dir", "tplab-out"))
        fmt = args.format or out_cfg.get("format", "both")
        if fmt not in ("csv", "json", "both"):
            raise ConfigError(f"output.format: expected csv|json|both, got {fmt!r}")
        rows, energy_dicts, counts = run_experiment(cfg)
    except LabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CapacityError) else 2
    written = _write_outputs(rows, energy_dicts, out_dir, fmt)
    for path in written:
        print(f"wrote {path}")
    print(f"checks: {len(rows)}  PASS={counts[PASS]}  FAIL={counts[FAIL]}  "
          f"SKIPPED={counts[SKIPPED]}  INCONCLUSIVE={counts[INCONCLUSIVE]}")
    return 1 if counts[FAIL] else 0


def _cmd_fixtures(_args) -> int:
    rows = fixtures.catalog()
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        print(f"{r['name']:<{width}}  [{r['kind']}]  {r['description']}  "
              f"(citation: {r['citation']})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tplab",
        description="Run trace-Poincare / matrix-concentration check suites "
                    "and emit CSV/JSON reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute the suites of a config")
    run_p.add_argument("--config", help="path to a JSON experiment config "
                                        "(built-in default when omitted)")
    run_p.add_argument("--seed", type=int, help="override the config seed (u64)")
    run_p.add_argument("--samples", type=int, help="override the Monte Carlo sample count")
    run_p.add_argument("--out", help="output directory")
    run_p.add_argument("--suite", action="append",
                       help="run only this suite (repeatable)")
    run_p.add_argument("--format", choices=["csv", "json", "both"],
                       help="report format (default both)")
    run_p.set_defaults(func=_cmd_run)

    fx_p = sub.add_parser("fixtures", help="list built-in fixtures")
    fx_p.set_defaults(func=_cmd_fixtures)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    code = args.func(args)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
