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
    constant_field,
    product_chain,
    two_state_chain,
)
from .montecarlo import SampleSpec, normal_stream
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
        "samples": {"n": 20000, "workers": 1},
        "model": {"fixture": "two-state"},
        "fields": [
            {"type": "fixture", "name": "indicator-1"},
            {"type": "random", "dim": 2, "count": 3, "seed": 101},
        ],
        "suites": ["poincare", "subadditivity", "chain-rule", "exp-moment",
                   "tail", "poly-moment", "intdim"],
        "params": {
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
        matrix = desc.get("matrix", [[float(desc.get("value", 0.0))]])
        return [(desc.get("name", f"constant-{idx}"), constant_field(n, matrix))]
    if kind == "random":
        dim = _integer(desc.get("dim", 2), "dim", low=1)
        sub = _integer(desc.get("seed", 0), "seed")
        out = []
        for i in range(_integer(desc.get("count", 1), "count", low=0)):
            raw = normal_stream(master_seed ^ sub, i).standard_normal((n, dim, dim))
            out.append((f"random-{idx}-{i}", FiniteField(raw)))
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


def _chain_rows(chain, name, named, suites, params, seed):
    """The rows of the chain suites; ``named`` pairs each field's name with
    its energy report, the one bundle of Gamma, Dirichlet form, variance and
    v_f that every chain checker reads.  Each suite makes one checker call
    per field (two for poincare at d = 1 and for subadditivity), and each
    call evaluates its whole grid or phi list at once: the chain-rule suite's
    rows, the mean-value rows of states 0 and 1 among them, all come from
    ``check_chain_rule``'s one decomposition of the field."""
    cert = poincare_constant(chain)
    rows = []

    def add(suite, report, fname=None):
        if fname is not None:
            report.context["field"] = fname
        rows.append(report.to_row(suite=suite, fixture=name))

    for suite in suites:
        if suite == "poincare":
            for fname, rep in named:
                if rep.field.dim == 1:
                    add(suite, check_scalar_poincare(chain, rep, cert), fname)
                add(suite, check_trace_poincare(chain, rep, cert), fname)
            probe_cfg = params["probe"]
            probe = equivalence_probe(chain, probe_cfg["trials"], probe_cfg["dims"], seed, cert)
            add(suite, probe.to_check(chain.name))
        elif suite == "subadditivity":
            for fname, rep in named:
                grid = bivariate_symmetrized(chain, rep)
                add(suite, bounds.check_subadditivity(chain, grid), fname)
                add(suite, bounds.check_bivariate_poincare(chain, grid, cert), fname)
        elif suite == "chain-rule":
            for fname, rep in named:
                for r in bounds.check_chain_rule(chain, rep, params["phis"]):
                    add(suite, r, fname)
        elif suite == "exp-moment":
            for fname, rep in named:
                grid = params.get("theta_grid")
                if grid is None:
                    grid = bounds.default_theta_grid(cert.alpha, rep.v_f)
                for r in bounds.check_exp_moment(chain, rep, cert, grid):
                    add(suite, r, fname)
        elif suite == "tail":
            grid = params.get("lambda_grid", [0.5 * k for k in range(1, 17)])
            for fname, rep in named:
                for r in bounds.check_tail_empirical(chain, rep, cert, grid):
                    add(suite, r, fname)
        elif suite == "poly-moment":
            q_list = params.get("q_list", [1, 1.5, 2, 3])
            for fname, rep in named:
                for r in bounds.check_poly_moment(chain, rep, cert, q_list):
                    add(suite, r, fname)
        elif suite == "intdim":
            q_list = params.get("intdim_q", [1, 2, 3])
            for fname, rep in named:
                for r in bounds.check_intdim_variant(chain, rep, cert, q_list):
                    add(suite, r, fname)
    return rows


def _gaussian_rows(model, name, rep, suites, params, sample_spec):
    """The rows of the Gaussian suites, all read from one ``gaussian_pass``
    over the model's energy report ``rep``."""
    cert = ou_certificate()
    grid = params.get("lambda_grid", [float(k) for k in range(1, 9)])
    poly_q = params.get("q_list", [1, 1.5, 2, 3])
    chaos_q = params.get("q_list", [1, 2, 3])
    mc = bounds.gaussian_pass(model, rep, cert, sample_spec,
                              lambda_grid=grid if "tail" in suites else None,
                              v_f_override=params.get("v_f_bound"),
                              poly_q=poly_q if "poly-moment" in suites else None,
                              chaos_q=chaos_q if "chaos" in suites else None)
    rows = []
    for suite in suites:
        if suite == "tail":
            reports = bounds.check_tail_empirical(model, mc, cert, grid)
        elif suite == "poly-moment":
            reports = bounds.check_poly_moment(model, mc, cert, poly_q)
        else:
            reports = bounds.check_chaos_scalar(model, mc, chaos_q) if model.dim == 1 else []
            reports += bounds.check_chaos_matrix(model, mc, chaos_q)
        rows += [r.to_row(suite=suite, fixture=name) for r in reports]
    return rows


def _check_suites(model, suites):
    """Refuse a suite the model cannot run, before any energy report."""
    for suite in suites:
        if isinstance(model, FiniteChain):
            if suite == "chaos":
                raise ConfigError(f"suites: '{suite}' requires a Gaussian model, "
                                  f"but the config model is a finite chain")
        elif suite in CHAIN_ONLY:
            raise ConfigError(f"suites: '{suite}' requires a finite chain model")
        elif suite == "chaos" and not isinstance(model, GaussianChaos):
            raise ConfigError("suites: 'chaos' requires a gaussian_chaos model")


def validate_config(cfg: dict):
    unknown = [s for s in cfg.get("suites", []) if s not in KNOWN_SUITES]
    if unknown:
        raise ConfigError(f"suites: unknown suite names {unknown} "
                          f"(known: {list(KNOWN_SUITES)})")
    if not cfg.get("suites"):
        raise ConfigError("suites: at least one suite is required")
    if "model" not in cfg:
        raise ConfigError("model: missing")
    _section(cfg, "samples", "n/workers")
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int) or seed < 0 or seed > (1 << 64) - 1:
        raise ConfigError("seed: must be an unsigned 64-bit integer")


def _section(cfg: dict, key: str, keys: str) -> dict:
    """The object ``cfg[key]``, empty when absent; any other JSON value is
    refused."""
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: must be an object with {keys}, got {value!r}")
    return value


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


def _is_number(x, valid) -> bool:
    """Whether a JSON value is a number (not a boolean) with valid(float)."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and valid(float(x))
    except OverflowError:
        return False


# params lists checked once per run: (valid(float value), what is expected)
PARAM_LISTS = {
    "q_list": (lambda v: math.isfinite(v) and v >= 1, "finite numbers >= 1"),
    "intdim_q": (lambda v: v.is_integer() and v >= 1, "integers >= 1"),
    "lambda_grid": (lambda v: math.isfinite(v) and v > 0, "finite numbers > 0"),
    "theta_grid": (lambda v: math.isfinite(v) and v >= 0, "finite numbers >= 0"),
}


def _checked_params(params) -> dict:
    """params with every list of PARAM_LISTS, the certified v_f_bound, the
    probe settings and the scalar functions checked: a NaN or out-of-range
    order, level, scale, bound or trial count is refused rather than
    reaching a verdict, and intdim_q and the probe's trials and dims become
    integers (an integral float such as 2.0 counts); a missing probe gets 50
    trials and dims [1, 2, 3], and phis, missing [sinh], becomes the list
    of chain-rule functions."""
    if not isinstance(params, dict):
        raise ConfigError("params: must be a JSON object")
    out = dict(params)
    for key, (valid, what) in PARAM_LISTS.items():
        if key not in out:
            continue
        values = out[key]
        if not (isinstance(values, list) and all(_is_number(x, valid) for x in values)):
            raise ConfigError(f"params.{key}: expected a list of {what}, got {values!r}")
        if key == "intdim_q":
            out[key] = [int(x) for x in values]
    bound = out.get("v_f_bound")
    if bound is not None and not _is_number(bound, lambda v: math.isfinite(v) and v >= 0):
        raise ConfigError(f"params.v_f_bound: expected a finite number >= 0, got {bound!r}")
    probe = out.get("probe", {})
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
    descs = out.get("phis", [{"kind": "sinh"}])
    if not isinstance(descs, list):
        raise ConfigError(f"params.phis: expected a list, got {descs!r}")
    out["phis"] = [_labelled(f"params.phis[{i}]", (LabError,), _build_phi, desc)
                   for i, desc in enumerate(descs)]
    return out


def run_experiment(cfg: dict) -> tuple[list[dict], list[dict], dict]:
    """Execute the configured suites; returns (rows, energy reports, counts).

    Each energy report is ``EnergyReport.to_json_dict()``: its "gamma",
    "dirichlet" and "variance" are the report's own float64 arrays, not
    lists, and share memory with it, so a caller must not modify them.
    ``rows_to_json`` writes them; ``json.dumps`` needs
    ``default=np.ndarray.tolist``."""
    validate_config(cfg)
    seed = int(cfg.get("seed", 0))
    samples = cfg.get("samples", {})
    sample_spec = SampleSpec(
        n=_integer(samples.get("n", 20000), "samples.n"),
        seed=seed,
        workers=_integer(samples.get("workers", 1), "samples.workers"),
    )
    if samples.get("antithetic", False) is not False:
        raise ConfigError(f"samples.antithetic: pairing is not supported, got "
                          f"{samples['antithetic']!r}; every statistic is even in x, so an "
                          f"(x, -x) pair evaluates one sample twice and only halves n")
    params = _checked_params(cfg.get("params", {}))
    suites = cfg["suites"]
    model, name = build_model(cfg["model"])
    _check_suites(model, suites)

    if isinstance(model, FiniteChain):
        fields = build_fields(cfg.get("fields", []), model, seed)
        if not fields:
            raise ConfigError("fields: a finite-chain experiment needs at least one field")
        named = [(fname, energy_report(model, f)) for fname, f in fields]
        rows = _chain_rows(model, name, named, suites, params, seed)
    else:
        named = [("model", energy_report(model, spec=sample_spec))]
        rows = _gaussian_rows(model, name, named[0][1], suites, params, sample_spec)
    energy_dicts = [{"fixture": name, "field": fname, "report": rep.to_json_dict()}
                    for fname, rep in named]

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
            cfg["samples"] = dict(_section(cfg, "samples", "n/workers"),
                                  n=args.samples)
        if args.suite:
            cfg["suites"] = args.suite
        out_cfg = _section(cfg, "output", "dir/format")
        out_dir = out_cfg.get("dir", "tplab-out")
        if not isinstance(out_dir, str):
            raise ConfigError(f"output.dir: expected a path string, got {out_dir!r}")
        out_dir = args.out or out_dir
        fmt = args.format or out_cfg.get("format", "both")
        if fmt not in ("csv", "json", "both"):
            raise ConfigError(f"output.format: expected csv|json|both, got {fmt!r}")
        rows, energy_dicts, counts = run_experiment(cfg)
    except LabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CapacityError) else 2
    written = _write_outputs(rows, energy_dicts, Path(out_dir), fmt)
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
