"""Command-line front end.

Commands: ``predict``, ``simulate``, ``verify``, ``bound``, ``sweep``.
Exit codes: 0 success / verification PASS, 1 configuration or I/O error,
2 verification FAIL, 3 numeric failure. Configuration errors are
``ConfigError``, ``RadiusOutOfRange`` and ``NoFocusingIndex``; any other
exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bounds import (
    TruncationBudgetExceeded,
    empirical_tv,
    empirical_tv_bootstrap_se,
    tv_bound,
)
from .config import (
    ConfigError,
    RunConfig,
    load_config,
    parse_field,
    resolve_params,
    serialize_config,
    validate_config,
)
from .degree_sets import DegreeSet
from .harness import (
    TrialOptions,
    TrialRecord,
    compare,
    int_hist,
    run_trials,
    sweep as run_sweep,
    verify as run_verify,
    write_trials_csv,
)
from .theory import (
    FocusingPrediction,
    NoFocusingIndex,
    RadiusOutOfRange,
    TWO_POINT_CONVENTION,
    max_degree_law,
    predict,
)


def _json_default(obj):
    """What ``json`` cannot encode itself: a dataclass becomes its fields,
    a numpy array or scalar its Python value."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out) if cfg.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _persist(cfg: RunConfig, out: Path, payload: dict) -> None:
    (out / "config.txt").write_text(serialize_config(cfg))
    (out / "report.json").write_text(
        json.dumps(payload, default=_json_default, indent=2, sort_keys=True, allow_nan=False)
        + "\n"
    )


def cmd_predict(cfg: RunConfig, args: argparse.Namespace) -> int:
    validate_config(cfg)
    params = resolve_params(cfg, cfg.modes()[0])
    pred = predict(params)
    law = max_degree_law(params)
    print(
        f"n={params.n} alpha={params.alpha:.9g} r={params.r:.9g} "
        f"v={params.v} q={params.q}"
    )
    print(f"mu={pred.mu:.9g} j={pred.j} k={pred.k} xi(k)={pred.xi_k:.9g} a={pred.a:.9g}")
    print(f"P(max={pred.k - 1})={pred.p_km1:.6f}  P(max={pred.k})={pred.p_k:.6f}")
    print(f"convention: {TWO_POINT_CONVENTION}")
    two_point = law.get(pred.k - 1, 0.0) + law.get(pred.k, 0.0)
    pairs = {m: law[m] + law.get(m + 1, 0.0) for m in law}
    top = max(pairs, key=pairs.get)
    print(
        f"whole law: P(max in {{{pred.k - 1},{pred.k}}})={two_point:.6f}  "
        f"likeliest pair P(max in {{{top},{top + 1}}})={pairs[top]:.6f}"
    )
    if cfg.out:
        _persist(cfg, _out_dir(cfg), {"params": params, "prediction": pred, "law": law})
    return 0


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    validate_config(cfg)
    if cfg.mode == "both":
        raise ConfigError("mode: simulate needs a single mode")
    params = resolve_params(cfg, cfg.mode)
    records = run_trials(params, cfg.trials, cfg.parallelism)
    out = _out_dir(cfg)
    write_trials_csv(records, out / "trials.csv")
    _persist(
        cfg,
        out,
        {
            "params": params,
            "trials": cfg.trials,
            "max_out_hist": int_hist([rec.max_out for rec in records]),
            "max_in_hist": int_hist([rec.max_in for rec in records]),
        },
    )
    print(f"wrote {out / 'trials.csv'} ({cfg.trials} trials)")
    return 0


def _selftest_records(pred: FocusingPrediction, trials: int) -> list[TrialRecord]:
    """Records drawn exactly from the predicted two-point law (rounded)."""
    n_low = round(trials * pred.p_km1)
    records = []
    for t in range(trials):
        value = pred.k - 1 if t < n_low else pred.k
        records.append(
            TrialRecord(
                trial_index=t,
                seed=0,
                realized_count=0,
                alive_count=0,
                max_out=value,
                max_in=value,
                empty=False,
            )
        )
    return records


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    validate_config(cfg)
    if args.override_k is not None and args.override_k < 1:
        raise ConfigError(f"override_k: must be at least 1, got {args.override_k}")
    params0 = resolve_params(cfg, cfg.modes()[0])
    pred = predict(params0, k=args.override_k)
    out = _out_dir(cfg)
    reports = {}
    if args.selftest:
        records = _selftest_records(pred, cfg.trials)
        reports["selftest"] = compare(records, pred, cfg.slack, params=params0, sides=cfg.sides())
        write_trials_csv(records, out / "trials.csv")
    else:
        single = len(cfg.modes()) == 1
        for mode in cfg.modes():
            params = resolve_params(cfg, mode)
            report, records = run_verify(
                params,
                cfg.trials,
                slack=cfg.slack,
                parallelism=cfg.parallelism,
                sides=cfg.sides(),
                prediction=pred,
            )
            reports[mode] = report
            name = "trials.csv" if single else f"trials_{mode}.csv"
            write_trials_csv(records, out / name)
    _persist(cfg, out, {"prediction": pred, "reports": reports})
    all_pass = all(rep.overall_pass for rep in reports.values())
    for label, rep in reports.items():
        for side, sc in rep.sides.items():
            print(
                f"{label}/{side}: mass(k-1)={sc.mass_km1:.4f} (predicted "
                f"{pred.p_km1:.4f}), two-point={sc.two_point:.4f}, {sc.verdict}"
            )
    print("verdict:", "PASS" if all_pass else "FAIL")
    return 0 if all_pass else 2


def cmd_bound(cfg: RunConfig, args: argparse.Namespace) -> int:
    validate_config(cfg)
    # The bound is a Poisson-mode bound; ``config.txt`` records that mode.
    cfg = dataclasses.replace(cfg, mode="poisson")
    params = resolve_params(cfg, cfg.mode)
    descriptors = cfg.a_sets or (f"tail:{predict(params).k}",)
    pairs = [(DegreeSet.parse(d), side) for d in descriptors for side in cfg.sides()]
    records = None
    if args.with_empirical:
        records = run_trials(
            params,
            cfg.trials,
            cfg.parallelism,
            TrialOptions(w_sets=tuple(pairs)),
        )
    rows = []
    for ds, side in pairs:
        rep = tv_bound(
            params,
            ds,
            side,
            outer_samples=cfg.outer_samples,
            ew_samples=cfg.ew_samples,
            trunc_cap=cfg.trunc_cap,
        )
        row = dataclasses.asdict(rep)
        if records is not None:
            samples = [rec.w_counts[(ds, side)] for rec in records]
            tv = empirical_tv(samples, rep.ew) if rep.ew > 0 else 0.0
            boot = empirical_tv_bootstrap_se(samples, rep.ew, seed=cfg.seed) if rep.ew > 0 else 0.0
            row["empirical_tv"] = tv
            row["empirical_se"] = boot
            row["dominated"] = bool(tv <= rep.bound + 3.0 * math.hypot(rep.bound_se, boot))
        rows.append(row)
        print(
            f"{side} A={ds.descriptor()}: EW={rep.ew:.4f}±{rep.ew_se:.4f} "
            f"I1={rep.i1:.5f} I2={rep.i2:.5f} bound={rep.bound:.5f}"
        )
    _persist(cfg, _out_dir(cfg), {"params": params, "bounds": rows})
    return 0


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not cfg.n_grid:
        raise ConfigError("n_grid: must be nonempty for sweep")
    # A sweep never runs ``cfg.n``; its largest run is ``max(n_grid)``.
    largest = dataclasses.replace(cfg, n=max(cfg.n_grid))
    validate_config(largest, need_radius=False)
    if cfg.mode == "both":
        raise ConfigError("mode: sweep needs a single mode")
    if (cfg.mu_target is None) == (not cfg.r_grid):
        raise ConfigError("sweep needs exactly one of 'mu_target' or 'r_grid'")
    if cfg.r_grid and len(cfg.r_grid) != len(cfg.n_grid):
        raise ConfigError("r_grid: must give one radius per n_grid entry")
    base = resolve_params(dataclasses.replace(largest, r=0.01, mu_target=None), cfg.mode)
    points = run_sweep(
        base,
        list(cfg.n_grid),
        cfg.trials,
        mu_target=cfg.mu_target,
        r_list=list(cfg.r_grid) if cfg.r_grid else None,
        slack=cfg.slack,
        parallelism=cfg.parallelism,
        sides=cfg.sides(),
    )
    out = _out_dir(cfg)
    lines = ["n,r,mu,j,k,a,two_point_out,two_point_in,verdict"]
    failed = 0
    for pt in points:
        if pt.error is not None or pt.report is None:
            lines.append(f"{pt.n},,,,,,,,ERROR:{pt.error}")
            failed += 1
            continue
        rep = pt.report
        pr = rep.prediction
        two_out = rep.sides["out"].two_point if "out" in rep.sides else float("nan")
        two_in = rep.sides["in"].two_point if "in" in rep.sides else float("nan")
        verdict = "PASS" if rep.overall_pass else "FAIL"
        if not rep.overall_pass:
            failed += 1
        lines.append(
            f"{pt.n},{pt.r:.9g},{pr.mu:.9g},{pr.j},{pr.k},{pr.a:.9g},"
            f"{two_out:.6f},{two_in:.6f},{verdict}"
        )
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    _persist(cfg, out, {"points": points})
    print("\n".join(lines))
    if failed:
        print(f"sweep: {failed} of {len(points)} points failed", file=sys.stderr)
    return 2 if failed == len(points) else 0


class _Parser(argparse.ArgumentParser):
    # Argument problems are configuration errors (exit 1), not argparse's 2.
    def error(self, message):
        raise ConfigError(message)


_FLAG_HELP = {
    "alpha": "radians; accepts pi forms like pi/2",
    "mode": "binomial, poisson or both",
    "side": "out, in or both",
    "n_grid": "comma list of n",
    "r_grid": "comma list of r",
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="sectorgraphs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, help="path to key = value config file")
    # One flag per RunConfig field, read as raw text by the config file's parser.
    for f in dataclasses.fields(RunConfig):
        if f.name == "a_sets":
            common.add_argument(
                "--a-set", dest="a_sets", action="append", metavar="DESC",
                help="degree set, tail:T or set:a,b,c (repeatable)",
            )
        else:
            flag = "--" + f.name.replace("_", "-")
            common.add_argument(flag, dest=f.name, help=_FLAG_HELP.get(f.name))

    for name, run in (("predict", cmd_predict), ("simulate", cmd_simulate), ("verify", cmd_verify),
                      ("bound", cmd_bound), ("sweep", cmd_sweep)):
        sub.add_parser(name, parents=[common]).set_defaults(run=run)
    sub.choices["verify"].add_argument("--selftest", action="store_true")
    sub.choices["verify"].add_argument("--override-k", dest="override_k", type=int)
    sub.choices["bound"].add_argument("--with-empirical", dest="with_empirical", action="store_true")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` file, or the defaults, with every given flag applied.

    Repeated ``--a-set`` values are read as one comma list.
    """
    cfg = load_config(args.config) if args.config else RunConfig()
    given = {}
    for f in dataclasses.fields(RunConfig):
        raw = getattr(args, f.name)
        if raw is not None:
            text = ",".join(raw) if isinstance(raw, list) else raw
            given[f.name] = parse_field(f.name, text)
    return dataclasses.replace(cfg, **given)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(_config_from_args(args), args)
    except (ConfigError, RadiusOutOfRange, NoFocusingIndex) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    except TruncationBudgetExceeded as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
