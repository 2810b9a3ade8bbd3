"""Command-line experiment harness.

Subcommands: generate, fit, evaluate, efficiency, power.  Every command is
deterministic given its config and seeds: reruns at the same BLAS thread
count into the same directory write byte-identical files, manifests too.
Exit codes: 0 success, 2 input error or failed allocation, 3 numerical error,
4 passivity infeasibility.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import numpy as np

from . import __version__, bench, charts, modelio, models, passivity
from .bench import _fmt, _fmt_chunks
from .errors import DampGpError, InfeasibilityError, InputError, NumericalError

EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_INFEASIBLE = 4


def _sub_seed(seed: int, tag: int) -> int:
    """Deterministic derived seed for independent streams of one run."""
    return (seed * 1_000_003 + tag) % (2**31 - 1)


def _write_manifest(path: Path, payload: dict) -> None:
    payload = payload | {"tool_version": __version__}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _bound_check(model: models.FittedModel):
    """The passivity bound of ``model`` on its training data and its check,
    or None for the ard baseline, which has no bound."""
    if model.kind == "ard":
        return None
    bound = passivity.compute_bound(
        model.train, model.prior_mean, model.noise_variance, model.kernel.hypervariances
    )
    return bound, passivity.check_bound(bound)


def _flag_value(parse, flag: str, text: str):
    """``parse(text)``, its ``ValueError`` raised as an InputError naming ``flag``."""
    try:
        return parse(text)
    except ValueError as exc:
        raise InputError(f"bad {flag} value {text!r}: {exc}") from exc


def _lo_hi(pair: str) -> tuple[float, float]:
    """One 'lo:hi' component of a --domain box."""
    if pair.count(":") != 1:
        raise ValueError(f"component {pair!r} is not lo:hi")
    lo, hi = pair.split(":")
    return float(lo), float(hi)


def _require_config(args) -> bench.ExperimentConfig:
    if args.config is None:
        raise InputError(f"{args.command} requires --config")
    return bench.read_config(args.config)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = _require_config(args)
    if len(cfg.train_sizes) != 1:
        sizes = ",".join(map(str, cfg.train_sizes))
        raise InputError(f"generate writes one training size, got train_sizes = {sizes}")
    (train_size,) = cfg.train_sizes
    out_dir = args.out_dir
    system = bench.get_system(cfg.system)
    files = []
    for seed in cfg.seeds:
        splits = {
            "train": bench.sample_trajectory(system, train_size, seed=seed, waveform="periodic"),
            "val": bench.sample_trajectory(
                system, cfg.val_size, seed=_sub_seed(seed, 3), waveform="uniform"
            ),
            "test": bench.sample_trajectory(
                system, cfg.test_size, seed=_sub_seed(seed, 2), waveform="uniform"
            ),
        }
        out_dir.mkdir(parents=True, exist_ok=True)  # after the draws: a rejected count leaves none
        for tag, (name, velocities) in enumerate(splits.items()):
            data = bench.generate_dataset(
                system, velocities, cfg.noise_std, seed=_sub_seed(seed, 10 + tag)
            )
            path = out_dir / f"seed{seed}_{name}.csv"
            bench.write_dataset(path, data)
            files.append(str(path))
            print(f"wrote {path}: {data.n_samples} rows, {data.n_dim} dims")
    _write_manifest(
        out_dir / "generate_manifest.json",
        {"command": "generate", "config": dict(cfg.__dict__), "files": files},
    )
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    lengthscales = _flag_value(bench._CONFIG_PARSERS["lengthscales"], "--lengthscales",
                               args.lengthscales)
    result = models.optimize_hypervariances(
        args.kind,
        bench.read_dataset(args.train),
        bench.read_dataset(args.val),
        lengthscales,
        args.noise_variance,
        constrained=args.constrained,
        budget=args.budget,
    )
    modelio.save_model(args.out, result.model)
    print(f"wrote {args.out} (kind={args.kind}, val_mse={result.val_mse:.6g}, "
          f"evaluations={result.n_evaluations})")
    checked = _bound_check(result.model)
    if checked is None:
        print("passivity bound: n/a for the unstructured baseline")
        return 0
    bound, chk = checked
    print(f"passivity bound: c={bound.c:.6g} feasible={chk.feasible} margin={chk.margin:.6g}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def cmd_evaluate(args) -> int:
    model = modelio.load_model(args.model)
    test = bench.read_dataset(args.test)
    if args.system is not None:
        truth = bench.get_system(args.system).torque_batch(test.velocities)
    else:
        truth = test.torques
    pred = models.predict_torque_batch(model, test.velocities)
    score = bench.nmse(pred, truth)
    rel = bench.relative_error(pred, truth, args.normalizer)
    baseline = bench.nmse(np.tile(truth.mean(axis=0), (truth.shape[0], 1)), truth)

    lines = ["row,output,nmse,rel_err_mean,rel_err_var"]
    for n in range(model.n_dim):
        lines.append(
            f"model,{n + 1},{_fmt(score.per_output[n])},"
            f"{_fmt(rel.mean[n])},{_fmt(rel.variance[n])}"
        )
    lines.append(f"model,aggregate,{_fmt(score.aggregate)},,")
    for n in range(model.n_dim):
        lines.append(f"mean_baseline,{n + 1},{_fmt(baseline.per_output[n])},,")
    lines.append(f"mean_baseline,aggregate,{_fmt(baseline.aggregate)},,")
    args.out.write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out} (aggregate NMSE {score.aggregate:.6g})")
    return 0


# ---------------------------------------------------------------------------
# efficiency
# ---------------------------------------------------------------------------


def run_efficiency(cfg: bench.ExperimentConfig, sizes: list[int]) -> list[dict]:
    """Volume-sampled data-efficiency experiment; returns long-format records.

    For each (kind, size, seed): train on uniformly sampled velocities,
    optimize hypervariances on a held-out validation sample, evaluate NMSE
    against the noise-free ground truth on a held-out test sample.
    """
    bench.check_train_sizes(sizes)
    system = bench.get_system(cfg.system)
    ell = cfg.resolved_lengthscales()
    records = []
    for seed in cfg.seeds:
        test_vel = bench.sample_trajectory(
            system, cfg.test_size, seed=_sub_seed(seed, 2), waveform="uniform"
        )
        truth = system.torque_batch(test_vel)
        val = bench.generate_dataset(
            system,
            bench.sample_trajectory(system, cfg.val_size, seed=_sub_seed(seed, 3), waveform="uniform"),
            cfg.noise_std,
            seed=_sub_seed(seed, 13),
        )
        for size in sizes:
            train = bench.generate_dataset(
                system,
                bench.sample_trajectory(system, size, seed=_sub_seed(seed, 100 + 2 * size), waveform="uniform"),
                cfg.noise_std,
                seed=_sub_seed(seed, 101 + 2 * size),
            )
            for kind in cfg.kinds:
                opt = models.optimize_hypervariances(
                    kind,
                    train,
                    val,
                    ell,
                    cfg.noise_variance,
                    constrained=cfg.constrained and kind != "ard",
                    budget=cfg.budget,
                )
                pred = models.predict_torque_batch(opt.model, test_vel)
                score = bench.nmse(pred, truth)
                for n in range(train.n_dim):
                    records.append(
                        {"kind": kind, "size": size, "seed": seed,
                         "output": str(n + 1), "nmse": score.per_output[n]}
                    )
                records.append(
                    {"kind": kind, "size": size, "seed": seed,
                     "output": "aggregate", "nmse": score.aggregate}
                )
    records.sort(key=lambda r: (r["kind"], r["size"], r["seed"], r["output"]))
    return records


def cmd_efficiency(args) -> int:
    cfg = _require_config(args)
    sizes = _flag_value(bench._CONFIG_PARSERS["train_sizes"], "--sizes", args.sizes)
    records = run_efficiency(cfg, sizes)
    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "efficiency.csv"
    lines = ["kind,size,seed,output,nmse"]
    lines += [
        f"{r['kind']},{r['size']},{r['seed']},{r['output']},{_fmt(r['nmse'])}"
        for r in records
    ]
    csv_path.write_text("\n".join(lines) + "\n")

    series: dict[str, list[tuple[float, float]]] = {}
    for kind in cfg.kinds:
        pts = []
        for size in sizes:
            vals = [
                r["nmse"] for r in records
                if r["kind"] == kind and r["size"] == size and r["output"] == "aggregate"
            ]
            pts.append((float(size), statistics.median(vals)))
        series[kind] = pts
    svg_path = out_dir / "efficiency.svg"
    charts.line_chart(
        svg_path,
        series,
        title=f"Median NMSE vs training size ({cfg.system})",
        xlabel="training set size",
        ylabel="median aggregate NMSE",
    )
    _write_manifest(
        out_dir / "efficiency_manifest.json",
        {
            "command": "efficiency",
            "config": cfg.__dict__ | {"lengthscales": list(cfg.resolved_lengthscales())},
            "sizes": sizes,
            "records": len(records),
        },
    )
    print(f"wrote {csv_path} and {svg_path} ({len(records)} records)")
    return 0


# ---------------------------------------------------------------------------
# power
# ---------------------------------------------------------------------------


def cmd_power(args) -> int:
    domain = _flag_value(bench._tuple_of(_lo_hi), "--domain", args.domain)
    out_dir = args.out_dir
    model = modelio.load_model(args.model)
    checked = _bound_check(model)
    label = "constrained" if checked is not None and checked[1].feasible else "unconstrained"
    sweep = passivity.passivity_sweep(model, domain, args.samples, seed=args.seed)
    out_dir.mkdir(parents=True, exist_ok=True)

    csv_path = out_dir / "power.csv"
    header = ",".join([f"qd_{i+1}" for i in range(model.n_dim)] + ["power"])
    with open(csv_path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        fh.writelines(_fmt_chunks([sweep.points, sweep.powers[:, None]], ","))

    svg_path = out_dir / "power.svg"
    charts.histogram(
        svg_path,
        sweep.powers,
        title=f"Dissipated power distribution ({label})",
        xlabel="dissipated power",
    )
    if sweep.violation_count == 0:
        print(f"PASSIVE (min={sweep.min_power:.6g})")
    else:
        print(f"VIOLATIONS {sweep.violation_count} (min={sweep.min_power:.6g})")
    print(f"wrote {csv_path} and {svg_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dampgp",
        description="Structured GP damping identification experiment harness",
    )
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--config", type=Path, help="experiment config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write train/val/test dataset CSVs per seed")
    p_gen.set_defaults(handler=cmd_generate)

    p_fit = sub.add_parser("fit", help="fit one estimator and report its passivity bound")
    p_fit.add_argument("train", type=Path)
    p_fit.add_argument("--kind", choices=models.KINDS, required=True)
    p_fit.add_argument("--val", type=Path, required=True)
    p_fit.add_argument("--lengthscales", type=str, required=True,
                       help="comma-separated, e.g. 18,18,0.2")
    p_fit.add_argument("--noise-variance", type=float, default=100.0)
    p_fit.add_argument("--constrained", action="store_true")
    p_fit.add_argument("--budget", type=int, default=40)
    p_fit.add_argument("--out", type=Path, required=True)
    p_fit.set_defaults(handler=cmd_fit)

    p_eval = sub.add_parser("evaluate", help="metrics CSV for a fitted model")
    p_eval.add_argument("model", type=Path)
    p_eval.add_argument("test", type=Path)
    p_eval.add_argument("--out", type=Path, required=True)
    p_eval.add_argument("--system", type=str, default=None,
                        help="recompute noise-free truth from this builtin system")
    p_eval.add_argument("--normalizer", type=float, default=1.0)
    p_eval.set_defaults(handler=cmd_evaluate)

    p_eff = sub.add_parser("efficiency", help="data-efficiency curves over training sizes")
    p_eff.add_argument("--sizes", type=str, required=True,
                       help="strictly ascending comma-separated training sizes")
    p_eff.set_defaults(handler=cmd_efficiency)

    p_pow = sub.add_parser("power", help="dissipated-power sweep of a fitted model")
    p_pow.add_argument("model", type=Path)
    p_pow.add_argument("--domain", type=str, required=True,
                       help="box as lo:hi,lo:hi,... per dimension")
    p_pow.add_argument("--samples", type=int, default=10_000)
    p_pow.add_argument("--seed", type=int, default=0, help="seed of the sampled velocities")
    p_pow.set_defaults(handler=cmd_power)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except InfeasibilityError as exc:
        print(f"error (infeasible): {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NumericalError as exc:
        print(f"error (numerical): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DampGpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # e.g. a power sweep too large to hold
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
