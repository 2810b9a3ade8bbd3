"""Command-line experiment harness.

Subcommands: generate, fit, evaluate, efficiency, power.  Every command is
deterministic given its config and seeds: reruns produce byte-identical CSV
and SVG outputs.  Exit codes: 0 success, 2 input error, 3 numerical error,
4 passivity infeasibility.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, bench, charts, modelio, models, passivity
from .bench import _fmt
from .errors import DampGpError, InfeasibilityError, InputError, NumericalError
from .models import PriorMean, fit_prior_mean

EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_INFEASIBLE = 4


def _sub_seed(seed: int, tag: int) -> int:
    """Deterministic derived seed for independent streams of one run."""
    return (seed * 1_000_003 + tag) % (2**31 - 1)


def _write_manifest(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["tool_version"] = __version__
    payload["created_unix"] = time.time()
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise InputError(f"bad float list {text!r}: {exc}") from exc


def _parse_domain(text: str) -> np.ndarray:
    """Parse 'lo:hi,lo:hi,...' into an (N, 2) box."""
    rows = []
    for part in text.split(","):
        if ":" not in part:
            raise InputError(f"domain component {part!r} must be 'lo:hi'")
        lo, hi = part.split(":", 1)
        try:
            rows.append((float(lo), float(hi)))
        except ValueError as exc:
            raise InputError(f"bad domain bound in {part!r}: {exc}") from exc
    return np.array(rows)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(cfg: bench.ExperimentConfig, out_dir: Path) -> int:
    system = bench.get_system(cfg.system)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_size = cfg.train_sizes[0]
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


def cmd_fit(
    train_path: Path,
    kind: str,
    val_path: Path,
    lengthscales: list[float] | None,
    noise_variance: float,
    constrained: bool,
    budget: int,
    free_hypervariances: bool,
    out_path: Path,
) -> int:
    train = bench.read_dataset(train_path)
    val = bench.read_dataset(val_path)
    if lengthscales is None:
        raise InputError("--lengthscales is required (e.g. 18,18,0.2)")
    if len(lengthscales) != train.n_dim:
        raise InputError(
            f"got {len(lengthscales)} lengthscales for {train.n_dim}-dimensional data"
        )
    prior = PriorMean.zero(train.n_dim) if kind == "ard" else fit_prior_mean(train)
    result = models.optimize_hypervariances(
        kind,
        train,
        val,
        lengthscales,
        noise_variance,
        constrained=constrained,
        budget=budget,
        tie_full=not free_hypervariances,
        prior_mean=prior,
    )
    model = models.fit(kind, result.kernel, prior, train, noise_variance)
    modelio.save_model(out_path, model, constrained=constrained)
    print(f"wrote {out_path} (kind={kind}, val_mse={result.val_mse:.6g}, "
          f"evaluations={result.n_evaluations})")
    if kind == "ard":
        print("passivity bound: n/a for the unstructured baseline")
        return 0
    hyp = model.kernel.hypervariances
    bound = passivity.compute_bound(train, prior, noise_variance, hyp)
    if kind == "diag":
        chk = passivity.check_bound_diag(bound)
        margin = float(np.min(chk.per_dim_margins))
    else:
        chk_full = passivity.check_bound_full(bound)
        margin = chk_full.margin
        chk = chk_full
    print(f"passivity bound: c={bound.c:.6g} feasible={chk.feasible} margin={margin:.6g}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def cmd_evaluate(model_path: Path, test_path: Path, out_path: Path,
                 system_id: str | None, normalizer: float) -> int:
    model, _ = modelio.load_model(model_path)
    test = bench.read_dataset(test_path)
    if test.n_dim != model.n_dim:
        raise InputError(
            f"test data dimension {test.n_dim} != model dimension {model.n_dim}"
        )
    if system_id is not None:
        truth = bench.get_system(system_id).torque_batch(test.velocities)
    else:
        truth = test.torques
    pred = models.predict_torque_batch(model, test.velocities)
    score = bench.nmse(pred, truth)
    rel = bench.relative_error(pred, truth, normalizer)
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
    out_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {out_path} (aggregate NMSE {score.aggregate:.6g})")
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
    if sorted(sizes) != list(sizes):
        raise InputError("sizes must be ascending")
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
                bench.sample_trajectory(system, size, seed=_sub_seed(seed, 100 + size), waveform="uniform"),
                cfg.noise_std,
                seed=_sub_seed(seed, 200 + size),
            )
            for kind in cfg.kinds:
                prior = (
                    PriorMean.zero(train.n_dim) if kind == "ard" else fit_prior_mean(train)
                )
                opt = models.optimize_hypervariances(
                    kind,
                    train,
                    val,
                    ell,
                    cfg.noise_variance,
                    constrained=cfg.constrained and kind != "ard",
                    budget=cfg.budget,
                    prior_mean=prior,
                )
                model = models.fit(kind, opt.kernel, prior, train, cfg.noise_variance)
                pred = models.predict_torque_batch(model, test_vel)
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


def cmd_efficiency(cfg: bench.ExperimentConfig, sizes: list[int], out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    records = run_efficiency(cfg, sizes)
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
        log_y=True,
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


def cmd_power(model_path: Path, domain: np.ndarray, samples: int, seed: int,
              out_dir: Path) -> int:
    model, constrained = modelio.load_model(model_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep = passivity.passivity_sweep(model, domain, samples, seed=seed)

    csv_path = out_dir / "power.csv"
    header = ",".join([f"qd_{i+1}" for i in range(model.n_dim)] + ["power"])
    lines = [header]
    lines += [
        ",".join(_fmt(v) for v in (*pt, pw))
        for pt, pw in zip(sweep.points, sweep.powers)
    ]
    csv_path.write_text("\n".join(lines) + "\n")

    svg_path = out_dir / "power.svg"
    charts.histogram(
        svg_path,
        sweep.powers,
        title=f"Dissipated power distribution ({'constrained' if constrained else 'unconstrained'})",
        xlabel="dissipated power",
        series_name="samples",
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
    parser.add_argument("--seed", type=int, default=0, help="global seed override")
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--config", type=Path, help="experiment config file")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("generate", help="write train/val/test dataset CSVs per seed")

    p_fit = sub.add_parser("fit", help="fit one estimator and report its passivity bound")
    p_fit.add_argument("train", type=Path)
    p_fit.add_argument("--kind", choices=models.KINDS, required=True)
    p_fit.add_argument("--val", type=Path, required=True)
    p_fit.add_argument("--lengthscales", type=str, required=True,
                       help="comma-separated, e.g. 18,18,0.2")
    p_fit.add_argument("--noise-variance", type=float, default=100.0)
    p_fit.add_argument("--constrained", action="store_true")
    p_fit.add_argument("--budget", type=int, default=40)
    p_fit.add_argument("--free-hypervariances", action="store_true",
                       help="optimize all N^2 full-model hypervariances independently")
    p_fit.add_argument("--out", type=Path, required=True)

    p_eval = sub.add_parser("evaluate", help="metrics CSV for a fitted model")
    p_eval.add_argument("model", type=Path)
    p_eval.add_argument("test", type=Path)
    p_eval.add_argument("--out", type=Path, required=True)
    p_eval.add_argument("--system", type=str, default=None,
                        help="recompute noise-free truth from this builtin system")
    p_eval.add_argument("--normalizer", type=float, default=1.0)

    p_eff = sub.add_parser("efficiency", help="data-efficiency curves over training sizes")
    p_eff.add_argument("--sizes", type=str, required=True,
                       help="ascending comma-separated training sizes")

    p_pow = sub.add_parser("power", help="dissipated-power sweep of a fitted model")
    p_pow.add_argument("model", type=Path)
    p_pow.add_argument("--domain", type=str, required=True,
                       help="box as lo:hi,lo:hi,... per dimension")
    p_pow.add_argument("--samples", type=int, default=10_000)

    return parser


def _require_config(args) -> bench.ExperimentConfig:
    if args.config is None:
        raise InputError(f"{args.command} requires --config")
    return bench.read_config(args.config)


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "generate":
        return cmd_generate(_require_config(args), args.out_dir)
    if args.command == "fit":
        return cmd_fit(
            args.train,
            args.kind,
            args.val,
            _parse_floats(args.lengthscales),
            args.noise_variance,
            args.constrained,
            args.budget,
            args.free_hypervariances,
            args.out,
        )
    if args.command == "evaluate":
        return cmd_evaluate(args.model, args.test, args.out, args.system, args.normalizer)
    if args.command == "efficiency":
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        return cmd_efficiency(_require_config(args), sizes, args.out_dir)
    if args.command == "power":
        return cmd_power(args.model, _parse_domain(args.domain), args.samples,
                         args.seed, args.out_dir)
    raise InputError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        return run(argv)
    except InfeasibilityError as exc:
        print(f"error (infeasible): {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NumericalError as exc:
        print(f"error (numerical): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (InputError, DampGpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
