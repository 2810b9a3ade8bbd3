"""The benchmark's workloads.

Each workload has ``run_op(i)`` (timed), ``check(i, result)`` (untimed,
returns a list of problems), ``cleanup(i)``, and ``final_problems()`` for
checks that run once after the timed loop.  Op ``i`` derives its data from
``(seed, i)``; op 0 is the warm-up op that set-up runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
from pathlib import Path

import numpy as np

from dampgp import bench, cli, gp_core, models, passivity

SYSTEM = "full3"
NOISE_STD = 1.0
NOISE_VARIANCE = 100.0
BUDGET = 40
VAL_SIZE = 100
ORACLE_POINTS = 5
ORACLE_RTOL = 1e-8


class Certify:
    """One op: draw uniform train and validation data, then certify a diag and
    a full model on it (prior fit, constrained search, fit, bound check).

    Both kinds run in every op because their latencies form two disjoint
    clusters at small D; an op that alternated kinds would put the median in
    the gap between them, where it jumps with the parity of the op count.
    """

    KINDS = ("diag", "full")

    def __init__(self, seed: int, workdir: Path, train_size: int):
        self.seed = seed
        self.train_size = train_size
        self.system = bench.get_system(SYSTEM)
        self.oracle_case = None  # the first checked op's inputs and predictions

    def _draw(self, count: int, stream: np.ndarray):
        velocities = bench.sample_trajectory(
            self.system, count, seed=int(stream[0]), waveform="uniform")
        return bench.generate_dataset(self.system, velocities, NOISE_STD, seed=int(stream[1]))

    def run_op(self, i: int):
        streams = np.random.SeedSequence([self.seed, i]).generate_state(4).reshape(2, 2)
        train = self._draw(self.train_size, streams[0])
        val = self._draw(VAL_SIZE, streams[1])
        prior = models.fit_prior_mean(train)
        fits = []
        for kind in self.KINDS:
            opt = models.optimize_hypervariances(
                kind, train, val, self.system.default_lengthscales, NOISE_VARIANCE,
                constrained=True, budget=BUDGET, prior_mean=prior)
            model = models.fit(kind, opt.kernel, prior, train, NOISE_VARIANCE)
            bound = passivity.compute_bound(train, prior, NOISE_VARIANCE, opt.kernel.hypervariances)
            if kind == "diag":
                certificate = passivity.check_bound_diag(bound)
            else:
                certificate = passivity.check_bound_full(bound)
            fits.append((kind, opt, model, certificate))
        return train, val, prior, fits

    def check(self, i: int, result) -> list[str]:
        train, val, prior, fits = result
        problems = []
        for kind, opt, model, certificate in fits:
            if not certificate.feasible:
                problems.append(f"op {i} {kind}: hypervariances violate the passivity bound")
            if not math.isfinite(opt.val_mse):
                problems.append(f"op {i} {kind}: val_mse is {opt.val_mse}")
        if self.oracle_case is None:
            points = val.velocities[:ORACLE_POINTS]
            self.oracle_case = (i, train, prior, points, [
                (kind, opt.kernel, models.predict_torque_batch(model, points))
                for kind, opt, model, _ in fits])
        return problems

    def cleanup(self, i: int) -> None:
        pass

    def final_problems(self) -> list[str]:
        """Compare the first op's predictions with the dense oracle.

        This runs after the timed loop, so that the oracle's ND x ND
        temporaries cannot change the state in which the timed ops run.
        """
        if self.oracle_case is None:
            return ["no op completed, so the oracle check could not run"]
        i, train, prior, points, cases = self.oracle_case
        problems = []
        for kind, kernel, fast in cases:
            oracle = gp_core.joint_multi_output_oracle(
                kernel, train, prior.torque, points, NOISE_VARIANCE)
            worst = max(np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-12)
                        for got, ref in zip(fast, oracle))
            if not worst <= ORACLE_RTOL:
                problems.append(f"op {i} {kind}: predictions differ from the dense "
                                f"oracle by {worst:.3g} relative")
        return problems

    def identity_problems(self, totals: dict, ops: int) -> list[str]:
        """Call-count identities the trace must meet when it reaches every call.

        Each of the op's identifications is one search plus one final fit;
        every search evaluation is one projection plus one fit, and every fit
        factorizes one Gram matrix per output.
        """
        count = {name: value for name, (value, _) in totals.items()}
        searches = count["models.optimize_hypervariances.calls"]
        evals = count["models.optimize_hypervariances.evals"]
        fits = count["models.fit.calls"]
        expected = [
            ("models.optimize_hypervariances.calls", searches, len(self.KINDS) * ops),
            ("models.fit.calls", fits, evals + searches),
            ("gp_core.factorize.calls", count["gp_core.factorize.calls"], self.system.n_dim * fits),
            ("passivity.enforce_bound.calls", count["passivity.enforce_bound.calls"], evals),
        ]
        return [f"{name} = {got}, expected {want}" for name, got, want in expected if got != want]


PIPELINE_CONFIG = """\
system = {system}
train_sizes = 200
val_size = 100
test_size = 200
noise_std = {noise_std}
seeds = {seed}
kinds = full
"""
LENGTHSCALES = "12,12,12"  # the full3 system's default lengthscales
DOMAIN = "-25:25,-25:25,40:90"  # the full3 system's domain
POWER_SAMPLES = 20_000


class CliPipeline:
    """One op: in-process ``dampgp.cli.main`` for generate -> fit -> evaluate ->
    power on a fixed config, in a fresh output directory.

    Every op of a run repeats the same command lines, so its CSV and SVG
    outputs must be byte-identical to those of op 0 (the warm-up op).
    Manifests are excluded: they carry a creation time.
    """

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.config = workdir / "pipeline.cfg"
        self.config.write_text(PIPELINE_CONFIG.format(
            system=SYSTEM, noise_std=NOISE_STD, seed=seed))
        self.reference = None

    def _outdir(self, i: int) -> Path:
        return self.workdir / f"op{i}"

    def run_op(self, i: int):
        out = self._outdir(i)
        data = f"{out}/seed{self.seed}"
        model = f"{out}/full.model"
        steps = [
            ("generate", ["--config", str(self.config), "--out-dir", str(out), "generate"]),
            ("fit", ["fit", f"{data}_train.csv", "--kind", "full", "--val", f"{data}_val.csv",
                     "--lengthscales", LENGTHSCALES, "--constrained", "--out", model]),
            ("evaluate", ["evaluate", model, f"{data}_test.csv", "--out", f"{out}/metrics.csv",
                          "--system", SYSTEM]),
            ("power", ["--out-dir", str(out), "power", model, f"--domain={DOMAIN}",
                       "--samples", str(POWER_SAMPLES)]),
        ]
        transcript = []
        for name, argv in steps:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            transcript.append((name, code, buf.getvalue()))
            if code != 0:
                break
        return transcript

    def _digests(self, i: int) -> dict:
        out = self._outdir(i)
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir()) if p.suffix in (".csv", ".svg")}

    def check(self, i: int, transcript) -> list[str]:
        problems = [f"op {i}: {name} exited with code {code}"
                    for name, code, _ in transcript if code != 0]
        if len(transcript) < 4:
            return problems or [f"op {i}: pipeline stopped early"]
        if not transcript[3][2].startswith("PASSIVE"):
            problems.append(f"op {i}: power verdict {transcript[3][2].splitlines()[:1]}")
        digests = self._digests(i)
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(n for n in digests.keys() | self.reference.keys()
                             if digests.get(n) != self.reference.get(n))
            problems.append(f"op {i}: outputs differ from op 0: {changed}")
        return problems

    def cleanup(self, i: int) -> None:
        shutil.rmtree(self._outdir(i), ignore_errors=True)

    def final_problems(self) -> list[str]:
        return []

    def identity_problems(self, totals: dict, ops: int) -> list[str]:
        return []


WORKLOADS = {
    "certify-small": lambda seed, workdir: Certify(seed, workdir, train_size=50),
    "certify-large": lambda seed, workdir: Certify(seed, workdir, train_size=400),
    "cli-pipeline": CliPipeline,
}
