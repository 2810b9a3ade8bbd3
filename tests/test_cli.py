import argparse
import contextlib
import inspect
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import dampgp
from dampgp import bench, charts, cli, modelio, models, passivity
from dampgp.errors import InputError, ParseError
from dampgp.kernels import DiagTorqueKernel, FullTorqueKernel
from dampgp.models import Dataset, PriorMean, fit, fit_prior_mean

SMALL_CFG = """\
system = linear1
train_sizes = 20
val_size = 15
test_size = 25
noise_std = 0.5
seeds = 0,1
kinds = diag
lengthscales = 12
noise_variance = 1.0
budget = 5
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL_CFG)
    return path


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


class TestGenerate:
    def test_writes_expected_files(self, tmp_path, cfg_path):
        out = tmp_path / "data"
        assert run_cli("--config", cfg_path, "--out-dir", out, "generate") == 0
        for seed in (0, 1):
            for split, rows in (("train", 20), ("val", 15), ("test", 25)):
                data = bench.read_dataset(out / f"seed{seed}_{split}.csv")
                assert data.n_samples == rows
                assert data.n_dim == 1
        manifest = json.loads((out / "generate_manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert len(manifest["files"]) == 6

    def test_rerun_is_byte_identical(self, tmp_path, cfg_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("--config", cfg_path, "--out-dir", out1, "generate")
        run_cli("--config", cfg_path, "--out-dir", out2, "generate")
        for f in sorted(out1.glob("*.csv")):
            assert f.read_bytes() == (out2 / f.name).read_bytes()
        # the manifest names its output directory but records no clock
        manifest = (out1 / "generate_manifest.json").read_bytes()
        run_cli("--config", cfg_path, "--out-dir", out1, "generate")
        assert (out1 / "generate_manifest.json").read_bytes() == manifest

    def test_validation_is_drawn_apart_from_training(self, tmp_path, cfg_path):
        out = tmp_path / "data"
        assert run_cli("--config", cfg_path, "--out-dir", out, "generate") == 0
        val = {s: bench.read_dataset(out / f"seed{s}_val.csv").velocities for s in (0, 1)}
        train = bench.read_dataset(out / "seed0_train.csv").velocities
        assert not set(map(tuple, train.tolist())) & set(map(tuple, val[0].tolist()))
        assert not np.array_equal(val[0], val[1])

    def test_training_trajectory_differs_per_seed(self, tmp_path, cfg_path):
        out = tmp_path / "data"
        assert run_cli("--config", cfg_path, "--out-dir", out, "generate") == 0
        train = [bench.read_dataset(out / f"seed{s}_train.csv").velocities for s in (0, 1)]
        assert not np.array_equal(train[0], train[1])
        assert np.array_equal(
            train[0], bench.sample_trajectory(bench.get_system("linear1"), 20))

    def test_unknown_system_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("system = warp9\n")
        code = run_cli("--config", bad, "--out-dir", tmp_path, "generate")
        assert code == cli.EXIT_INPUT

    def test_several_train_sizes_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "sizes.cfg"
        cfg.write_text(SMALL_CFG.replace("train_sizes = 20", "train_sizes = 10,30"))
        out = tmp_path / "data"
        assert run_cli("--config", cfg, "--out-dir", out, "generate") == cli.EXIT_INPUT
        assert "train_sizes = 10,30" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exit_code(self, tmp_path):
        assert run_cli("--out-dir", tmp_path, "generate") == cli.EXIT_INPUT

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_std_exit_code(self, tmp_path, value, capsys):
        # nan used to pass both sign checks and write noise-free data
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(SMALL_CFG.replace("noise_std = 0.5", f"noise_std = {value}"))
        out = tmp_path / "data"
        assert run_cli("--config", cfg, "--out-dir", out, "generate") == cli.EXIT_INPUT
        assert "noise_std must be finite" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("value", ["-100", "0", "nan", "inf"])
def test_bad_noise_variance_config_exit_code(tmp_path, value, capsys):
    cfg = tmp_path / "nv.cfg"
    cfg.write_text(SMALL_CFG.replace("noise_variance = 1.0", f"noise_variance = {value}")
                   + "constrained = true\n")
    assert run_cli("--config", cfg, "--out-dir", tmp_path / "out",
                   "efficiency", "--sizes", "10") == cli.EXIT_INPUT
    assert "noise_variance must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("key, command", [
    ("seeds", ["efficiency", "--sizes", "10"]),
    ("kinds", ["efficiency", "--sizes", "10"]),
    ("train_sizes", ["generate"]),
])
def test_empty_config_list_exit_code(tmp_path, key, command, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} = ,", SMALL_CFG, flags=re.M))
    assert run_cli("--config", cfg, "--out-dir", tmp_path / "out", *command) == cli.EXIT_INPUT
    assert f"{key} must list at least one value" in capsys.readouterr().err


@pytest.mark.parametrize("key, text, message", [
    ("kinds", "bogus", "unknown model kind 'bogus'"),
    ("kinds", "diag,diag", "kinds repeats a value: diag,diag"),
    ("seeds", "0,0", "seeds repeats a value: 0,0"),
    # generate used to exit 0 and write seed-1_*.csv
    ("seeds", "-1", "seed must be >= 0, got -1"),
    ("budget", "0", "budget must be >= 1, got 0"),
    # numpy's "Maximum allowed dimension exceeded" escaped with exit code 1
    ("val_size", "1" + "0" * 30, f"val_size must be <= {2**63 - 1}, got 1{'0' * 30}"),
    ("test_size", str(2**63), f"test_size must be <= {2**63 - 1}, got {2**63}"),
    # fits int64, but not as rows of a 1-D float64 array; generate made its
    # output directory before it drew the first split
    ("val_size", str(2 * 10**18), f"count must be <= {(2**63 - 1) // 8}, got {2 * 10**18}"),
    # generate used to exit 0 and write NaN, which is not JSON, into its manifest
    ("lengthscales", "-1", "lengthscales must be finite and > 0, got [-1.0]"),
    ("lengthscales", "0", "lengthscales must be finite and > 0, got [0.0]"),
    ("lengthscales", "nan", "lengthscales must be finite and > 0, got [nan]"),
    # the count comes first: the config's system is one-dimensional
    ("lengthscales", "-1,0,nan", "got 3 lengthscales for 1-dimensional data"),
    # generate used to exit 0 and record the two lengthscales in its manifest
    ("lengthscales", "1,2", "got 2 lengthscales for 1-dimensional data"),
])
@pytest.mark.parametrize("command", [["generate"], ["efficiency", "--sizes", "10"]])
def test_bad_config_value_writes_nothing(tmp_path, key, text, message, command, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} = {text}", SMALL_CFG, flags=re.M))
    out = tmp_path / "out"
    assert run_cli("--config", cfg, "--out-dir", out, *command) == cli.EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not out.exists()


class _Stopped(Exception):
    """Raised by a stub to end a command once it has seen its arguments."""


@pytest.mark.parametrize("text", [" 12, 12,12", "12,,12,", " 7 ", ",", "12,x", "1.5"])
def test_list_flags_parse_as_config_values(tmp_path, cfg_path, monkeypatch, text):
    # each flag hands on exactly what the config parser of its key makes of the text
    seen = []

    def stop(*args, **kwargs):
        seen.append(args)
        raise _Stopped

    monkeypatch.setattr(bench, "read_dataset", lambda path: None)
    monkeypatch.setattr(models, "optimize_hypervariances", stop)
    monkeypatch.setattr(cli, "run_efficiency", stop)
    for key, position, argv in [
        ("lengthscales", 3, ["fit", "t.csv", "--kind", "diag", "--val", "v.csv",
                             "--lengthscales", text, "--out", tmp_path / "m.model"]),
        ("train_sizes", 1, ["--config", cfg_path, "--out-dir", tmp_path / "eff",
                            "efficiency", "--sizes", text]),
    ]:
        try:
            expected = bench._CONFIG_PARSERS[key](text)
        except ValueError:
            assert run_cli(*argv) == cli.EXIT_INPUT, key
            continue
        with pytest.raises(_Stopped):
            run_cli(*argv)
        assert repr(seen.pop()[position]) == repr(expected), key


def _reference_parse_domain(text):
    """The --domain parser the CLI had before it read lists as config values do."""
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


def _swept_domain(monkeypatch, tmp_path, text):
    """The box ``power --domain=text`` hands to the sweep."""
    seen = []

    def stop(model, domain, *args, **kwargs):
        seen.append(np.asarray(domain, dtype=float))
        raise _Stopped

    monkeypatch.setattr(modelio, "load_model", lambda path: types.SimpleNamespace(kind="ard"))
    monkeypatch.setattr(cli.passivity, "passivity_sweep", stop)
    with pytest.raises(_Stopped):
        run_cli("--out-dir", tmp_path, "power", "m.model", f"--domain={text}")
    return seen[0]


@pytest.mark.parametrize("text", ["-5:5", "-25:25,-25:25,40:90", " -25 : 25, -25:25 ,40:90",
                                  "0:1e-3,-inf:inf", "5:-5", "1:1"])
def test_domain_reads_valid_boxes_as_before(tmp_path, monkeypatch, text):
    got, expected = _swept_domain(monkeypatch, tmp_path, text), _reference_parse_domain(text)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_domain_skips_empty_items(tmp_path, monkeypatch):
    # the one grammar change: a trailing comma is skipped, as in `seeds = 0,`
    got = _swept_domain(monkeypatch, tmp_path, "-5:5,")
    assert got.tobytes() == _reference_parse_domain("-5:5").tobytes()


def test_budget_defaults_agree():
    # optimize_hypervariances, fit --budget and the config's budget
    library = inspect.signature(models.optimize_hypervariances).parameters["budget"].default
    flags = cli.build_parser().parse_args(
        ["fit", "t.csv", "--kind", "diag", "--val", "v.csv", "--lengthscales", "1", "--out", "m"])
    assert library == flags.budget == bench.ExperimentConfig().budget == 40


@pytest.mark.parametrize("reader", ["dataset", "config", "model"])
def test_undecodable_byte_exit_code(tmp_path, cfg_path, reader, capsys):
    # each reader names the file and line of a byte its encoding cannot decode
    data = tmp_path / "data"
    run_cli("--config", cfg_path, "--out-dir", data, "generate")
    train, val, test = (data / f"seed0_{split}.csv" for split in ("train", "val", "test"))
    model = tmp_path / "m.model"
    run_cli("fit", train, "--kind", "diag", "--val", val, "--lengthscales", "12",
            "--noise-variance", "1.0", "--budget", "5", "--out", model)
    bad, byte, argv = {
        "dataset": (train, b"\xff", ("fit", train, "--kind", "diag", "--val", val,
                                     "--lengthscales", "12", "--out", tmp_path / "m2.model")),
        "config": (cfg_path, b"# caf\xe9", ("--config", cfg_path, "--out-dir", tmp_path / "g",
                                            "generate")),
        "model": (model, b"\xff", ("evaluate", model, test, "--out", tmp_path / "x.csv")),
    }[reader]
    lines = bad.read_bytes().split(b"\n")
    lines[2] += byte
    bad.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert run_cli(*argv) == cli.EXIT_INPUT
    encoding = "utf-8" if reader == "config" else "ascii"
    assert f"{bad}:3: byte 0x{byte[-1]:02x} is not {encoding} text" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_repeated_config_key_exit_code(tmp_path, cfg_path, capsys):
    # a second "seeds" line used to win silently
    cfg_path.write_text(SMALL_CFG + "seeds = 7\n")
    out = tmp_path / "data"
    assert run_cli("--config", cfg_path, "--out-dir", out, "generate") == cli.EXIT_INPUT
    assert f"{cfg_path}:11: seeds repeats line 6" in capsys.readouterr().err
    assert not out.exists()


def _readme_harness_flags() -> set:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command-line harness\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*[a-z]", section))


def _parser_long_options(parser) -> set:
    options = set()
    for action in parser._actions:
        options |= {o for o in action.option_strings if o.startswith("--")}
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _parser_long_options(sub)
    return options - {"--help"}


def test_readme_names_every_cli_flag():
    # README's "Command-line harness" section and the parsers list the same flags
    documented, accepted = _readme_harness_flags(), _parser_long_options(cli.build_parser())
    assert sorted(documented - accepted) == [], "named in README but not accepted"
    assert sorted(accepted - documented) == [], "accepted but not named in README"


FUZZ_CFG = """\
system = full3
train_sizes = 12
val_size = 8
test_size = 6
noise_std = 0.5
seeds = 0
kinds = full
lengthscales = 12,12,12
noise_variance = 1.0
budget = 3
"""
# Values a mutation puts in place of a number: signs, zero, fractions,
# non-finite and extreme floats, and integers at and beyond numpy's limits.
FUZZ_VALUES = ["0", "-1", "1", "2", "2.5", "-2.5", "nan", "inf", "-inf", "1e308", "-1e308",
               "1e-320", "1e200", "-1e200", "", "x", "1,2", str(2**63 - 1), str(2**63),
               str(10**18), str(10**16), str(10**30), str(-10**30)]


def _mutated(text, rng):
    """``text`` with one line deleted or repeated, cut at a random byte, or
    (7 times in 10) one number replaced by a ``FUZZ_VALUES`` entry."""
    lines = text.split("\n")
    op, i = rng.random(), int(rng.integers(len(lines)))
    if op < 0.1:
        del lines[i]
    elif op < 0.2:
        lines.insert(i, lines[i])
    elif op < 0.3:
        return text[: int(rng.integers(len(text)))]
    else:
        numbers = [m.span() for m in re.finditer(r"[-+.\w]+", text)
                   if re.fullmatch(r"[-+]?\d[-+.\de]*", m.group())]
        a, b = numbers[int(rng.integers(len(numbers)))]
        return text[:a] + FUZZ_VALUES[int(rng.integers(len(FUZZ_VALUES)))] + text[b:]
    return "\n".join(lines)


def test_mutated_files_exit_with_a_documented_code(tmp_path, monkeypatch):
    """300 seeded mutations of a config, a training set and a model file,
    each run through two commands in-process: every exit code is 0, 2, 3
    or 4.  Warnings are recorded, as the command line prints them, not
    raised."""
    monkeypatch.chdir(tmp_path)
    Path("exp.cfg").write_text(FUZZ_CFG)
    assert run_cli("--config", "exp.cfg", "--out-dir", "data", "generate") == 0
    assert run_cli("fit", "data/seed0_train.csv", "--kind", "full", "--val", "data/seed0_val.csv",
                   "--lengthscales", "12,12,12", "--budget", "3", "--out", "full.model") == 0
    bases = {"cfg": FUZZ_CFG, "csv": Path("data/seed0_train.csv").read_text(),
             "model": Path("full.model").read_text()}
    rng = np.random.default_rng(0)
    failures = []
    for k in range(300):
        suffix = ("cfg", "csv", "model")[k % 3]
        path = Path(f"m{k}.{suffix}")
        path.write_text(_mutated(bases[suffix], rng))
        commands = {
            "cfg": [("--config", path, "--out-dir", f"g{k}", "generate"),
                    ("--config", path, "--out-dir", f"e{k}", "efficiency", "--sizes", "5,9")],
            "csv": [("fit", path, "--kind", models.KINDS[k % 9 // 3], "--val",
                     "data/seed0_val.csv", "--lengthscales", "12,12,12", "--budget", "3",
                     "--out", f"f{k}.model", *(["--constrained"] if k % 9 == 7 else [])),
                    ("evaluate", "full.model", path, "--out", f"x{k}.csv")],
            "model": [("evaluate", path, "data/seed0_test.csv", "--out", f"x{k}.csv"),
                      ("--out-dir", f"p{k}", "power", path, "--domain=-25:25,-25:25,40:90",
                       "--samples", "20")],
        }[suffix]
        for argv in commands:
            with (contextlib.redirect_stdout(io.StringIO()),
                  contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings(record=True)):
                warnings.simplefilter("always")
                try:
                    code = run_cli(*argv)
                except Exception as exc:
                    code = f"{type(exc).__name__}: {exc}"
            if code not in (0, 2, 3, 4):
                failures.append((path.name, argv[:5], code))
    assert failures == []


class TestFit:
    def _generated(self, tmp_path, cfg_path):
        out = tmp_path / "data"
        run_cli("--config", cfg_path, "--out-dir", out, "generate")
        return out / "seed0_train.csv", out / "seed0_val.csv", out / "seed0_test.csv"

    def test_fit_reports_bound(self, tmp_path, cfg_path, capsys):
        train, val, _ = self._generated(tmp_path, cfg_path)
        model_path = tmp_path / "m.model"
        code = run_cli(
            "fit", train, "--kind", "diag", "--val", val,
            "--lengthscales", "12", "--noise-variance", "1.0",
            "--budget", "5", "--out", model_path,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "passivity bound: c=" in out
        assert "feasible=" in out
        assert model_path.exists()

    def test_ard_bound_not_applicable(self, tmp_path, cfg_path, capsys):
        train, val, _ = self._generated(tmp_path, cfg_path)
        code = run_cli(
            "fit", train, "--kind", "ard", "--val", val,
            "--lengthscales", "12", "--budget", "3", "--out", tmp_path / "a.model",
        )
        assert code == 0
        assert "n/a" in capsys.readouterr().out

    def test_ard_constrained_rejected(self, tmp_path, cfg_path, capsys):
        train, val, _ = self._generated(tmp_path, cfg_path)
        code = run_cli(
            "fit", train, "--kind", "ard", "--val", val, "--lengthscales", "12",
            "--constrained", "--budget", "3", "--out", tmp_path / "a.model",
        )
        assert code == cli.EXIT_INPUT
        assert "no passivity bound" in capsys.readouterr().err

    def test_refit_byte_identical(self, tmp_path, cfg_path):
        train, val, _ = self._generated(tmp_path, cfg_path)
        p1, p2 = tmp_path / "m1.model", tmp_path / "m2.model"
        args = ["fit", train, "--kind", "diag", "--val", val,
                "--lengthscales", "12", "--budget", "5"]
        run_cli(*args, "--out", p1)
        run_cli(*args, "--out", p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("command", ["fit", "efficiency"])
    def test_wrong_lengthscale_count(self, tmp_path, command, capsys):
        # fit reaches the count check inside the hypervariance search,
        # efficiency the config's own check of its system's dimension
        cfg = tmp_path / "full3.cfg"
        text = ("system = full3\ntrain_sizes = 12\nval_size = 8\ntest_size = 4\n"
                "seeds = 0\nkinds = diag\nbudget = 3\n")
        if command == "fit":
            # the data comes from a config without the bad count, which
            # generate now rejects
            out = tmp_path / "data"
            cfg.write_text(text)
            assert run_cli("--config", cfg, "--out-dir", out, "generate") == 0
            argv = ["fit", out / "seed0_train.csv", "--kind", "diag",
                    "--val", out / "seed0_val.csv", "--lengthscales", "1,2",
                    "--budget", "3", "--out", tmp_path / "m.model"]
        else:
            cfg.write_text(text + "lengthscales = 1,2\n")
            argv = ["--config", cfg, "--out-dir", tmp_path / "eff", "efficiency", "--sizes", "10"]
        capsys.readouterr()
        assert run_cli(*argv) == cli.EXIT_INPUT
        assert "got 2 lengthscales for 3-dimensional data" in capsys.readouterr().err
        assert not (tmp_path / "m.model").exists() and not (tmp_path / "eff").exists()

    def test_missing_train_file(self, tmp_path):
        code = run_cli(
            "fit", tmp_path / "absent.csv", "--kind", "diag",
            "--val", tmp_path / "absent.csv", "--lengthscales", "12",
            "--out", tmp_path / "m.model",
        )
        assert code == cli.EXIT_INPUT

    def test_non_finite_validation_file_is_named(self, tmp_path, capsys):
        # Dataset's rule used to reach stderr without the file's path
        train, val = tmp_path / "t.csv", tmp_path / "v.csv"
        bench.write_dataset(train, Dataset(np.ones((4, 1)), np.ones((4, 1))))
        val.write_text("qd_1,tau_1\n1,2\nnan,3\n")
        code = run_cli("fit", train, "--kind", "diag", "--val", val, "--lengthscales", "12",
                       "--budget", "3", "--out", tmp_path / "m.model")
        assert code == cli.EXIT_INPUT == 2
        assert capsys.readouterr().err == f"error: {val}: dataset contains non-finite entries\n"
        assert not (tmp_path / "m.model").exists()

    @pytest.mark.parametrize("constrained", [[], ["--constrained"]], ids=["free", "constrained"])
    @pytest.mark.parametrize("kind", ["diag", "full"])
    @pytest.mark.parametrize("value", ["0", "-100", "nan", "inf"])
    def test_bad_noise_variance_exit_code(
        self, tmp_path, cfg_path, kind, value, constrained, capsys
    ):
        # fit's rule and message whether or not the bound is computed
        train, val, _ = self._generated(tmp_path, cfg_path)
        code = run_cli(
            "fit", train, "--kind", kind, "--val", val, "--lengthscales", "12",
            f"--noise-variance={value}", *constrained, "--budget", "3",
            "--out", tmp_path / "m.model",
        )
        assert code == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: noise_variance must be finite and > 0, got {float(value)}\n"
        )
        assert not (tmp_path / "m.model").exists()

    def test_constrained_infeasible_exit_code(self, tmp_path):
        # zero prior mean slope (anti-symmetric data) with nonzero residual
        # makes the diagonal constraint unsatisfiable at any positive scale
        q = np.array([[1.0], [-1.0], [2.0], [-2.0]])
        data = Dataset(q, -3.0 * q)
        train = tmp_path / "t.csv"
        bench.write_dataset(train, data)
        code = run_cli(
            "fit", train, "--kind", "diag", "--val", train,
            "--lengthscales", "12", "--constrained", "--budget", "3",
            "--out", tmp_path / "m.model",
        )
        assert code == cli.EXIT_INFEASIBLE

    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_constrained_fit_on_a_vacuous_bound(self, tmp_path, kind, capsys):
        # zero velocities give m_d = 0 and c = +inf: every grid passes
        train = tmp_path / "t.csv"
        bench.write_dataset(train, Dataset(np.zeros((10, 2)),
                                           np.random.default_rng(3).normal(0.0, 1.0, (10, 2))))
        code = run_cli(
            "fit", train, "--kind", kind, "--val", train,
            "--lengthscales", "12,12", "--constrained", "--budget", "3",
            "--out", tmp_path / "m.model",
        )
        assert code == 0
        assert "passivity bound: c=inf feasible=True margin=inf\n" in capsys.readouterr().out


class TestEvaluate:
    def _fitted(self, tmp_path, cfg_path):
        out = tmp_path / "data"
        run_cli("--config", cfg_path, "--out-dir", out, "generate")
        model_path = tmp_path / "m.model"
        run_cli(
            "fit", out / "seed0_train.csv", "--kind", "diag",
            "--val", out / "seed0_val.csv", "--lengthscales", "12",
            "--noise-variance", "1.0", "--budget", "5", "--out", model_path,
        )
        return model_path, out / "seed0_test.csv"

    def test_metrics_csv_rows(self, tmp_path, cfg_path):
        model_path, test_path = self._fitted(tmp_path, cfg_path)
        out_csv = tmp_path / "metrics.csv"
        assert run_cli("evaluate", model_path, test_path, "--out", out_csv,
                       "--system", "linear1") == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "row,output,nmse,rel_err_mean,rel_err_var"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["model", "model", "mean_baseline", "mean_baseline"]
        assert [r[1] for r in rows] == ["1", "aggregate", "1", "aggregate"]
        model_nmse = float(rows[0][2])
        baseline_nmse = float(rows[2][2])
        assert model_nmse < baseline_nmse  # the GP must beat the mean predictor

    def test_dimension_mismatch(self, tmp_path, cfg_path, capsys):
        model_path, _ = self._fitted(tmp_path, cfg_path)
        other = tmp_path / "other.csv"
        bench.write_dataset(other, Dataset(np.ones((2, 2)), np.ones((2, 2))))
        capsys.readouterr()
        assert run_cli("evaluate", model_path, other,
                       "--out", tmp_path / "x.csv") == cli.EXIT_INPUT
        assert capsys.readouterr().err == "error: test velocities must have shape (M, 1), got (2, 2)\n"
        assert not (tmp_path / "x.csv").exists()

    def test_system_of_other_dimension_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "full3.cfg"
        cfg.write_text(SMALL_CFG.replace("system = linear1", "system = full3")
                       .replace("lengthscales = 12", "lengthscales = 12,12,12"))
        data = tmp_path / "data"
        run_cli("--config", cfg, "--out-dir", data, "generate")
        model_path = tmp_path / "m.model"
        assert run_cli(
            "fit", data / "seed0_train.csv", "--kind", "diag",
            "--val", data / "seed0_val.csv", "--lengthscales", "12,12,12",
            "--noise-variance", "1.0", "--budget", "2", "--out", model_path,
        ) == 0
        assert run_cli("evaluate", model_path, data / "seed0_test.csv",
                       "--out", tmp_path / "x.csv", "--system", "linear1") == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: system 'linear1' velocities must have shape (M, 1), got (25, 3)\n")

    @pytest.mark.parametrize("pattern, value", [
        (r"noise_variance: (\S+)", "three"),
        (r"\[hypervariances\]\n(\S+)", "inf"),
    ], ids=["noise_variance", "hypervariance"])
    def test_malformed_model_values_exit_code(self, tmp_path, cfg_path, pattern, value,
                                              capsys):
        model_path, test_path = self._fitted(tmp_path, cfg_path)
        text = model_path.read_text()
        span = re.search(pattern, text).span(1)
        model_path.write_text(text[:span[0]] + value + text[span[1]:])
        assert run_cli("evaluate", model_path, test_path,
                       "--out", tmp_path / "x.csv") == cli.EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("normalizer", ["inf", "nan", "0", "-1"])
    def test_bad_normalizer_exit_code(self, tmp_path, cfg_path, normalizer, capsys):
        # --normalizer inf exited 0 with relative errors of 0
        model_path, test_path = self._fitted(tmp_path, cfg_path)
        out_csv = tmp_path / "metrics.csv"
        assert run_cli("evaluate", model_path, test_path, "--out", out_csv,
                       f"--normalizer={normalizer}") == cli.EXIT_INPUT
        assert "normalizer must be finite and > 0" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_non_finite_ground_truth_exit_code(self, tmp_path, capsys):
        # diag3's q1^2 overflows at q1 = 1e200: its damping matrix is inf
        cfg = tmp_path / "diag3.cfg"
        cfg.write_text(SMALL_CFG.replace("system = linear1", "system = diag3")
                       .replace("lengthscales = 12", "lengthscales = 12,12,12"))
        data = tmp_path / "data"
        run_cli("--config", cfg, "--out-dir", data, "generate")
        model_path = tmp_path / "m.model"
        assert run_cli(
            "fit", data / "seed0_train.csv", "--kind", "diag",
            "--val", data / "seed0_val.csv", "--lengthscales", "12,12,12",
            "--noise-variance", "1.0", "--budget", "2", "--out", model_path,
        ) == 0
        test = bench.read_dataset(data / "seed0_test.csv")
        velocities = test.velocities.copy()
        velocities[3, 0] = 1e200
        test_path = tmp_path / "far.csv"
        bench.write_dataset(test_path, Dataset(velocities, test.torques))
        out_csv = tmp_path / "metrics.csv"
        assert run_cli("evaluate", model_path, test_path, "--out", out_csv,
                       "--system", "diag3") == cli.EXIT_INPUT
        assert (f"damping matrix not finite at {velocities[3]}"
                in capsys.readouterr().err)
        assert not out_csv.exists()

    def test_corrupt_model_file(self, tmp_path, cfg_path):
        _, test_path = self._fitted(tmp_path, cfg_path)
        bad = tmp_path / "bad.model"
        bad.write_text("not a model\n")
        assert run_cli("evaluate", bad, test_path,
                       "--out", tmp_path / "x.csv") == cli.EXIT_INPUT


class TestEfficiency:
    def test_small_run(self, tmp_path, cfg_path):
        out = tmp_path / "eff"
        assert run_cli("--config", cfg_path, "--out-dir", out,
                       "efficiency", "--sizes", "10,20") == 0
        lines = (out / "efficiency.csv").read_text().splitlines()
        assert lines[0] == "kind,size,seed,output,nmse"
        # 1 kind x 2 sizes x 2 seeds x (1 output + aggregate)
        assert len(lines) == 1 + 1 * 2 * 2 * 2
        svg = (out / "efficiency.svg").read_text()
        ET.fromstring(svg)  # well-formed XML
        assert "diag" in svg  # legend names the series
        manifest = json.loads((out / "efficiency_manifest.json").read_text())
        assert manifest["sizes"] == [10, 20]

    def test_unsorted_sizes_rejected(self, tmp_path, cfg_path):
        code = run_cli("--config", cfg_path, "--out-dir", tmp_path,
                       "efficiency", "--sizes", "20,10")
        assert code == cli.EXIT_INPUT

    def test_repeated_sizes_exit_code(self, tmp_path, cfg_path, capsys):
        out = tmp_path / "eff"
        assert run_cli("--config", cfg_path, "--out-dir", out,
                       "efficiency", "--sizes", "20,20") == cli.EXIT_INPUT
        assert "strictly ascending" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(InputError, match="strictly ascending"):
            cli.run_efficiency(bench.read_config(cfg_path), [10, 10])

    @pytest.mark.parametrize("sizes", ["10,x", ",", "0,10"])
    def test_malformed_sizes_exit_code(self, tmp_path, cfg_path, sizes, capsys):
        code = run_cli("--config", cfg_path, "--out-dir", tmp_path,
                       "efficiency", "--sizes", sizes)
        assert code == cli.EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes, message", [
        ("1" + "0" * 30, f"training size must be <= {2**63 - 1}, got 1{'0' * 30}"),
        # fits int64, but not as rows of a 1-D float64 array
        (str(2 * 10**18), f"count must be <= {(2**63 - 1) // 8}, got {2 * 10**18}"),
    ], ids=["beyond-int64", "beyond-numpy-arrays"])
    def test_sizes_numpy_cannot_hold_exit_code(self, tmp_path, cfg_path, sizes, message, capsys):
        # numpy's ValueError escaped with a traceback and exit code 1
        out = tmp_path / "eff"
        assert run_cli("--config", cfg_path, "--out-dir", out,
                       "efficiency", "--sizes", sizes) == cli.EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_constrained_run_leaves_ard_unconstrained(self, tmp_path):
        rows = {}
        for flag in ("false", "true"):
            cfg = tmp_path / f"{flag}.cfg"
            # noise_std 2 makes the residual large enough that the bound binds
            cfg.write_text(SMALL_CFG.replace("kinds = diag", "kinds = ard,diag")
                           .replace("noise_std = 0.5", "noise_std = 2.0")
                           + f"constrained = {flag}\n")
            out = tmp_path / flag
            assert run_cli("--config", cfg, "--out-dir", out,
                           "efficiency", "--sizes", "10") == 0
            lines = (out / "efficiency.csv").read_text().splitlines()[1:]
            rows[flag] = {k: [r for r in lines if r.startswith(k + ",")] for k in ("ard", "diag")}
        assert rows["true"]["ard"] == rows["false"]["ard"]
        assert rows["true"]["diag"] != rows["false"]["diag"]  # projected

    def test_default_lengthscales_are_the_systems(self, tmp_path, cfg_path):
        # a config without lengthscales fits and records the system's defaults
        cfg_path.write_text(SMALL_CFG.replace("lengthscales = 12\n", ""))
        assert run_cli("--config", cfg_path, "--out-dir", tmp_path / "eff",
                       "efficiency", "--sizes", "10") == 0
        manifest = json.loads((tmp_path / "eff" / "efficiency_manifest.json").read_text())
        defaults = bench.get_system("linear1").default_lengthscales.tolist()
        assert manifest["config"]["lengthscales"] == defaults == [12.0]

    def test_streams_of_different_sizes_never_share_a_seed(self, monkeypatch):
        # sizes 100 apart: the per-size velocity and noise tags must still never meet
        seeds = []
        for name in ("sample_trajectory", "generate_dataset"):
            original = getattr(bench, name)
            monkeypatch.setattr(
                bench, name,
                lambda *args, _original=original, **kwargs:
                    seeds.append(kwargs["seed"]) or _original(*args, **kwargs),
            )
        cfg = bench.ExperimentConfig(
            system="linear1", val_size=10, test_size=10, seeds=(0,),
            kinds=("diag",), lengthscales=(12.0,), noise_variance=1.0, budget=1,
        )
        cli.run_efficiency(cfg, [10, 110, 210])
        assert len(seeds) == 3 + 2 * 3  # test, val and its noise, then two per size
        assert len(set(seeds)) == len(seeds)

    def test_run_efficiency_deterministic(self):
        cfg = bench.ExperimentConfig(
            system="linear1", val_size=10, test_size=10, seeds=(0,),
            kinds=("diag",), lengthscales=(12.0,), noise_variance=1.0, budget=3,
        )
        r1 = cli.run_efficiency(cfg, [10])
        r2 = cli.run_efficiency(cfg, [10])
        assert r1 == r2


def _one_call_sweep(model, box, samples, seed):
    """The sweep's points and powers as one draw of the samples, the corners
    and the origin stacked, and one prediction over all of them."""
    n = len(box)
    points = np.vstack([
        np.random.default_rng(seed).uniform(box[:, 0], box[:, 1], size=(samples, n)),
        np.array(list(itertools.product(*box))),
        np.zeros((1, n)),
    ])
    return points, np.sum(points * models.predict_torque_batch(model, points), axis=1)


def blocked_sweep_mismatches(out_dir) -> list:
    """(kind, samples, output) of every ``passivity_sweep`` result and every
    ``power`` file that is not bitwise equal to ``_one_call_sweep``'s."""
    out_dir = Path(out_dir)
    rng = np.random.default_rng(44)
    box = np.array([[-2.0, 2.0], [-3.0, 3.0], [-1.0, 4.0]])
    domain = "--domain=" + ",".join(f"{lo:g}:{hi:g}" for lo, hi in box)
    p, block, extra = models._PIECE, passivity._SWEEP_BLOCK, 2**3 + 1  # corners, origin
    counts = (1, p - 1, p, p + 1, block - 1, block, block + 1, 20_000,
              # the second block starts at 2 * block points
              2 * block - 1 - extra, 2 * block - extra, 2 * block + 1 - extra)
    kernels = {"diag": DiagTorqueKernel(rng.uniform(1.0, 3.0, 3), rng.uniform(0.2, 2.0, 3)),
               "full": FullTorqueKernel(rng.uniform(1.0, 3.0, 3), rng.uniform(0.2, 2.0, (3, 3)))}
    mismatches = []
    for kind, kernel in kernels.items():
        # 400 training points: there a last piece narrower than _PIECE
        # rounds differently, where at 60 it happened not to
        q = rng.uniform(-3.0, 3.0, (400, 3))
        data = Dataset(q, q * 1.5 + rng.normal(0.0, 0.5, (400, 3)))
        model_path = out_dir / f"{kind}.model"
        modelio.save_model(model_path, fit(kind, kernel, fit_prior_mean(data), data, 0.5))
        model = modelio.load_model(model_path)
        label = "constrained" if cli._bound_check(model)[1].feasible else "unconstrained"
        for samples in counts:
            points, powers = _one_call_sweep(model, box, samples, seed=samples)
            sweep = passivity.passivity_sweep(model, box, samples, seed=samples)
            out = out_dir / f"{kind}{samples}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["--out-dir", str(out), "power", str(model_path), domain,
                                 "--samples", str(samples), "--seed", str(samples)])
            assert code == 0
            rows = np.column_stack([points, powers])
            csv = "qd_1,qd_2,qd_3,power\n" + "".join(bench._fmt_chunks([rows], ","))
            charts.histogram(out / "reference.svg", powers,
                             title=f"Dissipated power distribution ({label})",
                             xlabel="dissipated power")
            for output, same in (
                ("points", sweep.points.shape == points.shape
                 and sweep.points.tobytes() == points.tobytes()),
                ("powers", sweep.powers.shape == powers.shape
                 and sweep.powers.tobytes() == powers.tobytes()),
                ("power.csv", (out / "power.csv").read_bytes() == csv.encode("ascii")),
                ("power.svg", (out / "power.svg").read_bytes()
                 == (out / "reference.svg").read_bytes()),
            ):
                if not same:
                    mismatches.append((kind, samples, output))
    return mismatches


class TestPower:
    def _model(self, tmp_path):
        rng = np.random.default_rng(0)
        q = rng.uniform(-5, 5, (15, 1))
        data = Dataset(q, 2.0 * q + rng.normal(0, 0.2, (15, 1)))
        prior = fit_prior_mean(data)
        model = fit("diag", DiagTorqueKernel(np.array([12.0]), np.array([1e-4])),
                    prior, data, 1.0)
        path = tmp_path / "m.model"
        modelio.save_model(path, model)
        return path

    def test_passive_verdict(self, tmp_path, capsys):
        model_path = self._model(tmp_path)
        out = tmp_path / "pow"
        code = run_cli("--out-dir", out, "power", model_path,
                       "--domain=-5:5", "--samples", "200")
        assert code == 0
        assert "PASSIVE (min=" in capsys.readouterr().out
        lines = (out / "power.csv").read_text().splitlines()
        assert lines[0] == "qd_1,power"
        assert len(lines) == 1 + 200 + 2 + 1  # samples + corners + origin
        ET.fromstring((out / "power.svg").read_text())

    def test_blocked_sweep_equals_one_call_bitwise(self, tmp_path):
        # One BLAS thread, as for the blocked prediction: a threaded
        # matrix-vector product splits its rows at points that depend on M.
        single = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        src = str(Path(dampgp.__file__).resolve().parents[1])
        env = os.environ | single | {
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        }
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "import test_cli; print(test_cli.blocked_sweep_mismatches(sys.argv[2]))"
        )
        run = subprocess.run(
            [sys.executable, "-c", code, str(Path(__file__).parent), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    def test_peak_memory_is_points_and_powers(self, tmp_path):
        # numpy reports its buffers to tracemalloc.  Whole, the sweep's
        # copies and the CSV text took 7 times points and powers at this
        # size.  In blocks, the prediction and the text live a block or a
        # chunk at a time, so the peak is points and powers, one
        # powers-sized temporary (such as the histogram's quartiles) and
        # about 2 MB: 5.5 MB here.
        model_path = self._model(tmp_path)
        samples, held = 200_000, (200_000 + 3) * (1 + 1) * 8  # points, powers; corners, origin
        argv = ("--out-dir", tmp_path / "pow", "power", model_path, "--domain=-5:5")
        assert run_cli(*argv, "--samples", "10") == 0  # the formatter's tables
        tracemalloc.start()
        try:
            assert run_cli(*argv, "--samples", samples) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * held + 4e6

    def test_violations_verdict(self, tmp_path, capsys):
        # a free diag fit chases the flipped torques of the adversarial set
        train = tmp_path / "adversarial.csv"
        bench.write_dataset(train, bench.adversarial_dataset(seed=0))
        model_path = tmp_path / "free.model"
        assert run_cli("fit", train, "--kind", "diag", "--val", train,
                       "--lengthscales", "12,12,12", "--noise-variance", "1.0",
                       "--budget", "20", "--out", model_path) == 0
        capsys.readouterr()
        assert run_cli("--out-dir", tmp_path / "pow", "power", model_path,
                       "--domain=-25:25,-25:25,40:90", "--samples", "2000") == 0
        verdict = capsys.readouterr().out.splitlines()[0]
        assert re.fullmatch(r"VIOLATIONS [1-9]\d* \(min=-\S+\)", verdict)

    def test_label_is_the_bound_check(self, tmp_path, cfg_path):
        # the title follows the saved hypervariances, whatever fit was asked for
        data = tmp_path / "data"
        run_cli("--config", cfg_path, "--out-dir", data, "generate")
        model_path = tmp_path / "c.model"
        assert run_cli(
            "fit", data / "seed0_train.csv", "--kind", "diag", "--val", data / "seed0_val.csv",
            "--lengthscales", "12", "--noise-variance", "1.0", "--budget", "5",
            "--constrained", "--out", model_path,
        ) == 0
        titles = []
        for scale in (1.0, 1e4):
            text = model_path.read_text()
            span = re.search(r"\[hypervariances\]\n(\S+)", text).span(1)
            hyp = float(text[span[0]:span[1]]) * scale
            model_path.write_text(f"{text[:span[0]]}{hyp!r}{text[span[1]:]}")
            out = tmp_path / f"pow{scale}"
            assert run_cli("--out-dir", out, "power", model_path,
                           "--domain=-25:25", "--samples", "20") == 0
            titles.append(re.search(r"Dissipated power distribution \((\w+)\)",
                                    (out / "power.svg").read_text()).group(1))
        assert titles == ["constrained", "unconstrained"]

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        model_path = self._model(tmp_path)
        assert run_cli("--out-dir", tmp_path / "pow", "power", model_path, "--domain=-5:5",
                       "--seed", "-1") == cli.EXIT_INPUT
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_seed_changes_sampled_points(self, tmp_path):
        model_path = self._model(tmp_path)
        points = {}
        for seed in (None, "0", "3"):
            out = tmp_path / f"pow{seed}"
            extra = () if seed is None else ("--seed", seed)
            assert run_cli("--out-dir", out, "power", model_path, "--domain=-5:5",
                           "--samples", "50", *extra) == 0
            points[seed] = (out / "power.csv").read_text()
        assert points[None] == points["0"]  # the default seed is 0
        assert points["3"] != points["0"]

    def test_global_seed_rejected(self, tmp_path, cfg_path, capsys):
        # only power samples anything, so --seed is a power option
        with pytest.raises(SystemExit) as exc:
            run_cli("--seed", "3", "--config", cfg_path, "--out-dir", tmp_path, "generate")
        assert exc.value.code == cli.EXIT_INPUT
        assert "dampgp: error:" in capsys.readouterr().err

    def test_bad_domain_exit_code(self, tmp_path):
        model_path = self._model(tmp_path)
        assert run_cli("--out-dir", tmp_path, "power", model_path,
                       "--domain=-5,5") == cli.EXIT_INPUT

    def test_inverted_domain_exit_code(self, tmp_path, capsys):
        model_path = self._model(tmp_path)
        assert run_cli("--out-dir", tmp_path, "power", model_path,
                       "--domain=5:-5") == cli.EXIT_INPUT
        assert "lower bounds must not exceed upper bounds" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (("--domain=-5:5", "--samples", "0"), "samples must be >= 1"),
        (("--domain=-5:5,-5:5",), r"domain must have shape \(1, 2\)"),
        # q * tau(q) overflows: no RuntimeWarning, no traceback, no power.csv
        (("--domain=-1e160:1e160",), r"dissipated power not finite at velocity \["),
        # hi - lo overflows: numpy's uniform raised OverflowError, a traceback
        (("--domain=-1e308:1e308",), r"domain widths must be finite"),
        # 218 TiB of points, past the 128 TiB user address space, so the
        # allocation fails at once without touching memory: numpy's
        # MemoryError escaped with a traceback and exit code 1
        (("--domain=-5:5", "--samples", "30000000000000"),
         r"^error: out of memory: Unable to allocate 218\. TiB"),
        # numpy's ValueError ("array is too big", "Maximum allowed dimension
        # exceeded") escaped with a traceback and exit code 1: the points
        # array of a 1-D model holds at most (2^63 - 1) // 8 rows, 3 of
        # them corners and origin
        *((("--domain=-5:5", "--samples", str(samples)),
           rf"^error: samples must be <= {(2**63 - 1) // 8 - 3}, got {samples}\n$")
          for samples in ((2**63 - 1) // 8 - 2, 2 * 10**18, 2**63 - 1, 10**30)),
    ], ids=["zero-samples", "domain-dimension", "overflowing-power", "overflowing-width",
            "unallocatable-samples", "samples-one-past-numpy", "samples-2e18",
            "samples-int64-max", "samples-1e30"])
    def test_rejected_sweep_creates_no_directory(self, tmp_path, capsys, args, message):
        model_path = self._model(tmp_path)
        out = tmp_path / "pow"
        assert run_cli("--out-dir", out, "power", model_path, *args) == cli.EXIT_INPUT
        assert re.search(message, capsys.readouterr().err)
        assert not out.exists()

    def test_numerical_error_exit_code(self, tmp_path, monkeypatch):
        model_path = self._model(tmp_path)

        def boom(*args, **kwargs):
            raise cli.NumericalError("factorization failed")

        monkeypatch.setattr(cli.passivity, "passivity_sweep", boom)
        assert run_cli("--out-dir", tmp_path, "power", model_path,
                       "--domain=-5:5") == cli.EXIT_NUMERICAL


class TestModelIo:
    def _model(self, kind, rng):
        n = 2
        q = rng.uniform(-2, 2, (12, n))
        data = Dataset(q, q * np.array([1.0, 2.0]) + rng.normal(0, 0.2, (12, n)))
        prior = PriorMean.zero(n) if kind == "ard" else fit_prior_mean(data)
        hyp = rng.uniform(0.2, 1.0, (n, n)) if kind == "full" else rng.uniform(0.2, 1.0, n)
        kernel = models.KERNEL_TYPES[kind](np.ones(n), hyp)
        return fit(kind, kernel, prior, data, 0.7)

    @pytest.mark.parametrize("header", ["current", "older", "blank-lines"])
    @pytest.mark.parametrize("kind", ["ard", "diag", "full"])
    def test_round_trip_predictions_identical(self, tmp_path, kind, header):
        rng = np.random.default_rng(1)
        model = self._model(kind, rng)
        path = tmp_path / "m.model"
        modelio.save_model(path, model)
        lines = path.read_text().splitlines(keepends=True)
        assert [line.split(":")[0].strip() for line in lines[:4]] == [
            modelio.MAGIC, "kind", "noise_variance", "[lengthscales]"]
        if header == "older":
            # older files carry n_dim and constrained lines; they load to the same model
            lines[2:2] = ["n_dim: 2\n"]
            lines[4:4] = ["constrained: true\n"]
            path.write_text("".join(lines))
        elif header == "blank-lines":  # skipped, in the header and in the blocks
            path.write_text("".join(line + "\n" if line.startswith(("kind", "[")) else line
                                    for line in lines))
        back = modelio.load_model(path)
        assert isinstance(back, models.FittedModel)
        qs = rng.uniform(-2, 2, (5, 2))
        assert np.array_equal(
            models.predict_torque_batch(model, qs),
            models.predict_torque_batch(back, qs),
        )

    @pytest.mark.parametrize("kind", ["ard", "diag", "full"])
    def test_training_blocks_of_another_dimension_exit_code(self, tmp_path, kind, capsys):
        model = self._model(kind, np.random.default_rng(8))
        path = tmp_path / "m.model"
        modelio.save_model(path, model)
        head, train = path.read_text().split("[train_velocities]\n")
        train = "\n".join(f"{row} 0.5" if row and not row.startswith("[") else row
                          for row in train.split("\n"))
        path.write_text(f"{head}[train_velocities]\n{train}")
        test = tmp_path / "test.csv"
        bench.write_dataset(test, Dataset(np.ones((3, 3)), np.ones((3, 3))))
        assert run_cli("evaluate", path, test, "--out", tmp_path / "x.csv") == cli.EXIT_INPUT
        assert "kernel dimension 2 does not match data dimension 3" in capsys.readouterr().err

    def test_missing_magic(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("something else\n")
        with pytest.raises(ParseError, match="model file"):
            modelio.load_model(path)

    @staticmethod
    def _add_row(path, block, row):
        """Append ``row`` to the end of ``[block]`` in a saved model file."""
        lines = path.read_text().splitlines()
        start = lines.index(f"[{block}]")
        end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("[")),
                   len(lines))
        path.write_text("\n".join(lines[:end] + [row] + lines[end:]) + "\n")

    @pytest.mark.parametrize("kind, block", [
        ("diag", "lengthscales"),
        ("full", "lengthscales"),
        ("diag", "prior_mean"),
        ("diag", "hypervariances"),
        ("ard", "hypervariances"),
    ])
    def test_extra_row_in_vector_block_rejected(self, tmp_path, kind, block):
        model = self._model(kind, np.random.default_rng(5))
        path = tmp_path / "m.model"
        modelio.save_model(path, model)
        self._add_row(path, block, "0.5 0.5")
        with pytest.raises(ParseError, match=re.escape(f"[{block}] must be one row, found 2")):
            modelio.load_model(path)

    def test_ragged_block_rejected(self, tmp_path):
        model = self._model("full", np.random.default_rng(6))
        path = tmp_path / "m.model"
        modelio.save_model(path, model)
        text = path.read_text()
        head, rows = text.split("[train_velocities]\n")
        first, rest = rows.split("\n", 1)
        path.write_text(f"{head}[train_velocities]\n{first} 0.5\n{rest}")
        with pytest.raises(ParseError, match=re.escape("[train_velocities] has rows of unequal")):
            modelio.load_model(path)

    @pytest.mark.parametrize("block, row", [("train_velocities", "0.5 0.5 0.5"),
                                            ("lengthscales", "1 1")])
    def test_malformed_block_evaluate_exit_code(self, tmp_path, block, row, capsys):
        model = self._model("diag", np.random.default_rng(7))
        path = tmp_path / "m.model"
        modelio.save_model(path, model)
        self._add_row(path, block, row)
        test = tmp_path / "test.csv"
        bench.write_dataset(test, Dataset(np.ones((3, 2)), np.ones((3, 2))))
        out = tmp_path / "metrics.csv"
        assert run_cli("evaluate", path, test, "--out", out) == cli.EXIT_INPUT
        assert f"[{block}]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        # inserted as line 4, after the header's first noise_variance line
        ("noise_variance: 3", ":4: noise_variance repeats line 3"),
        # inserted as lines 4-5, before [lengthscales] and the first [prior_mean]
        ("[prior_mean]\n0.5 0.5", ":8: [prior_mean] repeats line 4"),
    ], ids=["header-key", "block"])
    def test_repeated_key_or_block_rejected(self, tmp_path, line, message):
        # a repeat used to replace the first value silently
        model = self._model("diag", np.random.default_rng(4))
        path = tmp_path / "m.model"
        modelio.save_model(path, model)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + [line] + lines[3:]) + "\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}{message}")):
            modelio.load_model(path)

    def test_unknown_kind_rejected_with_the_path(self, tmp_path, capsys):
        # the kind goes through models' one kind rule, as a ParseError
        model = self._model("diag", np.random.default_rng(2))
        path = tmp_path / "m.model"
        modelio.save_model(path, model)
        path.write_text(path.read_text().replace("kind: diag", "kind: bogus"))
        message = (f"{path}: unknown model kind 'bogus', "
                   "expected one of ('ard', 'diag', 'full')")
        with pytest.raises(ParseError, match=re.escape(message)):
            modelio.load_model(path)
        test = tmp_path / "test.csv"
        bench.write_dataset(test, Dataset(np.ones((3, 2)), np.ones((3, 2))))
        assert run_cli("evaluate", path, test, "--out", tmp_path / "x.csv") == cli.EXIT_INPUT
        assert run_cli("--out-dir", tmp_path, "power", path, "--domain=-5:5,-5:5") == cli.EXIT_INPUT
        assert capsys.readouterr().err.count(message) == 2

    @pytest.mark.parametrize("part, value, message", [
        ("kind", "bogus", "unknown model kind 'bogus', expected one of ('ard', 'diag', 'full')"),
        ("noise_variance", "x", "could not convert string to float: 'x'"),
        ("noise_variance", "0", "noise_variance must be finite and > 0, got 0.0"),
        ("noise_variance", "nan", "noise_variance must be finite and > 0, got nan"),
        ("lengthscales", "0", "lengthscales must be finite and > 0, got [0.0, 1.0]"),
        ("prior_mean", "-1", "prior mean coefficients must be finite and >= 0, got [-1.0, "),
        ("hypervariances", "0", "hypervariances must be finite and > 0, got [0.0, "),
        ("train_velocities", "nan", "dataset contains non-finite entries"),
        ("train_torques", "inf", "dataset contains non-finite entries"),
    ])
    def test_bad_value_names_the_file(self, tmp_path, part, value, message, capsys):
        # a bad block value used to reach stderr without the file's path
        path = tmp_path / "m.model"
        modelio.save_model(path, self._model("diag", np.random.default_rng(9)))
        lines = path.read_text().splitlines()
        if f"[{part}]" in lines:  # the block's first value
            i = lines.index(f"[{part}]") + 1
            lines[i] = " ".join([value, *lines[i].split()[1:]])
        else:
            lines = [f"{part}: {value}" if line.startswith(f"{part}:") else line for line in lines]
        path.write_text("\n".join(lines) + "\n")
        test = tmp_path / "test.csv"
        bench.write_dataset(test, Dataset(np.ones((3, 2)), np.ones((3, 2))))
        assert run_cli("evaluate", path, test, "--out", tmp_path / "x.csv") == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("drop, add, message", [
        (None, "no colon here", ":4: expected 'key: value', got 'no colon here'"),
        ("kind:", None, ": missing header key 'kind'"),
        ("noise_variance:", None, ": missing header key 'noise_variance'"),
    ], ids=["no-colon", "no-kind", "no-noise-variance"])
    def test_malformed_header_rejected(self, tmp_path, drop, add, message):
        path = tmp_path / "m.model"
        modelio.save_model(path, self._model("diag", np.random.default_rng(10)))
        lines = [line for line in path.read_text().splitlines()
                 if drop is None or not line.startswith(drop)]
        path.write_text("\n".join(lines[:3] + [add] * (add is not None) + lines[3:]) + "\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}{message}")):
            modelio.load_model(path)

    def test_missing_block(self, tmp_path):
        model = self._model("diag", np.random.default_rng(3))
        path = tmp_path / "m.model"
        modelio.save_model(path, model)
        text = path.read_text()
        path.write_text(text.split("[train_velocities]")[0])
        with pytest.raises(ParseError, match="train_velocities"):
            modelio.load_model(path)


class TestCharts:
    def test_line_chart_names_every_series(self, tmp_path):
        path = tmp_path / "c.svg"
        charts.line_chart(
            path,
            {"alpha": [(1, 1.0), (2, 0.5)], "beta": [(1, 2.0), (2, 0.25)]},
            title="t", xlabel="x", ylabel="y",
        )
        svg = path.read_text()
        ET.fromstring(svg)
        assert "alpha" in svg and "beta" in svg
        assert ">y (log10)</text>" in svg
        assert svg.count("<polyline") == 2

    def test_text_escapes_markup_but_not_quotes(self, tmp_path):
        path = tmp_path / "c.svg"
        charts.histogram(path, [1.0, 2.0], title='a&b <c> "d"', xlabel="x")
        svg = path.read_text()
        ET.fromstring(svg)
        assert '<title>a&amp;b &lt;c&gt; "d"</title>' in svg

    def test_efficiency_charts_show_their_values(self, tmp_path):
        # one series over two sizes is the same polyline whatever its NMSE
        # values; only the tick labels tell two such charts apart
        svgs = []
        for scale in (1.0, 10.0):
            path = tmp_path / f"efficiency{scale}.svg"
            charts.line_chart(path, {"full": [(20.0, 0.0185 * scale), (40.0, 0.0106 * scale)]},
                              title="t", xlabel="training set size", ylabel="median aggregate NMSE")
            svgs.append(path.read_text())
            ET.fromstring(svgs[-1])
        assert svgs[0] != svgs[1]
        polylines = [re.findall(r"<polyline[^>]*>", svg) for svg in svgs]
        assert polylines[0] == polylines[1]
        assert '>10<tspan dy="-5" font-size="9">-1.8</tspan></text>' in svgs[0]
        assert '>10<tspan dy="-5" font-size="9">-0.8</tspan></text>' in svgs[1]
        assert all(f">{size}</text>" in svgs[0] for size in (20, 30, 40))

    def test_histogram_ticks_span_the_data(self, tmp_path):
        path = tmp_path / "h.svg"
        charts.histogram(path, np.linspace(-3.0, 512.0, 100), title="t", xlabel="x")
        labels = re.findall(r'font-size="11">([^<]*)</text>', path.read_text())
        # x: the data's range; y: counts 0..10 (10 bins of 10 values)
        assert labels == ["0", "200", "400", "0", "2", "4", "6", "8", "10"]

    def test_histogram_min_bins(self, tmp_path):
        assert charts.freedman_diaconis_bins(np.array([1.0, 1.0, 1.0])) == 10
        assert charts.freedman_diaconis_bins(np.array([])) == charts.MIN_BINS
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="is not finite"):
                charts.freedman_diaconis_bins(np.array([1.0, bad]))
        vals = np.random.default_rng(4).normal(0, 1, 500)
        assert charts.freedman_diaconis_bins(vals) >= 10
        path = tmp_path / "h.svg"
        charts.histogram(path, vals, title="t", xlabel="x")
        svg = path.read_text()
        ET.fromstring(svg)
        assert svg.count("<rect") - 1 >= 10  # background rect plus >= 10 bars

    @staticmethod
    def _fd_reference(values) -> int:
        # the hand-written Freedman-Diaconis rule numpy's estimator replaced
        v = np.sort(np.asarray(values, dtype=float))
        n = v.size
        if n < 2 or v[0] == v[-1]:
            return charts.MIN_BINS
        iqr = float(np.percentile(v, 75) - np.percentile(v, 25))
        if iqr == 0.0:
            return charts.MIN_BINS
        width = 2.0 * iqr / n ** (1.0 / 3.0)
        return min(charts.MAX_BINS, max(charts.MIN_BINS, math.ceil((v[-1] - v[0]) / width)))

    def test_fd_bins_match_the_hand_written_rule(self):
        rng = np.random.default_rng(21)
        families = [
            lambda n: rng.normal(size=1),  # n = 1
            lambda n: np.full(n, rng.normal()),  # all equal
            # IQR 0 with nonzero spread: a constant bulk and a few outliers
            lambda n: np.concatenate([np.full(n, 3.0), 100.0 * rng.normal(size=n // 4 + 1)]),
            lambda n: rng.normal(size=n),
            lambda n: rng.integers(-3, 4, size=n) * 0.25,  # ties on exact quartiles
            lambda n: rng.integers(0, 4, size=10 * n),  # integers: FD width below 1
            lambda n: rng.standard_t(2, size=n),  # heavy tails
            lambda n: rng.lognormal(0.0, 2.0, size=n),
        ]
        seen = set()
        for i in range(2_100):
            values = families[i % len(families)](int(rng.integers(2, 200)))
            bins = charts.freedman_diaconis_bins(values)
            assert bins == self._fd_reference(values), (i, values)
            seen.add(bins == charts.MIN_BINS)
        assert seen == {True, False}

    def test_fd_bins_capped_at_the_frame_width(self, tmp_path):
        # uncapped, the Student-t (df 1) draw asks for 353,827 bins and the
        # outlier far past 200 values in [0, 1] for about 5.8e7
        heavy_tail = np.random.default_rng(5).standard_t(1, size=200)
        outlier = np.append(np.linspace(0.0, 1.0, 200), 1e7)
        assert charts.MAX_BINS == charts.X1 - charts.X0 == 480
        for values in (heavy_tail, outlier):
            assert charts.freedman_diaconis_bins(values) == 480
            path = tmp_path / "h.svg"
            charts.histogram(path, values, title="t", xlabel="x")
            bars = path.read_text().count("<rect") - 1  # less the background
            assert bars <= 480

    def test_titles_are_escaped(self, tmp_path):
        path = tmp_path / "e.svg"
        charts.histogram(path, np.array([0.0, 1.0]), title="a < b & c", xlabel="x")
        ET.fromstring(path.read_text())
