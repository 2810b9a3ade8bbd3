import json
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dampgp import bench, charts, cli, modelio, models
from dampgp.errors import ParseError
from dampgp.kernels import DiagTorqueKernel
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

    def test_free_hypervariances_saves_untied_search(self, tmp_path):
        out = tmp_path / "data"
        cfg = tmp_path / "full3.cfg"
        cfg.write_text("system = full3\ntrain_sizes = 12\nval_size = 8\n"
                       "test_size = 4\nseeds = 0\n")
        run_cli("--config", cfg, "--out-dir", out, "generate")
        train, val = out / "seed0_train.csv", out / "seed0_val.csv"
        model_path = tmp_path / "free.model"
        code = run_cli(
            "fit", train, "--kind", "full", "--val", val, "--lengthscales", "12,12,12",
            "--free-hypervariances", "--budget", "12", "--out", model_path,
        )
        assert code == 0
        expected = models.optimize_hypervariances(
            "full", bench.read_dataset(train), bench.read_dataset(val),
            [12.0, 12.0, 12.0], 100.0, budget=12, tie_full=False,
        ).kernel.hypervariances
        saved = modelio.load_model(model_path)[0].kernel.hypervariances
        assert np.array_equal(saved, expected)
        # the untied search moves single elements, which the tied grid cannot
        assert not np.allclose(saved * saved.T, np.outer(np.diag(saved), np.diag(saved)))

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
        # both commands reach the count check inside the hypervariance search
        cfg = tmp_path / "full3.cfg"
        cfg.write_text("system = full3\ntrain_sizes = 12\nval_size = 8\ntest_size = 4\n"
                       "seeds = 0\nkinds = diag\nlengthscales = 1,2\nbudget = 3\n")
        if command == "fit":
            out = tmp_path / "data"
            assert run_cli("--config", cfg, "--out-dir", out, "generate") == 0
            argv = ["fit", out / "seed0_train.csv", "--kind", "diag",
                    "--val", out / "seed0_val.csv", "--lengthscales", "1,2",
                    "--budget", "3", "--out", tmp_path / "m.model"]
        else:
            argv = ["--config", cfg, "--out-dir", tmp_path / "eff", "efficiency", "--sizes", "10"]
        capsys.readouterr()
        assert run_cli(*argv) == cli.EXIT_INPUT
        assert "got 2 lengthscales for 3-dimensional data" in capsys.readouterr().err

    def test_missing_train_file(self, tmp_path):
        code = run_cli(
            "fit", tmp_path / "absent.csv", "--kind", "diag",
            "--val", tmp_path / "absent.csv", "--lengthscales", "12",
            "--out", tmp_path / "m.model",
        )
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("kind", ["diag", "full"])
    @pytest.mark.parametrize("value", ["-100", "nan"])
    def test_bad_noise_variance_constrained_exit_code(
        self, tmp_path, cfg_path, kind, value, capsys
    ):
        # such a noise variance gives a negative or NaN bound factor c, for
        # which the projection's ulp step-down never ended
        train, val, _ = self._generated(tmp_path, cfg_path)
        code = run_cli(
            "fit", train, "--kind", kind, "--val", val, "--lengthscales", "12",
            f"--noise-variance={value}", "--constrained", "--budget", "3",
            "--out", tmp_path / "m.model",
        )
        assert code == cli.EXIT_INPUT
        assert "noise_variance must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_zero_noise_variance_constrained_exit_code(self, tmp_path, cfg_path, kind, capsys):
        # c = 0 admits no positive grid whatever the prior mean
        train, val, _ = self._generated(tmp_path, cfg_path)
        code = run_cli(
            "fit", train, "--kind", kind, "--val", val, "--lengthscales", "12",
            "--noise-variance=0", "--constrained", "--budget", "3",
            "--out", tmp_path / "m.model",
        )
        assert code == cli.EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "the bound factor c is 0 because the noise variance is 0" in err
        assert "prior mean too small" not in err

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

    def test_dimension_mismatch(self, tmp_path, cfg_path):
        model_path, _ = self._fitted(tmp_path, cfg_path)
        other = tmp_path / "other.csv"
        bench.write_dataset(other, Dataset(np.ones((2, 2)), np.ones((2, 2))))
        assert run_cli("evaluate", model_path, other,
                       "--out", tmp_path / "x.csv") == cli.EXIT_INPUT

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
        assert "takes (M, 1) velocities" in capsys.readouterr().err

    @pytest.mark.parametrize("pattern, value", [
        (r"n_dim: (\S+)", "three"),
        (r"\[hypervariances\]\n(\S+)", "inf"),
    ], ids=["n_dim", "hypervariance"])
    def test_malformed_model_values_exit_code(self, tmp_path, cfg_path, pattern, value,
                                              capsys):
        model_path, test_path = self._fitted(tmp_path, cfg_path)
        text = model_path.read_text()
        span = re.search(pattern, text).span(1)
        model_path.write_text(text[:span[0]] + value + text[span[1]:])
        assert run_cli("evaluate", model_path, test_path,
                       "--out", tmp_path / "x.csv") == cli.EXIT_INPUT
        assert "error:" in capsys.readouterr().err

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

    @pytest.mark.parametrize("sizes", ["10,x", ",", "0,10"])
    def test_malformed_sizes_exit_code(self, tmp_path, cfg_path, sizes, capsys):
        code = run_cli("--config", cfg_path, "--out-dir", tmp_path,
                       "efficiency", "--sizes", sizes)
        assert code == cli.EXIT_INPUT
        assert "error:" in capsys.readouterr().err

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

    def test_run_efficiency_deterministic(self):
        cfg = bench.ExperimentConfig(
            system="linear1", val_size=10, test_size=10, seeds=(0,),
            kinds=("diag",), lengthscales=(12.0,), noise_variance=1.0, budget=3,
        )
        r1 = cli.run_efficiency(cfg, [10])
        r2 = cli.run_efficiency(cfg, [10])
        assert r1 == r2


class TestPower:
    def _model(self, tmp_path):
        rng = np.random.default_rng(0)
        q = rng.uniform(-5, 5, (15, 1))
        data = Dataset(q, 2.0 * q + rng.normal(0, 0.2, (15, 1)))
        prior = fit_prior_mean(data)
        model = fit("diag", DiagTorqueKernel(np.array([12.0]), np.array([1e-4])),
                    prior, data, 1.0)
        path = tmp_path / "m.model"
        modelio.save_model(path, model, constrained=True)
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

    @pytest.mark.parametrize("kind", ["ard", "diag", "full"])
    def test_round_trip_predictions_identical(self, tmp_path, kind):
        rng = np.random.default_rng(1)
        model = self._model(kind, rng)
        path = tmp_path / "m.model"
        modelio.save_model(path, model, constrained=False)
        back, constrained = modelio.load_model(path)
        assert constrained is False
        qs = rng.uniform(-2, 2, (5, 2))
        assert np.array_equal(
            models.predict_torque_batch(model, qs),
            models.predict_torque_batch(back, qs),
        )

    def test_constrained_flag_round_trip(self, tmp_path):
        model = self._model("diag", np.random.default_rng(2))
        path = tmp_path / "m.model"
        modelio.save_model(path, model, constrained=True)
        assert modelio.load_model(path)[1] is True

    @pytest.mark.parametrize("value", ["yes", "True", "1", ""])
    def test_constrained_flag_other_than_true_or_false_rejected(self, tmp_path, value):
        model = self._model("full", np.random.default_rng(4))
        path = tmp_path / "m.model"
        modelio.save_model(path, model, constrained=True)
        path.write_text(path.read_text().replace("constrained: true", f"constrained: {value}"))
        with pytest.raises(ParseError, match="constrained must be 'true' or 'false'"):
            modelio.load_model(path)
        assert run_cli("--out-dir", tmp_path / "pow", "power", path,
                       "--domain=-2:2,-2:2", "--samples", "10") == cli.EXIT_INPUT
        assert not (tmp_path / "pow" / "power.svg").exists()

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

    def test_histogram_min_bins(self, tmp_path):
        assert charts.freedman_diaconis_bins(np.array([1.0, 1.0, 1.0])) == 10
        vals = np.random.default_rng(4).normal(0, 1, 500)
        assert charts.freedman_diaconis_bins(vals) >= 10
        path = tmp_path / "h.svg"
        charts.histogram(path, vals, title="t", xlabel="x")
        svg = path.read_text()
        ET.fromstring(svg)
        assert svg.count("<rect") - 1 >= 10  # background rect plus >= 10 bars

    def test_titles_are_escaped(self, tmp_path):
        path = tmp_path / "e.svg"
        charts.histogram(path, np.array([0.0, 1.0]), title="a < b & c", xlabel="x")
        ET.fromstring(path.read_text())
