import dataclasses
import math
import re
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from dampgp import bench, models, passivity
from dampgp.errors import InputError, ParseError
from dampgp.models import Dataset

SYSTEM_IDS = ("diag3", "full3", "linear1")


class TestBuiltinSystems:
    def test_ids(self):
        for system_id in SYSTEM_IDS:
            assert bench.get_system(system_id).name == system_id

    def test_unknown_id_lists_available(self):
        with pytest.raises(InputError, match=re.escape(f"available: {sorted(SYSTEM_IDS)}")):
            bench.get_system("nope")

    def test_linear1_torque(self):
        system = bench.get_system("linear1")
        assert system.torque_batch(np.array([[3.0]]))[0, 0] == pytest.approx(6.0, rel=1e-15)

    def test_damping_psd_on_random_sweep(self):
        rng = np.random.default_rng(0)
        for system in map(bench.get_system, SYSTEM_IDS):
            lo, hi = system.domain[:, 0], system.domain[:, 1]
            for d in system.damping_batch(rng.uniform(lo, hi, size=(200, system.n_dim))):
                assert np.linalg.eigvalsh(0.5 * (d + d.T))[0] >= -1e-10 * np.trace(d)

    def test_ground_truth_power_nonnegative(self):
        rng = np.random.default_rng(1)
        for system in map(bench.get_system, SYSTEM_IDS):
            lo, hi = system.domain[:, 0], system.domain[:, 1]
            Q = rng.uniform(lo, hi, size=(10_000, system.n_dim))
            powers = np.sum(Q * system.torque_batch(Q), axis=1)
            assert np.min(powers) >= 0.0

    def test_diag3_hand_value(self):
        system = bench.get_system("diag3")
        d = system.damping_batch(np.array([[10.0, -4.0, 2.0]]))[0]
        assert d[0, 0] == pytest.approx(1.0 + 0.004 * 100.0, rel=1e-15)
        assert d[1, 1] == pytest.approx(1.5 + 0.05 * 4.0, rel=1e-15)
        assert d[2, 2] == pytest.approx(2.0 + 0.5 * math.tanh(2.0) ** 2, rel=1e-14)

    def test_psd_sweep_rejects_bad_system(self):
        with pytest.raises(InputError, match="not PSD"):
            bench.make_system("bad", lambda Q: np.full((len(Q), 1, 1), -1.0), [[-1.0, 1.0]], [1.0])

    def test_psd_sweep_names_the_first_failing_point(self):
        # reference: the sweep's points in order, checked one at a time
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(bench.PSD_SWEEP_POINTS, 1))
        first_bad = next(q for q in pts if q[0] < 0)
        with pytest.raises(InputError, match=re.escape(f"not PSD at {first_bad}")):
            bench.make_system("half", lambda Q: Q[:, :, None], [[-1.0, 1.0]], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_psd_sweep_rejects_a_non_finite_damping_matrix(self, bad):
        # a NaN eigenvalue fails no comparison, and a batched Cholesky
        # returns NaN factors without raising
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(bench.PSD_SWEEP_POINTS, 1))
        point = pts[1234]

        def field(Q):
            d = np.ones((len(Q), 1, 1))
            d[Q[:, 0] == point[0]] = bad
            return d

        with pytest.raises(InputError, match=re.escape(f"not finite at {point}")):
            bench.make_system("nan", field, [[-1.0, 1.0]], [1.0])

    @pytest.mark.parametrize("field", [
        lambda Q: np.array([[2.0]]),  # one matrix, not one per row
        lambda Q: np.ones((len(Q), 2, 2)),
        lambda Q: np.ones((len(Q), 1)),
    ], ids=["per-point", "wrong-dim", "no-matrix-axes"])
    def test_make_system_names_wrong_field_shape(self, field):
        with pytest.raises(InputError, match=re.escape(
                f"for velocities of shape ({bench.PSD_SWEEP_BLOCK}, 1); "
                f"expected ({bench.PSD_SWEEP_BLOCK}, 1, 1)")):
            bench.make_system("odd", field, [[-1.0, 1.0]], [1.0])

    @pytest.mark.parametrize("shape", [(4, 3), (3,), (2, 1, 1)])
    def test_wrong_velocity_width_rejected(self, shape):
        system = bench.get_system("linear1")
        with pytest.raises(InputError, match=re.escape("takes (M, 1) velocities")):
            system.torque_batch(np.ones(shape))

    def test_diag3_squares_as_python_floats(self, monkeypatch):
        # float ** 2 and numpy's x * x round some inputs differently; the
        # field keeps the bits of ** 2 on the sweep's points
        system = bench.get_system("diag3")
        lo, hi = system.domain[:, 0], system.domain[:, 1]
        pts = np.random.default_rng(0).uniform(lo, hi, size=(bench.PSD_SWEEP_POINTS, 3))
        d = bench._diag3_damping(pts)
        monkeypatch.setattr(bench, "_square", lambda v: v ** 2)
        assert np.array_equal(d, bench._diag3_damping(pts))

    def test_diag3_overflowing_square_is_inf(self):
        Q = np.array([[0.0, 0.0, 50.0], [1e200, 0.0, 50.0], [-1e200, 0.0, 50.0]])
        d = bench._diag3_damping(Q)
        assert np.array_equal(d[:, 0, 0], [1.0, np.inf, np.inf])
        # damping_batch names the first velocity whose matrix is not finite
        with pytest.raises(InputError, match=re.escape(f"not finite at {Q[1]}")):
            bench.get_system("diag3").torque_batch(Q)

    def test_get_system_builds_only_the_requested_system(self, monkeypatch):
        built = []
        build = bench._system
        monkeypatch.setattr(bench, "_system", lambda *args: built.append(args[0]) or build(*args))
        assert bench.get_system("full3").name == "full3"
        assert built == ["full3"]

    @pytest.mark.parametrize("system_id", SYSTEM_IDS)
    def test_builtin_passes_the_psd_sweep(self, system_id):
        # the guarantee get_system relies on: the sweep make_system runs on
        # a user field, over the same 10,000 seeded points
        bench._psd_construction_sweep(bench.get_system(system_id))

    def test_make_system_returns_a_usable_system(self):
        # a constant PSD field passes the sweep and carries a whole
        # constrained identification
        field = np.array([[2.0, 0.5], [0.5, 1.0]])
        system = bench.make_system("const2", lambda Q: np.broadcast_to(field, (len(Q), 2, 2)),
                                   [[-5.0, 5.0], [-5.0, 5.0]], [3.0, 3.0])
        assert system.name == "const2" and system.n_dim == 2
        train, val = (
            bench.generate_dataset(
                system, bench.sample_trajectory(system, size, seed=seed, waveform="uniform"),
                0.1, seed=seed + 1)
            for size, seed in ((30, 1), (20, 3))
        )
        opt = models.optimize_hypervariances("full", train, val, system.default_lengthscales,
                                             1.0, constrained=True, budget=10)
        assert passivity.passivity_sweep(opt.model, system.domain, 500).violation_count == 0

    def test_get_system_runs_no_sweep(self, monkeypatch):
        def sweep(system):
            raise AssertionError(f"swept {system.name}")

        monkeypatch.setattr(bench, "_psd_construction_sweep", sweep)
        for system_id in SYSTEM_IDS:
            assert bench.get_system(system_id).name == system_id
        with pytest.raises(AssertionError, match="swept user"):
            bench.make_system("user", lambda Q: np.ones((len(Q), 1, 1)), [[-1.0, 1.0]], [1.0])


# The per-point fields as they were before the damping functions took a
# block of velocities: the batched fields must reproduce them bit for bit.
def _oracle_diag3(qd):
    a, b = [1.0, 1.5, 2.0], [0.004, 0.05, 0.5]
    return np.diag([
        np.float64(a[0]) + np.float64(b[0]) * qd[0] ** 2,
        np.float64(a[1]) + np.float64(b[1]) * abs(qd[1]),
        np.float64(a[2]) + np.float64(b[2]) * math.tanh(qd[2]) ** 2,
    ])


def _oracle_full3(qd):
    L = np.array([
        [1.2, 0.0, 0.0],
        [0.3 + 0.1 * math.tanh(qd[0] / 10.0), 1.0, 0.0],
        [0.2, 0.15 + 0.1 * math.tanh(qd[1] / 10.0),
         1.5 + 0.2 * math.tanh((qd[2] - 65.0) / 20.0)],
    ])
    return L @ L.T + 0.1 * np.eye(3)


ORACLE_FIELDS = {
    "linear1": lambda qd: np.array([[2.0]]),
    "diag3": _oracle_diag3,
    "full3": _oracle_full3,
}


def _oracle_points(system, count=20_000, seed=7):
    """Seeded uniform points plus every corner of the box."""
    lo, hi = system.domain[:, 0], system.domain[:, 1]
    corners = np.array(np.meshgrid(*system.domain, indexing="ij")).reshape(system.n_dim, -1).T
    inner = np.random.default_rng(seed).uniform(lo, hi, size=(count - len(corners), system.n_dim))
    return np.vstack([corners, inner])


@pytest.mark.parametrize("system_id", sorted(ORACLE_FIELDS))
class TestBatchedFields:
    def test_damping_batch_matches_per_point_oracle(self, system_id):
        system = bench.get_system(system_id)
        Q = _oracle_points(system)
        expected = np.stack([ORACLE_FIELDS[system_id](q) for q in Q])
        assert np.array_equal(system.damping_batch(Q), expected)

    def test_torque_batch_matches_row_wise_torque(self, system_id):
        system = bench.get_system(system_id)
        Q = _oracle_points(system)
        rows = np.stack([system.damping_batch(q[None, :])[0] @ q for q in Q])
        assert np.array_equal(system.torque_batch(Q), rows)
        assert np.array_equal(system.torque_batch(Q[-1:])[0], rows[-1])


class TestSampleTrajectory:
    def test_periodic_t0_value(self):
        system = bench.get_system("diag3")
        lo, hi = system.domain[:, 0], system.domain[:, 1]
        center, amp = 0.5 * (lo + hi), 0.5 * (hi - lo)
        first = bench.sample_trajectory(system, 10)[0]
        expected = center + amp * np.sin(np.array([0.0, 2.0, 3.0]))
        assert np.allclose(first, expected, rtol=1e-14)

    @pytest.mark.parametrize("waveform", ["periodic", "uniform"])
    def test_stays_in_box(self, waveform):
        system = bench.get_system("full3")
        Q = bench.sample_trajectory(system, 500, seed=2, waveform=waveform)
        assert Q.shape == (500, 3)
        assert np.all(Q >= system.domain[:, 0] - 1e-12)
        assert np.all(Q <= system.domain[:, 1] + 1e-12)

    def test_uniform_deterministic(self):
        system = bench.get_system("diag3")
        a = bench.sample_trajectory(system, 50, seed=9, waveform="uniform")
        b = bench.sample_trajectory(system, 50, seed=9, waveform="uniform")
        assert np.array_equal(a, b)

    def test_bad_arguments(self):
        system = bench.get_system("linear1")
        with pytest.raises(InputError):
            bench.sample_trajectory(system, 0)
        with pytest.raises(InputError):
            bench.sample_trajectory(system, 5, waveform="chirp")


class TestGenerateDataset:
    def test_noise_free_matches_truth(self):
        system = bench.get_system("diag3")
        Q = bench.sample_trajectory(system, 20, seed=0, waveform="uniform")
        data = bench.generate_dataset(system, Q, 0.0)
        assert np.array_equal(data.torques, system.torque_batch(Q))

    def test_noise_statistics(self):
        # CLT check: the empirical noise mean over 1e5 draws stays within
        # 4 standard errors of zero and the std within 2% of nominal
        system = bench.get_system("linear1")
        Q = bench.sample_trajectory(system, 100_000, seed=3, waveform="uniform")
        data = bench.generate_dataset(system, Q, 2.0, seed=4)
        noise = (data.torques - system.torque_batch(Q)).ravel()
        assert abs(noise.mean()) <= 4.0 * 2.0 / math.sqrt(noise.size)
        assert noise.std() == pytest.approx(2.0, rel=0.02)

    def test_seeded_determinism(self):
        system = bench.get_system("diag3")
        Q = bench.sample_trajectory(system, 15, seed=0, waveform="uniform")
        a = bench.generate_dataset(system, Q, 1.0, seed=5)
        b = bench.generate_dataset(system, Q, 1.0, seed=5)
        assert np.array_equal(a.torques, b.torques)

    def test_negative_noise_rejected(self):
        system = bench.get_system("linear1")
        with pytest.raises(InputError):
            bench.generate_dataset(system, np.array([[1.0]]), -0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_noise_rejected(self, bad):
        # nan compares false both ways, so it must not pass as noise-free
        system = bench.get_system("linear1")
        with pytest.raises(InputError, match="noise_std must be finite"):
            bench.generate_dataset(system, np.array([[1.0]]), bad)


class TestAdversarialDataset:
    def test_shape_and_determinism(self):
        a = bench.adversarial_dataset(size=40, seed=1)
        b = bench.adversarial_dataset(size=40, seed=1)
        assert a.velocities.shape == (40, 3)
        assert np.array_equal(a.torques, b.torques)

    def test_boundary_cluster_has_negative_power(self):
        data = bench.adversarial_dataset(size=60, seed=0, noise_std=0.0)
        powers = np.sum(data.velocities * data.torques, axis=1)
        n_bad = max(1, round(60 * 0.15))
        assert np.all(powers[-n_bad:] < 0)
        assert np.all(powers[:-n_bad] >= 0)


class TestNmse:
    def test_hand_example(self):
        # truth (0, 2), prediction (1, 1): num = 2, den = 2 -> 1
        res = bench.nmse(np.array([[1.0], [1.0]]), np.array([[0.0], [2.0]]))
        assert res.per_output[0] == pytest.approx(1.0, rel=1e-15)
        assert res.aggregate == pytest.approx(1.0, rel=1e-15)

    def test_mean_predictor_scores_one(self):
        rng = np.random.default_rng(6)
        y = rng.normal(0, 3, (50, 2))
        pred = np.tile(y.mean(axis=0), (50, 1))
        res = bench.nmse(pred, y)
        assert np.allclose(res.per_output, 1.0, rtol=1e-12)

    def test_perfect_prediction(self):
        y = np.random.default_rng(7).normal(0, 1, (10, 3))
        assert bench.nmse(y, y).aggregate == 0.0

    def test_constant_truth_sentinels(self):
        y = np.full((4, 1), 2.0)
        assert bench.nmse(y, y).per_output[0] == 0.0
        assert math.isinf(bench.nmse(y + 1.0, y).per_output[0])

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            bench.nmse(np.ones((2, 2)), np.ones((3, 2)))


class TestRelativeError:
    def test_hand_example(self):
        # errors (pred - truth) / 2 = [[0.5, 1.0], [1.5, 1.0]]
        res = bench.relative_error(
            np.array([[1.0, 3.0], [3.0, 3.0]]), np.array([[0.0, 1.0], [0.0, 1.0]]), 2.0
        )
        assert np.allclose(res.mean, [1.0, 1.0])
        assert np.allclose(res.variance, [0.25, 0.0])

    def test_bad_normalizer(self):
        with pytest.raises(InputError):
            bench.relative_error(np.ones((1, 1)), np.ones((1, 1)), 0.0)

    @pytest.mark.parametrize("normalizer", [math.inf, -math.inf, math.nan, -1.0])
    def test_normalizer_must_be_finite_and_positive(self, normalizer):
        # an infinite normalizer made every relative error 0
        with pytest.raises(InputError, match="finite and > 0"):
            bench.relative_error(np.ones((1, 1)), np.zeros((1, 1)), normalizer)


class TestDatasetIo:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(8)
        data = Dataset(rng.uniform(-25, 25, (30, 3)), rng.normal(0, 10, (30, 3)))
        path = tmp_path / "d.csv"
        bench.write_dataset(path, data)
        back = bench.read_dataset(path)
        assert np.array_equal(back.velocities, data.velocities)
        assert np.array_equal(back.torques, data.torques)

    @pytest.mark.parametrize("sep", [",", " "])
    def test_fmt_rows_matches_per_value_format(self, sep):
        edge = [-0.0, 0.0, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
                1e16, 1e-5, 0.1, 1.0, -3.0, 12345678.0, 2.0**53, 1.0 / 3.0]
        rng = np.random.default_rng(12)
        for rows in (
            np.array(edge).reshape(7, 2),
            np.array(edge).reshape(1, 14),
            np.array(edge).reshape(14, 1),
            rng.normal(0, 1e3, (9, 4)),
        ):
            expected = "".join(sep.join(bench._fmt(v) for v in row) + "\n" for row in rows)
            assert "".join(bench._fmt_chunks([rows], sep)) == expected

    def test_fmt_rows_keeps_a_percent_separator(self):
        # the values off the fast path are formatted by one "%" call over
        # the chunk's text, so the text's own "%" must pass through it
        rows = np.array([[1.5, 5e-324, np.nan], [-1e300, 0.25, -np.inf], [1e-7, 2.0, 3.0]])
        assert "".join(bench._fmt_chunks([rows], "%")) == _per_value(rows, "%")
        assert "".join(bench._fmt_chunks([rows[2:, 1:]], "%")) == "2%3\n"  # the fast path alone

    def test_header(self, tmp_path):
        path = tmp_path / "d.csv"
        bench.write_dataset(path, Dataset(np.ones((1, 2)), np.ones((1, 2))))
        assert path.read_text().splitlines()[0] == "qd_1,qd_2,tau_1,tau_2"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            bench.read_dataset(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("qd_1,tau_1\n")
        with pytest.raises(ParseError, match="no data rows"):
            bench.read_dataset(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "b.csv"
        # one-column, odd-length and empty headers fail the same column check
        for header in ("a,b", "qd_1", "qd_1,qd_2,tau_1", ""):
            path.write_text(f"{header}\n1,2\n")
            with pytest.raises(ParseError, match=re.escape(f"{path}:1: header columns")):
                bench.read_dataset(path)

    def test_column_count_error_names_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("qd_1,tau_1\n1,2\n3\n")
        with pytest.raises(ParseError, match=":3:"):
            bench.read_dataset(path)

    def test_non_numeric_error_names_line(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("qd_1,tau_1\n1,x\n")
        with pytest.raises(ParseError, match=":2:"):
            bench.read_dataset(path)


def _per_value(rows, sep):
    """``_fmt_chunks``'s reference: ``"%.17g" %`` on every value on its own."""
    return "".join(sep.join("%.17g" % v for v in row) + "\n" for row in np.asarray(rows).tolist())


def _around_powers_of_ten(ulps):
    """Every double within ``ulps`` steps of 1e-8, 1e-7, ..., 1e18, both signs."""
    values = []
    for e in range(-8, 19):
        below = above = float(f"1e{e}")
        values.append(below)
        for _ in range(ulps):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            values += [below, above]
    return np.array(values + [-v for v in values])


def _ties(rng, per_decade):
    """Doubles n / 2**(17 - j) in [10**j, 10**(j + 1)) with n odd: their
    decimal expansions have 18 significant digits, the last a 5, so the
    17-digit text is a round-half-even tie."""
    values = []
    for j in range(-6, 15):
        scale = 2.0 ** (17 - j)
        lo, hi = math.ceil(10.0**j * scale), math.floor(10.0 ** (j + 1) * scale)
        n = rng.integers(lo // 2, hi // 2, size=per_decade) * 2 + 1
        values.append(n / scale)
    ties = np.concatenate(values)
    return np.concatenate([ties, -ties])


class TestFmtRowsExact:
    """``_fmt_chunks`` formats whole arrays in numpy; its text must equal
    ``"%.17g" %`` on every value, byte for byte."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(16)
        bits = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values[:6] = [np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072009e-308]
        assert np.isnan(values).sum() > 6 and (np.abs(values) < 2.2250738585072014e-308).sum() > 2
        rows = values.reshape(-1, 4)
        assert "".join(bench._fmt_chunks([rows], " ")) == _per_value(rows, " ")

    def test_log_uniform_values(self):
        # random bit patterns rarely land in the fast path's 23 decades
        rng = np.random.default_rng(17)
        values = np.exp(rng.uniform(math.log(1e-7), math.log(1e18), 300_000))
        rows = (values * rng.choice([-1.0, 1.0], values.size)).reshape(-1, 5)
        assert "".join(bench._fmt_chunks([rows], ",")) == _per_value(rows, ",")

    def test_powers_of_ten_and_neighbours(self):
        rows = _around_powers_of_ten(30)[:, None]
        assert "".join(bench._fmt_chunks([rows], ",")) == _per_value(rows, ",")

    def test_exact_ties_round_half_even(self):
        ties = _ties(np.random.default_rng(18), per_decade=100)
        assert format(1 + 2.0**-17, ".17g") == "1.0000076293945312"  # the even neighbour
        for tie in ties.tolist():
            digits = Decimal(tie).as_tuple().digits  # the exact expansion
            assert len(digits) == 18 and digits[-1] == 5
        rows = ties.reshape(-1, 3)
        assert "".join(bench._fmt_chunks([rows], " ")) == _per_value(rows, " ")

    def test_signed_zeros(self):
        zeros = np.array([[0.0, -0.0], [-0.0, 1.0]])
        assert "".join(bench._fmt_chunks([zeros], ",")) == "0,-0\n-0,1\n"
        rows = np.random.default_rng(21).normal(0, 1, (300, 4))
        rows[np.abs(rows) < 0.8] *= 0.0  # +0 and -0 among other values
        assert "".join(bench._fmt_chunks([rows], " ")) == _per_value(rows, " ")

    @pytest.mark.parametrize("sep", [",", " "])
    @pytest.mark.parametrize("n_cols", [1, 3])
    def test_row_counts_around_the_chunk(self, sep, n_cols):
        rng = np.random.default_rng(19)
        per_chunk = bench._FMT_CHUNK // n_cols
        for n_rows in (0, 1, per_chunk - 1, per_chunk, per_chunk + 1, 2 * per_chunk + 1):
            rows = rng.normal(0, 30, (n_rows, n_cols))
            assert "".join(bench._fmt_chunks([rows], sep)) == _per_value(rows, sep)

    def test_no_columns(self):
        assert "".join(bench._fmt_chunks([np.empty((3, 0))], ",")) == "\n\n\n"

    def test_peak_memory_is_a_few_times_the_text(self):
        # the size of a cli-pipeline power.csv; chunking keeps the temporaries
        # O(chunk), so the peak is the chunks' texts plus their join
        rng = np.random.default_rng(20)
        rows = np.column_stack([rng.uniform(-25, 25, (20_008, 3)), rng.normal(0, 500, 20_008)])
        "".join(bench._fmt_chunks([rows[:1]], ","))  # the tables are built on first use
        tracemalloc.start()
        try:
            text = "".join(bench._fmt_chunks([rows], ","))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text)


class TestConfig:
    def test_defaults(self):
        cfg = bench.ExperimentConfig()
        assert cfg.system == "full3"
        assert cfg.kinds == ("ard", "diag", "full")
        assert np.array_equal(cfg.resolved_lengthscales(), [12.0, 12.0, 12.0])

    def test_parse_full_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "system = diag3\n"
            "train_sizes = 25, 50\n"
            "seeds = 0,1\n"
            "kinds = diag, full\n"
            "lengthscales = 10, 10, 10\n"
            "noise_std = 0.5\n"
            "noise_variance = 2.5  # trailing comment\n"
            "constrained = true\n"
            "budget = 7\n"
        )
        cfg = bench.read_config(path)
        assert cfg.system == "diag3"
        assert cfg.train_sizes == (25, 50)
        assert cfg.seeds == (0, 1)
        assert cfg.kinds == ("diag", "full")
        assert cfg.lengthscales == (10.0, 10.0, 10.0)
        assert cfg.constrained is True
        assert cfg.budget == 7
        assert cfg.noise_variance == 2.5

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("warp_speed = 9\n")
        with pytest.raises(InputError, match="warp_speed"):
            bench.read_config(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("system = diag3\nbudget = many\n")
        with pytest.raises(ParseError, match=":2:"):
            bench.read_config(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ParseError):
            bench.read_config(path)

    def test_parsers_cover_the_config_fields(self):
        fields = {f.name for f in dataclasses.fields(bench.ExperimentConfig)}
        assert set(bench._CONFIG_PARSERS) == fields

    def test_every_key_parses(self, tmp_path):
        samples = {
            "system": ("linear1", "linear1"),
            "train_sizes": ("3, 4", (3, 4)),
            "val_size": ("11", 11),
            "test_size": ("12", 12),
            "noise_std": ("0.25", 0.25),
            "seeds": ("5", (5,)),
            "kinds": ("ard,full", ("ard", "full")),
            "lengthscales": ("2.5", (2.5,)),
            "noise_variance": ("3", 3.0),
            "constrained": ("false", False),
            "budget": ("9", 9),
        }
        assert set(samples) == set(bench._CONFIG_PARSERS)
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{key} = {text}\n" for key, (text, _) in samples.items()))
        cfg = bench.read_config(path)
        for key, (_, value) in samples.items():
            assert getattr(cfg, key) == value, key
            assert type(getattr(cfg, key)) is type(value), key

    @pytest.mark.parametrize("key,text", [("val_size", "1.5"), ("test_size", "x"),
                                          ("constrained", "yes")])
    def test_bad_value_rejected(self, tmp_path, key, text):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {text}\n")
        with pytest.raises(ParseError, match=re.escape(f"bad value for {key!r}")):
            bench.read_config(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_noise_std_rejected(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(f"noise_std = {text}\n")
        with pytest.raises(InputError, match="noise_std must be finite"):
            bench.read_config(path)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(InputError):
            bench.ExperimentConfig(val_size=0)
        with pytest.raises(InputError):
            bench.ExperimentConfig(train_sizes=(0,))

    @pytest.mark.parametrize("sizes", [(20, 20), (40, 20), (10, 20, 20)])
    def test_train_sizes_strictly_ascending(self, sizes):
        with pytest.raises(InputError, match="strictly ascending"):
            bench.ExperimentConfig(train_sizes=sizes)
        with pytest.raises(InputError, match="strictly ascending"):
            bench.check_train_sizes(sizes)
        bench.check_train_sizes(sorted(set(sizes)))

    @pytest.mark.parametrize("text, message", [
        ("kinds = bogus", "unknown model kind 'bogus'"),
        ("kinds = diag, diag", "kinds repeats a value: diag,diag"),
        ("seeds = 0,0", "seeds repeats a value: 0,0"),
        ("budget = 0", "budget must be >= 1, got 0"),
        ("budget = -3", "budget must be >= 1, got -3"),
    ])
    def test_bad_config_value_rejected_on_read(self, tmp_path, text, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"system = linear1\n{text}\n")
        with pytest.raises(InputError, match=re.escape(message)):
            bench.read_config(path)
