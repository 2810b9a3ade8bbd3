import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dampgp
from dampgp import bench, errors, gp_core, models, passivity
from dampgp.errors import InputError, NumericalError, UnsupportedModelError
from dampgp.kernels import (
    DiagTorqueKernel,
    FullTorqueKernel,
    SeArdKernel,
    SeArdKernelBank,
    se_correlation,
)
from dampgp.models import Dataset, PriorMean, fit, fit_prior_mean, predict_damping, predict_torque
from test_kernels import reference_correlation


def random_instance(rng, kind, n=None, d=None):
    n = n or int(rng.integers(1, 4))
    d = d or int(rng.integers(3, 13))
    ell = rng.uniform(0.5, 3.0, n)
    if kind == "diag":
        kernel = DiagTorqueKernel(ell, rng.uniform(0.2, 2.0, n))
    elif kind == "full":
        kernel = FullTorqueKernel(ell, rng.uniform(0.2, 2.0, (n, n)))
    else:
        kernel = SeArdKernelBank(ell, rng.uniform(0.2, 2.0, n))
    data = Dataset(rng.uniform(-2, 2, (d, n)), rng.normal(0, 1, (d, n)))
    prior = PriorMean(rng.uniform(0, 1, n)) if kind != "ard" else PriorMean.zero(n)
    return kernel, data, prior


class TestDataset:
    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            Dataset(np.array([[np.nan]]), np.array([[1.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InputError):
            Dataset(np.ones((2, 2)), np.ones((2, 3)))

    def test_rejects_zero_rows(self):
        with pytest.raises(InputError, match="at least one sample"):
            Dataset(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_prior_mean_rejects_non_finite(self):
        with pytest.raises(InputError, match="finite"):
            PriorMean(np.array([1.0, np.inf]))

    def test_prior_mean_rejects_matrix(self):
        with pytest.raises(InputError, match="must be a vector"):
            PriorMean(np.ones((2, 2)))


class TestFitPriorMean:
    def test_exact_linear_relation(self):
        rng = np.random.default_rng(0)
        q = rng.normal(0, 2, (20, 3))
        data = Dataset(q, 3.0 * q)
        assert np.allclose(fit_prior_mean(data).coefficients, 3.0, rtol=1e-12)

    def test_negative_slope_clamped(self):
        rng = np.random.default_rng(1)
        q = rng.normal(0, 2, (20, 2))
        data = Dataset(q, -3.0 * q)
        assert np.array_equal(fit_prior_mean(data).coefficients, np.zeros(2))

    def test_degenerate_column(self):
        q = np.zeros((5, 1))
        data = Dataset(q, np.ones((5, 1)))
        assert fit_prior_mean(data).coefficients[0] == 0.0

    def test_tiny_column_gets_its_coefficient(self):
        # a column of velocities near 1e-200 was degenerate by the absolute
        # threshold sum(q^2) < 1e-12 * D and got 0
        q = np.random.default_rng(5).uniform(-1.0, 1.0, (20, 2)) * [1e-200, 1.0]
        coefficients = fit_prior_mean(Dataset(q, 3.0 * q)).coefficients
        assert np.allclose(coefficients, 3.0, rtol=1e-15, atol=0)

    def test_tiny_column_whose_coefficient_overflows_raises(self):
        # the least-squares coefficient 1e300 / 1e-200 is not a float; it
        # used to be 0 by the absolute threshold
        q = np.random.default_rng(6).uniform(0.5, 1.0, (10, 1))
        with pytest.raises(InputError, match="prior mean coefficients must be finite and >= 0"):
            fit_prior_mean(Dataset(q * 1e-200, q * 1e300))

    def test_overflowing_sums_fit(self):
        # the plain sums of q * q and y * q overflowed: RuntimeWarnings, NaN
        # coefficients, and PriorMean rejected the function's own output
        q = np.random.default_rng(3).uniform(-1e200, 1e200, (20, 2))
        coefficients = fit_prior_mean(Dataset(q, 2.0 * q)).coefficients
        assert np.allclose(coefficients, 2.0, rtol=1e-15, atol=0)

    def test_bits_of_the_plain_sums_where_they_are_finite(self):
        # columns scaled by powers of two give the coefficients, and the
        # degenerate verdicts, of the unscaled sums bit for bit; a draw whose
        # plain sum of squares underflows (the square of a nonzero velocity
        # is subnormal or zero) has lost bits the scaled sums keep, so it is
        # skipped
        def plain(q, y):
            denom = np.sum(q * q, axis=0)
            coeffs = np.zeros(q.shape[1])
            ok = denom > 0
            coeffs[ok] = np.maximum(0.0, np.sum(y * q, axis=0)[ok] / denom[ok])
            return coeffs

        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(2000):
            d, n = int(rng.integers(1, 60)), int(rng.integers(1, 4))
            q, noise = rng.standard_normal((2, d, n)) * 10.0 ** rng.uniform(-160, 150, (2, 1, n))
            if rng.random() < 0.3:
                q *= 10.0 ** rng.uniform(-30, 30, (d, n))
            y = q * rng.uniform(-1, 3, n) + noise
            q[:, 0] *= rng.random() < 0.9  # a zero column, one time in ten
            with np.errstate(over="ignore", invalid="ignore"):
                if not (np.isfinite(np.sum(q * q, axis=0)).all()
                        and np.isfinite(np.sum(y * q, axis=0)).all()):
                    continue
                if ((q * q < np.finfo(float).tiny) & (q != 0)).any():
                    continue
                expected = plain(q, y)
            assert fit_prior_mean(Dataset(q, y)).coefficients.tobytes() == expected.tobytes()
            checked += 1
        assert checked > 1500


class TestFit:
    def test_zero_residual_training(self):
        rng = np.random.default_rng(2)
        q = rng.uniform(-2, 2, (8, 2))
        coeffs = np.array([1.5, 0.3])
        data = Dataset(q, q * coeffs)
        kernel = DiagTorqueKernel(np.ones(2), np.ones(2))
        model = fit("diag", kernel, PriorMean(coeffs), data, 0.5)
        for solve in model.residual_solves:
            assert np.allclose(solve, 0.0, atol=1e-14)

    def test_scalar_closed_form(self):
        q = np.array([[1.7]])
        y = np.array([[2.9]])
        md, sf2, nv = 0.4, 1.2, 0.6
        model = fit(
            "diag",
            DiagTorqueKernel(np.ones(1), np.array([sf2])),
            PriorMean(np.array([md])),
            Dataset(q, y),
            nv,
        )
        expected = (y[0, 0] - md * q[0, 0]) / (q[0, 0] ** 2 * sf2 + nv)
        assert model.residual_solves[0][0] == pytest.approx(expected, rel=1e-12)

    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(3)
        kernel, data, prior = random_instance(rng, "full")
        m1 = fit("full", kernel, prior, data, 0.7)
        m2 = fit("full", kernel, prior, data, 0.7)
        for a, b in zip(m1.residual_solves, m2.residual_solves):
            assert np.array_equal(a, b)

    def test_kind_kernel_mismatch(self):
        rng = np.random.default_rng(4)
        kernel, data, prior = random_instance(rng, "diag")
        with pytest.raises(InputError):
            fit("full", kernel, prior, data, 0.5)
        other = DiagTorqueKernel(np.ones(data.n_dim + 1), np.ones(data.n_dim + 1))
        with pytest.raises(InputError, match="does not match data dimension"):
            fit("diag", other, prior, data, 0.5)
        ard_kernel = SeArdKernelBank(kernel.lengthscales, np.ones(data.n_dim))
        with pytest.raises(InputError, match="the ard baseline is zero-mean"):
            fit("ard", ard_kernel, PriorMean(np.ones(data.n_dim)), data, 0.5)

    def test_unknown_kind_rejected(self):
        kernel, data, prior = random_instance(np.random.default_rng(4), "diag")
        with pytest.raises(InputError, match="unknown model kind 'bogus'"):
            fit("bogus", kernel, prior, data, 0.5)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_noise_variance_rejected(self, bad):
        kernel, data, prior = random_instance(np.random.default_rng(4), "diag")
        with pytest.raises(InputError, match="finite"):
            fit("diag", kernel, prior, data, bad)

    @pytest.mark.parametrize("kind", ["ard", "diag", "full"])
    def test_shared_correlation_matches_per_output_path_bitwise(self, kind):
        # reference: every output builds its own correlation, as pairwise does alone
        rng = np.random.default_rng(9)
        kernel, data, prior = random_instance(rng, kind, n=3, d=11)
        model = fit(kind, kernel, prior, data, 0.4)
        q = data.velocities
        qs = rng.uniform(-2, 2, (7, 3))
        resid = data.torques - q * prior.coefficients
        expected = qs * prior.coefficients
        for m in range(3):
            km = kernel.output_kernel(m)
            alpha = gp_core.factorize(km.pairwise(q, q), 0.4).solve(resid[:, m])
            assert np.array_equal(model.residual_solves[m], alpha)
            expected[:, m] += km.pairwise(q, qs).T @ alpha
        if kind != "ard":
            # the structured kinds predict through the documented D_hat formula
            expected = _damping_formula_prediction(model, qs, se_correlation(kernel.lengthscales, q, qs))
        assert np.array_equal(models.predict_torque_batch(model, qs), expected)

    @pytest.mark.parametrize("shape", [(11, 10), (5, 11), (1, 11), (11,)])
    def test_corr_of_wrong_shape_rejected(self, shape):
        rng = np.random.default_rng(21)
        kernel, data, prior = random_instance(rng, "full", n=2, d=11)
        with pytest.raises(InputError, match="corr must have shape"):
            fit("full", kernel, prior, data, 0.4, corr=np.ones(shape))
        model = fit("full", kernel, prior, data, 0.4)
        with pytest.raises(InputError, match="corr must have shape"):
            models.predict_torque_batch(model, np.ones((5, 2)), corr=np.ones(shape))

    @pytest.mark.parametrize("kind", models.KINDS)
    def test_fit_holds_one_gram_at_a_time(self, kind):
        # numpy reports its buffers to tracemalloc; a fit that factored a
        # copy of each Gram would hold two D x D arrays at once
        rng = np.random.default_rng(45)
        d = 400
        kernel, data, prior = random_instance(rng, kind, n=3, d=d)
        corr = se_correlation(kernel.lengthscales, data.velocities, data.velocities)
        tracemalloc.start()
        try:
            model = fit(kind, kernel, prior, data, 0.4, corr=corr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * d * d * 8 + sum(s.nbytes for s in model.residual_solves)

    def test_residual_solve_invariant(self):
        rng = np.random.default_rng(5)
        kernel, data, prior = random_instance(rng, "diag")
        model = fit("diag", kernel, prior, data, 0.3)
        prior_y = data.velocities * prior.coefficients
        for m, solve in enumerate(model.residual_solves):
            resid = data.torques[:, m] - prior_y[:, m]
            gram = gp_core.assemble_gram(kernel.output_kernel(m), data.velocities)
            lhs = (gram + 0.3 * np.eye(data.n_samples)) @ solve
            assert np.linalg.norm(lhs - resid) <= 1e-8 * max(np.linalg.norm(resid), 1e-12)


class TestPredictTorque:
    def test_zero_velocity_diag(self):
        rng = np.random.default_rng(6)
        kernel, data, prior = random_instance(rng, "diag", n=3)
        model = fit("diag", kernel, prior, data, 0.5)
        assert np.allclose(predict_torque(model, np.zeros(3)), 0.0, atol=1e-14)

    def test_zero_residual_returns_prior(self):
        rng = np.random.default_rng(7)
        q = rng.uniform(-2, 2, (10, 2))
        coeffs = np.array([2.0, 0.7])
        data = Dataset(q, q * coeffs)
        kernel = FullTorqueKernel(np.ones(2), np.ones((2, 2)))
        model = fit("full", kernel, PriorMean(coeffs), data, 0.4)
        qs = np.array([0.3, -1.2])
        assert np.allclose(predict_torque(model, qs), coeffs * qs, atol=1e-12)

    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_oracle_equivalence(self, kind):
        # the damping-matrix path against the dense oracle and against the
        # per-output cross-covariance formula
        rng = np.random.default_rng(8)
        for _ in range(20):
            kernel, data, prior = random_instance(rng, kind, d=int(rng.integers(1, 51)))
            nv = float(rng.uniform(0.2, 1.0))
            model = fit(kind, kernel, prior, data, nv)
            tests = rng.uniform(-2, 2, (3, data.n_dim))
            oracle = gp_core.joint_multi_output_oracle(kernel, data, prior.torque, tests, nv)
            corr = se_correlation(kernel.lengthscales, data.velocities, tests)
            per_output = _per_output_prediction(model, tests, corr)
            fast = models.predict_torque_batch(model, tests)
            for ref, formula, got in zip(oracle, per_output, fast):
                assert np.linalg.norm(got - ref) <= 1e-8 * max(np.linalg.norm(ref), 1e-12)
                assert np.linalg.norm(got - formula) <= 1e-12 * max(np.linalg.norm(formula), 1e-12)

    def test_diag_estimate_matches_literal_stacked_formula(self):
        # independent direct implementation: explicit DN x DN noisy Gram built
        # blockwise plus the stacked-velocity diagonal weighting
        rng = np.random.default_rng(9)
        for _ in range(5):
            kernel, data, prior = random_instance(rng, "diag")
            nv = 0.5
            model = fit("diag", kernel, prior, data, nv)
            Q, Y = data.velocities, data.torques
            d, n = Q.shape
            K = np.zeros((d * n, d * n))
            for i in range(d):
                for j in range(d):
                    K[i * n:(i + 1) * n, j * n:(j + 1) * n] = kernel(Q[i], Q[j])
            Ky = K + nv * np.eye(d * n)
            dy = (Y - Q * prior.coefficients).reshape(-1)
            dx = np.linalg.solve(Ky, dy)
            qtilde = Q.reshape(-1)
            base = SeArdKernel(kernel.lengthscales, 1.0)
            qs = rng.uniform(-2, 2, n)
            for m in range(n):
                # k_d_m(Q, qs): zeros except stacked entries (i, m)
                kvec = np.zeros(d * n)
                for i in range(d):
                    kvec[i * n + m] = kernel.hypervariances[m] * base(Q[i], qs)
                tau_m = prior.coefficients[m] * qs[m] + qs[m] * (kvec * qtilde) @ dx
                got = predict_torque(model, qs)[m]
                assert got == pytest.approx(tau_m, rel=1e-8, abs=1e-10)

    def test_prior_mean_fallback_large_noise(self):
        rng = np.random.default_rng(10)
        kernel, data, prior = random_instance(rng, "diag", n=2, d=8)
        model = fit("diag", kernel, prior, data, 1e12)
        qs = rng.uniform(-2, 2, 2)
        assert np.allclose(predict_torque(model, qs), prior.torque(qs), atol=1e-6)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        kernel, data, prior = random_instance(rng, "full", n=2, d=7)
        perm = rng.permutation(7)
        data_p = Dataset(data.velocities[perm], data.torques[perm])
        qs = rng.uniform(-2, 2, 2)
        t1 = predict_torque(fit("full", kernel, prior, data, 0.5), qs)
        t2 = predict_torque(fit("full", kernel, prior, data_p, 0.5), qs)
        assert np.allclose(t1, t2, rtol=1e-9)


def _per_output_prediction(model, qs, corr):
    """Prior torque plus, per output, the cross-covariance over all M test
    points times that output's residual solve."""
    q = model.train.velocities
    out = qs * model.prior_mean.coefficients
    for m in range(model.n_dim):
        cross = model.kernel.output_kernel(m).pairwise(q, qs, corr)
        out[:, m] += cross.T @ model.residual_solves[m]
    return out


def _damping_formula_prediction(model, qs, corr):
    """The documented structured prediction over all M test points:
    tau = diag(m_d) qd + (grid o G) qd with G[m, n, b] =
    sum_i corr[i, b] * q_train[i, n] * alpha_m,i, from products over
    ``_PIECE``-column pieces, the last taking the remainder (one product
    over all M rounds differently for some N and D)."""
    q = model.train.velocities
    d, n = q.shape
    alphas = np.vstack(model.residual_solves).T
    weights = (alphas[:, :, None] * q[:, None, :]).reshape(d, n * n)
    piece = models._PIECE
    ends = [*range(piece, len(qs) - piece + 1, piece), len(qs)]
    G = np.hstack([weights.T @ corr[:, s:t] for s, t in zip([0, *ends], ends)]).reshape(n, n, -1)
    return qs * model.prior_mean.coefficients + np.einsum("mnb,bn->bm", model.kernel.grid[:, :, None] * G, qs)


def _one_block_prediction(model, qs):
    """Reference: one correlation over all M test points, as before
    taking pieces, from the out-of-place expression rather than the code
    under test; the damping formula for the structured kinds, the
    per-output cross-covariances for ard."""
    corr = reference_correlation(model.kernel.lengthscales, model.train.velocities, qs)
    if model.kind == "ard":
        return _per_output_prediction(model, qs, corr)
    return _damping_formula_prediction(model, qs, corr)


def blocked_prediction_mismatches() -> list:
    """(N, D, kind, M, path) of every blocked or ``corr=`` prediction that
    is not bitwise equal to ``_one_block_prediction``."""
    rng = np.random.default_rng(40)
    p = models._PIECE
    mismatches = []
    for n in (1, 2, 3):
        for d, extra_sizes in ((50, ()), (200, (20_009,)), (400, ()), (700, ())):
            for kind in models.KINDS:
                kernel, data, prior = random_instance(rng, kind, n=n, d=d)
                model = fit(kind, kernel, prior, data, 0.4)
                for m in (1, p - 1, p, p + 1, 2 * p - 1, 2 * p, 2 * p + 1, *extra_sizes):
                    qs = rng.uniform(-2, 2, (m, n))
                    expected = _one_block_prediction(model, qs)
                    corr = se_correlation(kernel.lengthscales, data.velocities, qs)
                    for path, got in (
                        ("blocked", models.predict_torque_batch(model, qs)),
                        ("corr", models.predict_torque_batch(model, qs, corr=corr)),
                    ):
                        if not np.array_equal(got, expected):
                            mismatches.append((n, d, kind, m, path))
    return mismatches


class TestPredictionInputChecks:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("entry", [models.predict_torque_batch, predict_damping])
    def test_non_finite_test_velocities_rejected(self, entry, bad):
        # used to return NaN, with RuntimeWarnings from se_correlation
        kernel, data, prior = random_instance(np.random.default_rng(45), "full", n=3, d=8)
        model = fit("full", kernel, prior, data, 0.4)
        qd = np.array([bad, 0.0, 50.0])
        name = "test velocity" if entry is predict_damping else "test velocities"
        with pytest.raises(InputError, match=f"^{name} must be finite$"):
            entry(model, qd if entry is predict_damping else qd[None, :])

    @pytest.mark.parametrize("shape", [(1, 3), (2,), (4,), ()])
    @pytest.mark.parametrize("entry", [predict_torque, predict_damping])
    def test_wrong_shapes_rejected(self, entry, shape):
        # one rule for a single velocity: predict_torque used to say "a
        # single velocity vector" for (1, 3) and give the batch's message
        # for (2,) and (4,)
        kernel, data, prior = random_instance(np.random.default_rng(46), "full", n=3, d=8)
        model = fit("full", kernel, prior, data, 0.4)
        message = f"test velocity must have shape (3,), got {shape}"
        with pytest.raises(InputError, match=re.escape(message)):
            entry(model, np.zeros(shape))


class TestBlockedPrediction:
    def test_blocked_equals_one_block_bitwise(self):
        # One BLAS thread: a threaded OpenBLAS matrix-vector product splits
        # its rows at points that depend on M, so even the unblocked result
        # then changes bits with the thread count.
        single = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        src = str(Path(dampgp.__file__).resolve().parents[1])
        env = os.environ | single | {
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        }
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "import test_models; print(test_models.blocked_prediction_mismatches())"
        )
        run = subprocess.run(
            [sys.executable, "-c", code, str(Path(__file__).parent)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    def test_prediction_temporaries_stay_within_a_few_blocks(self):
        # numpy reports its buffers to tracemalloc; unblocked, one (D, M)
        # correlation alone is 80 MB here
        rng = np.random.default_rng(41)
        d, m = 200, 50_000
        kernel, data, prior = random_instance(rng, "full", n=3, d=d)
        model = fit("full", kernel, prior, data, 0.4)
        qs = rng.uniform(-2, 2, (m, 3))
        widest = 2 * models._PIECE - 1  # the last piece takes the remainder
        tracemalloc.start()
        try:
            out = models.predict_torque_batch(model, qs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * d * widest * 8 + 2 * out.nbytes

    @pytest.mark.parametrize("shape", [(4, 3, 2), (1, 1, 2)])
    def test_test_velocities_of_more_than_two_dimensions_rejected(self, shape):
        # used to pass the column check and fail in a numpy broadcast
        kernel, data, prior = random_instance(np.random.default_rng(43), "full", n=2, d=6)
        model = fit("full", kernel, prior, data, 0.4)
        with pytest.raises(InputError, match=r"must have shape \(M, 2\)"):
            models.predict_torque_batch(model, np.zeros(shape))

    def test_empty_batch_still_checks_corr(self):
        kernel, data, prior = random_instance(np.random.default_rng(42), "diag", n=2, d=6)
        model = fit("diag", kernel, prior, data, 0.4)
        assert models.predict_torque_batch(model, np.zeros((0, 2))).shape == (0, 2)
        with pytest.raises(InputError, match="corr must have shape"):
            models.predict_torque_batch(model, np.zeros((0, 2)), corr=np.ones((6, 1)))


class TestPredictDamping:
    def test_ard_unsupported(self):
        rng = np.random.default_rng(12)
        kernel, data, prior = random_instance(rng, "ard", n=2)
        model = fit("ard", kernel, prior, data, 0.5)
        with pytest.raises(UnsupportedModelError):
            predict_damping(model, np.zeros(2))

    def test_zero_residual_gives_prior_matrix(self):
        rng = np.random.default_rng(13)
        q = rng.uniform(-2, 2, (10, 2))
        coeffs = np.array([1.0, 2.5])
        data = Dataset(q, q * coeffs)
        model = fit("diag", DiagTorqueKernel(np.ones(2), np.ones(2)), PriorMean(coeffs), data, 0.4)
        D_hat = predict_damping(model, rng.uniform(-2, 2, 2))
        assert np.allclose(D_hat, np.diag(coeffs), atol=1e-12)

    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_reconstruction_identity(self, kind):
        rng = np.random.default_rng(14)
        for _ in range(10):
            kernel, data, prior = random_instance(rng, kind)
            model = fit(kind, kernel, prior, data, 0.5)
            qs = rng.uniform(-2, 2, data.n_dim)
            tau = predict_torque(model, qs)
            assert np.linalg.norm(predict_damping(model, qs) @ qs - tau) <= 1e-12 * max(
                np.linalg.norm(tau), 1e-12
            )

    def test_diag_scalar_hand_expansion(self):
        rng = np.random.default_rng(15)
        kernel, data, prior = random_instance(rng, "diag", n=1, d=6)
        model = fit("diag", kernel, prior, data, 0.3)
        base = SeArdKernel(kernel.lengthscales, 1.0)
        qs = np.array([0.8])
        v = model.residual_solves[0]
        expected = prior.coefficients[0] + sum(
            kernel.hypervariances[0] * base(data.velocities[i], qs) * data.velocities[i, 0] * v[i]
            for i in range(6)
        )
        assert predict_damping(model, qs)[0, 0] == pytest.approx(expected, rel=1e-10)

    def test_diag_kind_returns_diagonal(self):
        rng = np.random.default_rng(16)
        kernel, data, prior = random_instance(rng, "diag", n=3)
        model = fit("diag", kernel, prior, data, 0.5)
        D_hat = predict_damping(model, rng.uniform(-2, 2, 3))
        assert np.array_equal(D_hat - np.diag(np.diag(D_hat)), np.zeros((3, 3)))


class TestConsistency:
    def test_diag_model_recovers_diagonal_truth(self):
        system = bench.get_system("diag3")
        ell = system.default_lengthscales
        train = bench.generate_dataset(
            system, bench.sample_trajectory(system, 200, seed=7, waveform="uniform"), 0.0
        )
        val = bench.generate_dataset(
            system, bench.sample_trajectory(system, 100, seed=8, waveform="uniform"), 0.0
        )
        prior = fit_prior_mean(train)
        opt = models.optimize_hypervariances(
            "diag", train, val, ell, 1e-6, budget=40, prior_mean=prior
        )
        model = fit("diag", opt.kernel, prior, train, 1e-6)
        test_vel = bench.sample_trajectory(system, 400, seed=9, waveform="uniform")
        pred = models.predict_torque_batch(model, test_vel)
        score = bench.nmse(pred, system.torque_batch(test_vel))
        assert np.all(score.per_output <= 1e-3)


class TestInitialHypervariances:
    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_start_near_1e200_is_the_native_start(self, kind):
        # the plain mean of q * q and variance of the residual overflowed
        # (RuntimeWarnings) on finite velocities and torques near 1e200; the
        # start is a torque variance over a velocity power, so the same data
        # scaled by one power of two has the same start, bit for bit
        rng = np.random.default_rng(8)
        q = rng.uniform(-1.0, 1.0, (20, 2))
        data = Dataset(q, 2.0 * q + rng.normal(0.0, 0.1, q.shape))
        big = Dataset(np.ldexp(data.velocities, 664), np.ldexp(data.torques, 664))
        assert np.abs(big.velocities).max() > 1e199
        start = models._initial_hypervariances(kind, data, fit_prior_mean(data))
        big_start = models._initial_hypervariances(kind, big, fit_prior_mean(big))
        assert big_start.tobytes() == start.tobytes()

    def test_bits_of_the_plain_formula(self):
        # the scaled columns give the unscaled formula's start bit for bit
        def plain(kind, data, prior):
            q = data.velocities
            rvar = np.maximum(np.var(data.torques - prior.torque(q), axis=0), 1e-12)
            if kind == "ard":
                return rvar
            qpow = np.maximum(np.mean(q * q, axis=0), 1e-12)
            if kind == "diag":
                return rvar / qpow
            return np.maximum(rvar[:, None] / (data.n_dim * qpow[None, :]), 1e-12)

        rng = np.random.default_rng(9)
        for trial in range(300):
            d, n = int(rng.integers(1, 400)), int(rng.integers(1, 4))
            q = rng.uniform(-1.0, 1.0, (d, n)) * 10.0 ** rng.uniform(-3.0, 3.0, n)
            y = q * rng.uniform(-1.0, 3.0, n) + rng.normal(size=(d, n)) * 10.0 ** rng.uniform(-8, 3)
            q[:, 0] *= trial % 10 != 0  # a zero column, one time in ten
            data = Dataset(q, y)
            for kind in ("ard", "diag", "full"):
                prior = PriorMean.zero(n) if kind == "ard" else fit_prior_mean(data)
                got = models._initial_hypervariances(kind, data, prior)
                assert got.tobytes() == plain(kind, data, prior).tobytes(), (trial, kind)


class TestOptimizeHypervariances:
    def test_budget_one_returns_initial_candidate(self):
        rng = np.random.default_rng(17)
        _, train, prior = random_instance(rng, "diag", n=2, d=10)
        _, val, _ = random_instance(rng, "diag", n=2, d=6)
        res = models.optimize_hypervariances(
            "diag", train, val, np.ones(2), 0.5, budget=1, prior_mean=prior
        )
        expected = models._initial_hypervariances("diag", train, prior)
        assert res.n_evaluations == 1
        assert np.allclose(res.kernel.hypervariances, expected)
        with pytest.raises(InputError, match="budget must be >= 1"):
            models.optimize_hypervariances(
                "diag", train, val, np.ones(2), 0.5, budget=0, prior_mean=prior)

    @pytest.mark.parametrize("field, value", [
        ("kinds", "bogus"), ("budget", 0), ("noise_variance", 0.0), ("noise_variance", np.nan),
        # a search with budget 2.5 ran 3 evaluations; int64 bounds the count
        ("budget", 2.5), ("budget", 2**63),
    ])
    def test_rejects_what_the_config_rejects_with_its_message(self, field, value):
        rng = np.random.default_rng(19)
        _, train, _ = random_instance(rng, "diag", n=2, d=6)
        args = {"kind": "diag", "budget": 1, "noise_variance": 0.5}
        args["kind" if field == "kinds" else field] = value
        with pytest.raises(InputError) as search:
            models.optimize_hypervariances(
                args["kind"], train, train, np.ones(2), args["noise_variance"],
                budget=args["budget"])
        with pytest.raises(InputError) as config:
            bench.ExperimentConfig(**{field: (value,) if field == "kinds" else value})
        assert str(search.value) == str(config.value)

    def test_monotone_improvement(self):
        rng = np.random.default_rng(18)
        system = bench.get_system("diag3")
        train = bench.generate_dataset(
            system, bench.sample_trajectory(system, 40, seed=1, waveform="uniform"), 0.5
        )
        val = bench.generate_dataset(
            system, bench.sample_trajectory(system, 40, seed=2, waveform="uniform"), 0.5
        )
        prior = fit_prior_mean(train)
        ell = system.default_lengthscales

        def mse_at(hyp, budget):
            return models.optimize_hypervariances(
                "diag", train, val, ell, 100.0, budget=budget, prior_mean=prior
            ).val_mse

        assert mse_at(None, 40) <= mse_at(None, 1)

    def test_constrained_result_is_feasible(self):
        rng = np.random.default_rng(19)
        q_tr = rng.uniform(-2, 2, (12, 2))
        q_va = rng.uniform(-2, 2, (8, 2))
        slopes = np.array([1.5, 2.5])
        train = Dataset(q_tr, q_tr * slopes + rng.normal(0, 0.3, q_tr.shape))
        val = Dataset(q_va, q_va * slopes + rng.normal(0, 0.3, q_va.shape))
        prior = fit_prior_mean(train)
        assert np.all(prior.coefficients > 0)
        res = models.optimize_hypervariances(
            "diag", train, val, np.ones(2), 1.0, constrained=True, budget=15,
            prior_mean=prior,
        )
        bound = passivity.compute_bound(train, prior, 1.0, res.kernel.hypervariances)
        assert passivity.check_bound_diag(bound).feasible

    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_vacuous_bound_leaves_the_search_free(self, kind):
        # zero velocities give m_d = 0 and c = +inf: every candidate passes
        # unscaled, so the constrained search is the free one
        data = Dataset(np.zeros((10, 2)), np.random.default_rng(47).normal(0.0, 1.0, (10, 2)))
        free, constrained = (models.optimize_hypervariances(
            kind, data, data, np.ones(2), 1.0, constrained=flag, budget=8) for flag in (False, True))
        assert np.array_equal(constrained.kernel.hypervariances, free.kernel.hypervariances)
        assert constrained.val_mse == free.val_mse

    def test_constrained_ard_rejected(self):
        rng = np.random.default_rng(12)
        _, data, _ = random_instance(rng, "ard", n=2)
        with pytest.raises(InputError, match="no passivity bound"):
            models.optimize_hypervariances(
                "ard", data, data, np.ones(2), 0.5, constrained=True, budget=2)

    def test_prior_of_another_dimension_rejected(self):
        # used to fail with a numpy broadcast error before any check ran
        rng = np.random.default_rng(44)
        _, data, _ = random_instance(rng, "diag", n=3, d=8)
        with pytest.raises(InputError, match="2 coefficients for 3-dimensional data"):
            models.optimize_hypervariances(
                "diag", data, data, np.ones(3), 0.5, budget=2, prior_mean=PriorMean(np.ones(2)))

    def test_validation_of_another_dimension_rejected(self):
        rng = np.random.default_rng(20)
        _, train, prior = random_instance(rng, "diag", n=2, d=6)
        message = "validation velocities must have shape (M, 2), got (1, 3)"
        with pytest.raises(InputError, match=re.escape(message)):
            models.optimize_hypervariances(
                "diag", train, Dataset(np.zeros((1, 3)), np.zeros((1, 3))),
                np.ones(2), 0.5, budget=5, prior_mean=prior,
            )

    def test_no_finite_validation_mse_raises_numerical_error(self):
        q = np.random.default_rng(21).uniform(-1.0, 1.0, (10, 2))
        val = Dataset(q, np.full((10, 2), 1e200))  # every squared error overflows
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="finite"):
            models.optimize_hypervariances("diag", Dataset(q, q), val, np.ones(2), 1.0, budget=3)

    @pytest.mark.parametrize("kind, constrained", [
        ("ard", False),
        ("diag", False),
        ("diag", True),
        ("full", False),
        ("full", True),
    ])
    def test_shared_correlations_match_per_evaluation_search_bitwise(
        self, monkeypatch, kind, constrained
    ):
        system = bench.get_system("full3")
        train = bench.generate_dataset(
            system, bench.sample_trajectory(system, 30, seed=1, waveform="uniform"), 1.0, seed=2
        )
        val = bench.generate_dataset(
            system, bench.sample_trajectory(system, 20, seed=3, waveform="uniform"), 1.0, seed=4
        )
        prior = PriorMean.zero(3) if kind == "ard" else fit_prior_mean(train)

        def search():
            res = models.optimize_hypervariances(
                kind, train, val, system.default_lengthscales, 100.0,
                constrained=constrained, budget=15, prior_mean=prior,
            )
            return res, fit(kind, res.kernel, prior, train, 100.0)

        shared, shared_model = search()

        # reference: drop the search's correlations, so every evaluation builds its own
        passed = []

        def per_evaluation(fn):
            def without_corr(*args, corr=None):
                passed.append(corr is not None)
                return fn(*args)
            return without_corr

        monkeypatch.setattr(models, "fit", per_evaluation(models.fit))
        monkeypatch.setattr(
            models, "predict_torque_batch", per_evaluation(models.predict_torque_batch)
        )
        ref, ref_model = search()
        assert passed == [True] * (2 * ref.n_evaluations)
        assert ref.n_evaluations == shared.n_evaluations == 15
        assert np.array_equal(shared.kernel.hypervariances, ref.kernel.hypervariances)
        assert shared.val_mse == ref.val_mse
        for a, b in zip(shared_model.residual_solves, ref_model.residual_solves, strict=True):
            assert np.array_equal(a, b)
        # the returned model is the search's own fit, bit for bit its refit
        for a, b in zip(shared.model.residual_solves, shared_model.residual_solves, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_constrained_search_computes_the_bound_once(self, monkeypatch, kind):
        # c depends only on the data, prior and noise variance: the search
        # computes it once, and every projected bound is bit for bit the one
        # compute_bound builds for the candidate
        system = bench.get_system("full3")
        train = bench.generate_dataset(
            system, bench.sample_trajectory(system, 30, seed=5, waveform="uniform"), 1.0, seed=6
        )
        val = bench.generate_dataset(
            system, bench.sample_trajectory(system, 20, seed=7, waveform="uniform"), 1.0, seed=8
        )
        prior = fit_prior_mean(train)
        compute_bound, enforce_bound = passivity.compute_bound, passivity.enforce_bound
        computed, projected = [], []

        def counting_compute_bound(*args):
            computed.append(args)
            return compute_bound(*args)

        def checking_enforce_bound(bound):
            candidate = bound.hypervariances
            ref = compute_bound(train, prior, 100.0, candidate)
            assert bound.c == ref.c
            assert np.array_equal(candidate, ref.hypervariances)
            assert np.array_equal(bound.mean_coefficients, ref.mean_coefficients)
            assert candidate.ndim == (1 if kind == "diag" else 2)
            projected.append(bound)
            return enforce_bound(bound)

        monkeypatch.setattr(passivity, "compute_bound", counting_compute_bound)
        monkeypatch.setattr(passivity, "enforce_bound", checking_enforce_bound)
        res = models.optimize_hypervariances(
            kind, train, val, system.default_lengthscales, 100.0,
            constrained=True, budget=15, prior_mean=prior,
        )
        assert len(computed) == 1
        assert len(projected) == res.n_evaluations == 15

    @pytest.mark.parametrize("kind, constrained", [
        ("ard", False), ("diag", False), ("diag", True), ("full", False), ("full", True),
    ])
    def test_search_fits_once_per_budget_unit(self, monkeypatch, kind, constrained):
        # the search stops fitting exactly when its budget is spent: budgets
        # 1-13 cover every stop inside and just past the first coordinate's
        # six evaluations, which follow the starting candidate's; each fit
        # factorizes one Gram matrix per output, the count the benchmark's
        # trace checks as factorize calls = N x fits
        system = bench.get_system("full3")
        train = bench.generate_dataset(
            system, bench.sample_trajectory(system, 20, seed=13, waveform="uniform"), 1.0, seed=14
        )
        val = bench.generate_dataset(
            system, bench.sample_trajectory(system, 10, seed=15, waveform="uniform"), 1.0, seed=16
        )
        fits, factorizations = [], []
        real_fit, real_factorize = models.fit, gp_core.factorize

        def counting_fit(*args, **kwargs):
            fits.append(1)
            return real_fit(*args, **kwargs)

        def counting_factorize(*args, **kwargs):
            factorizations.append(1)
            return real_factorize(*args, **kwargs)

        monkeypatch.setattr(models, "fit", counting_fit)
        monkeypatch.setattr(gp_core, "factorize", counting_factorize)
        for budget in range(1, 14):
            fits.clear()
            factorizations.clear()
            res = models.optimize_hypervariances(
                kind, train, val, system.default_lengthscales, 100.0,
                constrained=constrained, budget=budget,
            )
            assert len(fits) == res.n_evaluations == budget
            assert len(factorizations) == train.n_dim * len(fits)

    @pytest.mark.parametrize("constrained", [False, True])
    def test_full_search_fits_only_row_times_column_grids(self, monkeypatch, constrained):
        # every grid the full search fits is exp(r_m + c_n): its log, centred
        # by row and by column, is zero
        system = bench.get_system("full3")
        train = bench.generate_dataset(
            system, bench.sample_trajectory(system, 30, seed=9, waveform="uniform"), 1.0, seed=10
        )
        val = bench.generate_dataset(
            system, bench.sample_trajectory(system, 20, seed=11, waveform="uniform"), 1.0, seed=12
        )
        grids = []
        real_fit = models.fit

        def recording_fit(kind, kernel, *args, **kwargs):
            grids.append(kernel.grid.copy())
            return real_fit(kind, kernel, *args, **kwargs)

        monkeypatch.setattr(models, "fit", recording_fit)
        res = models.optimize_hypervariances(
            "full", train, val, system.default_lengthscales, 100.0,
            constrained=constrained, budget=15,
        )
        assert len(grids) == res.n_evaluations == 15
        for grid in grids:
            log = np.log(grid)
            centred = log - log.mean(axis=0) - log.mean(axis=1)[:, None] + log.mean()
            assert np.max(np.abs(centred)) < 1e-10

    @pytest.mark.parametrize("kind, constrained", [
        ("diag", False), ("diag", True), ("full", False), ("full", True),
    ])
    def test_overflowing_candidate_raises_input_error(self, kind, constrained):
        # residual variance over velocity power starts the search at
        # 1.21e308, where exp(theta) and the symmetric part of the grid overflow
        train = Dataset([[1e-4], [1e-4]], [[1.1e150], [-1.1e150]])
        with np.errstate(over="ignore"), pytest.raises(InputError, match="finite"):
            models.optimize_hypervariances(
                kind, train, train, [1.0], 1e300, constrained=constrained, budget=10,
                prior_mean=PriorMean([1.0]),
            )


def _batch_entry_points():
    """name -> (call of a bad (M, 3) velocity batch ``Q`` on a 2-dimensional
    model, data or system, the name its message gives: the caller's input,
    or the argument of ``pairwise``)."""
    kernel, data, prior = random_instance(np.random.default_rng(46), "full", n=2, d=6)
    model = fit("full", kernel, prior, data, 0.4)
    system = bench.make_system("two", lambda Q: np.ones((len(Q), 2, 2)),
                               [[-1.0, 1.0]] * 2, [1.0, 1.0])
    scalar = SeArdKernel(np.ones(2), 1.0)
    output = kernel.output_kernel(0)
    return {
        "SeArdKernel.pairwise-X": (lambda Q: scalar.pairwise(Q, data.velocities), "X"),
        "SeArdKernel.pairwise-X2": (lambda Q: scalar.pairwise(data.velocities, Q), "X2"),
        "output_kernel.pairwise": (lambda Q: output.pairwise(data.velocities, Q), "X2"),
        "assemble_gram": (lambda Q: gp_core.assemble_gram(output, Q), "X"),
        "predict_torque_batch": (lambda Q: models.predict_torque_batch(model, Q), "test velocities"),
        "damping_batch": (system.damping_batch, "system 'two' velocities"),
        "torque_batch": (system.torque_batch, "system 'two' velocities"),
        "generate_dataset": (lambda Q: bench.generate_dataset(system, Q, 0.0),
                             "system 'two' velocities"),
        "optimize_hypervariances": (lambda Q: models.optimize_hypervariances(
            "full", data, Dataset(Q, Q), np.ones(2), 0.4, budget=2), "validation velocities"),
    }


@pytest.mark.parametrize("entry", list(_batch_entry_points()))
def test_every_velocity_batch_entry_point_has_one_message(entry):
    # six copies of the (M, N) rule gave five messages; errors._check_batch
    # now gives one, naming the input
    call, name = _batch_entry_points()[entry]
    with pytest.raises(InputError, match=re.escape(f"{name} must have shape (M, 2), got (4, 3)")):
        call(np.ones((4, 3)))


def _number_entry_points():
    """name -> (the input's name, whether 0 is allowed, the input that holds
    one given number, the call that takes that input); one entry per place
    where a real-number input enters."""
    kernel, data, prior = random_instance(np.random.default_rng(47), "full", n=2, d=6)
    bound = passivity.compute_bound(data, prior, 0.4, np.ones(2))

    def scalar(x):
        return x

    def pair(x):
        return np.array([1.0, x])

    def grid(x):
        return np.array([[1.0, 1.0], [1.0, x]])

    def system(ell):
        return bench.make_system("two", lambda Q: np.ones((len(Q), 2, 2)), [[-1.0, 1.0]] * 2, ell)

    return {
        "fit": ("noise_variance", False, scalar,
                lambda v: fit("full", kernel, prior, data, v)),
        "optimize_hypervariances": ("noise_variance", False, scalar,
                                    lambda v: models.optimize_hypervariances(
                                        "full", data, data, np.ones(2), v, budget=2)),
        "compute_bound": ("noise_variance", False, scalar,
                          lambda v: passivity.compute_bound(data, prior, v, np.ones(2))),
        "config-noise_variance": ("noise_variance", False, scalar,
                                  lambda v: bench.ExperimentConfig(noise_variance=v)),
        "factorize": ("noise_variance", True, scalar, lambda v: gp_core.factorize(np.eye(2), v)),
        "generate_dataset": ("noise_std", True, scalar, lambda v: bench.generate_dataset(
            bench.get_system("linear1"), np.ones((2, 1)), v)),
        "adversarial_dataset": ("noise_std", True, scalar,
                                lambda v: bench.adversarial_dataset(size=4, noise_std=v)),
        "config-noise_std": ("noise_std", True, scalar,
                             lambda v: bench.ExperimentConfig(noise_std=v)),
        "relative_error": ("normalizer", False, scalar,
                           lambda v: bench.relative_error(np.ones((1, 1)), np.ones((1, 1)), v)),
        "SeArdKernel": ("hypervariance", False, scalar, lambda v: SeArdKernel(np.ones(2), v)),
        "SeArdKernelBank": ("hypervariances", False, pair,
                            lambda v: SeArdKernelBank(np.ones(2), v)),
        "DiagTorqueKernel": ("hypervariances", False, pair,
                             lambda v: DiagTorqueKernel(np.ones(2), v)),
        "FullTorqueKernel": ("hypervariances", False, grid,
                             lambda v: FullTorqueKernel(np.ones(2), v)),
        "SeArdKernel-lengthscales": ("lengthscales", False, pair, lambda v: SeArdKernel(v, 1.0)),
        "FullTorqueKernel-lengthscales": ("lengthscales", False, pair,
                                          lambda v: FullTorqueKernel(v, np.ones((2, 2)))),
        "optimize_hypervariances-lengthscales": ("lengthscales", False, pair,
                                                 lambda v: models.optimize_hypervariances(
                                                     "full", data, data, v, 0.4, budget=2)),
        "make_system": ("lengthscales", False, pair, system),
        # one per dimension of the config's default system, full3
        "config-lengthscales": ("lengthscales", False, lambda x: np.array([1.0, 1.0, x]),
                                lambda v: bench.ExperimentConfig(lengthscales=tuple(v))),
        "PriorMean": ("prior mean coefficients", True, pair, PriorMean),
        "compute_bound-grid": ("hypervariances", True, grid,
                               lambda v: passivity.compute_bound(data, prior, 0.4, v)),
        "with_grid": ("hypervariances", True, pair, bound.with_grid),
    }


@pytest.mark.parametrize("bad", ["zero-or-negative", "inf", "nan"])
@pytest.mark.parametrize("entry", list(_number_entry_points()))
def test_every_real_number_input_has_one_message(entry, bad):
    # nine inline "finite and > 0 / >= 0" checks had four wordings, some
    # without the value and some with numpy's array repr, which wraps long
    # arrays; errors._check_number and _check_numbers give one, with the
    # value on one line
    name, zero_ok, holding, call = _number_entry_points()[entry]
    value = holding({"zero-or-negative": -1.0 if zero_ok else 0.0,
                     "inf": np.inf, "nan": np.nan}[bad])
    with pytest.raises(InputError) as caught:
        call(value)
    got = np.asarray(value).tolist()
    assert str(caught.value) == f"{name} must be finite and {'>=' if zero_ok else '>'} 0, got {got}"


@pytest.mark.parametrize("entry", [k for k, v in _number_entry_points().items() if v[1]])
def test_zero_passes_where_the_rule_allows_it(entry):
    _, _, holding, call = _number_entry_points()[entry]
    call(holding(0.0))


@pytest.mark.parametrize("bad", ["1", None, 1j, np.array([1.0, 2.0]), np.array([2.0])],
                         ids=["str", "None", "complex", "two-entry-array", "one-entry-array"])
@pytest.mark.parametrize("entry", [k for k, v in _number_entry_points().items()
                                   if v[2].__name__ == "scalar"])
def test_a_value_that_is_not_a_real_number_raises_input_error(entry, bad):
    # the comparison in errors._check_number raised a bare TypeError for a
    # str, None or a complex, and numpy's ValueError on the truth value of
    # a two-entry array; a one-entry array compared as its entry, so a
    # kernel kept it as its hypervariance and factorize factored with it
    name, _, _, call = _number_entry_points()[entry]
    with pytest.raises(InputError) as caught:
        call(bad)
    assert str(caught.value) == f"{name} must be a real number, got {bad!r}"


_BIG = np.finfo(float).max
_NUMBERS_EDGES = {
    "empty": np.array([]),
    "empty-2d": np.empty((0, 3)),
    "0-d": np.array(2.0),
    "0-d-zero": np.array(0.0),
    "0-d-nan": np.array(np.nan),
    "zero": 0.0,
    "negative-zero": -0.0,
    "smallest-subnormal": 5e-324,
    "negative-subnormal": -5e-324,
    "largest": _BIG,
    "inf": np.inf,
    "-inf": -np.inf,
    "nan": np.nan,
    "1d-positive": [5e-324, 1.0, _BIG],
    "1d-with-zero": [1.0, 0.0, 2.0],
    "1d-with-negative-zero": [-0.0, 3.0],
    "1d-with-negative": [1.0, -1e-300],
    "1d-with-inf": [1.0, np.inf],
    "1d-with-nan": [np.nan, 1.0],
    "1d-nan-and-inf": [np.inf, np.nan, 2.0],
    "1d-negative-and-nan": [-1.0, np.nan],
    "1d-both-infinities": [-np.inf, np.inf],
    "2d-positive": [[1.0, 5e-324], [_BIG, 3.0]],
    "2d-with-zero": [[0.0, 1.0], [1.0, 0.0]],
    "2d-with-inf": [[1.0, 1.0], [1.0, np.inf]],
    "2d-with-nan": [[1.0, np.nan], [1.0, 1.0]],
    "2d-with-negative-inf": [[-np.inf, 1.0], [1.0, 1.0]],
}


@pytest.mark.parametrize("zero_ok", [False, True], ids=["positive", "zero-ok"])
@pytest.mark.parametrize("values", list(_NUMBERS_EDGES.values()), ids=list(_NUMBERS_EDGES))
def test_check_numbers_accepts_what_the_elementwise_test_accepts(values, zero_ok):
    # errors._check_numbers tests the minimum and maximum, not every entry;
    # the elementwise test it replaced is the reference for which arrays pass
    a = np.asarray(values, dtype=float)
    expected = bool((np.isfinite(a) & ((a >= 0) if zero_ok else (a > 0))).all())
    try:
        checked = errors._check_numbers("values", values, zero_ok=zero_ok)
    except InputError as caught:
        assert not expected
        assert str(caught) == (
            f"values must be finite and {'>=' if zero_ok else '>'} 0, got {a.tolist()}")
    else:
        assert expected
        np.testing.assert_array_equal(checked, a)
