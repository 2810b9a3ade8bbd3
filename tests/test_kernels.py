import re

import numpy as np
import pytest

from dampgp import errors, gp_core, kernels
from dampgp.errors import InputError
from dampgp.kernels import (
    DiagTorqueKernel,
    FullTorqueKernel,
    SeArdKernel,
    SeArdKernelBank,
    se_correlation,
)

KERNEL_MAKERS = {
    "ard": lambda rng: SeArdKernelBank(rng.uniform(0.5, 2, 3), rng.uniform(0.1, 2, 3)),
    "diag": lambda rng: DiagTorqueKernel(rng.uniform(0.5, 2, 3), rng.uniform(0.1, 2, 3)),
    "full": lambda rng: FullTorqueKernel(rng.uniform(0.5, 2, 3), rng.uniform(0.1, 2, (3, 3))),
}


def reference_correlation(ell, A, B):
    """``se_correlation`` as the out-of-place expression it had before its
    in-place rewrites; ``test_models`` predicts through it too."""
    S, S2 = A / ell, B / ell
    sq = (
        np.sum(S * S, axis=1)[:, None]
        + np.sum(S2 * S2, axis=1)[None, :]
        - 2.0 * S @ S2.T
    )
    return np.exp(-0.5 * np.maximum(sq, 0.0))


# (M, N, input scale) of the correlation reference test: M = 384 and 767
# are the widest prediction pieces; at the scales 1e-150 and 1e150 the
# squared norms are near the ends of the normal range, yet neither
# underflows nor overflows
_CORRELATION_CASES = [
    (1, 3, 3.0), (2, 3, 3.0), (17, 3, 3.0),
    (1, 1, 3.0), (384, 1, 3.0), (767, 1, 3.0), (384, 3, 3.0), (767, 2, 3.0),
    (17, 3, 1e-150), (17, 3, 1e150), (384, 2, 1e150),
]


class TestSeArd:
    def test_zero_distance_is_amplitude(self):
        k = SeArdKernel(np.array([18.0, 18.0, 0.2]), 3.5)
        x = np.array([1.0, -2.0, 0.3])
        assert k(x, x) == pytest.approx(3.5, rel=1e-15)

    def test_hand_value(self):
        k = SeArdKernel(np.array([1.0]), 1.0)
        assert k(np.array([0.0]), np.array([1.0])) == pytest.approx(
            np.exp(-0.5), rel=1e-14
        )

    def test_dimension_mismatch(self):
        k = SeArdKernel(np.array([1.0, 1.0]), 1.0)
        with pytest.raises(InputError):
            k(np.array([0.0]), np.array([0.0, 1.0]))

    def test_invalid_hyperparameters(self):
        with pytest.raises(InputError):
            SeArdKernel(np.array([0.0]), 1.0)
        with pytest.raises(InputError):
            SeArdKernel(np.array([1.0]), 0.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_hyperparameters(self, bad):
        with pytest.raises(InputError, match="finite"):
            SeArdKernel(np.array([bad]), 1.0)
        with pytest.raises(InputError, match="finite"):
            SeArdKernel(np.array([1.0]), bad)

    def test_boundedness_exact_on_random_pairs(self):
        rng = np.random.default_rng(0)
        k = SeArdKernel(np.array([1.3, 0.4]), 2.7)
        X = rng.normal(0, 5, (10_000, 2))
        X2 = rng.normal(0, 5, (10_000, 2))
        vals = np.array([k(a, b) for a, b in zip(X, X2)])
        assert np.all(np.abs(vals) <= 2.7)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        k = SeArdKernel(np.array([0.8, 2.0, 1.1]), 1.9)
        for _ in range(50):
            a, b = rng.normal(0, 3, 3), rng.normal(0, 3, 3)
            assert k(a, b) == pytest.approx(k(b, a), rel=1e-15)

    def test_call_is_the_pairwise_entry(self):
        # one SE formula: a single evaluation is an entry of the batch matrix
        rng = np.random.default_rng(2)
        k = SeArdKernel(np.array([0.7, 1.6, 3.0]), 2.3)
        X, X2 = rng.normal(0, 3, (8, 3)), rng.normal(0, 3, (5, 3))
        gram = k.pairwise(X, X2)
        assert np.array_equal(gram, 2.3 * se_correlation(k.lengthscales, X, X2))
        for i, a in enumerate(X):
            for j, b in enumerate(X2):
                assert k(a, b) == gram[i, j]


class TestFullTorqueKernel:
    def test_orthogonal_supports_give_zero(self):
        k = FullTorqueKernel(np.ones(2), np.ones((2, 2)))
        K = k(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.array_equal(K, np.zeros((2, 2)))

    def test_unit_vector_selects_column(self):
        hyp = np.array([[1.0, 2.0], [3.0, 4.0]])
        k = FullTorqueKernel(np.ones(2), hyp)
        e1 = np.array([0.0, 1.0])
        K = k(e1, e1)
        assert np.allclose(np.diag(K), hyp[:, 1])

    def test_hand_sum(self):
        k = FullTorqueKernel(np.ones(2), np.ones((2, 2)))
        q = np.array([1.0, 2.0])
        K = k(q, q)
        assert np.allclose(K, np.diag([5.0, 5.0]))

    def test_always_diagonal(self):
        rng = np.random.default_rng(2)
        k = FullTorqueKernel(rng.uniform(0.5, 2, 3), rng.uniform(0.1, 2, (3, 3)))
        for _ in range(20):
            K = k(rng.normal(0, 2, 3), rng.normal(0, 2, 3))
            assert np.array_equal(K - np.diag(np.diag(K)), np.zeros((3, 3)))

    def test_self_covariance_psd(self):
        rng = np.random.default_rng(3)
        k = FullTorqueKernel(rng.uniform(0.5, 2, 3), rng.uniform(0.1, 2, (3, 3)))
        for _ in range(20):
            K = k(q := rng.normal(0, 2, 3), q)
            assert np.min(np.diag(K)) >= 0.0


class TestDiagTorqueKernel:
    def test_ones_velocity_gives_amplitudes(self):
        hyp = np.array([0.5, 1.5, 2.5])
        k = DiagTorqueKernel(np.ones(3), hyp)
        ones = np.ones(3)
        assert np.allclose(np.diag(k(ones, ones)), hyp)

    def test_zero_velocity_gives_zero(self):
        k = DiagTorqueKernel(np.ones(2), np.ones(2))
        assert np.array_equal(k(np.zeros(2), np.ones(2)), np.zeros((2, 2)))

    def test_hand_value(self):
        # element kernel value 0.5 arranged via lengthscale choice is fiddly;
        # instead scale the amplitude so k_1(q, q') = 0.5 exactly at distance 0
        k = DiagTorqueKernel(np.array([1e6, 1e6]), np.array([0.5, 0.5]))
        K = k(np.array([2.0, 0.0]), np.array([3.0, 1.0]))
        assert np.allclose(K, np.diag([3.0, 0.0]), atol=1e-10)

    def test_factorized_structure(self):
        rng = np.random.default_rng(4)
        ell = rng.uniform(0.5, 2, 2)
        hyp = rng.uniform(0.1, 2, 2)
        k = DiagTorqueKernel(ell, hyp)
        base = SeArdKernel(ell, 1.0)
        for _ in range(20):
            a, b = rng.normal(0, 2, 2), rng.normal(0, 2, 2)
            K = k(a, b)
            for n in range(2):
                assert K[n, n] == pytest.approx(a[n] * b[n] * hyp[n] * base(a, b), rel=1e-12, abs=1e-15)


class TestGrid:
    def test_diag_grid_is_full_layout_with_zero_off_diagonals(self):
        hyp = np.array([0.5, 1.5, 2.5])
        assert np.array_equal(DiagTorqueKernel(np.ones(3), hyp).grid, np.diag(hyp))
        full = np.arange(1.0, 10.0).reshape(3, 3)
        assert np.array_equal(FullTorqueKernel(np.ones(3), full).grid, full)

    @pytest.mark.parametrize("make, shape", [
        (FullTorqueKernel, (2,)),
        (DiagTorqueKernel, (2, 2)),
        (SeArdKernelBank, (3,)),
    ])
    def test_hypervariance_shape_checked(self, make, shape):
        with pytest.raises(InputError, match="shape"):
            make(np.ones(2), np.ones(shape))

    @pytest.mark.parametrize("kind", KERNEL_MAKERS)
    @pytest.mark.parametrize("field", ["lengthscales", "hypervariances"])
    def test_non_finite_hyperparameters_rejected(self, kind, field):
        kernel = KERNEL_MAKERS[kind](np.random.default_rng(0))
        values = {"lengthscales": kernel.lengthscales.copy(),
                  "hypervariances": kernel.hypervariances.copy()}
        values[field].flat[-1] = np.inf
        with pytest.raises(InputError, match="finite"):
            type(kernel)(values["lengthscales"], values["hypervariances"])


class TestVelocityChecks:
    @pytest.mark.parametrize("make, names", [
        (lambda: SeArdKernel(np.ones(2), 1.0), ("x", "xp")),
        (lambda: DiagTorqueKernel(np.ones(2), np.ones(2)), ("qd", "qd2")),
        (lambda: FullTorqueKernel(np.ones(2), np.ones((2, 2))), ("qd", "qd2")),
    ], ids=["se-ard", "diag", "full"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_velocity_rejected(self, make, names, bad, side):
        # the SE-ARD kernel used to return nan, a torque kernel to warn on
        # inf; the message names the argument, not "test velocities"
        args = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
        args[side][0] = bad
        with pytest.raises(InputError, match=f"^{names[side]} must be finite$"):
            make()(*args)

    @pytest.mark.parametrize("make, names", [
        (lambda: SeArdKernel(np.ones(2), 1.0), ("x", "xp")),
        (lambda: FullTorqueKernel(np.ones(2), np.ones((2, 2))), ("qd", "qd2")),
    ], ids=["se-ard", "full"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_wrong_shape_names_the_argument(self, make, names, side):
        args = [np.zeros(2), np.zeros(2)]
        args[side] = np.zeros((1, 2))
        message = f"{names[side]} must have shape (2,), got (1, 2)"
        with pytest.raises(InputError, match=re.escape(message)):
            make()(*args)


class TestMatrixKernelSymmetry:
    @pytest.mark.parametrize("make", [
        lambda rng: FullTorqueKernel(rng.uniform(0.5, 2, 3), rng.uniform(0.1, 2, (3, 3))),
        lambda rng: DiagTorqueKernel(rng.uniform(0.5, 2, 3), rng.uniform(0.1, 2, 3)),
    ])
    def test_transpose_symmetry(self, make):
        rng = np.random.default_rng(5)
        k = make(rng)
        for _ in range(50):
            a, b = rng.normal(0, 2, 3), rng.normal(0, 2, 3)
            assert np.allclose(k(a, b), k(b, a).T, atol=1e-14)


def entry(kernel, a, b) -> float:
    """One kernel value: the single entry of ``pairwise`` on one row each."""
    return float(kernel.pairwise(a[None, :], b[None, :])[0, 0])


class TestPerOutputScalarKernel:
    def test_diag_unit_vector(self):
        k = DiagTorqueKernel(np.ones(3), np.array([2.0, 1.0, 1.0]))
        km = k.output_kernel(0)
        e1 = np.zeros(3)
        e1[0] = 1.0
        assert entry(km, e1, e1) == pytest.approx(2.0, rel=1e-14)

    def test_matches_matrix_entry_random_pairs(self):
        rng = np.random.default_rng(6)
        full = FullTorqueKernel(rng.uniform(0.5, 2, 3), rng.uniform(0.1, 2, (3, 3)))
        diag = DiagTorqueKernel(rng.uniform(0.5, 2, 3), rng.uniform(0.1, 2, 3))
        for kernel in (full, diag):
            closures = [kernel.output_kernel(m) for m in range(3)]
            for _ in range(100):
                a, b = rng.normal(0, 2, 3), rng.normal(0, 2, 3)
                K = kernel(a, b)
                for m in range(3):
                    # only summation order differs between the two paths
                    assert entry(closures[m], a, b) == pytest.approx(K[m, m], rel=1e-13, abs=1e-300)

    def test_one_dimensional_reduction(self):
        k = FullTorqueKernel(np.array([1.0]), np.array([[1.7]]))
        km = k.output_kernel(0)
        base = SeArdKernel(np.array([1.0]), 1.0)
        a, b = np.array([0.4]), np.array([-1.1])
        assert entry(km, a, b) == pytest.approx(a[0] * b[0] * 1.7 * base(a, b), rel=1e-13)

    @pytest.mark.parametrize("kind", KERNEL_MAKERS)
    @pytest.mark.parametrize("same_inputs", [True, False])
    def test_shared_correlation_is_bitwise_identical(self, kind, same_inputs, monkeypatch):
        # both scalar kernels share one pairwise: with or without the
        # caller's corr it gives their closed form bit for bit, leaves corr
        # unchanged, and checks a batch passed as both X and X2 once
        rng = np.random.default_rng(8)
        kernel = KERNEL_MAKERS[kind](rng)
        X = rng.normal(0, 2, (9, 3))
        X2 = X if same_inputs else rng.normal(0, 2, (5, 3))
        corr = se_correlation(kernel.lengthscales, X, X2)
        before = corr.copy()
        checked = []

        def check_batch(Q, n, name):
            checked.append(name)
            return errors._check_batch(Q, n, name)

        monkeypatch.setattr(kernels, "_check_batch", check_batch)
        for m in range(3):
            km = kernel.output_kernel(m)
            if kind == "ard":
                expected = kernel.hypervariances[m] * corr
            else:
                expected = ((X * kernel.grid[m]) @ X2.T) * corr
            for given in (corr, None):
                checked.clear()
                assert np.array_equal(km.pairwise(X, X2, given), expected)
                assert checked == (["X"] if same_inputs else ["X", "X2"])
                assert np.array_equal(corr, before)

    @pytest.mark.parametrize("m2, n, scale", _CORRELATION_CASES, ids=[
        f"{m2}" if (n, scale) == (3, 3.0) else f"{m2}-n{n}-scale{scale:g}"
        for m2, n, scale in _CORRELATION_CASES
    ])
    def test_in_place_products_match_out_of_place_expressions_bitwise(self, m2, n, scale):
        rng = np.random.default_rng(30 + m2)
        ell = rng.uniform(0.3, 3.0, n)
        X = rng.normal(0, scale, (23, n))
        X2 = rng.normal(0, scale, (m2, n))
        X[1] = X[0]  # repeated points, within X and across the two sides
        X[2] = X2[0]
        X[3] = 0.0  # a zero row on each side
        X2[-1] = 0.0
        for A, B in ((X, X2), (X, X), (X2, X)):
            corr = reference_correlation(ell, A, B)
            assert np.array_equal(se_correlation(ell, A, B), corr)
            out = np.empty_like(corr)
            assert se_correlation(ell, A, B, out=out) is out
            assert np.array_equal(out, corr)
            kernel = FullTorqueKernel(ell, rng.uniform(0.1, 2, (n, n)))
            for m in range(n):
                row = kernel.grid[m]
                expected = corr * ((A * row) @ B.T)
                assert np.array_equal(kernel.output_kernel(m).pairwise(A, B, corr), expected)

    def test_overflowing_squared_norm_gives_a_number_where_the_reference_is_nan(self):
        # |s|^2 = 2.25e308 overflows and 2 s.s2 = 2.1e308 does too, so the
        # reference computes inf - inf; the rank-2 form adds -inf to a
        # finite s.s2 and gets exp(-inf) = 0, the true value's rounding
        ell, A, B = np.ones(1), np.array([[1.5e154]]), np.array([[0.7e154]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(reference_correlation(ell, A, B)[0, 0])
            assert se_correlation(ell, A, B)[0, 0] == 0.0

    @pytest.mark.parametrize("kind", KERNEL_MAKERS)
    @pytest.mark.parametrize("shapes", [
        ((3,), (4, 3)),  # one velocity, not a (1, N) row
        ((4, 3), (3,)),
        ((4, 2), (4, 3)),  # wrong width
        ((4, 3), (5, 4)),
        ((2, 4, 3), (4, 3)),  # three dimensions
        ((), (4, 3)),
    ])
    @pytest.mark.parametrize("with_corr", [False, True])
    def test_pairwise_rejects_bad_shapes(self, kind, shapes, with_corr):
        # SeArdKernel (ard) and the structured outputs (diag, full) name the
        # argument and the expected (M, N) instead of failing inside numpy
        kernel = KERNEL_MAKERS[kind](np.random.default_rng(9)).output_kernel(0)
        X, X2 = (np.ones(shape) for shape in shapes)
        corr = np.ones((4, 4)) if with_corr else None
        with pytest.raises(InputError, match=r"^X2? must have shape \(M, 3\), got"):
            kernel.pairwise(X, X2, corr)

    @pytest.mark.parametrize("kind", KERNEL_MAKERS)
    @pytest.mark.parametrize("corr_shape", [(4, 1), (1, 5), (), (5, 4), (20,), (4, 5, 1)])
    def test_pairwise_rejects_corr_of_another_shape(self, kind, corr_shape):
        # SeArdKernel (ard) and the structured outputs (diag, full): numpy
        # used to broadcast a (4, 1), (1, 5) or scalar corr to (4, 5)
        kernel = KERNEL_MAKERS[kind](np.random.default_rng(10)).output_kernel(0)
        message = re.escape(f"corr must have shape (4, 5), got {corr_shape}")
        with pytest.raises(InputError, match=message):
            kernel.pairwise(np.ones((4, 3)), np.ones((5, 3)), np.ones(corr_shape))

    def test_assemble_gram_rejects_a_corr_it_would_broadcast(self):
        # used to return a (3, 3) "Gram" from a (3, 1) correlation
        kernel = DiagTorqueKernel(np.ones(2), np.ones(2)).output_kernel(0)
        with pytest.raises(InputError, match=re.escape("corr must have shape (3, 3), got (3, 1)")):
            gp_core.assemble_gram(kernel, np.ones((3, 2)), np.ones((3, 1)))

    def test_index_out_of_range(self):
        k = DiagTorqueKernel(np.ones(2), np.ones(2))
        with pytest.raises(InputError):
            k.output_kernel(2)

    @pytest.mark.parametrize("kind", KERNEL_MAKERS)
    @pytest.mark.parametrize("m, message", [
        (3, "must be <= 2, got 3"), (-1, "must be >= 0, got -1"),
        (0.5, "must be an integer, got 0.5"), ("1", "must be an integer, got '1'"),
        (None, "must be an integer, got None"),
    ], ids=["3", "-1", "half", "str", "None"])
    def test_output_index_is_a_count(self, kind, m, message):
        # one past the last output and -1 raised their own range message,
        # 0.5 a bare IndexError, "1" and None a bare TypeError
        kernel = KERNEL_MAKERS[kind](np.random.default_rng(11))
        with pytest.raises(InputError, match=f"^{re.escape(f'output index {message}')}$"):
            kernel.output_kernel(m)

    def test_gram_psd_for_every_kernel_kind(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(2, 10))
            pts = rng.normal(0, 2, (d, n))
            kernels = [
                FullTorqueKernel(rng.uniform(0.5, 2, n), rng.uniform(0.1, 2, (n, n))),
                DiagTorqueKernel(rng.uniform(0.5, 2, n), rng.uniform(0.1, 2, n)),
                SeArdKernelBank(rng.uniform(0.5, 2, n), rng.uniform(0.1, 2, n)),
            ]
            for kernel in kernels:
                for m in range(n):
                    K = gp_core.assemble_gram(kernel.output_kernel(m), pts)
                    assert np.linalg.eigvalsh(K)[0] >= -1e-10 * max(np.trace(K), 1e-30)
