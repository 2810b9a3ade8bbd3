import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf, dpotrs

import dampgp
from dampgp import _lapack, gp_core, models, passivity
from dampgp.errors import InputError, NumericalError
from dampgp.kernels import DiagTorqueKernel, SeArdKernel


def se1(sigma2=1.0, ell=1.0):
    return SeArdKernel(np.array([ell]), sigma2)


class TestLapackLoader:
    def test_routines_are_scipys_own(self):
        # the same function objects, so every factor, solve and eigenvalue
        # is what scipy.linalg.lapack would give, bit for bit
        assert gp_core.dpotrf is scipy.linalg.lapack.dpotrf
        assert gp_core.dpotrs is scipy.linalg.lapack.dpotrs
        assert passivity.dsygvd is scipy.linalg.lapack.dsygvd
        assert passivity.dsyevd is scipy.linalg.lapack.dsyevd
        assert passivity.dsyevd_lwork is scipy.linalg.lapack.dsyevd_lwork

    def test_cold_import_skips_scipy_linalg_and_xml_sax(self):
        src = str(Path(dampgp.__file__).resolve().parents[1])
        env = os.environ | {
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        }
        code = ("import dampgp.cli, sys; "
                "print(sorted({'scipy.linalg', 'xml.sax'} & set(sys.modules)))")
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    def test_missing_extension_names_the_folder(self, tmp_path, monkeypatch):
        monkeypatch.delitem(sys.modules, _lapack.FLAPACK)
        message = re.escape(f"no LAPACK extension _flapack in {tmp_path}")
        with pytest.raises(ImportError, match=message):
            _lapack.load_flapack(tmp_path)

    def test_reuses_a_loaded_extension(self, tmp_path):
        assert _lapack.load_flapack(tmp_path) is sys.modules[_lapack.FLAPACK]


class TestAssembleGram:
    def test_zero_distance_pair(self):
        x = np.array([0.7])
        K = gp_core.assemble_gram(se1(), np.array([x, x]))
        assert np.allclose(K, np.ones((2, 2)))

    def test_single_point_amplitude(self):
        K = gp_core.assemble_gram(se1(sigma2=4.0), np.array([[1.3]]))
        assert np.allclose(K, [[4.0]])

    def test_hand_evaluated_offdiagonal(self):
        K = gp_core.assemble_gram(se1(), np.array([[0.0], [1.0]]))
        e = np.exp(-0.5)
        assert np.allclose(K, [[1.0, e], [e, 1.0]], atol=1e-15)

    @pytest.mark.parametrize("inputs", [[], np.empty((0, 1))])
    def test_empty_inputs_rejected(self, inputs):
        with pytest.raises(InputError, match="at least one"):
            gp_core.assemble_gram(se1(), inputs)

    def test_plain_callable_matches_vectorized(self):
        k = SeArdKernel(np.array([1.5, 0.7]), 2.0)
        pts = np.random.default_rng(0).normal(0, 1, (6, 2))
        K_fast = gp_core.assemble_gram(k, pts)
        K_slow = np.array([[k(a, b) for b in pts] for a in pts])
        assert np.allclose(K_fast, K_slow, atol=1e-14)

    def test_gram_psd_over_random_draws(self):
        # property: any valid kernel yields a PSD Gram up to -1e-10 * trace
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 12))
            k = SeArdKernel(rng.uniform(0.3, 3.0, n), float(rng.uniform(0.1, 5.0)))
            K = gp_core.assemble_gram(k, rng.normal(0, 2, (d, n)))
            assert np.linalg.eigvalsh(K)[0] >= -1e-10 * np.trace(K)


def upper_symmetric(gram):
    """The symmetric matrix given by ``gram``'s upper triangle."""
    return np.triu(gram) + np.triu(gram, 1).T


def copy_path_factorize(gram, noise_variance):
    """Reference: mirror the upper triangle once, then factor a fresh copy
    on every rung."""
    sym = upper_symmetric(gram)
    for jitter in (0.0, *gp_core.JITTER_LADDER):
        work = sym.copy()
        work.flat[:: len(work) + 1] += noise_variance + jitter
        factor, info = dpotrf(work.T, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return jitter, factor
    raise AssertionError("every rung failed")


def counting_rebuild(make):
    """A ``rebuild`` for ``factorize`` that returns ``make()``, and the list
    it appends to on each call."""
    calls = []

    def rebuild():
        calls.append(None)
        return make()

    return rebuild, calls


class TestFactorize:
    def test_scalar(self):
        fact = gp_core.factorize(np.array([[1.0]]), 1.0)
        assert fact.jitter_used == 0.0
        assert np.allclose(np.tril(fact.raw_factor), [[np.sqrt(2.0)]])

    def test_zero_gram_noise_only(self):
        fact = gp_core.factorize(np.zeros((2, 2)), 4.0)
        assert np.allclose(np.tril(fact.raw_factor), 2.0 * np.eye(2))

    def test_singular_gram_engages_jitter_ladder(self):
        fact = gp_core.factorize(np.ones((2, 2)), 0.0)
        assert fact.jitter_used > 0.0

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        A = rng.normal(0, 1, (5, 5))
        gram = A @ A.T
        fact = gp_core.factorize(gram, 0.5)
        target = 0.5 * (gram + gram.T) + (0.5 + fact.jitter_used) * np.eye(5)
        rebuilt = np.tril(fact.raw_factor) @ np.tril(fact.raw_factor).T
        assert np.linalg.norm(rebuilt - target) <= 1e-8 * np.linalg.norm(target)

    def test_negative_noise_rejected(self):
        with pytest.raises(InputError):
            gp_core.factorize(np.eye(2), -1.0)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    def test_non_square_gram_rejected(self, shape):
        with pytest.raises(InputError, match="gram must be square"):
            gp_core.factorize(np.ones(shape), 0.1)

    def test_deterministic(self):
        gram = np.array([[2.0, 0.3], [0.3, 1.0]])
        f1 = gp_core.factorize(gram, 0.1)
        f2 = gp_core.factorize(gram, 0.1)
        assert np.array_equal(np.tril(f1.raw_factor), np.tril(f2.raw_factor))

    def test_factor_is_exactly_lower_triangular(self):
        A = np.random.default_rng(4).normal(0, 1, (6, 6))
        fact = gp_core.factorize(A @ A.T, 0.3)
        assert np.array_equal(np.triu(np.tril(fact.raw_factor), 1), np.zeros((6, 6)))
        assert np.all(np.diag(np.tril(fact.raw_factor)) > 0)

    def test_input_gram_is_left_unchanged(self):
        gram = np.random.default_rng(5).normal(0, 1, (5, 5)) + 5.0 * np.eye(5)
        before = gram.copy()
        gp_core.factorize(gram, 0.3)
        assert np.array_equal(gram, before)

    def test_non_symmetric_gram_factors_its_upper_triangle(self):
        rng = np.random.default_rng(6)
        A = rng.normal(0, 1, (5, 5))
        gram = A @ A.T + 1e-3 * rng.normal(0, 1, (5, 5))
        fact = gp_core.factorize(gram, 0.2)
        expected = gp_core.factorize(upper_symmetric(gram), 0.2)
        assert np.array_equal(np.tril(fact.raw_factor), np.tril(expected.raw_factor))

    @pytest.mark.parametrize("case", ["rank-deficient", "plain"])
    def test_entries_below_the_diagonal_are_never_read(self, case):
        # "rank-deficient" needs a jittered rung, "plain" passes on rung 0
        rng = np.random.default_rng(14)
        B = rng.normal(0, 1, (20, 4))
        gram = B @ B.T + (np.eye(20) if case == "plain" else -1e-7 * np.eye(20))
        expected = gp_core.factorize(gram, 0.0)
        assert (expected.jitter_used > 0.0) == (case == "rank-deficient")
        below = np.tril_indices(20, -1)
        for draw in range(3):
            other = gram.copy()
            other[below] = rng.normal(0, 10.0 ** (3 * draw), len(below[0]))
            strided = np.zeros((40, 60))
            strided[::2, ::3] = other
            for layout in (other, np.asfortranarray(other), strided[::2, ::3]):
                fact = gp_core.factorize(layout, 0.0)
                assert fact.jitter_used == expected.jitter_used
                assert np.array_equal(np.tril(fact.raw_factor), np.tril(expected.raw_factor))

    @pytest.mark.parametrize("where", [(2, 0), (1, 1), (0, 2)], ids=["below", "on", "above"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_anywhere_rejected(self, where, bad):
        gram = 3.0 * np.eye(3)
        gram[where] = bad
        with pytest.raises(InputError, match="non-finite"):
            gp_core.factorize(gram, 0.1)

    def test_jitter_ladder_rung_is_deterministic(self):
        # minimum eigenvalue -1e-9: rungs up to 1e-9 fail, 1e-8 is the first to pass
        gram = np.array([[1.0, 1.0 + 1e-9], [1.0 + 1e-9, 1.0]])
        facts = [gp_core.factorize(gram, 0.0) for _ in range(2)]
        assert [f.jitter_used for f in facts] == [1e-8, 1e-8]
        assert np.array_equal(np.tril(facts[0].raw_factor), np.tril(facts[1].raw_factor))
        assert np.array_equal(np.triu(np.tril(facts[0].raw_factor), 1), np.zeros((2, 2)))

    def test_jittered_rung_solves_as_cho_solve_on_its_factor(self):
        # the array handed to dpotrs keeps gram's entry below the diagonal
        # above the factor; dpotrs must read the factor alone, as cho_solve
        # on the exactly triangular factor does
        gram = np.array([[1.0, 1.0 + 1e-9], [1.0 + 1e-9, 1.0]])
        fact = gp_core.factorize(gram, 0.0)
        assert fact.jitter_used == 1e-8
        assert fact.raw_factor[0, 1] == gram[1, 0]
        assert np.array_equal(np.triu(np.tril(fact.raw_factor), 1), np.zeros((2, 2)))
        rhs = np.random.default_rng(15).normal(0, 1, (2, 3))
        for b in (rhs, rhs[:, 0]):
            assert np.array_equal(fact.solve(b), cho_solve((np.tril(fact.raw_factor), True), b))

    def test_absolute_rungs_cannot_lift_rounding_beyond_the_top_rung(self):
        # minimum eigenvalue -0.25, an ulp of the diagonal 2^50: sigma^2 =
        # 1e-3 and every rung round away, while the same matrix and sigma^2
        # scaled by 2^-50 pass on the first rung
        big = 2.0**50
        gram = np.array([[big, big + 0.25], [big + 0.25, big]])
        with pytest.raises(NumericalError, match="every jitter level"):
            gp_core.factorize(gram, 1e-3)
        assert gp_core.factorize(gram / big, 1e-3 / big).jitter_used == 1e-12

    @pytest.mark.parametrize("case", ["2x2", "rank-deficient", "non-symmetric", "plain"])
    def test_matches_copy_path_bitwise(self, case):
        rng = np.random.default_rng(12)
        B = rng.normal(0, 1, (30, 5))
        gram = {
            "2x2": np.array([[1.0, 1.0 + 1e-9], [1.0 + 1e-9, 1.0]]),
            "rank-deficient": B @ B.T - 1e-7 * np.eye(30),
            "non-symmetric": B @ B.T - 1e-7 * np.eye(30) + 1e-12 * rng.normal(0, 1, (30, 30)),
            "plain": B @ B.T + np.eye(30),
        }[case]
        before = gram.copy()
        fact = gp_core.factorize(gram, 0.0)
        jitter, factor = copy_path_factorize(gram, 0.0)
        assert (fact.jitter_used > 0.0) == (case != "plain")
        assert fact.jitter_used == jitter
        assert np.array_equal(np.tril(fact.raw_factor), factor)
        assert np.array_equal(gram, before)
        # with rebuild: the same rung and factor, one rebuild per failed rung
        rebuild, calls = counting_rebuild(before.copy)
        fact = gp_core.factorize(before.copy(), 0.0, rebuild=rebuild)
        assert fact.jitter_used == jitter
        assert np.array_equal(np.tril(fact.raw_factor), factor)
        assert len(calls) == (0.0, *gp_core.JITTER_LADDER).index(jitter)
        if case == "2x2":
            assert len(calls) == 5  # rungs 0 to 1e-9 fail, 1e-8 passes

    @pytest.mark.parametrize("case", ["rank-deficient", "plain"])
    def test_memory_layout_does_not_change_the_factor(self, case):
        # the noise goes onto the diagonal through a view of the working
        # array, so C-ordered, F-ordered and strided input must all get it
        rng = np.random.default_rng(13)
        B = rng.normal(0, 1, (30, 5))
        # the noise 0.25 lifts the plain matrix clear of 0 and leaves the
        # rank-5 one 1e-7 below, so that it needs the jitter ladder
        gram = B @ B.T + (np.eye(30) if case == "plain" else -(0.25 + 1e-7) * np.eye(30))
        gram += 1e-12 * rng.normal(0, 1, (30, 30))  # not symmetric
        strided = np.zeros((60, 90))
        strided[::2, ::3] = gram
        layouts = [gram, np.asfortranarray(gram), strided[::2, ::3]]
        assert layouts[1].flags.f_contiguous and not layouts[1].flags.c_contiguous
        assert not (layouts[2].flags.c_contiguous or layouts[2].flags.f_contiguous)
        jitter, factor = copy_path_factorize(gram, 0.25)
        assert (jitter > 0.0) == (case == "rank-deficient")
        for layout in layouts:
            fact = gp_core.factorize(layout, 0.25)
            assert fact.jitter_used == jitter
            assert np.array_equal(np.tril(fact.raw_factor), factor)

        def in_layout(i):
            """A fresh copy of gram in the layout of layouts[i]."""
            if i < 2:
                return np.array(layouts[i], order="K")
            fresh = np.zeros((60, 90))
            fresh[::2, ::3] = gram
            return fresh[::2, ::3]

        for i in range(3):
            assert in_layout(i).strides == layouts[i].strides
            fact = gp_core.factorize(in_layout(i), 0.25, rebuild=lambda: in_layout(i))
            assert fact.jitter_used == jitter
            assert np.array_equal(np.tril(fact.raw_factor), factor)

    def test_rebuild_factors_a_c_ordered_gram_in_place(self):
        A = np.random.default_rng(17).normal(0, 1, (6, 6))
        gram = A @ A.T
        expected = gp_core.factorize(gram, 0.3)
        assert not np.shares_memory(expected.raw_factor, gram)
        rebuild, calls = counting_rebuild(lambda: A @ A.T)
        fact = gp_core.factorize(gram, 0.3, rebuild=rebuild)
        assert np.shares_memory(fact.raw_factor, gram)
        assert calls == []
        assert np.array_equal(np.tril(fact.raw_factor), np.tril(expected.raw_factor))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gram_rejected_before_rebuild(self, bad):
        gram = 3.0 * np.eye(3)
        gram[2, 0] = bad
        rebuild, calls = counting_rebuild(lambda: 3.0 * np.eye(3))
        with pytest.raises(InputError, match="non-finite"):
            gp_core.factorize(gram, 0.1, rebuild=rebuild)
        assert calls == []

    @pytest.mark.parametrize("rhs_shape", [(7,), (7, 3)])
    def test_solve_matches_cho_solve_bitwise(self, rhs_shape):
        rng = np.random.default_rng(11)
        A = rng.normal(0, 1, (7, 7))
        fact = gp_core.factorize(A @ A.T, 0.3)
        rhs = rng.normal(0, 1, rhs_shape)
        assert np.array_equal(fact.solve(rhs), cho_solve((np.tril(fact.raw_factor), True), rhs))

    @pytest.mark.parametrize("rhs", [3.0, np.ones((2, 1, 3)), np.ones(3), np.ones((3, 2))],
                             ids=["0-D", "3-D", "short", "short-2-D"])
    def test_solve_rejects_rhs_of_another_shape(self, rhs):
        # a 0-D rhs used to raise a bare IndexError, a 3-D one reached dpotrs
        fact = gp_core.factorize(np.eye(2), 0.1)
        message = re.escape(f"rhs must have shape (2,) or (2, K), got {np.shape(rhs)}")
        with pytest.raises(InputError, match=message):
            fact.solve(rhs)

    def test_every_rung_failing_raises(self):
        with pytest.raises(NumericalError, match="every jitter level"):
            gp_core.factorize(-np.eye(2), 0.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_inputs_rejected(self, bad):
        gram = np.eye(2)
        gram[0, 1] = bad
        with pytest.raises(InputError, match="non-finite"):
            gp_core.factorize(gram, 0.1)
        with pytest.raises(InputError, match="finite"):
            gp_core.factorize(np.eye(2), bad)


@pytest.mark.parametrize("kind", models.KINDS)
def test_fit_solves_match_copy_path_and_dpotrs_bitwise(kind):
    # per output at D=50: the copy path's exactly triangular factor, then
    # the dpotrs call of cho_solve
    rng = np.random.default_rng(16)
    ell, hyp = rng.uniform(0.5, 2.0, 3), rng.uniform(0.2, 2.0, 3)
    kernel = models.KERNEL_TYPES[kind](ell, np.outer(hyp, hyp) if kind == "full" else hyp)
    prior = models.PriorMean.zero(3) if kind == "ard" else models.PriorMean(rng.uniform(0, 1, 3))
    data = models.Dataset(rng.uniform(-2, 2, (50, 3)), rng.normal(0, 1, (50, 3)))
    model = models.fit(kind, kernel, prior, data, 0.4)
    resid = data.torques - prior.torque(data.velocities)
    for m, solve in enumerate(model.residual_solves):
        gram = kernel.output_kernel(m).pairwise(data.velocities, data.velocities)
        _, factor = copy_path_factorize(gram, 0.4)
        expected, info = dpotrs(factor, resid[:, m], lower=1)
        assert info == 0
        assert np.array_equal(solve, expected)


class TestPosterior:
    def test_zero_residual_returns_prior(self):
        fact = gp_core.factorize(np.eye(3), 0.5)
        prior_tr = np.array([1.0, -2.0, 0.5])
        res = gp_core.posterior(
            fact,
            np.random.default_rng(0).normal(0, 1, (3, 2)),
            prior_tr,
            np.array([7.0, -1.0]),
            prior_tr,
        )
        assert np.allclose(res.mean, [7.0, -1.0])

    def test_scalar_closed_form(self):
        k, s, c, r, mstar = 2.0, 0.5, 0.8, 1.5, 0.3
        fact = gp_core.factorize(np.array([[k]]), s)
        res = gp_core.posterior(
            fact, np.array([[c]]), np.array([0.0]), np.array([mstar]), np.array([r])
        )
        assert res.mean[0] == pytest.approx(mstar + c * r / (k + s), rel=1e-12)

    def test_matches_dense_inverse_2x2(self):
        rng = np.random.default_rng(5)
        A = rng.normal(0, 1, (2, 2))
        gram = A @ A.T + 0.5 * np.eye(2)
        s = 0.3
        cross = rng.normal(0, 1, (2, 3))
        y = rng.normal(0, 1, 2)
        m_tr = rng.normal(0, 1, 2)
        m_te = rng.normal(0, 1, 3)
        fact = gp_core.factorize(gram, s)
        res = gp_core.posterior(fact, cross, m_tr, m_te, y)
        Ky_inv = np.linalg.inv(0.5 * (gram + gram.T) + s * np.eye(2))
        mean_ref = m_te + cross.T @ Ky_inv @ (y - m_tr)
        assert np.allclose(res.mean, mean_ref, rtol=1e-10)

    def test_shape_mismatch(self):
        fact = gp_core.factorize(np.eye(2), 0.1)
        with pytest.raises(InputError):
            gp_core.posterior(
                fact, np.ones((3, 1)), np.zeros(2), np.zeros(1), np.zeros(2)
            )

    @pytest.mark.parametrize("bad", ["prior_mean_train", "observations", "prior_mean_test"])
    def test_vector_shapes_checked(self, bad):
        fact = gp_core.factorize(np.eye(2), 0.1)
        args = {"prior_mean_train": np.zeros(2), "prior_mean_test": np.zeros(3),
                "observations": np.zeros(2)}
        args[bad] = np.zeros(4)
        with pytest.raises(InputError, match=f"{bad} shape mismatch"):
            gp_core.posterior(fact, np.ones((2, 3)), **args)

    @pytest.mark.parametrize("cross_cov, n_test", [
        (np.array(0.8), 1),  # 0-D: used to raise IndexError
        (np.ones((2, 3, 1)), 3),  # 3-D: used to be blamed on prior_mean_test
    ], ids=["0-D", "3-D"])
    def test_cross_cov_must_be_2d(self, cross_cov, n_test):
        d = 1 if cross_cov.ndim == 0 else 2
        fact = gp_core.factorize(np.eye(d), 0.1)
        message = re.escape(f"cross_cov must have shape ({d}, M), got {cross_cov.shape}")
        with pytest.raises(InputError, match=message):
            gp_core.posterior(fact, cross_cov, np.zeros(d), np.zeros(n_test), np.zeros(d))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        k = SeArdKernel(np.array([1.2]), 1.5)
        X = rng.normal(0, 1, (6, 1))
        y = rng.normal(0, 1, 6)
        Xs = rng.normal(0, 1, (3, 1))
        perm = rng.permutation(6)

        def post(Xp, yp):
            fact = gp_core.factorize(gp_core.assemble_gram(k, Xp), 0.2)
            return gp_core.posterior(
                fact, k.pairwise(Xp, Xs), np.zeros(6), np.zeros(3), yp
            ).mean

        assert np.allclose(post(X, y), post(X[perm], y[perm]), rtol=1e-10)

    def test_huge_noise_recovers_prior_mean(self):
        rng = np.random.default_rng(8)
        k = SeArdKernel(np.array([1.0]), 1.0)
        X = rng.normal(0, 1, (5, 1))
        y = rng.normal(0, 1, 5)
        m_te = np.array([0.4, -0.2])
        fact = gp_core.factorize(gp_core.assemble_gram(k, X), 1e12)
        Xs = rng.normal(0, 1, (2, 1))
        res = gp_core.posterior(fact, k.pairwise(X, Xs), np.zeros(5), m_te, y)
        assert np.allclose(res.mean, m_te, atol=1e-6)


class TestJointMultiOutputOracle:
    def test_zero_residual(self):
        Q = np.array([[1.0, 2.0], [0.5, -1.0]])
        coeffs = np.array([1.0, 3.0])
        data = models.Dataset(Q, Q * coeffs)
        k = DiagTorqueKernel(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        means = gp_core.joint_multi_output_oracle(
            k, data, lambda qd: coeffs * qd, [np.array([0.3, 0.7])], 0.1
        )
        assert np.allclose(means[0], coeffs * np.array([0.3, 0.7]))

    def test_diagonal_kernel_equals_independent_solves(self):
        rng = np.random.default_rng(9)
        n, d = 2, 3
        k = DiagTorqueKernel(rng.uniform(0.5, 2, n), rng.uniform(0.2, 1.5, n))
        Q = rng.uniform(-2, 2, (d, n))
        Y = rng.normal(0, 1, (d, n))
        data = models.Dataset(Q, Y)
        nv = 0.4
        oracle = gp_core.joint_multi_output_oracle(
            k, data, lambda qd: np.zeros(n), [Q[0], np.array([0.1, -0.5])], nv
        )
        for qs, mean in zip([Q[0], np.array([0.1, -0.5])], oracle):
            for m in range(n):
                km = k.output_kernel(m)
                fact = gp_core.factorize(gp_core.assemble_gram(km, Q), nv)
                ref = gp_core.posterior(
                    fact,
                    km.pairwise(Q, qs[None, :]),
                    np.zeros(d),
                    np.zeros(1),
                    Y[:, m],
                ).mean[0]
                assert mean[m] == pytest.approx(ref, rel=1e-8, abs=1e-12)

    def test_single_output_degenerates_to_scalar_posterior(self):
        rng = np.random.default_rng(10)
        k = DiagTorqueKernel(np.array([1.0]), np.array([0.8]))
        Q = rng.uniform(-1, 1, (4, 1))
        Y = rng.normal(0, 1, (4, 1))
        data = models.Dataset(Q, Y)
        qs = np.array([0.25])
        means = gp_core.joint_multi_output_oracle(
            k, data, lambda qd: np.zeros(1), [qs], 0.3
        )
        km = k.output_kernel(0)
        fact = gp_core.factorize(gp_core.assemble_gram(km, Q), 0.3)
        ref = gp_core.posterior(
            fact, km.pairwise(Q, qs[None, :]), np.zeros(4), np.zeros(1), Y[:, 0]
        ).mean[0]
        assert means[0][0] == pytest.approx(ref, rel=1e-12)

    def test_size_cap(self):
        rng = np.random.default_rng(11)
        Q = rng.normal(0, 1, (1001, 2))
        data = models.Dataset(Q, np.zeros_like(Q))
        k = DiagTorqueKernel(np.ones(2), np.ones(2))
        with pytest.raises(InputError):
            gp_core.joint_multi_output_oracle(k, data, lambda qd: np.zeros(2), [], 0.1)
