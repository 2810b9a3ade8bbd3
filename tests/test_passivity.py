import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from dampgp import bench, models, passivity
from dampgp.errors import InfeasibilityError, InputError, NumericalError
from dampgp.kernels import DiagTorqueKernel, FullTorqueKernel
from dampgp.models import Dataset, PriorMean, fit, fit_prior_mean
from dampgp.passivity import (
    BoundCheck,
    check_bound,
    check_bound_diag,
    check_bound_full,
    compute_bound,
    enforce_bound,
    passivity_sweep,
)


class TestComputeBound:
    def test_hand_scalar_example(self):
        # D=1, qd=1, y=2, m_d=1 -> residual 1, c = nv / (1*1*1)
        data = Dataset(np.array([[1.0]]), np.array([[2.0]]))
        bound = compute_bound(data, PriorMean(np.array([1.0])), 1.0, np.array([1.0]))
        assert bound.c == pytest.approx(1.0, rel=1e-15)
        assert np.array_equal(bound.mean_coefficients, [1.0])
        assert bound.diagonal
        # doubling the residual or the velocity scale halves c
        data2 = Dataset(np.array([[1.0]]), np.array([[3.0]]))
        assert compute_bound(data2, PriorMean(np.array([1.0])), 1.0, np.array([1.0])).c == 0.5
        data3 = Dataset(np.array([[2.0]]), np.array([[3.0]]))
        assert compute_bound(data3, PriorMean(np.array([1.0])), 1.0, np.array([1.0])).c == 0.5

    def test_c_scales_linearly_with_noise(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.uniform(-2, 2, (6, 2)), rng.normal(0, 1, (6, 2)))
        prior = PriorMean(np.array([0.5, 0.2]))
        hyp = np.array([0.3, 0.4])
        c1 = compute_bound(data, prior, 1.0, hyp).c
        for nv in (0.25, 2.0, 7.5):
            c = compute_bound(data, prior, nv, hyp).c
            assert c == pytest.approx(nv * c1, rel=1e-12)

    def test_zero_residual_is_vacuous(self):
        q = np.array([[1.0, -2.0]])
        data = Dataset(q, q * np.array([3.0, 0.5]))
        bound = compute_bound(data, PriorMean(np.array([3.0, 0.5])), 1.0, np.ones(2))
        assert math.isinf(bound.c)
        assert check_bound_diag(bound).feasible

    def test_zero_velocities_is_vacuous(self):
        data = Dataset(np.zeros((3, 2)), np.ones((3, 2)))
        bound = compute_bound(data, PriorMean.zero(2), 1.0, np.ones(2))
        assert math.isinf(bound.c)

    def test_grid_is_the_hypervariances(self):
        # the bound holds the sigma_f^2 grid the kernel multiplies by
        data = Dataset(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        bound = compute_bound(data, PriorMean.zero(2), 1.0, np.array([4.0, 9.0]))
        assert np.array_equal(bound.hypervariance_matrix, [[4.0, 0.0], [0.0, 9.0]])
        hyp = np.array([[4.0, 1.0], [1.0, 9.0]])
        bound_m = compute_bound(data, PriorMean.zero(2), 1.0, hyp)
        assert np.array_equal(bound_m.hypervariance_matrix, hyp)
        hyp[0, 0] = 5.0  # the bound keeps its own copy
        assert bound_m.hypervariance_matrix[0, 0] == 4.0

    def test_bound_tightens_as_data_appends(self):
        # c never increases when more samples are appended to the dataset
        rng = np.random.default_rng(1)
        prior = PriorMean(np.array([1.0, 1.0]))
        hyp = np.ones(2)
        q = rng.uniform(-2, 2, (100, 2))
        y = q * prior.coefficients + rng.normal(0, 1, (100, 2))
        prev = math.inf
        for d in range(1, 101):
            c = compute_bound(Dataset(q[:d], y[:d]), prior, 1.0, hyp).c
            assert c <= prev + 1e-15 * abs(prev if math.isfinite(prev) else 0.0)
            prev = c

    def test_negative_hypervariance_rejected(self):
        data = Dataset(np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(InputError):
            compute_bound(data, PriorMean.zero(1), 1.0, np.array([-1.0]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_hypervariance_rejected(self, bad):
        data = Dataset(np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(InputError):
            compute_bound(data, PriorMean.zero(1), 1.0, np.array([bad]))
        with pytest.raises(InputError):
            compute_bound(data, PriorMean.zero(1), 1.0, np.array([[1.0, 1.0], [bad, 1.0]]))

    @pytest.mark.parametrize("hyp", [np.ones(2), np.ones((2, 2)), np.ones((3, 3, 3))])
    def test_grid_of_another_dimension_rejected(self, hyp):
        # a 2-vector grid on 3-D data used to pass here and fail in dsygvd
        rng = np.random.default_rng(17)
        q = rng.uniform(-2, 2, (6, 3))
        data = Dataset(q, 2.0 * q)
        with pytest.raises(InputError, match="3-vector or 3 x 3 matrix") as err:
            compute_bound(data, PriorMean(np.ones(3)), 1.0, hyp)
        assert f"got shape {hyp.shape}" in str(err.value)
        bound = compute_bound(data, PriorMean(np.ones(3)), 1.0, np.ones(3))
        with pytest.raises(InputError, match="3-vector"):
            bound.with_grid(hyp)

    def test_prior_of_another_dimension_rejected(self):
        # used to fail with a numpy broadcast error
        q = np.random.default_rng(18).uniform(-2, 2, (6, 3))
        with pytest.raises(InputError, match="2 coefficients for 3-dimensional data"):
            compute_bound(Dataset(q, 2.0 * q), PriorMean(np.ones(2)), 1.0, np.ones(3))


    @pytest.mark.parametrize("nv", [-100.0, -math.inf, math.inf, math.nan, 0.0])
    def test_bad_noise_variance_rejected(self, nv):
        # fit's rule: a negative or NaN c has no feasible scale, and c = 0
        # none but the zero grid
        data = Dataset(np.ones((1, 1)), 2.0 * np.ones((1, 1)))
        with pytest.raises(InputError, match="noise_variance must be finite and > 0"):
            compute_bound(data, PriorMean(np.array([1.0])), nv, np.array([1.0]))

    def test_with_grid_is_compute_bound_on_the_new_grid(self):
        rng = np.random.default_rng(16)
        for layout in ("diag", "sym", "full"):
            data, prior, nv, bound = random_bound(rng, layout)
            hyp = rng.uniform(0.01, 5.0, (data.n_dim,) if layout == "diag" else (data.n_dim,) * 2)
            moved, ref = bound.with_grid(hyp), compute_bound(data, prior, nv, hyp)
            assert moved.c == ref.c
            assert np.array_equal(moved.hypervariance_matrix, ref.hypervariance_matrix)
            assert np.array_equal(moved.mean_coefficients, ref.mean_coefficients)
            assert moved.diagonal == ref.diagonal
        with pytest.raises(InputError):
            bound.with_grid(np.full(data.n_dim, math.inf))
        with pytest.raises(InputError):
            bound.with_grid(-np.ones((data.n_dim, data.n_dim)))


def bound_with_c(c, m_d, hyp):
    """Bound object with exactly the requested c (direct construction)."""
    grid, diagonal = passivity._grid(hyp, len(m_d))
    return passivity.PassivityBound(
        c=c,
        hypervariance_matrix=grid,
        mean_coefficients=np.asarray(m_d, dtype=float),
        diagonal=diagonal,
    )


class TestCheckBound:
    def test_full_marginal_case(self):
        # c*diag(m_d) - grid = 2*I - ones(2x2): eigs {0, 2} -> feasible, margin 0
        bound = bound_with_c(2.0, [1.0, 1.0], np.ones((2, 2)))
        check = check_bound_full(bound)
        assert check.feasible
        assert check.margin == pytest.approx(0.0, abs=1e-12)

    def test_full_infeasible(self):
        bound = bound_with_c(1.0, [1.0, 1.0], 4.0 * np.ones((2, 2)))
        assert not check_bound_full(bound).feasible
        # c = +inf (a vanishing residual or velocity) is vacuously feasible
        assert check_bound_full(replace(bound, c=math.inf)) == BoundCheck(True, math.inf)

    def test_zero_sigma_f_always_feasible(self):
        bound = bound_with_c(1e-30, [0.0, 0.0], np.zeros((2, 2)))
        assert check_bound_full(bound).feasible

    def test_zero_mean_nonzero_sigma_infeasible(self):
        bound = bound_with_c(5.0, [0.0], np.array([1.0]))
        assert not check_bound_diag(bound).feasible

    def test_diag_margins(self):
        bound = bound_with_c(2.0, [1.0, 3.0], np.array([1.0, 4.0]))
        check = check_bound_diag(bound)
        assert check.feasible
        assert check.margin == pytest.approx(1.0)  # min_n c*m_d_n - sigma_f_n^2

    def test_grid_below_one_checked_on_itself(self):
        # sigma_f^2 = 0.4 <= c*m_d = 0.5 although sigma_f = 0.63 exceeds it
        bound = bound_with_c(0.5, [1.0], np.array([0.4]))
        check = check_bound(bound)
        assert check.feasible
        assert check.margin == pytest.approx(0.1, rel=1e-12)
        assert check_bound(bound_with_c(0.5, [1.0], np.array([[0.4]]))).feasible
        assert enforce_bound(bound).alpha == 1.0

    def test_diag_check_rejects_matrix_bound(self):
        bound = bound_with_c(1.0, [1.0, 1.0], np.ones((2, 2)))
        with pytest.raises(InputError):
            check_bound_diag(bound)


class TestEnforceBound:
    def test_already_feasible_untouched(self):
        bound = bound_with_c(10.0, [1.0, 1.0], np.array([1.0, 1.0]))
        res = enforce_bound(bound)
        assert res.alpha == 1.0
        assert np.array_equal(res.hypervariances, [1.0, 1.0])

    def test_scale_alpha_half(self):
        # sigma_f^2 = 2 with c*m_d = 1 -> alpha = 1/2 scales it to 1
        bound = bound_with_c(1.0, [1.0], np.array([2.0]))
        res = enforce_bound(bound)
        assert res.alpha == pytest.approx(0.5, rel=1e-9)
        assert res.hypervariances[0] == res.alpha * 2.0
        assert check_bound(bound.with_grid(res.hypervariances)).feasible

    def test_scale_full_matrix(self):
        bound = bound_with_c(1.0, [1.0, 1.0], 2.0 * np.ones((2, 2)))
        res = enforce_bound(bound)
        # largest alpha with alpha*2*ones PSD-dominated by I is 1/4 (eigs 2*2*alpha)
        assert res.alpha == pytest.approx(0.25, rel=1e-8)
        assert np.array_equal(res.hypervariances, res.alpha * 2.0 * np.ones((2, 2)))
        assert check_bound(bound.with_grid(res.hypervariances)).feasible

    def test_scale_infeasible_zero_mean(self):
        bound = bound_with_c(1.0, [0.0], np.array([1.0]))
        with pytest.raises(InfeasibilityError):
            enforce_bound(bound)

    @pytest.mark.parametrize("grid", [np.array([4.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]])])
    def test_zero_c_rejects_a_nonzero_grid(self, grid):
        # c = 0 leaves only the zero grid: alpha = c / c* = 0, with no branch of its own
        bound = bound_with_c(0.0, [1.0, 2.0], grid)
        with pytest.raises(InfeasibilityError, match="prior mean too small"):
            enforce_bound(bound)

    def test_zero_c_keeps_a_zero_grid(self):
        bound = bound_with_c(0.0, [1.0, 2.0], np.zeros(2))
        res = enforce_bound(bound)
        assert res.alpha == 1.0
        assert check_bound(bound.with_grid(res.hypervariances)).feasible

    def test_underflowing_scale_infeasible(self):
        # c / c* = 1.6e-301 / 1e30 underflows to alpha = 0
        data = Dataset(np.array([[1.0], [2.0]]), np.array([[3.0], [1.0]]))
        bound = compute_bound(data, PriorMean(np.array([1.0])), 1e-300, np.array([1e30]))
        assert 0.0 < bound.c < 1e-300
        with pytest.raises(InfeasibilityError, match="prior mean too small"):
            enforce_bound(bound)

    @pytest.mark.parametrize("c", [math.nan, -1.0, -math.inf])
    def test_nan_or_negative_c_rejected(self, c):
        # no scale passes such a bound, so the ulp step-down would not end
        with pytest.raises(InputError, match="bound factor c"):
            enforce_bound(bound_with_c(c, [1.0], np.array([2.0])))

    def test_mode_keyword_rejected(self):
        # scaling the grid is the only projection
        bound = bound_with_c(1.0, [1.0], np.array([2.0]))
        with pytest.raises(TypeError):
            enforce_bound(bound, mode="raise_noise")

    def test_result_is_alpha_times_grid_in_input_layout(self):
        # only the grid is scaled, and the result keeps the input's layout
        rng = np.random.default_rng(14)
        for layout in ("diag", "sym", "full"):
            *_, bound = random_bound(rng, layout)
            res = enforce_bound(bound)
            scaled = res.alpha * bound.hypervariance_matrix
            assert np.array_equal(res.hypervariances, np.diag(scaled) if bound.diagonal else scaled)
            assert check_bound(bound.with_grid(res.hypervariances)).feasible

    def test_step_down_stays_within_ulps_of_closed_form(self):
        # alpha * grid can round past c*m_d; the result still passes the
        # check and alpha moves only a few ulps below c / c*
        rng = np.random.default_rng(15)
        stepped = 0
        for _ in range(2000):
            hyp = rng.uniform(0.1, 10.0, 1)
            m_d = rng.uniform(0.1, 10.0, 1)
            c = float(rng.uniform(0.01, 1.0) * hyp[0] / m_d[0])
            bound = bound_with_c(c, m_d, hyp)
            res = enforce_bound(bound)
            closed = c / passivity._critical_c(bound)
            assert check_bound(bound.with_grid(res.hypervariances)).feasible
            assert closed - 4 * np.spacing(closed) <= res.alpha <= closed
            stepped += res.alpha < closed
        assert stepped > 0


def bisection_oracle(bound):
    """Bisection for the largest feasible scale of the grid, the reference
    for the closed form, bisected to 1e-10 relative on the public check."""
    check = check_bound_diag if bound.diagonal else check_bound_full

    def feasible(scale):
        return check(replace(bound, hypervariance_matrix=scale * bound.hypervariance_matrix)).feasible

    if feasible(1.0):
        return 1.0
    lo, hi = 1e-15, 1.0  # lo feasible, hi infeasible
    assert feasible(lo)
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def random_bound(rng, layout, n=None, d=None):
    """compute_bound on a random dataset, with the data, prior and noise
    variance returned for rebuilding.

    layout: "diag" (N-vector), "sym" (symmetric N x N grid) or "full"
    (independent, generally non-symmetric N x N grid).
    """
    n = n or int(rng.integers(1, 5))
    d = d or int(rng.integers(2, 30))
    q = rng.uniform(-3.0, 3.0, (d, n))
    prior = PriorMean(rng.uniform(0.3, 3.0, n))
    data = Dataset(q, q * prior.coefficients + rng.normal(0.0, 1.0, (d, n)))
    if layout == "diag":
        hyp = rng.uniform(0.01, 5.0, n)
    else:
        hyp = rng.uniform(0.01, 5.0, (n, n)) * 10.0 ** rng.uniform(-2.0, 2.0, (n, n))
        if layout == "sym":
            hyp = 0.5 * (hyp + hyp.T)
    nv = float(10.0 ** rng.uniform(-2.0, 2.0))
    return data, prior, nv, compute_bound(data, prior, nv, hyp)


class TestSymmetricPartCondition:
    """The full check is a PSD test of the symmetric part of c*diag(m_d) - grid."""

    def test_asymmetric_grid_regression(self):
        # Only the upper triangle of the grid is large: a lower-triangle
        # eigen-solve sees a feasible matrix, the quadratic form does not.
        system = bench.get_system("full3")
        q = bench.sample_trajectory(system, 60, seed=0, waveform="uniform")
        data = bench.generate_dataset(system, q, 1.0, seed=0)
        prior = fit_prior_mean(data)
        hyp = np.full((3, 3), 1e-12)
        hyp[0, 2] = 1.0
        bound = compute_bound(data, prior, 100.0, hyp)
        residual = bound.c * np.diag(bound.mean_coefficients) - bound.hypervariance_matrix
        min_sym_eig = np.linalg.eigvalsh(0.5 * (residual + residual.T))[0]
        assert min_sym_eig == pytest.approx(-0.499, abs=1e-3)

        check = check_bound_full(bound)
        assert not check.feasible
        assert check.margin == pytest.approx(min_sym_eig, rel=1e-12)

        res = enforce_bound(bound)
        assert res.alpha < 1e-2
        certified = bound.with_grid(res.hypervariances)
        assert check_bound(certified).feasible
        projected = bound.c * np.diag(bound.mean_coefficients) - certified.hypervariance_matrix
        v = np.linalg.eigh(0.5 * (projected + projected.T))[1][:, 0]
        assert v @ projected @ v >= -1e-12 * np.trace(projected)
        rebuilt = compute_bound(data, prior, 100.0, res.hypervariances)
        assert check_bound_full(rebuilt).feasible

    def test_check_matches_symmetric_part_on_random_grids(self):
        rng = np.random.default_rng(11)
        seen = {True: 0, False: 0}
        for _ in range(500):
            n = int(rng.integers(2, 5))
            grid = rng.uniform(0.0, 2.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.7)
            m_d = rng.uniform(0.2, 3.0, n)
            sym = 0.5 * (grid + grid.T)
            critical = np.linalg.eigvalsh(sym / np.sqrt(np.outer(m_d, m_d)))[-1]
            # c on either side of the critical value, away from the knife edge
            c = critical * rng.choice([rng.uniform(0.3, 0.999), rng.uniform(1.001, 3.0)])
            bound = bound_with_c(c, m_d, grid)
            residual = c * np.diag(m_d) - grid
            eigvals, eigvecs = np.linalg.eigh(0.5 * (residual + residual.T))
            tol = 1e-12 * abs(np.trace(residual))
            check = check_bound_full(bound)
            assert check.feasible == (eigvals[0] >= -tol)
            assert check.margin == pytest.approx(eigvals[0], rel=1e-9, abs=1e-12)
            if not check.feasible:
                # a velocity direction with negative power bound on the raw grid
                v = eigvecs[:, 0]
                assert v @ residual @ v < -tol
            seen[check.feasible] += 1
        assert min(seen.values()) > 100


class TestClosedFormProjection:
    @pytest.mark.parametrize("layout", ["diag", "sym"])
    def test_agrees_with_bisection_oracle(self, layout):
        rng = np.random.default_rng(12)
        projected = 0
        for _ in range(60):
            *_, bound = random_bound(rng, layout)
            want = bisection_oracle(bound)
            assert enforce_bound(bound).alpha == pytest.approx(want, rel=1e-9)
            projected += want != 1.0
        assert projected > 20

    @pytest.mark.parametrize("layout", ["diag", "sym", "full"])
    def test_rebuilt_result_passes_check(self, layout):
        # compute_bound on the returned hypervariances rebuilds the scaled
        # grid alpha * grid that the step-down checked, so the result passes
        # the check to the last ulp.
        rng = np.random.default_rng(13)
        check = check_bound_diag if layout == "diag" else check_bound_full
        for _ in range(1000):
            data, prior, nv, bound = random_bound(rng, layout, d=int(rng.integers(2, 8)))
            res = enforce_bound(bound)
            rebuilt = compute_bound(data, prior, nv, res.hypervariances)
            assert np.array_equal(rebuilt.hypervariance_matrix, res.alpha * bound.hypervariance_matrix)
            assert rebuilt.c == bound.c
            assert check(rebuilt).feasible
            assert check_bound(bound.with_grid(res.hypervariances)).feasible

    def test_zero_mean_with_coupled_row_infeasible(self):
        # m_d_2 = 0: row 2 of sym grid must vanish for any scale to work
        hyp = np.array([[1.0, 0.0], [0.25, 0.0]])
        with pytest.raises(InfeasibilityError):
            enforce_bound(bound_with_c(1.0, [1.0, 0.0], hyp))
        res = enforce_bound(bound_with_c(1.0, [1.0, 0.0], np.array([[4.0, 0.0], [0.0, 0.0]])))
        assert res.alpha == pytest.approx(0.25, rel=1e-12)  # sigma_f^2 = 4 scaled to c*m_d = 1


def eigh_reference_alpha(bound):
    """enforce_bound's alpha with the critical c from ``scipy.linalg.eigh``."""
    sym = 0.5 * (bound.hypervariance_matrix + bound.hypervariance_matrix.T)
    m = bound.mean_coefficients
    active = m > 0
    eigvals = scipy.linalg.eigh(sym[np.ix_(active, active)], np.diag(m[active]),
                                eigvals_only=True)
    critical = float(np.max(eigvals, initial=0.0))
    alpha = bound.c / critical if critical > bound.c else 1.0
    grid = bound.hypervariance_matrix
    while not check_bound(replace(bound, hypervariance_matrix=alpha * grid)).feasible:
        alpha = np.nextafter(alpha, 0.0)
    return alpha


class TestDirectLapackProjection:
    """The critical c comes from one direct ``dsygvd`` call, the routine
    ``scipy.linalg.eigh(a, b, eigvals_only=True)`` runs by default."""

    @pytest.mark.parametrize("layout", ["diag", "sym", "full"])
    def test_alpha_bitwise_equal_to_eigh(self, layout):
        rng = np.random.default_rng(17)
        zeroed = 0
        for _ in range(300):
            *_, bound = random_bound(rng, layout)
            n = bound.mean_coefficients.size
            if n > 1 and rng.uniform() < 0.3:
                # m_d = 0 on some dimensions whose grid rows and columns vanish
                off = rng.uniform(size=n) < 0.5
                off[rng.integers(n)] = False
                grid = bound.hypervariance_matrix.copy()
                grid[off], grid[:, off] = 0.0, 0.0
                bound = replace(bound, hypervariance_matrix=grid,
                                mean_coefficients=np.where(off, 0.0, bound.mean_coefficients))
                zeroed += bool(np.any(off))
            assert enforce_bound(bound).alpha == eigh_reference_alpha(bound)
        assert zeroed > 20

    @pytest.mark.parametrize("hyp", [np.zeros(2), np.zeros((2, 2))])
    def test_all_zero_prior_with_zero_grid(self, hyp):
        # the eigenproblem on the active dimensions is 0 x 0: c* = 0
        bound = bound_with_c(1.0, [0.0, 0.0], hyp)
        assert passivity._critical_c(bound) == 0.0
        assert enforce_bound(bound).alpha == 1.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_non_finite_grid_rejected(self, bad, diagonal):
        # LAPACK itself does not check its input for NaN or inf
        grid = np.eye(2) if diagonal else np.ones((2, 2))
        grid[1, 1 if diagonal else 0] = bad
        bound = passivity.PassivityBound(
            c=1.0, hypervariance_matrix=grid, mean_coefficients=np.ones(2), diagonal=diagonal)
        with pytest.raises(InputError, match="finite"):
            enforce_bound(bound)

    def test_lapack_failure_raises_numerical_error(self, monkeypatch):
        monkeypatch.setattr(passivity, "dsygvd", lambda a, b, **kw: (np.zeros(len(a)), None, 3))
        with pytest.raises(NumericalError, match="info=3"):
            enforce_bound(bound_with_c(1.0, [1.0, 1.0], np.ones((2, 2))))


class TestPassivityGuarantee:
    """Constrained hyperparameters must yield globally dissipative estimates."""

    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_random_constrained_models_never_violate(self, kind):
        rng = np.random.default_rng(3)
        for trial in range(25):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(5, 31))
            half = rng.uniform(1.0, 5.0, n)
            box = np.column_stack([-half, half])
            q = rng.uniform(-half, half, (d, n))
            A = rng.normal(0, 1, (n, n))
            truth = A @ A.T / n + 0.5 * np.eye(n)
            y = q @ truth.T + rng.normal(0, 0.3, (d, n))
            data = Dataset(q, y)
            prior = fit_prior_mean(data)
            nv = float(rng.uniform(0.5, 5.0))
            ell = rng.uniform(0.5, 3.0, n)
            if kind == "diag":
                hyp = rng.uniform(0.05, 2.0, n)
            else:
                hyp = rng.uniform(0.05, 2.0, (n, n))
            bound = compute_bound(data, prior, nv, hyp)
            try:
                res = enforce_bound(bound)
            except InfeasibilityError:
                continue
            kernel = (
                DiagTorqueKernel(ell, res.hypervariances)
                if kind == "diag"
                else FullTorqueKernel(ell, res.hypervariances)
            )
            model = fit(kind, kernel, prior, data, nv)
            sweep = passivity_sweep(model, box, 400, seed=trial)
            assert sweep.violation_count == 0, f"trial {trial}: min {sweep.min_power}"

    def test_unconstrained_adversarial_model_violates(self):
        data = bench.adversarial_dataset(seed=0)
        prior = fit_prior_mean(data)
        system = bench.get_system("diag3")
        opt = models.optimize_hypervariances(
            "diag", data, data, system.default_lengthscales, 1.0, budget=20,
            prior_mean=prior,
        )
        model = fit("diag", opt.kernel, prior, data, 1.0)
        sweep = passivity_sweep(model, system.domain, 2000, seed=0)
        assert sweep.violation_count > 0


class TestCertificateSoundness:
    """Projected models have a PSD damping estimate: the bound is on the
    sigma_f^2 grid the kernel multiplies by, which matters once a grid
    entry exceeds 1 (large noise variance, small residual)."""

    @staticmethod
    def min_eig(model, points):
        return min(
            np.linalg.eigvalsh(0.5 * (d + d.T))[0]
            for d in (models.predict_damping(model, p) for p in points)
        )

    def test_one_point_regression(self):
        # c = 10 and m_d = 1: sigma_f = 10 passed a check on |sigma_f|,
        # but the grid 100 gives D_hat(1) = 1 + 100 * (-10 / 200) = -4
        data = Dataset([[1.0]], [[-9.0]])
        prior = PriorMean([1.0])
        bound = compute_bound(data, prior, 100.0, np.array([100.0]))
        assert bound.c == 10.0
        assert not check_bound_diag(bound).feasible
        res = enforce_bound(bound)
        assert res.alpha == pytest.approx(0.1, rel=1e-12)
        model = fit("diag", DiagTorqueKernel([1.0], res.hypervariances), prior, data, 100.0)
        assert models.predict_damping(model, np.array([1.0]))[0, 0] >= 0.0
        sweep = passivity_sweep(model, np.array([[-25.0, 25.0]]), 2000)
        assert sweep.violation_count == 0

    def test_one_point_regression_full(self):
        # the 1 x 1 grid of the full model has the same unit as the diagonal one
        data = Dataset([[1.0]], [[-9.0]])
        prior = PriorMean([1.0])
        bound = compute_bound(data, prior, 100.0, np.array([[100.0]]))
        assert not check_bound_full(bound).feasible
        res = enforce_bound(bound)
        assert res.alpha == pytest.approx(0.1, rel=1e-12)
        model = fit("full", FullTorqueKernel([1.0], res.hypervariances), prior, data, 100.0)
        assert models.predict_damping(model, np.array([1.0]))[0, 0] >= 0.0
        sweep = passivity_sweep(model, np.array([[-25.0, 25.0]]), 2000)
        assert sweep.violation_count == 0

    def test_projected_models_are_psd_with_an_anti_passive_sample(self):
        rng = np.random.default_rng(0)
        projected = 0
        for trial in range(400):
            kind = ("diag", "full")[trial % 2]
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 7))
            q = rng.uniform(-3.0, 3.0, (d, n))
            y = q * rng.uniform(0.5, 3.0, n) + rng.normal(0.0, 0.3, (d, n))
            q[0] *= 0.2
            y[0] = -rng.uniform(5.0, 50.0) * q[0]  # dissipates negative power
            data = Dataset(q, y)
            prior = fit_prior_mean(data)
            nv = float(10.0 ** rng.uniform(0.0, 3.0))
            hyp = 10.0 ** rng.uniform(0.0, 4.0, (n,) if kind == "diag" else (n, n))
            ell = rng.uniform(0.5, 3.0, n)
            try:
                res = enforce_bound(compute_bound(data, prior, nv, hyp))
            except InfeasibilityError:
                continue
            projected += res.alpha < 1.0
            model = fit(kind, models.KERNEL_TYPES[kind](ell, res.hypervariances), prior, data, nv)
            points = np.vstack([q, rng.uniform(-3.0, 3.0, (50, n))])
            assert self.min_eig(model, points) >= -1e-9, f"trial {trial} ({kind})"
        assert projected > 150


class TestDissipatedPower:
    def test_matches_inner_product(self):
        rng = np.random.default_rng(4)
        q = rng.uniform(-2, 2, (10, 2))
        data = Dataset(q, q * np.array([1.0, 2.0]) + rng.normal(0, 0.1, (10, 2)))
        prior = fit_prior_mean(data)
        model = fit(
            "diag", DiagTorqueKernel(np.ones(2), np.array([0.1, 0.1])), prior, data, 1.0
        )
        sweep = passivity_sweep(model, np.array([[-2.0, 2.0], [-2.0, 2.0]]), 20, seed=1)
        for qd, power in zip(sweep.points, sweep.powers):
            assert power == pytest.approx(
                float(qd @ models.predict_torque(model, qd)), rel=1e-12, abs=1e-15
            )

    def test_zero_velocity_zero_power(self):
        rng = np.random.default_rng(5)
        q = rng.uniform(-2, 2, (8, 2))
        data = Dataset(q, rng.normal(0, 1, (8, 2)))
        model = fit(
            "diag",
            DiagTorqueKernel(np.ones(2), np.ones(2)),
            PriorMean.zero(2),
            data,
            1.0,
        )
        sweep = passivity_sweep(model, np.array([[-1.0, 1.0], [-1.0, 1.0]]), 1, seed=0)
        assert np.array_equal(sweep.points[-1], np.zeros(2))  # the origin comes last
        assert sweep.powers[-1] == 0.0
        assert float(np.zeros(2) @ models.predict_torque(model, np.zeros(2))) == 0.0


class TestPassivitySweep:
    def _toy_model(self):
        rng = np.random.default_rng(6)
        q = rng.uniform(-2, 2, (10, 2))
        data = Dataset(q, q * 1.5 + rng.normal(0, 0.1, (10, 2)))
        prior = fit_prior_mean(data)
        return fit(
            "diag", DiagTorqueKernel(np.ones(2), np.array([0.05, 0.05])), prior, data, 1.0
        )

    def test_includes_corners_and_origin(self):
        model = self._toy_model()
        box = np.array([[-2.0, 2.0], [-3.0, 3.0]])
        sweep = passivity_sweep(model, box, 10, seed=0)
        assert sweep.points.shape[0] == 10 + 4 + 1
        corner_set = {tuple(p) for p in sweep.points.tolist()}
        for c in [(-2, -3), (-2, 3), (2, -3), (2, 3), (0, 0)]:
            assert tuple(float(v) for v in c) in corner_set

    def test_origin_skipped_outside_box(self):
        model = self._toy_model()
        sweep = passivity_sweep(model, np.array([[1.0, 2.0], [1.0, 2.0]]), 5, seed=0)
        assert sweep.points.shape[0] == 5 + 4

    def test_deterministic(self):
        model = self._toy_model()
        box = np.array([[-2.0, 2.0], [-2.0, 2.0]])
        s1 = passivity_sweep(model, box, 50, seed=3)
        s2 = passivity_sweep(model, box, 50, seed=3)
        assert np.array_equal(s1.powers, s2.powers)

    def test_all_zero_powers_are_no_violation(self):
        # the relative rule's threshold is -1e-9 * 0 = -0.0, which 0 is not below
        sweep = passivity_sweep(self._toy_model(), np.zeros((2, 2)), 5)
        assert not sweep.powers.any()
        assert sweep.violation_count == 0

    def test_non_finite_power_rejected(self):
        # q * tau(q) overflows; no RuntimeWarning may escape the sweep
        model = self._toy_model()
        box = np.array([[-1e160, 1e160], [-1e160, 1e160]])
        first = np.random.default_rng(0).uniform(box[:, 0], box[:, 1], size=(10, 2))[0]
        with pytest.raises(InputError, match=re.escape(
                f"dissipated power not finite at velocity {first}")):
            passivity_sweep(model, box, 10)

    def test_bad_domain(self):
        model = self._toy_model()
        with pytest.raises(InputError):
            passivity_sweep(model, np.array([[-1.0, 1.0]]), 10)
        with pytest.raises(InputError):
            passivity_sweep(model, np.array([[-1.0, 1.0], [np.inf, 1.0]]), 10)
        with pytest.raises(InputError):
            passivity_sweep(model, np.array([[-1.0, 1.0], [-1.0, 1.0]]), 0)
        # numpy's default_rng used to raise a bare ValueError
        with pytest.raises(InputError, match="seed must be >= 0, got -1"):
            passivity_sweep(model, np.array([[-1.0, 1.0], [-1.0, 1.0]]), 10, seed=-1)

    @pytest.mark.parametrize("args, message", [
        ((2.5, 0), "samples must be an integer, got 2.5"),
        ((10, 1.5), "seed must be an integer, got 1.5"),
        # the points array of a 2-D model holds at most (2^63 - 1) // 16
        # rows, 5 of them corners and origin: numpy's ValueError escaped
        (((2**63 - 1) // 16 - 4, 0), f"samples must be <= {(2**63 - 1) // 16 - 5}, got "),
        ((10**30, 0), f"samples must be <= {(2**63 - 1) // 16 - 5}, got {10**30}"),
        ((10, 2**63), f"seed must be <= {2**63 - 1}, got {2**63}"),
    ], ids=["samples", "seed", "samples-one-past-numpy", "samples-1e30", "seed-beyond-int64"])
    def test_samples_and_seed_follow_the_count_rule(self, args, message):
        # numpy's TypeError used to escape: from the draw's size for samples,
        # from SeedSequence for seed
        model = self._toy_model()
        samples, seed = args
        with pytest.raises(InputError, match=re.escape(message)):
            passivity_sweep(model, np.array([[-1.0, 1.0], [-1.0, 1.0]]), samples, seed=seed)


def test_power_of_two_rescaling_keeps_the_bits():
    """Velocities times 2^k and torques times 2^j, with the model moved
    along (lengthscales and box times 2^k, prior mean times 2^(j-k),
    hypervariances times 4^(j-k), noise variance times 4^j), are the same
    problem in other units; every step is exact in binary floating point,
    so the results keep their bits after unscaling.

    alpha and the bound margin are not compared: LAPACK's eigensolvers
    move them.  Over 808 rescalings of the two free grids below (404
    seeded (k, j) pairs, |k|, |j| <= 100) alpha moved in 182, by at most
    3 ulps; the free grids' margins kept their bits, and the margin of the
    projected full grid, -1.3e-20, moved once, by 0.85 of an ulp of its
    matrix's largest entry (1.4e-4).
    """
    # criterion 06's adversarial free diag model: 83 violations in 2,000 samples
    system = bench.get_system("diag3")
    ell = system.default_lengthscales
    data = bench.adversarial_dataset(seed=0)
    prior = fit_prior_mean(data)
    free = [models.optimize_hypervariances(kind, data, data, ell, 100.0, budget=budget,
                                           prior_mean=prior).kernel.hypervariances
            for kind, budget in (("diag", 20), ("full", 10))]
    # a free grid is infeasible, half its projection feasible
    grids = free + [0.5 * enforce_bound(compute_bound(data, prior, 100.0, g)).hypervariances
                    for g in free]
    verdicts = [check_bound(compute_bound(data, prior, 100.0, g)).feasible for g in grids]
    assert verdicts == [False, False, True, True]
    c = compute_bound(data, prior, 100.0, free[0]).c
    diag, full = (fit(kind, kernel(ell, g), prior, data, 100.0)
                  for kind, kernel, g in (("diag", DiagTorqueKernel, free[0]),
                                          ("full", FullTorqueKernel, free[1])))
    preds = [models.predict_torque_batch(model, data.velocities) for model in (diag, full)]
    sweep = passivity_sweep(diag, system.domain, 2000, seed=0)
    assert sweep.violation_count == 83

    rng = np.random.default_rng(28)
    pairs = [(-100, -100), (-100, 100), (100, -100), (100, 100), (-40, -40)]
    pairs += [(int(k), int(j)) for k, j in rng.integers(-100, 101, (35, 2))]
    for k, j in pairs:
        scaled = Dataset(np.ldexp(data.velocities, k), np.ldexp(data.torques, j))
        scaled_prior = fit_prior_mean(scaled)
        assert np.array_equal(scaled_prior.coefficients,
                              np.ldexp(prior.coefficients, j - k)), (k, j)
        nv = math.ldexp(100.0, 2 * j)
        scaled_grids = [np.ldexp(g, 2 * (j - k)) for g in grids]
        assert compute_bound(scaled, scaled_prior, nv, scaled_grids[0]).c == math.ldexp(c, j - k)
        assert [check_bound(compute_bound(scaled, scaled_prior, nv, g)).feasible
                for g in scaled_grids] == verdicts, (k, j)
        scaled_ell = np.ldexp(ell, k)
        scaled_models = [fit(kind, kernel(scaled_ell, g), scaled_prior, scaled, nv)
                   for kind, kernel, g in (("diag", DiagTorqueKernel, scaled_grids[0]),
                                           ("full", FullTorqueKernel, scaled_grids[1]))]
        for model, pred in zip(scaled_models, preds):
            assert np.array_equal(models.predict_torque_batch(model, scaled.velocities),
                                  np.ldexp(pred, j)), (k, j)
        scaled_sweep = passivity_sweep(scaled_models[0], np.ldexp(system.domain, k), 2000)
        assert np.array_equal(scaled_sweep.points, np.ldexp(sweep.points, k)), (k, j)
        assert np.array_equal(scaled_sweep.powers, np.ldexp(sweep.powers, k + j)), (k, j)
        assert scaled_sweep.violation_count == 83, (k, j)
