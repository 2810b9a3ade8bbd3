"""Passivity bounds for the structured damping estimators.

The kernels multiply each element correlation by its hypervariance
sigma_f^2, so the bound is stated on that grid: with the scalar factor
c = sigma_eps^2 / (sqrt(D) * max|velocity| * ||residual||), the full model
needs the symmetric part (A + A^T)/2 of A = c*diag(m_d) - grid to be
positive semidefinite (the power bound is qd^T A qd, which sees only that
part), the diagonal model needs sigma_f_n^2 <= c * m_d_n per dimension.
Models whose hypervariances satisfy the bound dissipate power at every
velocity.

The projection's critical c is one generalized symmetric eigenproblem,
solved by a direct LAPACK ``dsygvd`` call (eigenvalues only, the routine
``scipy.linalg.eigh`` runs for it); the grid and prior mean are checked
finite first, since LAPACK would not reject a NaN or inf.  ``dsygvd`` comes
from ``_lapack``, which binds it from SciPy's extension module without
importing ``scipy.linalg``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dsygvd
from .errors import (_INTP_MAX, InfeasibilityError, InputError, NumericalError, _all, _check_box,
                     _check_count, _check_number, _check_numbers, _max, _min)
from .models import _PIECE, Dataset, FittedModel, PriorMean, _pieces, predict_torque_batch


@dataclass(frozen=True)
class PassivityBound:
    """The scalar bound factor c, the grid it bounds and the prior mean."""

    c: float
    hypervariance_matrix: np.ndarray  # the N x N sigma_f^2 grid; need not be symmetric
    mean_coefficients: np.ndarray
    diagonal: bool  # True when built from an N-vector of hypervariances

    def with_grid(self, hypervariances) -> "PassivityBound":
        """This bound's c and prior mean on the grid of ``hypervariances``:
        what ``compute_bound`` returns for them on the same data, prior and
        noise variance, with the same validation of the grid."""
        grid, diagonal = _grid(hypervariances, self.mean_coefficients.size)
        return PassivityBound(self.c, grid, self.mean_coefficients, diagonal)


def _grid(hypervariances, n: int) -> tuple[np.ndarray, bool]:
    """The N x N grid of ``hypervariances`` for N = ``n`` dimensions, and
    whether it came from an N-vector."""
    hyp = _check_numbers("hypervariances", hypervariances, zero_ok=True)
    if hyp.shape not in ((n,), (n, n)):
        raise InputError(
            f"hypervariances must be a {n}-vector or {n} x {n} matrix for "
            f"{n}-dimensional data, got shape {hyp.shape}"
        )
    if hyp.ndim == 1:
        return np.diag(hyp), True
    return hyp.copy(), False


def compute_bound(
    data: Dataset,
    prior_mean: PriorMean,
    noise_variance: float,
    hypervariances,
) -> PassivityBound:
    """Evaluate the bound factor for the grid of ``hypervariances``.

    c is the +inf sentinel (vacuously feasible) when either the velocity
    sup-norm or the stacked residual vanishes.  c depends on the data, the
    prior and the noise variance only; ``PassivityBound.with_grid`` reuses
    it for another grid.  The noise variance must be finite and > 0, as
    for ``fit``.
    """
    _check_number("noise_variance", noise_variance)
    prior_mean.check_dim(data.n_dim)
    grid, diagonal = _grid(hypervariances, data.n_dim)
    q = data.velocities
    resid = data.torques - prior_mean.torque(q)
    inf_norm = float(np.max(np.abs(q)))
    resid_norm = float(np.linalg.norm(resid.reshape(-1)))
    if inf_norm == 0.0 or resid_norm == 0.0:
        c = math.inf
    else:
        c = noise_variance / (math.sqrt(data.n_samples) * inf_norm * resid_norm)
    return PassivityBound(
        c=c,
        hypervariance_matrix=grid,
        mean_coefficients=prior_mean.coefficients.copy(),
        diagonal=diagonal,
    )


@dataclass(frozen=True)
class BoundCheck:
    feasible: bool
    # min eigenvalue of the symmetric part of c*diag(m_d) - grid (full),
    # or min_n c*m_d_n - sigma_f_n^2 (diagonal)
    margin: float


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def check_bound_full(bound: PassivityBound) -> BoundCheck:
    """PSD test of sym(c*diag(m_d) - grid) (the full-model sufficient condition)."""
    if math.isinf(bound.c):
        return BoundCheck(feasible=True, margin=math.inf)
    residual = bound.c * np.diag(bound.mean_coefficients) - _sym(bound.hypervariance_matrix)
    min_eig = float(np.linalg.eigvalsh(residual)[0])
    tol = 1e-12 * abs(float(residual.trace()))
    return BoundCheck(feasible=min_eig >= -tol, margin=min_eig)


def check_bound_diag(bound: PassivityBound) -> BoundCheck:
    """Per-dimension test sigma_f_n^2 <= c * m_d_n (the diagonal condition)."""
    if not bound.diagonal:
        raise InputError("check_bound_diag requires a bound built from an N-vector")
    if math.isinf(bound.c):
        return BoundCheck(feasible=True, margin=math.inf)
    hyp = bound.hypervariance_matrix.diagonal()
    limits = bound.c * bound.mean_coefficients
    return BoundCheck(feasible=bool(_all(hyp <= limits, axis=None)),
                      margin=float(_min(limits - hyp, axis=None)))


def check_bound(bound: PassivityBound) -> BoundCheck:
    """The diagonal condition for a bound built from an N-vector, else the full one."""
    return check_bound_diag(bound) if bound.diagonal else check_bound_full(bound)


def _critical_c(bound: PassivityBound) -> float:
    """Smallest c at which the unscaled grid meets the bound: the largest
    generalized eigenvalue of (sym grid, diag(m_d)) over the dimensions
    with m_d_n > 0 (max_n sigma_f_n^2 / m_d_n for a diagonal grid); +inf
    when a zero m_d_n has a nonzero row of sym grid, 0 when no m_d_n is
    positive and the grid is zero.
    """
    sym = _sym(bound.hypervariance_matrix)
    m = bound.mean_coefficients
    if not (_all(np.isfinite(sym), axis=None) and _all(np.isfinite(m), axis=None)):
        raise InputError(
            "the symmetric part of the bound's grid and the prior mean coefficients "
            "must be finite"
        )
    active = m > 0
    if not _all(active, axis=None):
        if (sym[~active] != 0).any():
            return math.inf
        sym, m = sym[np.ix_(active, active)], m[active]
    if m.size == 0:
        return 0.0  # dsygvd rejects n = 0
    eigvals, _, info = dsygvd(sym, np.diag(m), uplo="L", jobz="N")
    if info != 0:
        raise NumericalError(f"dsygvd failed on the bound's eigenproblem (info={info})")
    return float(_max(eigvals, axis=None, initial=0.0))


@dataclass(frozen=True)
class EnforcementResult:
    """Scaled hypervariances that satisfy the bound: ``alpha`` times the
    input grid, in the same layout as the input to ``compute_bound``
    (vector or matrix)."""

    hypervariances: np.ndarray
    alpha: float


def enforce_bound(bound: PassivityBound) -> EnforcementResult:
    """Scale the grid onto the feasible set in closed form.

    With c* the smallest c at which the unscaled grid is feasible, the
    scale is alpha = min(1, c / c*).  alpha * grid can round outside the
    bound, so alpha is stepped down an ulp at a time until the bound on
    alpha * grid passes; ``bound.with_grid(result.hypervariances)``
    rebuilds that bound.  A NaN or negative c is rejected: no alpha
    would pass, and the step-down would not end.  c = 0, which
    ``compute_bound`` gives only when its quotient underflows, keeps a zero
    grid (alpha = 1) and raises on any other (alpha = 0).
    """
    if not bound.c >= 0:
        raise InputError(f"the bound factor c must be >= 0, got {bound.c}")
    critical = _critical_c(bound)
    if math.isinf(critical):
        raise InfeasibilityError(
            "no positive hypervariance scale satisfies the bound "
            "(a prior mean coefficient is zero with nonzero hypervariance)"
        )
    alpha = bound.c / critical if critical > bound.c else 1.0
    if alpha == 0.0:
        raise InfeasibilityError(
            "no positive hypervariance scale is feasible "
            "(prior mean too small for the data residual)"
        )
    c, m, grid = bound.c, bound.mean_coefficients, bound.hypervariance_matrix
    while not check_bound(PassivityBound(c, scaled := alpha * grid, m, bound.diagonal)).feasible:
        alpha = np.nextafter(alpha, 0.0)
    return EnforcementResult(scaled.diagonal() if bound.diagonal else scaled, float(alpha))


# Sweep points per ``predict_torque_batch`` call: whole ``_PIECE`` pieces,
# so that the blocks split into the pieces of one call over every point and
# the powers keep their bits, while the prediction and its product with the
# points stay O(block) whatever the sample count.
_SWEEP_BLOCK = 16 * _PIECE


@dataclass(frozen=True)
class SweepResult:
    min_power: float
    violation_count: int
    points: np.ndarray  # every evaluated point
    powers: np.ndarray  # dissipated power per point


def passivity_sweep(
    model: FittedModel,
    domain: np.ndarray,
    samples: int,
    seed: int = 0,
) -> SweepResult:
    """Dissipated power over seeded uniform samples, box corners, and origin.

    Violations are powers below -1e-9 times the sweep's largest |power|
    (floating-point slack on the exact-arithmetic guarantee), with no
    absolute floor, so the count does not depend on units.  A power that
    is not finite (the box is too large for the model) raises InputError.
    The samples are drawn and the powers computed in blocks of
    ``_SWEEP_BLOCK`` points, with the bits of one draw and one prediction.
    """
    box = _check_box(domain, model.n_dim)
    lo, hi = box[:, 0], box[:, 1]
    corners = [*itertools.product(*box)]
    if np.all(lo <= 0) and np.all(hi >= 0):
        corners.append((0.0,) * model.n_dim)  # the origin
    samples = _check_count("samples", samples, 1, _INTP_MAX // (8 * model.n_dim) - len(corners))
    rng = np.random.default_rng(_check_count("seed", seed, 0))
    points = np.empty((samples + len(corners), model.n_dim))
    points[samples:] = corners
    powers = np.empty(len(points))
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in _pieces(len(points), _SWEEP_BLOCK):
            # consecutive draws continue one stream: the blocks' samples
            # are those of one draw of all of them
            drawn = min(stop, samples)
            if start < drawn:
                points[start:drawn] = rng.uniform(lo, hi, size=(drawn - start, model.n_dim))
            block = points[start:stop]
            powers[start:stop] = np.sum(block * predict_torque_batch(model, block), axis=1)
    nonfinite = np.flatnonzero(~np.isfinite(powers))
    if nonfinite.size:
        raise InputError(f"dissipated power not finite at velocity {points[nonfinite[0]]}")
    return SweepResult(
        min_power=float(np.min(powers)),
        violation_count=int(np.count_nonzero(powers < -1e-9 * np.max(np.abs(powers)))),
        points=points,
        powers=powers,
    )
