"""Passivity bounds for the structured damping estimators.

The kernels multiply each element correlation by its hypervariance
sigma_f^2, so the bound is stated on those hypervariances, kept in the
kernel's layout: with the scalar factor
c = sigma_eps^2 / (sqrt(D) * max|velocity| * ||residual||), an N x N grid
(full) needs the symmetric part (A + A^T)/2 of A = c*diag(m_d) - grid to be
positive semidefinite (the power bound is qd^T A qd, which sees only that
part), an N-vector (diag) needs sigma_f_n^2 <= c * m_d_n per dimension.
The layout picks the test, and one verdict, ``_verdict``, holds both.
Models whose hypervariances satisfy the bound dissipate power at every
velocity.

The projection's critical c is one generalized symmetric eigenproblem,
solved by a direct LAPACK ``dsygvd`` call (eigenvalues only, the routine
``scipy.linalg.eigh`` runs for it); the grid is checked finite first, since
LAPACK would not reject a NaN or inf.  The full test's minimum eigenvalue
is a direct ``dsyevd`` call (eigenvalues only, lower triangle, the optimal
workspace: what ``numpy.linalg.eigvalsh`` runs).  Both come from
``_lapack``, which binds them from SciPy's extension module without
importing ``scipy.linalg``.  What a bound derives from c and m_d alone is
built once, where m_d is checked finite, and shared with every bound
``with_grid`` makes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import dsyevd, dsyevd_lwork, dsygvd
from .errors import (_INTP_MAX, InfeasibilityError, InputError, NumericalError, _all, _check_box,
                     _check_count, _check_number, _check_numbers, _max, _min)
from .models import _PIECE, Dataset, FittedModel, PriorMean, _pieces, predict_torque_batch


class _PriorHalf:
    """The parts of a bound that depend on c and m_d alone, built once per
    bound: the mask m_d_n > 0 (None when all are), ``dsygvd``'s B diag(m_d)
    on it and, for a finite c only (no inf * 0), the diagonal test's limits
    c*m_d and the full test's offset c*diag(m_d).  m_d must be finite:
    LAPACK would not reject a NaN or inf, and c * m_d would form inf * 0."""

    def __init__(self, c: float, m: np.ndarray):
        if not _all(np.isfinite(m), axis=None):
            raise InputError("the prior mean coefficients must be finite")
        self.m = m
        active = m > 0
        self.active = None if _all(active, axis=None) else active
        self.metric = np.diag(m if self.active is None else m[active])
        if not math.isinf(c):
            self.limits = c * m
            self.offset = c * np.diag(m)

    @cached_property
    def workspace(self) -> dict:
        """``dsyevd``'s optimal workspace for the N x N residual, the one
        ``numpy.linalg.eigvalsh`` queries: for large N the reduction's
        blocking, and so the eigenvalues' bits, depend on it."""
        work, iwork, _ = dsyevd_lwork(self.m.size, compute_v=0, lower=1)
        return {"lwork": int(work), "liwork": iwork}


@dataclass(frozen=True)
class PassivityBound:
    """The scalar bound factor c, the hypervariances it bounds and the prior mean.

    ``hypervariances`` keeps the kernel's layout, and the layout picks the
    test: an N-vector (diag) gets the diagonal one, an N x N grid (full),
    which need not be symmetric, the full one.  Treat the arrays as
    read-only: the bound keeps what it derives from c and m_d outside its
    fields, so a bound that ``dataclasses.replace`` makes derives its own."""

    c: float
    hypervariances: np.ndarray
    mean_coefficients: np.ndarray

    def with_grid(self, hypervariances) -> "PassivityBound":
        """This bound's c and prior mean on ``hypervariances``: what
        ``compute_bound`` returns for them on the same data, prior and noise
        variance, with the same validation, sharing this bound's prior half."""
        bound = PassivityBound(
            self.c, _hypervariances(hypervariances, self.mean_coefficients.size),
            self.mean_coefficients)
        object.__setattr__(bound, "_prior", self._prior)
        return bound

    @cached_property
    def _prior(self) -> _PriorHalf:
        return _PriorHalf(self.c, self.mean_coefficients)


def _hypervariances(values, n: int) -> np.ndarray:
    """A copy of ``values`` checked as the hypervariances of N = ``n``
    dimensions: an N-vector or an N x N grid."""
    hyp = _check_numbers("hypervariances", values, zero_ok=True)
    if hyp.shape not in ((n,), (n, n)):
        raise InputError(
            f"hypervariances must be a {n}-vector or {n} x {n} matrix for "
            f"{n}-dimensional data, got shape {hyp.shape}"
        )
    return hyp.copy()


def compute_bound(
    data: Dataset,
    prior_mean: PriorMean,
    noise_variance: float,
    hypervariances,
) -> PassivityBound:
    """Evaluate the bound factor for ``hypervariances``.

    c is the +inf sentinel (vacuously feasible) when either the velocity
    sup-norm or the stacked residual vanishes.  c depends on the data, the
    prior and the noise variance only; ``PassivityBound.with_grid`` reuses
    it for other hypervariances.  The noise variance must be finite and > 0,
    as for ``fit``.
    """
    _check_number("noise_variance", noise_variance)
    prior_mean.check_dim(data.n_dim)
    hyp = _hypervariances(hypervariances, data.n_dim)
    q = data.velocities
    resid = data.torques - prior_mean.torque(q)
    inf_norm = float(np.max(np.abs(q)))
    resid_norm = float(np.linalg.norm(resid.reshape(-1)))
    if inf_norm == 0.0 or resid_norm == 0.0:
        c = math.inf
    else:
        c = noise_variance / (math.sqrt(data.n_samples) * inf_norm * resid_norm)
    return PassivityBound(c, hyp, prior_mean.coefficients.copy())


@dataclass(frozen=True)
class BoundCheck:
    feasible: bool
    # min eigenvalue of the symmetric part of c*diag(m_d) - grid (full),
    # or min_n c*m_d_n - sigma_f_n^2 (diagonal)
    margin: float


def _sym(hyp: np.ndarray) -> np.ndarray:
    """The symmetric part of the grid of ``hyp``: diag(hyp) for an N-vector."""
    grid = np.diag(hyp) if hyp.ndim == 1 else hyp
    return 0.5 * (grid + grid.T)


def _verdict(bound: PassivityBound, hyp: np.ndarray, full: bool) -> BoundCheck:
    """The full test (PSD of sym(c*diag(m_d) - grid)) or the diagonal one
    (sigma_f_n^2 <= c * m_d_n, for an N-vector) of ``hyp`` under ``bound``'s
    c and m_d: vacuously feasible at c = +inf, once m_d is checked finite."""
    prior = bound._prior
    if math.isinf(bound.c):
        return BoundCheck(feasible=True, margin=math.inf)
    if not full:
        # b - a >= 0 exactly when a <= b for finite floats (gradual underflow)
        margin = float(_min(prior.limits - hyp, axis=None))
        return BoundCheck(feasible=margin >= 0, margin=margin)
    residual = prior.offset - _sym(hyp)
    eigvals, _, info = dsyevd(residual, compute_v=0, lower=1, **prior.workspace)
    if info != 0:
        raise NumericalError(f"dsyevd failed on the bound's residual (info={info})")
    min_eig = float(eigvals[0])
    tol = 1e-12 * abs(float(residual.trace()))
    return BoundCheck(feasible=min_eig >= -tol, margin=min_eig)


def check_bound_full(bound: PassivityBound) -> BoundCheck:
    """PSD test of sym(c*diag(m_d) - grid) (the full-model sufficient condition)."""
    return _verdict(bound, bound.hypervariances, True)


def check_bound_diag(bound: PassivityBound) -> BoundCheck:
    """Per-dimension test sigma_f_n^2 <= c * m_d_n (the diagonal condition)."""
    if bound.hypervariances.ndim != 1:
        raise InputError("check_bound_diag requires a bound on an N-vector of hypervariances")
    return _verdict(bound, bound.hypervariances, False)


def check_bound(bound: PassivityBound) -> BoundCheck:
    """The diagonal condition for an N-vector of hypervariances, else the full one."""
    return _verdict(bound, bound.hypervariances, bound.hypervariances.ndim == 2)


def _critical_c(bound: PassivityBound) -> float:
    """Smallest c at which the unscaled grid meets the bound: the largest
    generalized eigenvalue of (sym grid, diag(m_d)) over the dimensions
    with m_d_n > 0 (max_n sigma_f_n^2 / m_d_n for a diagonal grid); +inf
    when a zero m_d_n has a nonzero row of sym grid, 0 when no m_d_n is
    positive and the grid is zero.
    """
    prior = bound._prior
    sym = _sym(bound.hypervariances)
    if not _all(np.isfinite(sym), axis=None):
        raise InputError("the symmetric part of the bound's grid must be finite")
    active = prior.active
    if active is not None:
        if (sym[~active] != 0).any():
            return math.inf
        sym = sym[np.ix_(active, active)]
    if prior.metric.size == 0:
        return 0.0  # dsygvd rejects n = 0
    eigvals, _, info = dsygvd(sym, prior.metric, uplo="L", jobz="N")
    if info != 0:
        raise NumericalError(f"dsygvd failed on the bound's eigenproblem (info={info})")
    return float(_max(eigvals, axis=None, initial=0.0))


@dataclass(frozen=True)
class EnforcementResult:
    """Scaled hypervariances that satisfy the bound: ``alpha`` times the
    bound's hypervariances, in their layout."""

    hypervariances: np.ndarray
    alpha: float


def enforce_bound(bound: PassivityBound) -> EnforcementResult:
    """Scale the hypervariances onto the feasible set in closed form.

    With c* the smallest c at which the unscaled grid is feasible, the
    scale is alpha = min(1, c / c*): 1 whenever c >= c*, c = +inf
    included, so c* = +inf (a zero m_d_n with a nonzero row of sym grid)
    raises only for a finite c.  alpha * hypervariances can round outside
    the bound, so alpha is stepped down an ulp at a time until the bound's
    verdict on them passes; ``bound.with_grid(result.hypervariances)``
    rebuilds that bound.  A NaN or negative c is rejected: no alpha
    would pass, and the step-down would not end.  c = 0, which
    ``compute_bound`` gives only when its quotient underflows, keeps a zero
    grid (alpha = 1) and raises on any other (alpha = 0).
    """
    if not bound.c >= 0:
        raise InputError(f"the bound factor c must be >= 0, got {bound.c}")
    critical = _critical_c(bound)
    alpha = bound.c / critical if critical > bound.c else 1.0
    if alpha == 0.0:
        raise InfeasibilityError(
            "no positive hypervariance scale satisfies the bound "
            "(a prior mean coefficient is zero with nonzero hypervariance)"
            if math.isinf(critical) else
            "no positive hypervariance scale is feasible "
            "(prior mean too small for the data residual)"
        )
    hyp = bound.hypervariances
    while not _verdict(bound, scaled := alpha * hyp, hyp.ndim == 2).feasible:
        alpha = np.nextafter(alpha, 0.0)
    return EnforcementResult(scaled, float(alpha))


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
