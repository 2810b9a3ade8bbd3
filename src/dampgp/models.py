"""The three damping-torque estimators and their training machinery.

Because cross-output covariances vanish under the independence assumption on
the damping elements, the stacked ND x ND system factors into N independent
D x D systems; fitting factorizes each and keeps only its residual solve.
``gp_core.joint_multi_output_oracle`` provides the dense reference path the
tests compare against.

The structured kinds predict through their damping matrix estimate,
tau_hat(qd) = D_hat(qd) @ qd with D_hat = diag(m_d) + grid o G(qd) and
G[m, n](qd) = sum_i corr_i(qd) * q_train[i, n] * alpha_m,i, so G at B
velocities is W.T @ corr, an (N^2, D) @ (D, B) product of a weight matrix W
with their SE correlation.

Estimator kinds:
    "ard"  -- independent zero-mean SE-ARD GP per torque output (baseline)
    "diag" -- diagonal damping matrix model
    "full" -- full damping matrix model
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import gp_core
from .errors import (InputError, NumericalError, UnsupportedModelError, _check_batch, _check_corr,
                     _check_count, _check_number, _check_numbers, _check_same_shape,
                     _check_velocities, _check_velocity, _validate_lengthscales)
from .kernels import DiagTorqueKernel, FullTorqueKernel, SeArdKernelBank, se_correlation

KERNEL_TYPES = {"ard": SeArdKernelBank, "diag": DiagTorqueKernel, "full": FullTorqueKernel}
KINDS = tuple(KERNEL_TYPES)

# Test points per piece of ``predict_torque_batch``.  384 = 2^7 * 3 is a
# multiple of the unroll widths of BLAS matrix kernels, so every test point
# sits at the same tile offset whatever M is and the result bits do not
# depend on M (on OpenBLAS 0.3.31, pieces of 1,310 points at D=200 changed
# 413 of 600,000 cross products; one product over 769 points at N=2,
# D=400 changed bits against pieces of 384).
_PIECE = 384


def _pieces(count: int, width: int = _PIECE) -> list:
    """(start, stop) of the ``width`` pieces that cover ``count`` columns.
    The last piece takes the remainder: a piece narrower than a kernel's
    unroll width is rounded differently than inside a wider one.  Blocks
    whose width is a multiple of ``_PIECE`` therefore split into the same
    ``_PIECE`` pieces as the whole."""
    stops = [*range(width, count - width + 1, width), count]
    return list(zip([0, *stops], stops))


def _check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise InputError(f"unknown model kind {kind!r}, expected one of {KINDS}")
    return kind


@dataclass(frozen=True)
class Dataset:
    """Paired velocity/torque observations, one sample per row."""

    velocities: np.ndarray  # (D, N)
    torques: np.ndarray  # (D, N)

    def __post_init__(self):
        q, y = _check_same_shape(self.velocities, self.torques,
                                 "velocities {} and torques {} must have equal shape")
        if q.shape[0] < 1 or q.shape[1] < 1:
            raise InputError("dataset must contain at least one sample and one dimension")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(y))):
            raise InputError("dataset contains non-finite entries")
        object.__setattr__(self, "velocities", q)
        object.__setattr__(self, "torques", y)

    @property
    def n_samples(self) -> int:
        return self.velocities.shape[0]

    @property
    def n_dim(self) -> int:
        return self.velocities.shape[1]


@dataclass(frozen=True)
class PriorMean:
    """Nonnegative diagonal damping prior; prior torque is diag(coeffs) @ qd."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        if c.ndim != 1:
            raise InputError("prior mean coefficients must be a vector")
        c = _check_numbers("prior mean coefficients", c, zero_ok=True)
        object.__setattr__(self, "coefficients", c)

    def torque(self, qd: np.ndarray) -> np.ndarray:
        return self.coefficients * np.asarray(qd, dtype=float)

    def check_dim(self, n: int) -> None:
        """Raise ``InputError`` unless there is one coefficient per dimension."""
        if self.coefficients.size != n:
            raise InputError(
                f"prior mean has {self.coefficients.size} coefficients for {n}-dimensional data"
            )

    @classmethod
    def zero(cls, n: int) -> "PriorMean":
        return cls(np.zeros(n))


def fit_prior_mean(data: Dataset) -> PriorMean:
    """Per-dimension least-squares damping coefficient, clamped nonnegative.

    A column of zero velocities gets coefficient 0, any other column its
    coefficient, however small the velocities (one that overflows makes
    ``PriorMean`` raise ``InputError``).  The sums are formed on each
    column scaled by 2^-e, e the exponent of its max |.|, so that they
    cannot overflow; scaling by a power of two is exact, so the
    coefficients are those of the unscaled sums wherever those are finite
    and not subnormal.
    """
    eq = np.frexp(np.abs(data.velocities).max(axis=0))[1]
    ey = np.frexp(np.abs(data.torques).max(axis=0))[1]
    q = np.ldexp(data.velocities, -eq)
    y = np.ldexp(data.torques, -ey)
    denom = np.sum(q * q, axis=0)
    coeffs = np.zeros(data.n_dim)
    ok = denom > 0
    with np.errstate(over="ignore"):  # a huge coefficient: inf, which PriorMean rejects
        coeffs[ok] = np.maximum(0.0, np.ldexp(np.sum(y * q, axis=0)[ok] / denom[ok], (ey - eq)[ok]))
    return PriorMean(coeffs)


@dataclass(frozen=True)
class FittedModel:
    """Immutable trained estimator: the per-output residual solves
    alpha_m = (K_m + noise_variance*I)^-1 (y_m - prior_m) are all a
    prediction needs."""

    kind: str
    kernel: object
    prior_mean: PriorMean
    noise_variance: float
    residual_solves: tuple
    train: Dataset

    @property
    def n_dim(self) -> int:
        return self.train.n_dim


def fit(
    kind: str,
    kernel,
    prior_mean: PriorMean,
    data: Dataset,
    noise_variance: float,
    *,
    corr=None,
) -> FittedModel:
    """Assemble and factorize the N per-output training systems and keep
    their residual solves.  Their Gram matrices share one SE correlation;
    ``corr`` is that (D, D) matrix when the caller already has it.  Each
    Gram is factored in the array it was assembled in, with no copy, and
    assembled again for each rung of the jitter ladder it climbs, so a fit
    holds one D x D Gram at a time."""
    kind = _check_kind(kind)
    _check_number("noise_variance", noise_variance)
    expected = KERNEL_TYPES[kind]
    if type(kernel) is not expected:
        raise InputError(
            f"kind {kind!r} requires a {expected.__name__}, got {type(kernel).__name__}"
        )
    if kernel.dim != data.n_dim:
        raise InputError(
            f"kernel dimension {kernel.dim} does not match data dimension {data.n_dim}"
        )
    prior_mean.check_dim(data.n_dim)
    if kind == "ard" and (prior_mean.coefficients != 0).any():
        raise InputError("the ard baseline is zero-mean; pass a zero prior mean")

    q = data.velocities
    resid = data.torques - prior_mean.torque(q)
    if corr is None:  # else each output's pairwise checks its shape
        corr = se_correlation(kernel.lengthscales, q, q)
    solves = []
    for m in range(data.n_dim):
        rebuild = functools.partial(gp_core.assemble_gram, kernel.output_kernel(m), q, corr)
        # no name keeps this factor alive while the next output's Gram is built
        solves.append(gp_core.factorize(rebuild(), noise_variance, rebuild=rebuild)
                      .solve(resid[:, m]))
    return FittedModel(
        kind=kind,
        kernel=kernel,
        prior_mean=prior_mean,
        noise_variance=float(noise_variance),
        residual_solves=tuple(solves),
        train=data,
    )


def _damping_weights(model: FittedModel) -> np.ndarray:
    """W (D, N^2) with W[i, m*N + n] = alpha_m,i * q_train[i, n], so that
    G[m, n](qd) = sum_i corr_i(qd) * W[i, m*N + n]."""
    alphas = np.array(model.residual_solves).T  # (D, N)
    q_train = model.train.velocities
    return (alphas[:, :, None] * q_train[:, None, :]).reshape(len(q_train), -1)


def _data_damping(model: FittedModel, weights: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """grid o G at the B velocities of the (D, B) correlation ``corr``: the
    data part of D_hat, shape (N, N, B), from one (N^2, D) @ (D, B) product."""
    n = model.n_dim
    G = (weights.T @ corr).reshape(n, n, -1)
    G *= model.kernel.grid[:, :, None]
    return G


def predict_torque_batch(model: FittedModel, qd_stars: np.ndarray, *, corr=None) -> np.ndarray:
    """Posterior mean torques at each row of ``qd_stars`` (M, N) -> (M, N).

    The test points are taken in pieces of ``_PIECE``, so temporaries stay
    O(D * _PIECE) whatever M is.  Each piece uses its own SE correlation,
    written into one buffer that the call allocates for all its pieces, or
    its columns of ``corr`` when the caller passes the full (D, M) one.  The
    structured kinds predict through the damping matrix, G from one weight
    matrix W per call; ``ard`` builds one cross-covariance per output.
    """
    qs = _check_velocities(qd_stars, model.n_dim, "test velocities")
    out = model.prior_mean.torque(qs)
    q_train = model.train.velocities
    ell = model.kernel.lengthscales
    if corr is not None:
        _check_corr(corr, q_train, qs)
    if model.kind == "ard":
        output_kernels = [model.kernel.output_kernel(m) for m in range(model.n_dim)]
    else:
        weights = _damping_weights(model)
    if corr is None:
        # one buffer for the correlations of all pieces, each a C-contiguous
        # (D, width) view of its start (a strided view is slower)
        d = len(q_train)
        buf = np.empty(d * min(len(qs), 2 * _PIECE - 1))
    for start, stop in _pieces(len(qs)):
        piece = qs[start:stop]
        if corr is None:
            piece_corr = se_correlation(ell, q_train, piece, out=buf[: d * len(piece)].reshape(d, -1))
        else:
            piece_corr = corr[:, start:stop]
        if model.kind == "ard":
            for m, kernel in enumerate(output_kernels):
                cross = kernel.pairwise(q_train, piece, piece_corr)  # (D, piece)
                out[start:stop, m] += cross.T @ model.residual_solves[m]
        else:
            damping = _data_damping(model, weights, piece_corr)
            out[start:stop] += np.einsum("mnb,bn->bm", damping, piece)
    return out


def predict_torque(model: FittedModel, qd_star) -> np.ndarray:
    """Posterior mean torque vector at a single test velocity."""
    return predict_torque_batch(model, _check_velocity(qd_star, model.n_dim, "test velocity"))[0]


def predict_damping(model: FittedModel, qd_star) -> np.ndarray:
    """Posterior damping matrix estimate D_hat(qd) = diag(m_d) + grid o G(qd),
    with D_hat(qd) @ qd the predicted torque.

    G[m, n] = sum_i corr_i(qd) * q_train[i, n] * alpha_m,i: the data
    correction of output m weighted by the n-th training velocity
    component; the kernel's grid zeroes the elements a diagonal model does
    not have.  This is the one-point case of ``predict_torque_batch``.
    """
    if model.kind == "ard":
        raise UnsupportedModelError(
            "the ard baseline estimates torques only, not a damping matrix"
        )
    qs = _check_velocity(qd_star, model.n_dim, "test velocity")
    corr = se_correlation(model.kernel.lengthscales, model.train.velocities, qs)
    damping = _data_damping(model, _damping_weights(model), corr)[:, :, 0]
    return np.diag(model.prior_mean.coefficients) + damping


@dataclass(frozen=True)
class OptimizationResult:
    """The search's best candidate, fitted on the training data, and its score."""

    model: FittedModel
    val_mse: float
    n_evaluations: int

    @property
    def kernel(self):
        return self.model.kernel


def _initial_hypervariances(kind: str, data: Dataset, prior_mean: PriorMean) -> np.ndarray:
    """Data-scale starting point: residual variance over velocity power.

    Both are formed on each column scaled by 2^-e, e the exponent of its
    max |.|, as in ``fit_prior_mean``, and only the quotients are scaled
    back, so that no product overflows.  Scaling by a power of two is
    exact, so the start is that of the unscaled formula wherever that is
    finite and not subnormal; a start beyond the float range is +inf,
    which the kernel rejects.
    """
    q = data.velocities
    rvar, er = _column_moment(data.torques - prior_mean.torque(q), np.var)
    qpow, eq = _column_moment(q, lambda a, axis: np.mean(a * a, axis=axis))
    n = data.n_dim
    with np.errstate(over="ignore"):
        if kind == "ard":
            return np.ldexp(rvar, er)
        if kind == "diag":
            return np.ldexp(rvar / qpow, er - eq)
        return np.maximum(
            np.ldexp(rvar[:, None] / (n * qpow[None, :]), er[:, None] - eq[None, :]), 1e-12)


def _column_moment(a: np.ndarray, moment) -> tuple[np.ndarray, np.ndarray]:
    """``moment`` of each column of ``a``, floored at 1e-12, as (s, k) with
    the moment s * 2^k: s is the moment of the column scaled by 2^-e."""
    e = np.frexp(np.abs(a).max(axis=0))[1]
    s, k = moment(np.ldexp(a, -e), axis=0), 2 * e
    with np.errstate(over="ignore"):  # inf: far above the floor
        low = np.ldexp(s, k) < 1e-12
    return np.where(low, 1e-12, s), np.where(low, 0, k)


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def optimize_hypervariances(
    kind: str,
    data_train: Dataset,
    data_val: Dataset,
    lengthscales,
    noise_variance: float,
    constrained: bool = False,
    budget: int = 40,
    prior_mean: PriorMean | None = None,
) -> OptimizationResult:
    """Derivative-free search over log-hypervariances against validation MSE.

    Coordinate descent with a golden-section line search; fully deterministic
    for fixed inputs and budget.  One budget unit is one candidate: its
    projection (when constrained), one fit and one validation prediction;
    the fit and prediction reuse SE correlations that the search computes
    once.  When ``constrained`` is set every candidate is projected onto the
    feasible set of the passivity bound before evaluation, so the returned
    model is always feasible; the bound factor c depends only on the data,
    prior and noise variance, so the search computes it once and bounds
    each candidate's grid with it.  The ard baseline has no bound, so it
    cannot be constrained.  ``ard`` and ``diag`` search one log-hypervariance
    per output; ``full`` searches its N^2 grid as a row scale times a column
    scale, exp(r_m + c_n), so its search space grows with N, not N^2.
    The prior mean defaults to zero for ard and ``fit_prior_mean`` otherwise.
    """
    from . import passivity  # local import to avoid a module cycle

    kind = _check_kind(kind)
    budget = _check_count("budget", budget, 1)
    _check_number("noise_variance", noise_variance)
    n = data_train.n_dim
    _check_batch(data_val.velocities, n, "validation velocities")
    if constrained and kind == "ard":
        raise InputError("the ard baseline has no passivity bound to constrain")
    ell = _validate_lengthscales(lengthscales, n)

    if prior_mean is None:
        prior_mean = (
            PriorMean.zero(n) if kind == "ard" else fit_prior_mean(data_train)
        )
    prior_mean.check_dim(n)

    init = _initial_hypervariances(kind, data_train, prior_mean)
    q_train = data_train.velocities
    corr_train = se_correlation(ell, q_train, q_train)
    corr_val = se_correlation(ell, q_train, data_val.velocities)
    if constrained:
        search_bound = passivity.compute_bound(data_train, prior_mean, noise_variance, init)

    if kind == "full":
        # theta = (row log-scales r, column log-scales c); grid = exp(r_m + c_n)
        row0 = 0.5 * np.log(np.maximum(init.mean(axis=1), 1e-300))
        col0 = 0.5 * np.log(np.maximum(init.mean(axis=0), 1e-300))
        theta = np.concatenate([row0, col0])
    else:
        theta = np.log(np.maximum(init, 1e-300))

    evals = 0
    best: dict = {"mse": np.inf, "model": None}

    def evaluate(i: int, x: float) -> float:
        """Validation MSE of ``theta`` with coordinate ``i`` set to ``x``;
        inf, with no fit, once the budget is spent, so no later step moves."""
        nonlocal evals
        if evals >= budget:
            return np.inf
        evals += 1
        t = theta.copy()
        t[i] = x
        hyp = np.exp(t[:n, None] + t[n:][None, :]) if kind == "full" else np.exp(t)
        if constrained:
            hyp = passivity.enforce_bound(search_bound.with_grid(hyp)).hypervariances
        model = fit(kind, KERNEL_TYPES[kind](ell, hyp), prior_mean, data_train,
                    noise_variance, corr=corr_train)
        pred = predict_torque_batch(model, data_val.velocities, corr=corr_val)
        err = pred - data_val.torques
        mse = float(np.add.reduce(err ** 2, axis=None) / err.size)  # what .mean() computes
        if mse < best["mse"]:
            best["mse"] = mse
            best["model"] = model
        return mse

    f_theta = evaluate(0, theta[0])
    span = 2.0  # half-width of the log-space search bracket
    while evals < budget:
        improved_any = False
        for i in range(theta.size):
            lo, hi = theta[i] - span, theta[i] + span
            x1 = hi - _GOLDEN * (hi - lo)
            x2 = lo + _GOLDEN * (hi - lo)
            f1, f2 = evaluate(i, x1), evaluate(i, x2)
            for _ in range(4):
                if f1 <= f2:
                    hi, x2, f2 = x2, x1, f1
                    x1 = hi - _GOLDEN * (hi - lo)
                    f1 = evaluate(i, x1)
                else:
                    lo, x1, f1 = x1, x2, f2
                    x2 = lo + _GOLDEN * (hi - lo)
                    f2 = evaluate(i, x2)
            f_best_i, x_best_i = min((f1, x1), (f2, x2), key=lambda t: t[0])
            if f_best_i < f_theta:
                theta[i] = x_best_i
                f_theta = f_best_i
                improved_any = True
        span *= 0.5
        if not improved_any and span < 1e-3:
            break

    if best["model"] is None:
        raise NumericalError("no candidate has a finite validation MSE")
    return OptimizationResult(model=best["model"], val_mse=best["mse"], n_evaluations=evals)
