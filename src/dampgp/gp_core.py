"""Single-output GP regression engine plus a dense multi-output oracle.

The fast path used by the estimators factorizes one D x D system per output
dimension.  ``joint_multi_output_oracle`` instead builds the literal stacked
ND x ND joint system and solves it once; it exists purely so the decomposed
path can be validated against it.

The LAPACK routines ``dpotrf`` and ``dpotrs`` come from ``_lapack``, which
binds them from SciPy's extension module without importing ``scipy.linalg``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import dpotrf, dpotrs
from .errors import InputError, NumericalError, _all, _check_number

# Diagonal inflation attempted after a failed factorization at jitter 0,
# growing by decades.  Beyond the last rung we give up.
JITTER_LADDER = tuple(10.0 ** (-e) for e in range(12, 3, -1))  # 1e-12 .. 1e-4

ORACLE_SIZE_CAP = 2000


@dataclass(frozen=True)
class GramFactorization:
    """Cholesky factorization of (S + noise_variance*I + jitter*I), S as in ``factorize``.

    ``raw_factor`` is the array ``dpotrf`` returns: the factor in its lower
    triangle, and above it the entries of ``gram`` below the diagonal,
    which ``dpotrf`` never touches and ``dpotrs`` never reads.  It may be
    the caller's ``gram`` memory itself, when ``factorize`` was given
    ``rebuild``.  ``np.tril(raw_factor)`` is the exactly lower-triangular
    factor; ``jitter_used`` is 0 unless the plain factorization failed and
    the jitter ladder had to be climbed.
    """

    jitter_used: float
    raw_factor: np.ndarray

    @property
    def n_train(self) -> int:
        return self.raw_factor.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (S + noise_variance*I + jitter*I) x = rhs with LAPACK
        ``dpotrs``, the routine ``scipy.linalg.cho_solve`` wraps."""
        rhs = np.asarray(rhs, dtype=float)
        d = self.n_train
        if rhs.ndim not in (1, 2) or rhs.shape[0] != d:
            raise InputError(f"rhs must have shape ({d},) or ({d}, K), got {rhs.shape}")
        x, info = dpotrs(self.raw_factor, rhs, lower=1)
        if info != 0:
            raise NumericalError(f"dpotrs failed with info {info}")
        return x


@dataclass(frozen=True)
class PosteriorResult:
    """Posterior mean at the test points."""

    mean: np.ndarray


def assemble_gram(kernel, X: np.ndarray, corr=None) -> np.ndarray:
    """Kernel matrix over all pairs of rows of the (D, N) array ``X``;
    ``factorize`` reads its upper triangle.

    ``kernel`` is a scalar ``kernels._OutputKernel``: its ``pairwise`` checks
    X's shape once and takes the shared SE correlation ``corr`` if given.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[:1] == (0,):
        raise InputError(f"need at least one input point, got shape {X.shape}")
    return np.asarray(kernel.pairwise(X, X, corr), dtype=float)


def factorize(gram: np.ndarray, noise_variance: float, rebuild=None) -> GramFactorization:
    """Factorize S + noise_variance*I, escalating jitter on failure; S is the
    symmetric matrix of gram's upper triangle (``gram[i, j]``, i <= j), and
    the rest of ``gram`` is only checked to be finite.  Each rung factors a
    working array in place, which the result keeps as it stands, with no
    pass that zeroes the triangle nothing reads.

    Without ``rebuild`` every rung's working array is a fresh copy and
    ``gram`` is unchanged.  ``rebuild`` is a function of no arguments that
    returns a new array equal to ``gram``; with it, ``gram`` is consumed:
    rung 0 factors ``np.ascontiguousarray(gram)``, which is ``gram`` itself
    when it is a C-ordered float array, and each jittered rung a fresh
    ``rebuild()``, so a caller that can remake its Gram saves a D x D copy
    per factorization.
    """
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise InputError(f"gram must be square, got shape {gram.shape}")
    _check_number("noise_variance", noise_variance, zero_ok=True)
    if not _all(np.isfinite(gram), axis=None):
        raise InputError("gram contains non-finite entries")
    rungs = (0.0, *JITTER_LADDER)
    for jitter in rungs:
        # C order for any layout of gram, so that ravel() is a view
        if rebuild is None:
            work = np.array(gram, order="C")
        else:
            work = np.ascontiguousarray(gram if jitter == 0.0 else rebuild(), dtype=float)
        work.ravel()[:: len(work) + 1] += noise_variance + jitter
        # in place on the column-major transpose: its lower triangle, all
        # that dpotrf reads, is gram's upper one
        raw_factor, info = dpotrf(work.T, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            return GramFactorization(jitter_used=jitter, raw_factor=raw_factor)
    raise NumericalError(f"factorization failed at every jitter level {list(rungs)}")


def posterior(
    fact: GramFactorization,
    cross_cov: np.ndarray,
    prior_mean_train: np.ndarray,
    prior_mean_test: np.ndarray,
    observations: np.ndarray,
) -> PosteriorResult:
    """Posterior mean m* + C^T (K + s I)^-1 (y - m) from a factorization."""
    cross_cov = np.asarray(cross_cov, dtype=float)
    prior_mean_train = np.asarray(prior_mean_train, dtype=float)
    prior_mean_test = np.asarray(prior_mean_test, dtype=float)
    observations = np.asarray(observations, dtype=float)
    d = fact.n_train
    if cross_cov.ndim != 2 or cross_cov.shape[0] != d:
        raise InputError(f"cross_cov must have shape ({d}, M), got {cross_cov.shape}")
    if prior_mean_train.shape != (d,):
        raise InputError("prior_mean_train shape mismatch")
    if observations.shape != (d,):
        raise InputError("observations shape mismatch")
    if prior_mean_test.shape != (cross_cov.shape[1],):
        raise InputError("prior_mean_test shape mismatch")

    alpha = fact.solve(observations - prior_mean_train)
    return PosteriorResult(mean=prior_mean_test + cross_cov.T @ alpha)


def joint_multi_output_oracle(
    torque_kernel,
    train,
    prior_mean_fn,
    test_points,
    noise_variance: float,
) -> list[np.ndarray]:
    """Posterior means from the literal stacked ND x ND joint system.

    ``torque_kernel(qd, qd2)`` returns the N x N torque covariance block and
    ``prior_mean_fn(qd)`` the length-N prior torque mean.  Observations are
    stacked sample-major, matching vec of the row-per-sample torque matrix.
    Intended for testing only, hence the hard size cap.
    """
    Q = np.asarray(train.velocities, dtype=float)
    Y = np.asarray(train.torques, dtype=float)
    d, n = Q.shape
    if d * n > ORACLE_SIZE_CAP:
        raise InputError(
            f"oracle refuses D*N = {d * n} > {ORACLE_SIZE_CAP} (testing-only path)"
        )
    K = np.empty((d * n, d * n))
    for i in range(d):
        for j in range(d):
            K[i * n : (i + 1) * n, j * n : (j + 1) * n] = torque_kernel(Q[i], Q[j])
    fact = factorize(K, noise_variance)

    m_y = np.concatenate([np.asarray(prior_mean_fn(Q[i]), dtype=float) for i in range(d)])
    alpha = fact.solve(Y.reshape(-1) - m_y)

    means = []
    for qs in test_points:
        qs = np.asarray(qs, dtype=float)
        cross = np.empty((d * n, n))
        for i in range(d):
            cross[i * n : (i + 1) * n, :] = torque_kernel(Q[i], qs)
        means.append(np.asarray(prior_mean_fn(qs), dtype=float) + cross.T @ alpha)
    return means
