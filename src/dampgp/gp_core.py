"""Single-output GP regression engine plus a dense multi-output oracle.

The fast path used by the estimators factorizes one D x D system per output
dimension.  ``joint_multi_output_oracle`` instead builds the literal stacked
ND x ND joint system and solves it once; it exists purely so the decomposed
path can be validated against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import InputError, NumericalError

# Diagonal inflation attempted after a failed factorization at jitter 0,
# growing by decades.  Beyond the last rung we give up.
JITTER_LADDER = tuple(10.0 ** (-e) for e in range(12, 3, -1))  # 1e-12 .. 1e-4

ORACLE_SIZE_CAP = 2000


@dataclass(frozen=True)
class GramFactorization:
    """Cholesky factorization of (gram + noise_variance*I + jitter*I).

    ``factor`` is lower triangular; ``jitter_used`` is 0 unless the plain
    factorization failed and the jitter ladder had to be climbed.
    """

    gram: np.ndarray
    noise_variance: float
    jitter_used: float
    factor: np.ndarray

    @property
    def n_train(self) -> int:
        return self.gram.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (gram + noise_variance*I + jitter*I) x = rhs."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n_train:
            raise InputError(
                f"rhs has leading dimension {rhs.shape[0]}, expected {self.n_train}"
            )
        return cho_solve((self.factor, True), rhs)


@dataclass(frozen=True)
class PosteriorResult:
    """Posterior mean at the test points."""

    mean: np.ndarray


def _as_input_matrix(inputs) -> np.ndarray:
    """Stack a list of equal-dimension vectors into a (D, N) matrix."""
    rows = [np.atleast_1d(np.asarray(x, dtype=float)) for x in inputs]
    if not rows:
        raise InputError("need at least one input point")
    dim = rows[0].shape[0]
    for i, r in enumerate(rows):
        if r.ndim != 1 or r.shape[0] != dim:
            raise InputError(
                f"input {i} has dimension {r.shape}, expected ({dim},)"
            )
    return np.vstack(rows)


def assemble_gram(kernel, inputs) -> np.ndarray:
    """Kernel matrix over all training pairs, explicitly symmetrized.

    ``kernel`` is a scalar kernel exposing ``pairwise(X, X2)``.
    """
    X = _as_input_matrix(inputs)
    K = np.asarray(kernel.pairwise(X, X), dtype=float)
    return 0.5 * (K + K.T)


def factorize(gram: np.ndarray, noise_variance: float) -> GramFactorization:
    """Factorize gram + noise_variance*I, escalating jitter on failure."""
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise InputError(f"gram must be square, got shape {gram.shape}")
    if noise_variance < 0:
        raise InputError(f"noise_variance must be >= 0, got {noise_variance}")
    gram = 0.5 * (gram + gram.T)
    eye = np.eye(gram.shape[0])
    attempted = []
    for jitter in (0.0, *JITTER_LADDER):
        attempted.append(jitter)
        try:
            factor, _ = cho_factor(
                gram + (noise_variance + jitter) * eye, lower=True
            )
        except np.linalg.LinAlgError:
            continue
        return GramFactorization(
            gram=gram,
            noise_variance=float(noise_variance),
            jitter_used=jitter,
            factor=np.tril(factor),
        )
    raise NumericalError(
        f"factorization failed at every jitter level {attempted}"
    )


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
    if cross_cov.shape[0] != d:
        raise InputError(
            f"cross_cov has {cross_cov.shape[0]} rows, expected {d}"
        )
    m = cross_cov.shape[1] if cross_cov.ndim == 2 else 1
    if prior_mean_train.shape != (d,):
        raise InputError("prior_mean_train shape mismatch")
    if observations.shape != (d,):
        raise InputError("observations shape mismatch")
    if prior_mean_test.shape != (m,):
        raise InputError("prior_mean_test shape mismatch")

    cross = cross_cov.reshape(d, m)
    alpha = fact.solve(observations - prior_mean_train)
    return PosteriorResult(mean=prior_mean_test + cross.T @ alpha)


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
    K = 0.5 * (K + K.T)
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
