"""Scalar base kernels and the structured matrix-valued torque kernels.

All element kernels are squared-exponential with automatic relevance
determination (ARD) lengthscales shared across the grid; only the
hypervariances differ per element.  Every kernel reports its amplitude
bound sigma_f^2, which is what the passivity constraint binds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


def _validate_lengthscales(ell: np.ndarray) -> np.ndarray:
    ell = np.asarray(ell, dtype=float)
    if ell.ndim != 1 or ell.size < 1:
        raise InputError("lengthscales must be a nonempty vector")
    if not np.all(ell > 0):
        raise InputError(f"lengthscales must be strictly positive, got {ell}")
    return ell


def _se_correlation(ell: np.ndarray, X: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Unit-amplitude SE-ARD correlation over all row pairs of X, X2."""
    S = X / ell
    S2 = X2 / ell
    sq = (
        np.sum(S * S, axis=1)[:, None]
        + np.sum(S2 * S2, axis=1)[None, :]
        - 2.0 * S @ S2.T
    )
    return np.exp(-0.5 * np.maximum(sq, 0.0))


@dataclass(frozen=True)
class SeArdKernel:
    """SE-ARD kernel: sigma_f^2 * exp(-0.5 * sum_n ((x_n - x'_n)/ell_n)^2)."""

    lengthscales: np.ndarray
    hypervariance: float  # sigma_f^2

    def __post_init__(self):
        object.__setattr__(self, "lengthscales", _validate_lengthscales(self.lengthscales))
        if not self.hypervariance > 0:
            raise InputError(f"hypervariance must be > 0, got {self.hypervariance}")

    @property
    def dim(self) -> int:
        return self.lengthscales.size

    @property
    def bound(self) -> float:
        """Amplitude bound: |k(x, x')| <= sigma_f^2 everywhere."""
        return self.hypervariance

    def __call__(self, x, xp) -> float:
        x = np.asarray(x, dtype=float)
        xp = np.asarray(xp, dtype=float)
        if x.shape != (self.dim,) or xp.shape != (self.dim,):
            raise InputError(
                f"inputs must have dimension {self.dim}, got {x.shape} and {xp.shape}"
            )
        z = (x - xp) / self.lengthscales
        return float(self.hypervariance * np.exp(-0.5 * np.dot(z, z)))

    def pairwise(self, X: np.ndarray, X2: np.ndarray) -> np.ndarray:
        return self.hypervariance * _se_correlation(self.lengthscales, X, X2)


@dataclass(frozen=True)
class _PerOutputKernel:
    """Scalar kernel for one output of a structured torque kernel.

    Full grid: k_m(q, q') = sum_n q_n q'_n k_{mn}(q, q'); diagonal:
    k_m(q, q') = q_m q'_m k_m(q, q').  ``row_variances`` holds the
    sigma_f^2 values entering that sum (zeros off the active column for
    the diagonal case).
    """

    lengthscales: np.ndarray
    row_variances: np.ndarray

    @property
    def dim(self) -> int:
        return self.lengthscales.size

    def __call__(self, x, xp) -> float:
        return float(self.pairwise(np.atleast_2d(x), np.atleast_2d(xp))[0, 0])

    def pairwise(self, X: np.ndarray, X2: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        X2 = np.asarray(X2, dtype=float)
        if X.shape[1] != self.dim or X2.shape[1] != self.dim:
            raise InputError(f"inputs must have dimension {self.dim}")
        corr = _se_correlation(self.lengthscales, X, X2)
        return corr * ((X * self.row_variances) @ X2.T)


def _validate_structured(hyp: np.ndarray, shape: tuple) -> None:
    if hyp.shape != shape:
        raise InputError(f"hypervariances must have shape {shape}, got {hyp.shape}")
    if not np.all(hyp > 0):
        raise InputError("hypervariances must be strictly positive")


@dataclass(frozen=True)
class FullTorqueKernel:
    """Torque covariance of an independently modeled full damping grid.

    K(q, q') = sum_n q_n q'_n diag(k_{1n}(q, q'), ..., k_{Nn}(q, q')),
    always a diagonal N x N matrix.  ``hypervariances[m, n]`` is the
    sigma_f^2 of element kernel k_{mn}.
    """

    lengthscales: np.ndarray
    hypervariances: np.ndarray  # (N, N) of sigma_f^2

    def __post_init__(self):
        ell = _validate_lengthscales(self.lengthscales)
        object.__setattr__(self, "lengthscales", ell)
        hyp = np.asarray(self.hypervariances, dtype=float)
        _validate_structured(hyp, (ell.size, ell.size))
        object.__setattr__(self, "hypervariances", hyp)

    @property
    def dim(self) -> int:
        return self.lengthscales.size

    def __call__(self, qd, qd2) -> np.ndarray:
        qd = np.asarray(qd, dtype=float)
        qd2 = np.asarray(qd2, dtype=float)
        if qd.shape != (self.dim,) or qd2.shape != (self.dim,):
            raise InputError(f"velocities must have dimension {self.dim}")
        corr = _se_correlation(self.lengthscales, qd[None, :], qd2[None, :])[0, 0]
        return np.diag(corr * (self.hypervariances @ (qd * qd2)))

    def output_kernel(self, m: int) -> _PerOutputKernel:
        if not 0 <= m < self.dim:
            raise InputError(f"output index {m} out of range [0, {self.dim})")
        return _PerOutputKernel(self.lengthscales, self.hypervariances[m].copy())


@dataclass(frozen=True)
class DiagTorqueKernel:
    """Torque covariance of a diagonal damping model.

    K(q, q') = diag(q) diag(k_1(q, q'), ..., k_N(q, q')) diag(q'), so entry
    (n, n) is q_n q'_n k_n(q, q') and off-diagonals vanish identically.
    """

    lengthscales: np.ndarray
    hypervariances: np.ndarray  # (N,) of sigma_f^2

    def __post_init__(self):
        ell = _validate_lengthscales(self.lengthscales)
        object.__setattr__(self, "lengthscales", ell)
        hyp = np.asarray(self.hypervariances, dtype=float)
        _validate_structured(hyp, (ell.size,))
        object.__setattr__(self, "hypervariances", hyp)

    @property
    def dim(self) -> int:
        return self.lengthscales.size

    def __call__(self, qd, qd2) -> np.ndarray:
        qd = np.asarray(qd, dtype=float)
        qd2 = np.asarray(qd2, dtype=float)
        if qd.shape != (self.dim,) or qd2.shape != (self.dim,):
            raise InputError(f"velocities must have dimension {self.dim}")
        corr = _se_correlation(self.lengthscales, qd[None, :], qd2[None, :])[0, 0]
        return np.diag(qd * qd2 * self.hypervariances * corr)

    def output_kernel(self, m: int) -> _PerOutputKernel:
        if not 0 <= m < self.dim:
            raise InputError(f"output index {m} out of range [0, {self.dim})")
        row = np.zeros(self.dim)
        row[m] = self.hypervariances[m]
        return _PerOutputKernel(self.lengthscales, row)


@dataclass(frozen=True)
class SeArdKernelBank:
    """One independent SE-ARD kernel per output (the unstructured baseline)."""

    lengthscales: np.ndarray
    hypervariances: np.ndarray  # (N,) of sigma_f^2, one per output GP

    def __post_init__(self):
        ell = _validate_lengthscales(self.lengthscales)
        object.__setattr__(self, "lengthscales", ell)
        hyp = np.asarray(self.hypervariances, dtype=float)
        _validate_structured(hyp, (ell.size,))
        object.__setattr__(self, "hypervariances", hyp)

    @property
    def dim(self) -> int:
        return self.lengthscales.size

    def output_kernel(self, m: int) -> SeArdKernel:
        if not 0 <= m < self.dim:
            raise InputError(f"output index {m} out of range [0, {self.dim})")
        return SeArdKernel(self.lengthscales, float(self.hypervariances[m]))
