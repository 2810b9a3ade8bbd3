"""Scalar base kernels and the structured matrix-valued torque kernels.

All element kernels are squared-exponential with automatic relevance
determination (ARD) lengthscales shared across the grid; only the
hypervariances (sigma_f^2) differ per element; they are what the
passivity constraint binds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InputError


def _validate_lengthscales(ell: np.ndarray) -> np.ndarray:
    ell = np.asarray(ell, dtype=float)
    if ell.ndim != 1 or ell.size < 1:
        raise InputError("lengthscales must be a nonempty vector")
    if not np.all(np.isfinite(ell) & (ell > 0)):
        raise InputError(f"lengthscales must be finite and strictly positive, got {ell}")
    return ell


def se_correlation(ell: np.ndarray, X: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Unit-amplitude SE-ARD correlation over all row pairs of X, X2.

    Every element kernel of a model shares it, so a caller that needs the
    matrices of all N outputs over the same inputs computes it once and
    hands it to each output's ``pairwise``.
    """
    S = X / ell
    S2 = X2 / ell
    # exp(-0.5 * max(|s|^2 + |s2|^2 - 2 s.s2, 0)) in two (D, M) arrays;
    # the scalings by 2 and -0.5 are exact, so the bits match the
    # out-of-place expression
    cross = S @ S2.T
    cross *= 2.0
    sq = np.sum(S * S, axis=1)[:, None] + np.sum(S2 * S2, axis=1)[None, :]
    sq -= cross
    np.maximum(sq, 0.0, out=sq)
    sq *= -0.5
    return np.exp(sq, out=sq)


@dataclass(frozen=True)
class SeArdKernel:
    """SE-ARD kernel: sigma_f^2 * exp(-0.5 * sum_n ((x_n - x'_n)/ell_n)^2)."""

    lengthscales: np.ndarray
    hypervariance: float  # sigma_f^2

    def __post_init__(self):
        object.__setattr__(self, "lengthscales", _validate_lengthscales(self.lengthscales))
        if not (np.isfinite(self.hypervariance) and self.hypervariance > 0):
            raise InputError(f"hypervariance must be finite and > 0, got {self.hypervariance}")

    @property
    def dim(self) -> int:
        return self.lengthscales.size

    def __call__(self, x, xp) -> float:
        x = np.asarray(x, dtype=float)
        xp = np.asarray(xp, dtype=float)
        if x.shape != (self.dim,) or xp.shape != (self.dim,):
            raise InputError(
                f"inputs must have dimension {self.dim}, got {x.shape} and {xp.shape}"
            )
        return float(self.pairwise(x[None, :], xp[None, :])[0, 0])

    def pairwise(self, X: np.ndarray, X2: np.ndarray, corr=None) -> np.ndarray:
        """Kernel matrix over all row pairs; ``corr`` is the shared
        ``se_correlation(lengthscales, X, X2)`` when the caller has it."""
        if corr is None:
            corr = se_correlation(self.lengthscales, X, X2)
        return self.hypervariance * corr


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

    def pairwise(self, X: np.ndarray, X2: np.ndarray, corr=None) -> np.ndarray:
        """Kernel matrix over all row pairs; ``corr`` is the shared
        ``se_correlation(lengthscales, X, X2)`` when the caller has it."""
        X = np.asarray(X, dtype=float)
        X2 = np.asarray(X2, dtype=float)
        if X.shape[1] != self.dim or X2.shape[1] != self.dim:
            raise InputError(f"inputs must have dimension {self.dim}")
        if corr is None:
            corr = se_correlation(self.lengthscales, X, X2)
        out = (X * self.row_variances) @ X2.T
        out *= corr
        return out


@dataclass(frozen=True)
class _KernelCore:
    """ARD lengthscales plus a positive sigma_f^2 array of ``hyp_ndim``
    dimensions of size N, with the output-index check of ``output_kernel``.
    """

    lengthscales: np.ndarray
    hypervariances: np.ndarray
    hyp_ndim: ClassVar[int] = 1

    def __post_init__(self):
        ell = _validate_lengthscales(self.lengthscales)
        object.__setattr__(self, "lengthscales", ell)
        hyp = np.asarray(self.hypervariances, dtype=float)
        shape = (ell.size,) * self.hyp_ndim
        if hyp.shape != shape:
            raise InputError(f"hypervariances must have shape {shape}, got {hyp.shape}")
        if not np.all(np.isfinite(hyp) & (hyp > 0)):
            raise InputError("hypervariances must be finite and strictly positive")
        object.__setattr__(self, "hypervariances", hyp)

    @property
    def dim(self) -> int:
        return self.lengthscales.size

    def output_kernel(self, m: int):
        """Scalar kernel of output m, over velocities."""
        if not 0 <= m < self.dim:
            raise InputError(f"output index {m} out of range [0, {self.dim})")
        return self._output_kernel(m)


class _TorqueKernel(_KernelCore):
    """Torque covariance of a damping model with an N x N sigma_f^2 ``grid``.

    K(q, q') = sum_n q_n q'_n diag(k_{1n}(q, q'), ..., k_{Nn}(q, q')),
    always a diagonal N x N matrix; ``grid[m, n]`` is the sigma_f^2 of
    element kernel k_{mn} (zero where the model has no element).
    """

    def __call__(self, qd, qd2) -> np.ndarray:
        qd = np.asarray(qd, dtype=float)
        qd2 = np.asarray(qd2, dtype=float)
        if qd.shape != (self.dim,) or qd2.shape != (self.dim,):
            raise InputError(f"velocities must have dimension {self.dim}")
        corr = se_correlation(self.lengthscales, qd[None, :], qd2[None, :])[0, 0]
        return np.diag(corr * (self.grid @ (qd * qd2)))

    def _output_kernel(self, m: int) -> _PerOutputKernel:
        return _PerOutputKernel(self.lengthscales, self.grid[m].copy())


class FullTorqueKernel(_TorqueKernel):
    """Full damping grid: ``hypervariances[m, n]`` is the sigma_f^2 of k_{mn}."""

    hyp_ndim = 2

    @property
    def grid(self) -> np.ndarray:
        return self.hypervariances


class DiagTorqueKernel(_TorqueKernel):
    """Diagonal damping model: the full model with its off-diagonal elements
    removed, so entry (n, n) of K(q, q') is q_n q'_n k_n(q, q').
    ``hypervariances`` is the (N,) diagonal of the grid.
    """

    @property
    def grid(self) -> np.ndarray:
        return np.diag(self.hypervariances)


class SeArdKernelBank(_KernelCore):
    """One independent SE-ARD kernel per output (the unstructured baseline);
    ``hypervariances`` holds one sigma_f^2 per output GP."""

    def _output_kernel(self, m: int) -> SeArdKernel:
        return SeArdKernel(self.lengthscales, float(self.hypervariances[m]))
