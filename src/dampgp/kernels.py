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

from .errors import (InputError, _check_batch, _check_corr, _check_count, _check_number,
                     _check_numbers, _check_velocity, _validate_lengthscales)


def se_correlation(ell: np.ndarray, X: np.ndarray, X2: np.ndarray, out=None) -> np.ndarray:
    """Unit-amplitude SE-ARD correlation over all row pairs of X, X2,
    written into ``out`` (a float (D, M) array) when it is given.

    Every element kernel of a model shares it, so a caller that needs the
    matrices of all N outputs over the same inputs computes it once and
    hands it to each output's ``pairwise``.

    With s = x / ell it is exp(min(-|s|^2/2 - |s2|^2/2 + s.s2, 0)), the
    first two terms from the rank-2 product [-|s_i|^2/2, 1] @ [1, -|s2_j|^2/2]^T.
    Each entry of that product is a sum of two exact products (the other
    factor is 1), so any BLAS kernel rounds it once, as the broadcast sum
    of the two would be; the scalings by -1/2 are exact, so the bits are
    those of exp(-0.5 * max(|s|^2 + |s2|^2 - 2 s.s2, 0)).  The exception
    is the band where that expression computes inf - inf = NaN, as
    |s|^2 + |s2|^2 and 2 s.s2 both overflow (|s| and |s2| near 1e154 or
    above): there this one may give a number (0.0 for s = 1.5e154 against
    s2 = 0.7e154, and 1.0 for s = s2 = 0.95e154).
    """
    S = X / ell
    S2 = X2 / ell
    A = np.ones((len(S), 2))
    A[:, 0] = (S * S).sum(axis=1) * -0.5
    B_T = np.ones((2, len(S2)))
    B_T[1] = (S2 * S2).sum(axis=1) * -0.5
    t = np.matmul(A, B_T, out=out)
    t += S @ S2.T
    np.minimum(t, 0.0, out=t)
    return np.exp(t, out=t)


@dataclass(frozen=True)
class _OutputKernel:
    """Scalar kernel of one output: the SE-ARD correlation of
    ``lengthscales`` times the scale that its ``_times`` applies."""

    lengthscales: np.ndarray

    @property
    def dim(self) -> int:
        return self.lengthscales.size

    def pairwise(self, X: np.ndarray, X2: np.ndarray, corr=None) -> np.ndarray:
        """Kernel matrix over all row pairs; ``corr`` is the shared
        ``se_correlation(lengthscales, X, X2)`` when the caller has it, and
        must have that matrix's shape.  A Gram passes X as both, checked once."""
        same = X2 is X
        X = _check_batch(X, self.dim, "X")
        X2 = X if same else _check_batch(X2, self.dim, "X2")
        corr = se_correlation(self.lengthscales, X, X2) if corr is None else _check_corr(corr, X, X2)
        return self._times(corr, X, X2)


@dataclass(frozen=True)
class SeArdKernel(_OutputKernel):
    """SE-ARD kernel: sigma_f^2 * exp(-0.5 * sum_n ((x_n - x'_n)/ell_n)^2)."""

    hypervariance: float  # sigma_f^2

    def __post_init__(self):
        object.__setattr__(self, "lengthscales", _validate_lengthscales(self.lengthscales))
        _check_number("hypervariance", self.hypervariance)

    def __call__(self, x, xp) -> float:
        X, X2 = _check_velocity(x, self.dim, "x"), _check_velocity(xp, self.dim, "xp")
        return float(self.pairwise(X, X2)[0, 0])

    def _times(self, corr, X, X2) -> np.ndarray:
        return self.hypervariance * corr


@dataclass(frozen=True)
class _PerOutputKernel(_OutputKernel):
    """Scalar kernel for one output of a structured torque kernel.

    Full grid: k_m(q, q') = sum_n q_n q'_n k_{mn}(q, q'); diagonal:
    k_m(q, q') = q_m q'_m k_m(q, q').  ``row_variances`` holds the
    sigma_f^2 values entering that sum (zeros off the active column for
    the diagonal case).
    """

    row_variances: np.ndarray

    def _times(self, corr, X, X2) -> np.ndarray:
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
        object.__setattr__(self, "hypervariances", _check_numbers("hypervariances", hyp))

    @property
    def dim(self) -> int:
        return self.lengthscales.size

    def output_kernel(self, m: int):
        """Scalar kernel of output m, over velocities."""
        return self._output_kernel(_check_count("output index", m, 0, self.dim - 1))


class _TorqueKernel(_KernelCore):
    """Torque covariance of a damping model with an N x N sigma_f^2 ``grid``.

    K(q, q') = sum_n q_n q'_n diag(k_{1n}(q, q'), ..., k_{Nn}(q, q')),
    always a diagonal N x N matrix; ``grid[m, n]`` is the sigma_f^2 of
    element kernel k_{mn} (zero where the model has no element).
    """

    def __post_init__(self):
        # built once: a fit reads the grid N times and a prediction once more
        super().__post_init__()
        hyp = self.hypervariances
        object.__setattr__(self, "grid", np.diag(hyp) if hyp.ndim == 1 else hyp)

    def __call__(self, qd, qd2) -> np.ndarray:
        Q, Q2 = _check_velocity(qd, self.dim, "qd"), _check_velocity(qd2, self.dim, "qd2")
        corr = se_correlation(self.lengthscales, Q, Q2)[0, 0]
        return np.diag(corr * (self.grid @ (Q[0] * Q2[0])))

    def _output_kernel(self, m: int) -> _PerOutputKernel:
        return _PerOutputKernel(self.lengthscales, self.grid[m].copy())


class FullTorqueKernel(_TorqueKernel):
    """Full damping grid: ``hypervariances[m, n]`` is the sigma_f^2 of k_{mn}."""

    hyp_ndim = 2


class DiagTorqueKernel(_TorqueKernel):
    """Diagonal damping model: the full model with its off-diagonal elements
    removed, so entry (n, n) of K(q, q') is q_n q'_n k_n(q, q').
    ``hypervariances`` is the (N,) diagonal of the grid.
    """


class SeArdKernelBank(_KernelCore):
    """One independent SE-ARD kernel per output (the unstructured baseline);
    ``hypervariances`` holds one sigma_f^2 per output GP."""

    def _output_kernel(self, m: int) -> SeArdKernel:
        return SeArdKernel(self.lengthscales, float(self.hypervariances[m]))
