"""Exception hierarchy shared across the package, and the value rules that
raise ``InputError``: one per input, called wherever the input enters (the
kind rule stays in ``models``, beside the kernel table it names).

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies.
"""

from __future__ import annotations

import operator

import numpy as np


class DampGpError(Exception):
    """Base class for all package-specific errors."""


class InputError(DampGpError):
    """Invalid user input: bad shapes, malformed files, unknown identifiers."""


class ParseError(InputError):
    """A text file failed to parse; message carries the offending line."""


class NumericalError(DampGpError):
    """A numerical procedure failed beyond recoverable limits."""


class InfeasibilityError(DampGpError):
    """No admissible hyperparameters satisfy the passivity constraint."""


class UnsupportedModelError(InputError):
    """Operation not defined for this estimator kind."""


# numpy's largest array length; an (M, N) float64 array needs M <= _INTP_MAX // (8 * N)
_INTP_MAX = int(np.iinfo(np.intp).max)


def _check_count(name: str, value, minimum: int, maximum: int = _INTP_MAX) -> int:
    """``value`` as an int in [minimum, maximum], by default numpy's largest length."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if not minimum <= value <= maximum:
        bound = f">= {minimum}" if value < minimum else f"<= {maximum}"
        raise InputError(f"{name} must be {bound}, got {value}")
    return value


def _check_number(name: str, value, zero_ok: bool = False) -> None:
    """The real number ``value`` is finite and > 0 (>= 0 when ``zero_ok``).
    A plain comparison, not numpy: ``factorize`` checks its noise variance
    once per output of every fit."""
    try:
        ok = 0 <= value < np.inf if zero_ok else 0 < value < np.inf
    except (TypeError, ValueError):  # a str, None, a complex or a many-entry array
        raise InputError(f"{name} must be a real number, got {value!r}") from None
    if not ok:
        raise InputError(f"{name} must be finite and {'>=' if zero_ok else '>'} 0, got {value}")


def _check_numbers(name: str, values, zero_ok: bool = False) -> np.ndarray:
    """``values`` as a float array of ``_check_number``'s numbers, printed on one line."""
    a = np.asarray(values, dtype=float)
    if not (np.isfinite(a) & ((a >= 0) if zero_ok else (a > 0))).all():
        raise InputError(f"{name} must be finite and {'>=' if zero_ok else '>'} 0, got {a.tolist()}")
    return a


def _validate_lengthscales(ell, n: int | None = None) -> np.ndarray:
    """``ell`` as a vector of finite lengthscales > 0, ``n`` of them when given."""
    ell = np.asarray(ell, dtype=float)
    if n is not None and ell.size != n:
        raise InputError(f"got {ell.size} lengthscales for {n}-dimensional data")
    if ell.ndim != 1 or ell.size < 1:
        raise InputError("lengthscales must be a nonempty vector")
    return _check_numbers("lengthscales", ell)


def _check_box(domain, n: int | None = None) -> np.ndarray:
    """``domain`` as an (N, 2) array of finite lo <= hi velocity bounds with
    finite widths hi - lo, N = ``n`` when given."""
    box = np.asarray(domain, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2 or len(box) < 1 or n not in (None, len(box)):
        raise InputError(f"domain must have shape ({'N' if n is None else n}, 2)")
    if not np.all(np.isfinite(box)):
        raise InputError("domain bounds must be finite")
    if np.any(box[:, 0] > box[:, 1]):
        raise InputError(f"domain lower bounds must not exceed upper bounds, got {box.tolist()}")
    with np.errstate(over="ignore"):  # numpy's uniform raises OverflowError on an inf width
        if not np.isfinite(np.diff(box)).all():
            raise InputError(f"domain widths must be finite, got {box.tolist()}")
    return box


def _check_same_shape(a, b, message: str) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` as 2-D float arrays of one shape; a mismatch raises
    ``message`` with the two shapes in its ``{}``."""
    a, b = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (a, b))
    if a.shape != b.shape:
        raise InputError(message.format(a.shape, b.shape))
    return a, b


def _check_batch(X, n: int, name: str) -> np.ndarray:
    """The velocity batch ``name`` as a float (M, n) array, one velocity per row."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n:
        raise InputError(f"{name} must have shape (M, {n}), got {X.shape}")
    return X


def _check_corr(corr, X, X2):
    """``corr``, the SE correlation a caller passes for the batches ``X``
    and ``X2``, has the shape (len(X), len(X2)) of their kernel matrix."""
    if np.shape(corr) != (len(X), len(X2)):
        raise InputError(f"corr must have shape {(len(X), len(X2))}, got {np.shape(corr)}")
    return corr


def _check_velocities(X, n: int, name: str) -> np.ndarray:
    """The batch ``name`` as an (M, N) array of finite velocities; a single
    velocity is read as one row."""
    qs = _check_batch(np.atleast_2d(X), n, name)
    if not np.isfinite(qs).all():
        raise InputError(f"{name} must be finite")
    return qs


def _check_velocity(qd, n: int, name: str) -> np.ndarray:
    """One velocity ``name``, an N-vector, as a one-row batch of ``_check_velocities``."""
    qd = np.asarray(qd, dtype=float)
    if qd.shape != (n,):
        raise InputError(f"{name} must have shape ({n},), got {qd.shape}")
    return _check_velocities(qd[None, :], n, name)
