"""Synthetic passive benchmark systems, data generation, metrics and file I/O.

The proprietary aircraft landing simulator is replaced here by analytically
defined damping fields that are positive semidefinite over their whole
domain, so the qualitative claims (structure improves data efficiency,
constraints preserve passivity) stay testable.  The default 3-D domain
mimics an angle/angle/airspeed coordinate: two symmetric wind bands in
[-25, 25] and one strictly positive band in [40, 90].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParseError
from .models import Dataset

PSD_SWEEP_POINTS = 10_000
PSD_SWEEP_BLOCK = 1_000

# Periodic excitation constants: frequencies and phases per input dimension.
TRAJECTORY_FREQUENCIES = (0.1, 0.2, 0.3)
TRAJECTORY_PHASES = (0.0, 2.0, 3.0)
# Periodic start time in periods: seed * 0.618... mod 1, which is 0 for seed 0
# and distinct for distinct seeds.
_GOLDEN_FRACTION = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class GroundTruthSystem:
    """An analytic velocity-to-damping-matrix map over a box domain.

    ``damping_fn`` is the field itself: it maps an (M, N) block of
    velocities to the (M, N, N) damping matrices at those velocities.
    """

    name: str
    damping_fn: object  # Q (M, N) -> (M, N, N)
    domain: np.ndarray  # (N, 2) lo/hi per dimension
    default_lengthscales: np.ndarray

    @property
    def n_dim(self) -> int:
        return self.domain.shape[0]

    def damping_batch(self, Q) -> np.ndarray:
        """Damping matrices (M, N, N) at the rows of ``Q`` (M, N)."""
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[1] != self.n_dim:
            raise InputError(
                f"system {self.name!r} takes (M, {self.n_dim}) velocities, "
                f"got shape {Q.shape}"
            )
        d = np.asarray(self.damping_fn(Q), dtype=float)
        expected = (Q.shape[0], self.n_dim, self.n_dim)
        if d.shape != expected:
            raise InputError(
                f"system {self.name!r}: damping_fn returned shape {d.shape} "
                f"for velocities of shape {Q.shape}; expected {expected}"
            )
        return d

    def torque_batch(self, Q) -> np.ndarray:
        """Torques D(qd) qd (M, N) at the rows of ``Q`` (M, N)."""
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        return (self.damping_batch(Q) @ Q[:, :, None])[:, :, 0]


def _psd_construction_sweep(system: GroundTruthSystem) -> None:
    """Reject systems whose damping field is not PSD across the domain.

    The points are checked in blocks, one field call and one batched
    Cholesky each, so the sweep never holds more than one block of
    matrices.  A block whose symmetric parts all factor passes: then
    lambda_min >= -O(eps * ||A||), far above the -1e-10 * trace threshold.
    Only a block that Cholesky rejects (an indefinite or singular matrix)
    is checked against that threshold with a batched ``eigvalsh``.  A
    non-finite matrix is rejected first: neither test would catch a NaN.
    """
    rng = np.random.default_rng(0)
    lo, hi = system.domain[:, 0], system.domain[:, 1]
    pts = rng.uniform(lo, hi, size=(PSD_SWEEP_POINTS, system.n_dim))
    for start in range(0, PSD_SWEEP_POINTS, PSD_SWEEP_BLOCK):
        block = pts[start : start + PSD_SWEEP_BLOCK]
        d = system.damping_batch(block)
        nonfinite = np.flatnonzero(~np.isfinite(d).all(axis=(1, 2)))
        if nonfinite.size:
            raise InputError(
                f"system {system.name!r}: damping matrix not finite at {block[nonfinite[0]]}"
            )
        sym = d + d.transpose(0, 2, 1)
        sym *= 0.5
        try:
            np.linalg.cholesky(sym)
            continue
        except np.linalg.LinAlgError:
            pass
        min_eig = np.linalg.eigvalsh(sym)[:, 0]
        bad = np.flatnonzero(min_eig < -1e-10 * np.abs(np.trace(sym, axis1=1, axis2=2)))
        if bad.size:
            i = bad[0]
            raise InputError(
                f"system {system.name!r}: damping matrix not PSD at {block[i]} "
                f"(min eigenvalue {min_eig[i]:g})"
            )


def make_system(name, damping_fn, domain, default_lengthscales) -> GroundTruthSystem:
    system = GroundTruthSystem(
        name=name,
        damping_fn=damping_fn,
        domain=np.asarray(domain, dtype=float),
        default_lengthscales=np.asarray(default_lengthscales, dtype=float),
    )
    _psd_construction_sweep(system)
    return system


_DIAG3_A = np.array([1.0, 1.5, 2.0])
_DIAG3_B = np.array([0.004, 0.05, 0.5])


def _each(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` applied to every entry of the 1-D array ``x``, one Python call each.

    The fields use ``math.tanh`` and Python's ``float ** 2``: ``np.tanh`` and
    numpy's ``x ** 2`` round some inputs differently, and the fields must keep
    the bits of the data they generate.
    """
    return np.array([fn(v) for v in x.tolist()], dtype=float)


def _diag3_damping(Q: np.ndarray) -> np.ndarray:
    d = np.zeros((len(Q), 3, 3))
    d[:, 0, 0] = _DIAG3_A[0] + _DIAG3_B[0] * _each(lambda v: v**2, Q[:, 0])
    d[:, 1, 1] = _DIAG3_A[1] + _DIAG3_B[1] * np.abs(Q[:, 1])
    d[:, 2, 2] = _DIAG3_A[2] + _DIAG3_B[2] * _each(lambda v: math.tanh(v) ** 2, Q[:, 2])
    return d


def _full3_damping(Q: np.ndarray) -> np.ndarray:
    """L(qd) L(qd)^T + 0.1 I with a smooth lower-triangular factor L(qd)."""
    L = np.zeros((len(Q), 3, 3))
    L[:, 0, 0] = 1.2
    L[:, 1, 0] = 0.3 + 0.1 * _each(math.tanh, Q[:, 0] / 10.0)
    L[:, 1, 1] = 1.0
    L[:, 2, 0] = 0.2
    L[:, 2, 1] = 0.15 + 0.1 * _each(math.tanh, Q[:, 1] / 10.0)
    L[:, 2, 2] = 1.5 + 0.2 * _each(math.tanh, (Q[:, 2] - 65.0) / 20.0)
    return L @ L.transpose(0, 2, 1) + 0.1 * np.eye(3)


_BOX3 = [[-25.0, 25.0], [-25.0, 25.0], [40.0, 90.0]]


# id -> make_system arguments after the id
_SYSTEM_SPECS = {
    # scalar constant damping d = 2 (analytic reference case)
    "linear1": (lambda Q: np.full((len(Q), 1, 1), 2.0), [[-25.0, 25.0]], [12.0]),
    # diagonal damping: quadratic, absolute-value and tanh^2 laws
    "diag3": (_diag3_damping, _BOX3, [12.0, 12.0, 12.0]),
    # full damping L(qd) L(qd)^T + 0.1 I with smooth triangular factor
    "full3": (_full3_damping, _BOX3, [12.0, 12.0, 12.0]),
}


def get_system(system_id: str) -> GroundTruthSystem:
    """Build one shipped system; only that system's PSD sweep runs."""
    if system_id not in _SYSTEM_SPECS:
        raise InputError(
            f"unknown system id {system_id!r}; available: {sorted(_SYSTEM_SPECS)}"
        )
    return make_system(system_id, *_SYSTEM_SPECS[system_id])


def sample_trajectory(
    system: GroundTruthSystem,
    count: int,
    seed: int = 0,
    waveform: str = "periodic",
) -> np.ndarray:
    """Velocity samples: sinusoidal sweep of the box or seeded uniform draws.

    Periodic mode places ``count`` equally spaced times over one fundamental
    period of the per-dimension frequencies, starting at the seed's fraction
    of the golden ratio times the period (time 0 for seed 0); the box center
    and half-width give offset and amplitude, so every sample stays inside
    the domain.
    """
    if count < 1:
        raise InputError("count must be >= 1")
    lo, hi = system.domain[:, 0], system.domain[:, 1]
    if waveform == "uniform":
        rng = np.random.default_rng(seed)
        return rng.uniform(lo, hi, size=(count, system.n_dim))
    if waveform != "periodic":
        raise InputError(f"unknown waveform {waveform!r}")
    center = 0.5 * (lo + hi)
    amplitude = 0.5 * (hi - lo)
    freqs = np.array(TRAJECTORY_FREQUENCIES[: system.n_dim])
    phases = np.array(TRAJECTORY_PHASES[: system.n_dim])
    if freqs.size < system.n_dim:
        raise InputError("periodic waveform supports at most 3 dimensions")
    period = 10.0  # fundamental period of frequencies 0.1, 0.2, 0.3
    t0 = period * ((seed * _GOLDEN_FRACTION) % 1.0)
    t = t0 + np.linspace(0.0, period, count, endpoint=False)
    return center + amplitude * np.sin(2.0 * math.pi * freqs * t[:, None] + phases)


def generate_dataset(
    system: GroundTruthSystem,
    velocities: np.ndarray,
    noise_std: float,
    seed: int = 0,
) -> Dataset:
    """Noisy torque observations y_i = D(qd_i) qd_i + N(0, noise_std^2 I)."""
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise InputError(f"noise_std must be finite and >= 0, got {noise_std}")
    Q = np.atleast_2d(np.asarray(velocities, dtype=float))
    Y = system.torque_batch(Q)
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        Y = Y + rng.normal(0.0, noise_std, size=Y.shape)
    return Dataset(Q, Y)


def adversarial_dataset(
    size: int = 60,
    seed: int = 0,
    boundary_fraction: float = 0.15,
    noise_std: float = 0.5,
) -> Dataset:
    """Dataset engineered to break unconstrained passivity near the boundary.

    Most samples follow the diag3 ground truth, but a cluster near the upper
    domain corner gets its torque flipped against the velocity so the local
    dissipated power is strongly negative.  An unconstrained fit chases those
    points; a constrained fit cannot.
    """
    system = get_system("diag3")
    rng = np.random.default_rng(seed)
    lo, hi = system.domain[:, 0], system.domain[:, 1]
    n_bad = max(1, int(round(size * boundary_fraction)))
    n_good = size - n_bad
    Q_good = rng.uniform(lo, hi, size=(n_good, system.n_dim))
    # cluster in the top 10% band of every dimension
    Q_bad = rng.uniform(hi - 0.1 * (hi - lo), hi, size=(n_bad, system.n_dim))
    Q = np.vstack([Q_good, Q_bad])
    Y = system.torque_batch(Q)
    # flip: y -> y - 2 * (power / |qd|^2) * qd negates the local power
    for i in range(n_good, size):
        q = Q[i]
        power = float(q @ Y[i])
        Y[i] = Y[i] - 2.0 * (power / float(q @ q)) * q
    Y = Y + rng.normal(0.0, noise_std, size=Y.shape)
    return Dataset(Q, Y)


@dataclass(frozen=True)
class NmseResult:
    per_output: np.ndarray
    aggregate: float


def nmse(predictions: np.ndarray, truth: np.ndarray) -> NmseResult:
    """Normalized mean squared error per output and averaged over outputs."""
    pred = np.atleast_2d(np.asarray(predictions, dtype=float))
    y = np.atleast_2d(np.asarray(truth, dtype=float))
    if pred.shape != y.shape:
        raise InputError(f"shape mismatch: {pred.shape} vs {y.shape}")
    num = np.sum((pred - y) ** 2, axis=0)
    den = np.sum((y - y.mean(axis=0)) ** 2, axis=0)
    per = np.empty(y.shape[1])
    for n in range(y.shape[1]):
        if den[n] == 0.0:
            per[n] = 0.0 if num[n] == 0.0 else math.inf
        else:
            per[n] = num[n] / den[n]
    return NmseResult(per_output=per, aggregate=float(np.mean(per)))


@dataclass(frozen=True)
class RelativeErrorResult:
    mean: np.ndarray  # (N,)
    variance: np.ndarray  # (N,)


def relative_error(predictions, truth, normalizer: float) -> RelativeErrorResult:
    """Elementwise (prediction - truth) / normalizer with per-output stats."""
    if not normalizer > 0:
        raise InputError("normalizer must be > 0")
    pred = np.atleast_2d(np.asarray(predictions, dtype=float))
    y = np.atleast_2d(np.asarray(truth, dtype=float))
    if pred.shape != y.shape:
        raise InputError(f"shape mismatch: {pred.shape} vs {y.shape}")
    err = (pred - y) / normalizer
    return RelativeErrorResult(mean=err.mean(axis=0), variance=err.var(axis=0))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_rows(rows: np.ndarray, sep: str) -> str:
    """Each row of a 2-D array as ``sep``-joined 17-significant-digit values
    plus a newline; the same text as ``_fmt`` per value, in one format call."""
    rows = np.asarray(rows, dtype=float)
    line = sep.join(["%.17g"] * rows.shape[1]) + "\n"
    return line * rows.shape[0] % tuple(rows.ravel().tolist())


def write_dataset(path, data: Dataset) -> None:
    """Plain CSV: header qd_1..qd_N,tau_1..tau_N, 17-significant-digit rows."""
    n = data.n_dim
    header = ",".join([f"qd_{i+1}" for i in range(n)] + [f"tau_{i+1}" for i in range(n)])
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        fh.write(_fmt_rows(np.hstack([data.velocities, data.torques]), ","))


def read_dataset(path) -> Dataset:
    """Inverse of ``write_dataset``; errors carry the offending line number."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file, no data rows")
    header = lines[0].split(",")
    if len(header) < 2 or len(header) % 2 != 0:
        raise ParseError(f"{path}:1: malformed header {lines[0]!r}")
    n = len(header) // 2
    expected = [f"qd_{i+1}" for i in range(n)] + [f"tau_{i+1}" for i in range(n)]
    if header != expected:
        raise ParseError(f"{path}:1: header columns {header} != {expected}")
    velocities, torques = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2 * n:
            raise ParseError(
                f"{path}:{lineno}: expected {2 * n} columns, found {len(parts)}"
            )
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        velocities.append(vals[:n])
        torques.append(vals[n:])
    if not velocities:
        raise ParseError(f"{path}: no data rows")
    return Dataset(np.array(velocities), np.array(torques))


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description, mirroring the plain-text config keys."""

    system: str = "full3"
    train_sizes: tuple = (50,)
    val_size: int = 100
    test_size: int = 200
    noise_std: float = 1.0
    seeds: tuple = (0, 1, 2)
    kinds: tuple = ("ard", "diag", "full")
    lengthscales: tuple | None = None  # None -> the system default
    noise_variance: float = 100.0
    constrained: bool = False
    budget: int = 40

    def __post_init__(self):
        for key in ("train_sizes", "seeds", "kinds"):
            if not getattr(self, key):
                raise InputError(f"{key} must list at least one value")
        if self.val_size < 1 or self.test_size < 1:
            raise InputError("val_size and test_size must be >= 1")
        if any(s < 1 for s in self.train_sizes):
            raise InputError("train sizes must be >= 1")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise InputError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if not (math.isfinite(self.noise_variance) and self.noise_variance > 0):
            raise InputError(
                f"noise_variance must be finite and > 0, got {self.noise_variance}"
            )

    def resolved_lengthscales(self) -> np.ndarray:
        if self.lengthscales is not None:
            return np.asarray(self.lengthscales, dtype=float)
        return get_system(self.system).default_lengthscales


def _tuple_of(cast):
    """Parser of a comma-separated list into a tuple of ``cast`` values."""
    return lambda value: tuple(cast(v.strip()) for v in value.split(",") if v.strip())


def _parse_bool(value: str) -> bool:
    if value not in ("true", "false"):
        raise ValueError(f"expected true/false, got {value!r}")
    return value == "true"


# config key -> value parser; the keys are the ExperimentConfig fields
_CONFIG_PARSERS = {
    "system": str,
    "train_sizes": _tuple_of(int),
    "val_size": int,
    "test_size": int,
    "noise_std": float,
    "seeds": _tuple_of(int),
    "kinds": _tuple_of(str),
    "lengthscales": _tuple_of(float),
    "noise_variance": float,
    "constrained": _parse_bool,
    "budget": int,
}


def read_config(path) -> ExperimentConfig:
    """Parse a flat ``key = value`` config file ('#' starts a comment)."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_PARSERS:
                raise InputError(
                    f"{path}:{lineno}: unknown config key {key!r}; "
                    f"known keys: {sorted(_CONFIG_PARSERS)}"
                )
            try:
                values[key] = _CONFIG_PARSERS[key](value)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return ExperimentConfig(**values)
