"""Synthetic passive benchmark systems, data generation, metrics and file I/O.

The proprietary aircraft landing simulator is replaced here by analytically
defined damping fields that are positive semidefinite over their whole
domain, so the qualitative claims (structure improves data efficiency,
constraints preserve passivity) stay testable.  The default 3-D domain
mimics an angle/angle/airspeed coordinate: two symmetric wind bands in
[-25, 25] and one strictly positive band in [40, 90].
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (_INTP_MAX, InputError, ParseError, _check_batch, _check_box, _check_count,
                     _check_number, _check_same_shape, _validate_lengthscales)
from .models import Dataset, _check_kind

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
        """Damping matrices (M, N, N) at the rows of ``Q`` (M, N); a
        non-finite matrix raises ``InputError`` naming its velocity."""
        Q = _check_batch(Q, self.n_dim, f"system {self.name!r} velocities")
        d = np.asarray(self.damping_fn(Q), dtype=float)
        expected = (Q.shape[0], self.n_dim, self.n_dim)
        if d.shape != expected:
            raise InputError(
                f"system {self.name!r}: damping_fn returned shape {d.shape} "
                f"for velocities of shape {Q.shape}; expected {expected}"
            )
        nonfinite = np.flatnonzero(~np.isfinite(d).all(axis=(1, 2)))
        if nonfinite.size:
            raise InputError(
                f"system {self.name!r}: damping matrix not finite at {Q[nonfinite[0]]}"
            )
        return d

    def torque_batch(self, Q) -> np.ndarray:
        """Torques D(qd) qd (M, N) at the rows of ``Q`` (M, N)."""
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        return (self.damping_batch(Q) @ Q[:, :, None])[:, :, 0]


def _psd_construction_sweep(system: GroundTruthSystem) -> None:
    """Reject systems whose damping field is not PSD across the domain.

    The points are checked in blocks, one field call and one batched
    ``eigvalsh`` each, so the sweep never holds more than one block of
    matrices.  A matrix fails when the minimum eigenvalue of its symmetric
    part is below -1e-10 * trace; ``damping_batch`` has already rejected a
    non-finite one, which no comparison would catch.

    The tolerance is not on the safe side of rounding, and it need not be:
    the sweep samples a user's field at finitely many points, so it can
    reject a field that is plainly not PSD but certifies nothing.  The
    passivity certificate rests on the bound's verdicts, not on this sweep.
    """
    rng = np.random.default_rng(0)
    lo, hi = system.domain[:, 0], system.domain[:, 1]
    pts = rng.uniform(lo, hi, size=(PSD_SWEEP_POINTS, system.n_dim))
    for start in range(0, PSD_SWEEP_POINTS, PSD_SWEEP_BLOCK):
        block = pts[start : start + PSD_SWEEP_BLOCK]
        d = system.damping_batch(block)
        sym = d + d.transpose(0, 2, 1)
        sym *= 0.5
        min_eig = np.linalg.eigvalsh(sym)[:, 0]
        bad = np.flatnonzero(min_eig < -1e-10 * np.abs(np.trace(sym, axis1=1, axis2=2)))
        if bad.size:
            i = bad[0]
            raise InputError(
                f"system {system.name!r}: damping matrix not PSD at {block[i]} "
                f"(min eigenvalue {min_eig[i]:g})"
            )


def _system(name, damping_fn, domain, ell) -> GroundTruthSystem:
    box = _check_box(domain)
    return GroundTruthSystem(name, damping_fn, box, _validate_lengthscales(ell, len(box)))


def make_system(name, damping_fn, domain, default_lengthscales) -> GroundTruthSystem:
    system = _system(name, damping_fn, domain, default_lengthscales)  # a user field: sweep it
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


def _square(v: float) -> float:
    """``v ** 2``, or inf where it overflows (``float ** 2`` raises there)."""
    try:
        return v**2
    except OverflowError:
        return math.inf


def _diag3_damping(Q: np.ndarray) -> np.ndarray:
    d = np.zeros((len(Q), 3, 3))
    d[:, 0, 0] = _DIAG3_A[0] + _DIAG3_B[0] * _each(_square, Q[:, 0])
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


# id -> make_system arguments after the id.  Each field is PSD at every finite
# velocity by construction, so get_system runs no sweep; tier-1 tests run it:
_SYSTEM_SPECS = {
    # the constant d = 2
    "linear1": (lambda Q: np.full((len(Q), 1, 1), 2.0), [[-25.0, 25.0]], [12.0]),
    # diagonal quadratic, |.| and tanh^2 laws: entries >= 1, 1.5 and 2
    "diag3": (_diag3_damping, _BOX3, [12.0, 12.0, 12.0]),
    # L(qd) L(qd)^T + 0.1 I with a bounded (tanh) triangular factor L
    "full3": (_full3_damping, _BOX3, [12.0, 12.0, 12.0]),
}


def get_system(system_id: str) -> GroundTruthSystem:
    """One built-in system; PSD by construction, so no sweep runs."""
    if system_id not in _SYSTEM_SPECS:
        raise InputError(
            f"unknown system id {system_id!r}; available: {sorted(_SYSTEM_SPECS)}"
        )
    return _system(system_id, *_SYSTEM_SPECS[system_id])


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
    count = _check_count("count", count, 1, _INTP_MAX // (8 * system.n_dim))
    seed = _check_count("seed", seed, 0)
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
    _check_number("noise_std", noise_std, zero_ok=True)
    seed = _check_count("seed", seed, 0)
    Y = system.torque_batch(velocities)
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        Y = Y + rng.normal(0.0, noise_std, size=Y.shape)
    return Dataset(velocities, Y)


def adversarial_dataset(size: int = 60, seed: int = 0, noise_std: float = 0.5) -> Dataset:
    """Dataset engineered to break unconstrained passivity near the boundary.

    Most samples follow the diag3 ground truth, but a cluster of 15% of them
    near the upper domain corner gets its torque flipped against the velocity
    so the local dissipated power is strongly negative.  An unconstrained fit
    chases those points; a constrained fit cannot.
    """
    system = get_system("diag3")
    size = _check_count("size", size, 1, _INTP_MAX // (8 * system.n_dim))
    _check_number("noise_std", noise_std, zero_ok=True)
    rng = np.random.default_rng(_check_count("seed", seed, 0))
    lo, hi = system.domain[:, 0], system.domain[:, 1]
    n_bad = max(1, int(round(size * 0.15)))
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
    pred, y = _check_same_shape(predictions, truth, "shape mismatch: {} vs {}")
    num = np.sum((pred - y) ** 2, axis=0)
    den = np.sum((y - y.mean(axis=0)) ** 2, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):  # x/0, 0/0: unused where den == 0
        per = np.where(den == 0.0, np.where(num == 0.0, 0.0, math.inf), num / den)
    return NmseResult(per_output=per, aggregate=float(np.mean(per)))


@dataclass(frozen=True)
class RelativeErrorResult:
    mean: np.ndarray  # (N,)
    variance: np.ndarray  # (N,)


def relative_error(predictions, truth, normalizer: float) -> RelativeErrorResult:
    """Elementwise (prediction - truth) / normalizer with per-output stats."""
    _check_number("normalizer", normalizer)
    pred, y = _check_same_shape(predictions, truth, "shape mismatch: {} vs {}")
    err = (pred - y) / normalizer
    return RelativeErrorResult(mean=err.mean(axis=0), variance=err.var(axis=0))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# Exact "%.17g" text for whole arrays, without a ``%`` call per value.
#
# A value with 1e-6 < |v| < 1e17 takes the fast path.  Its 17
# significant digits are |v| * 10**(16 - k), k = floor(log10|v|), rounded half
# to even.  Dekker's error-free product gives that product exactly as
# hi + lo (10**p is an exact double for p <= 22), and because
# hi >= 1e16 > 2**53 is an even integer, int(hi) + rint(lo) is the rounded
# value.  Its text is then one of the templates below, picked by its sign,
# decimal exponent and significant-digit count; a zero takes the template of a
# one-digit value.  Every other value (subnormals, tiny or huge values, inf
# and nan) goes through ``%``.
_FMT_CHUNK = 4096  # values per pass, so that temporaries stay O(chunk)
_FMT_WIDTH = 25  # widest text plus separator: "-4.9406564584124654e-324,"
_FMT_EXPONENTS = range(-6, 18)  # decimal exponents of fast-path texts
# A buffer row per value: its 17 digits in bytes 3..19 (five 4-digit groups,
# the first "000d"), every other character of a fast-path text, the byte
# that follows the value (separator or newline) and a zero.  A template
# lists the row bytes of one text; zeros pad it to _FMT_WIDTH.
_FMT_CHARS = b".e+-0123456789"
_FMT_END = 20 + len(_FMT_CHARS)
_FMT_ROW = _FMT_END + 2


class _FmtTables(NamedTuple):
    templates: np.ndarray  # row bytes of each text, by (sign, exponent, digit count)
    quads: np.ndarray  # uint32 whose bytes are the 4 digits of 0..9999
    sig: np.ndarray  # (4, 10_000) digit count if group 1..4 holds the last nonzero digit
    pow10: np.ndarray  # 10**p for p = 0..22
    pow10_hi: np.ndarray  # the two halves of its Veltkamp split
    pow10_lo: np.ndarray


def _fmt_pattern(x: int, s: int) -> bytes:
    """The "%.17g" text of a positive value with decimal exponent ``x`` and
    ``s`` significant digits, its digits named A, B, ..., Q."""
    d = b"ABCDEFGHIJKLMNOPQ"
    if x < -4 or x >= 17:
        return d[:1] + (b"." + d[1:s] if s > 1 else b"") + b"e%+03d" % x
    if x < 0:
        return b"0." + b"0" * (-x - 1) + d[:s]
    return d[: x + 1] + (b"." + d[x + 1 : s] if s > x + 1 else b"")


@functools.cache
def _fmt_tables() -> _FmtTables:
    """Built on first use (about 2 ms), so that importing costs nothing."""
    # names -> row bytes: digits A..Q, _FMT_CHARS, then "|" for the byte
    # that follows the value
    to_row = bytes.maketrans(b"ABCDEFGHIJKLMNOPQ" + _FMT_CHARS + b"|",
                             bytes(range(3, _FMT_END + 1)))
    templates = b"".join(
        (sign + _fmt_pattern(x, s) + b"|").translate(to_row).ljust(_FMT_WIDTH, b"%c" % (_FMT_END + 1))
        for sign in (b"", b"-") for x in _FMT_EXPONENTS for s in range(1, 18)
    )
    digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    quads = np.stack(np.meshgrid(digits, digits, digits, digits, indexing="ij"), axis=-1)
    # position of a group's last nonzero digit, 0 if it has none; group j
    # follows 4j - 3 digits of the value
    nonzero = (quads != ord("0")).reshape(-1, 4)
    last = np.where(nonzero.any(axis=1), 4 - nonzero[:, ::-1].argmax(axis=1), 0)
    pow10 = np.array([float(10**p) for p in range(23)])
    pow10_hi = _split_hi(pow10)
    return _FmtTables(
        templates=np.frombuffer(templates, dtype=np.uint8).reshape(-1, _FMT_WIDTH).astype(np.intp),
        quads=quads.view(np.uint32).ravel(),
        sig=np.where(last > 0, last + np.array([1, 5, 9, 13])[:, None], 0).astype(np.uint8),
        pow10=pow10, pow10_hi=pow10_hi, pow10_lo=pow10 - pow10_hi,
    )


def _split_hi(a):
    """The high half of Veltkamp's split: at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    return c - (c - a)


def _scaled(a, p, t: _FmtTables):
    """``(hi, lo)`` with hi + lo == a * 10**p exactly (Dekker's product)."""
    hi = a * t.pow10[p]
    a_hi = _split_hi(a)
    a_lo = a - a_hi
    b_hi, b_lo = t.pow10_hi[p], t.pow10_lo[p]
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _decades_off(hi, lo):
    """-1 where hi + lo < 1e16, +1 where it is >= 1e17, else 0."""
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    return above.astype(np.intp) - below


def _fmt_chunk(v: np.ndarray, buf: np.ndarray, ends: bytes) -> str:
    """The text of the 1-D values ``v``, the i-th followed by
    ``ends[i % len(ends)]``; ``buf`` holds a row per value (see _FMT_CHARS)."""
    t = _fmt_tables()
    a = np.abs(v)
    zero = a == 0.0
    fast = (a > 1e-6) & (a < 1e17)
    a[~fast] = 1.0
    k = np.log10(a)
    np.floor(k, out=k)
    k = np.clip(k, -6, 16, out=k).astype(np.intp)
    hi, lo = _scaled(a, 16 - k, t)
    # log10 can be off by one next to a power of ten: the exact product
    # then lies a decade off, and the exponent moves by one
    off = _decades_off(hi, lo)
    moved = np.flatnonzero(off)
    if moved.size:
        k[moved] += off[moved]
        hi[moved], lo[moved] = _scaled(a[moved], 16 - k[moved], t)
        fast[moved] &= _decades_off(hi[moved], lo[moved]) == 0
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    k += carry
    d[zero] = 0  # with k = 0 (from a = 1): the text "0"
    fast |= zero
    # the 17 digits as the first one and four groups of 4
    upper = d // 10**8
    lower = d - upper * 10**8
    first = upper // 10**8
    upper -= first * 10**8
    g1, g3 = upper // 10**4, lower // 10**4
    groups = (first, g1, upper - g1 * 10**4, g3, lower - g3 * 10**4)
    n = len(v)
    quads = buf.view(np.uint32)
    s = np.ones(n, dtype=np.uint8)  # significant digits
    for j, g in enumerate(groups):
        quads[:n, j] = t.quads.take(g)
        if j:
            np.maximum(s, t.sig[j - 1].take(g), out=s)
    key = (np.signbit(v) * len(_FMT_EXPONENTS) + k - _FMT_EXPONENTS[0]) * 17 + s - 1
    at = t.templates.take(key, axis=0)
    at += (_FMT_ROW * np.arange(n))[:, None]
    out = buf.take(at)
    slow = np.flatnonzero(~fast)
    if not slow.size:
        return out[out != 0].tobytes().decode("ascii")
    # a slow value's row becomes "%.17g" and its end byte (the "%" is a byte 1
    # until the text's own "%" are escaped), so that one "%" call over the
    # chunk's text formats all its slow values
    out[slow] = 0
    out[slow, :5] = np.frombuffer(b"\1.17g", dtype=np.uint8)
    out[slow, 5] = np.frombuffer(ends, dtype=np.uint8)[slow % len(ends)]
    fmt = out[out != 0].tobytes().replace(b"%", b"%%").replace(b"\1", b"%")
    return (fmt % tuple(v[slow].tolist())).decode("ascii")


def _fmt_chunks(columns, sep: str) -> Iterator[str]:
    """The rows that the 2-D arrays ``columns`` form side by side, each its
    values' ``_fmt`` text (``"%.17g"``) joined by the one character ``sep``
    plus a newline, a chunk of rows at a time, so that neither the stacked
    rows nor the whole text are ever held."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    n_rows = len(columns[0])
    n_cols = sum(c.shape[1] for c in columns)
    if n_rows == 0 or n_cols == 0:
        yield "\n" * n_rows
        return
    ends = bytes([ord(sep)] * (n_cols - 1)) + b"\n"
    step = min(n_rows, max(1, _FMT_CHUNK // n_cols))  # rows per pass
    buf = np.empty((step * n_cols, _FMT_ROW), dtype=np.uint8)
    buf[:, 20:_FMT_END] = np.frombuffer(_FMT_CHARS, dtype=np.uint8)
    buf[:, _FMT_END] = np.frombuffer(ends * step, dtype=np.uint8)
    buf[:, _FMT_END + 1] = 0
    for i in range(0, n_rows, step):
        rows = np.hstack([c[i : i + step] for c in columns])
        yield _fmt_chunk(rows.ravel(), buf, ends)


def write_dataset(path, data: Dataset) -> None:
    """Plain CSV: header qd_1..qd_N,tau_1..tau_N, 17-significant-digit rows."""
    n = data.n_dim
    header = ",".join([f"qd_{i+1}" for i in range(n)] + [f"tau_{i+1}" for i in range(n)])
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        fh.writelines(_fmt_chunks([data.velocities, data.torques], ","))


def _read_lines(path, encoding: str = "ascii") -> list[str]:
    """The lines of a text file; an undecodable byte raises ``ParseError``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode(encoding).splitlines()
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{lineno}: byte 0x{raw[exc.start]:02x} is not {encoding} text") from exc


def _float_row(fields, path, lineno: int, width: int | None = None) -> list[float]:
    """The ``fields`` of line ``lineno`` as floats, ``width`` of them when
    given, else ``ParseError`` naming the line."""
    if width is not None and len(fields) != width:
        raise ParseError(f"{path}:{lineno}: expected {width} columns, found {len(fields)}")
    try:
        return [float(v) for v in fields]
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from exc


def _first_use(first_line: dict, key: str, path, lineno: int) -> None:
    """Record ``key``'s first line; a repeat raises ``ParseError`` naming both lines."""
    if first_line.setdefault(key, lineno) != lineno:
        raise ParseError(f"{path}:{lineno}: {key} repeats line {first_line[key]}")


def read_dataset(path) -> Dataset:
    """Inverse of ``write_dataset``; errors name the file, and the offending
    line where there is one."""
    lines = _read_lines(path)
    if not lines:
        raise ParseError(f"{path}: empty file, no data rows")
    header = lines[0].split(",")
    n = len(header) // 2
    expected = [f"qd_{i+1}" for i in range(n)] + [f"tau_{i+1}" for i in range(n)]
    if header != expected:
        raise ParseError(f"{path}:1: header columns {header} != {expected}")
    velocities, torques = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        vals = _float_row(line.split(","), path, lineno, 2 * n)
        velocities.append(vals[:n])
        torques.append(vals[n:])
    if not velocities:
        raise ParseError(f"{path}: no data rows")
    try:
        return Dataset(np.array(velocities), np.array(torques))
    except InputError as exc:  # Dataset's value rule, as load_model reports it
        raise ParseError(f"{path}: {exc}") from exc


def check_train_sizes(sizes) -> None:
    """The training-size rule: a non-empty, strictly ascending list of
    counts >= 1, so no size is fitted, or written, twice."""
    for size in sizes:
        _check_count("training size", size, 1)
    if not sizes or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise InputError(
            "training sizes must be a non-empty, strictly ascending list of "
            f"integers >= 1, got {','.join(map(str, sizes))}"
        )


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
        check_train_sizes(self.train_sizes)
        for key in ("seeds", "kinds"):
            values = getattr(self, key)
            if len(set(values)) < len(values):
                raise InputError(f"{key} repeats a value: {','.join(map(str, values))}")
        for kind in self.kinds:
            _check_kind(kind)
        for key in ("val_size", "test_size", "budget"):
            _check_count(key, getattr(self, key), 1)
        for seed in self.seeds:
            _check_count("seed", seed, 0)
        if self.lengthscales is not None:
            _validate_lengthscales(self.lengthscales, get_system(self.system).n_dim)
        _check_number("noise_std", self.noise_std, zero_ok=True)
        _check_number("noise_variance", self.noise_variance)

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
    """Parse a flat ``key = value`` config file ('#' starts a comment, no key repeats)."""
    values: dict = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(_read_lines(path, "utf-8"), start=1):
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
        _first_use(first_line, key, path, lineno)
        try:
            values[key] = _CONFIG_PARSERS[key](value)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return ExperimentConfig(**values)
