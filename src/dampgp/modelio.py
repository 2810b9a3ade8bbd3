"""Lossless plain-text serialization of fitted models.

Format: a versioned header of ``key: value`` lines followed by named matrix
blocks, one ``[block]`` heading per array, rows whitespace-delimited with
17-significant-digit decimals.  Loading re-runs the deterministic fit, so a
round-trip reproduces the residual solves exactly.
"""

from __future__ import annotations

import numpy as np

from . import models
from .bench import _fmt, _fmt_chunks, _read_lines
from .errors import ParseError
from .models import Dataset, FittedModel, PriorMean

MAGIC = "dampgp-model 1"

# the [block]s of a model file, in file order; the first two, and the third
# for a kernel with a vector of hypervariances, are one row each
BLOCKS = ("lengthscales", "prior_mean", "hypervariances", "train_velocities", "train_torques")


def save_model(path, model: FittedModel) -> None:
    header = [
        MAGIC,
        f"kind: {model.kind}",
        f"noise_variance: {_fmt(model.noise_variance)}",
    ]
    arrays = (model.kernel.lengthscales, model.prior_mean.coefficients,
              model.kernel.hypervariances, model.train.velocities, model.train.torques)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(header) + "\n")
        for name, array in zip(BLOCKS, arrays):
            fh.write(f"[{name}]\n")
            fh.writelines(_fmt_chunks([np.atleast_2d(array)], " "))


def _parse_blocks(lines: list[str], path) -> tuple[dict, dict]:
    """Header ``key: value`` pairs and [block] rows; a repeat raises ``ParseError``."""
    meta: dict[str, str] = {}
    blocks: dict[str, list[list[float]]] = {}
    first_line: dict[str, int] = {}  # "key" or "[block]" -> line of its first appearance
    current = None
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name, current = line, line[1:-1]
            blocks[current] = []
        elif current is None:
            if ":" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key: value', got {line!r}")
            name, value = (part.strip() for part in line.split(":", 1))
            meta[name] = value
        else:
            try:
                blocks[current].append([float(v) for v in line.split()])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            continue
        if name in first_line:
            raise ParseError(f"{path}:{lineno}: {name} repeats line {first_line[name]}")
        first_line[name] = lineno
    return meta, blocks


def load_model(path) -> FittedModel:
    """Read a model file and refit.  Header keys other than ``kind`` and
    ``noise_variance``, such as the ``n_dim`` and ``constrained`` lines of
    older files, are ignored."""
    lines = _read_lines(path)
    if not lines or lines[0].strip() != MAGIC:
        raise ParseError(f"{path}: not a dampgp model file (missing {MAGIC!r} header)")
    meta, blocks = _parse_blocks(lines, path)

    for key in ("kind", "noise_variance"):
        if key not in meta:
            raise ParseError(f"{path}: missing header key {key!r}")
    for name in BLOCKS:
        rows = blocks.get(name)
        if not rows:
            raise ParseError(f"{path}: missing block [{name}]")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ParseError(f"{path}: block [{name}] has rows of unequal length")

    kind = meta["kind"]
    if kind not in models.KERNEL_TYPES:
        raise ParseError(f"{path}: unknown model kind {kind!r}")
    try:
        noise_variance = float(meta["noise_variance"])
    except ValueError as exc:
        raise ParseError(f"{path}: bad header value: {exc}") from exc

    kernel_type = models.KERNEL_TYPES[kind]
    for name in (BLOCKS[:3] if kernel_type.hyp_ndim == 1 else BLOCKS[:2]):
        if len(blocks[name]) != 1:
            raise ParseError(f"{path}: block [{name}] must be one row, found {len(blocks[name])}")
    ell, prior, hyp, velocities, torques = (np.array(blocks[name]) for name in BLOCKS)
    kernel = kernel_type(ell[0], hyp[0] if kernel_type.hyp_ndim == 1 else hyp)
    return models.fit(kind, kernel, PriorMean(prior[0]), Dataset(velocities, torques), noise_variance)
