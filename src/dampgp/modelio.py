"""Lossless plain-text serialization of fitted models.

Format: a versioned header of ``key: value`` lines followed by named matrix
blocks, one ``[block]`` heading per array, rows whitespace-delimited with
17-significant-digit decimals.  Loading re-runs the deterministic fit, so a
round-trip reproduces the residual solves exactly.
"""

from __future__ import annotations

import numpy as np

from . import models
from .bench import _fmt, _fmt_rows
from .errors import ParseError
from .models import Dataset, FittedModel, PriorMean

MAGIC = "dampgp-model 1"


def _block(name: str, array: np.ndarray) -> str:
    return f"[{name}]\n" + _fmt_rows(np.atleast_2d(array), " ")


def save_model(path, model: FittedModel) -> None:
    header = [
        MAGIC,
        f"kind: {model.kind}",
        f"noise_variance: {_fmt(model.noise_variance)}",
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(header) + "\n")
        fh.write(_block("lengthscales", model.kernel.lengthscales))
        fh.write(_block("prior_mean", model.prior_mean.coefficients))
        fh.write(_block("hypervariances", model.kernel.hypervariances))
        fh.write(_block("train_velocities", model.train.velocities))
        fh.write(_block("train_torques", model.train.torques))


def _parse_blocks(lines: list[str], path) -> tuple[dict, dict]:
    meta: dict[str, str] = {}
    blocks: dict[str, list[list[float]]] = {}
    current = None
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            blocks[current] = []
        elif current is None:
            if ":" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key: value', got {line!r}")
            key, value = line.split(":", 1)
            meta[key.strip()] = value.strip()
        else:
            try:
                blocks[current].append([float(v) for v in line.split()])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return meta, blocks


def load_model(path) -> FittedModel:
    """Read a model file and refit.  Header keys other than ``kind`` and
    ``noise_variance``, such as the ``n_dim`` and ``constrained`` lines of
    older files, are ignored."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != MAGIC:
        raise ParseError(f"{path}: not a dampgp model file (missing {MAGIC!r} header)")
    meta, blocks = _parse_blocks(lines, path)

    for key in ("kind", "noise_variance"):
        if key not in meta:
            raise ParseError(f"{path}: missing header key {key!r}")
    required_blocks = (
        "lengthscales",
        "prior_mean",
        "hypervariances",
        "train_velocities",
        "train_torques",
    )
    for name in required_blocks:
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
    vectors = ["lengthscales", "prior_mean"]
    if kernel_type.hyp_ndim == 1:
        vectors.append("hypervariances")
    for name in vectors:
        if len(blocks[name]) != 1:
            raise ParseError(f"{path}: block [{name}] must be one row, found {len(blocks[name])}")
    ell = np.array(blocks["lengthscales"][0])
    prior = PriorMean(np.array(blocks["prior_mean"][0]))
    hyp = np.array(blocks["hypervariances"])
    kernel = kernel_type(ell, hyp[0] if kernel_type.hyp_ndim == 1 else hyp)

    data = Dataset(np.array(blocks["train_velocities"]), np.array(blocks["train_torques"]))
    return models.fit(kind, kernel, prior, data, noise_variance)
