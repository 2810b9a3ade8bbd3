"""Lossless plain-text serialization of fitted models.

Format: a versioned header of ``key: value`` lines followed by named matrix
blocks, one ``[block]`` heading per array, rows whitespace-delimited with
17-significant-digit decimals.  Loading re-runs the deterministic fit, so a
round-trip reproduces the residual solves exactly.
"""

from __future__ import annotations

import numpy as np

from . import models
from .bench import _fmt
from .errors import ParseError
from .models import Dataset, FittedModel, PriorMean

MAGIC = "dampgp-model 1"


def _block(name: str, array: np.ndarray) -> list[str]:
    rows = np.atleast_2d(np.asarray(array, dtype=float))
    lines = [f"[{name}]"]
    lines.extend(" ".join(_fmt(v) for v in row) for row in rows)
    return lines


def save_model(path, model: FittedModel, constrained: bool = False) -> None:
    lines = [
        MAGIC,
        f"kind: {model.kind}",
        f"n_dim: {model.n_dim}",
        f"noise_variance: {_fmt(model.noise_variance)}",
        f"constrained: {'true' if constrained else 'false'}",
    ]
    lines += _block("lengthscales", model.kernel.lengthscales)
    lines += _block("prior_mean", model.prior_mean.coefficients)
    lines += _block("hypervariances", model.kernel.hypervariances)
    lines += _block("train_velocities", model.train.velocities)
    lines += _block("train_torques", model.train.torques)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


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


def load_model(path) -> tuple[FittedModel, bool]:
    """Read a model file and refit; returns (model, constrained flag)."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != MAGIC:
        raise ParseError(f"{path}: not a dampgp model file (missing {MAGIC!r} header)")
    meta, blocks = _parse_blocks(lines, path)

    required_meta = ("kind", "n_dim", "noise_variance", "constrained")
    for key in required_meta:
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
        if name not in blocks or not blocks[name]:
            raise ParseError(f"{path}: missing block [{name}]")

    kind = meta["kind"]
    if kind not in models.KERNEL_TYPES:
        raise ParseError(f"{path}: unknown model kind {kind!r}")
    try:
        n = int(meta["n_dim"])
        noise_variance = float(meta["noise_variance"])
    except ValueError as exc:
        raise ParseError(f"{path}: bad header value: {exc}") from exc
    constrained = meta["constrained"] == "true"

    ell = np.array(blocks["lengthscales"][0])
    prior = PriorMean(np.array(blocks["prior_mean"][0]))
    kernel_type = models.KERNEL_TYPES[kind]
    hyp = np.array(blocks["hypervariances"])
    kernel = kernel_type(ell, hyp[0] if kernel_type.hyp_ndim == 1 else hyp)

    data = Dataset(np.array(blocks["train_velocities"]), np.array(blocks["train_torques"]))
    if data.n_dim != n:
        raise ParseError(f"{path}: training block dimension {data.n_dim} != n_dim {n}")
    model = models.fit(kind, kernel, prior, data, noise_variance)
    return model, constrained
