"""Binary-free serialization shared by the numerical modules and the runner.

CSV cells print integers with ``%d`` and floats with ``%.17g``; JSON floats
are Python's shortest round-trip repr.  Both layouts are deterministic, so
identical inputs always produce byte-identical files.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.17g"
JSON_SCALARS = {str, int, float, bool, type(None)}


def matrix_to_json(M: np.ndarray) -> dict:
    """Matrix as {"n": N, "re": [[...]], "im": [[...]]}."""
    M = np.asarray(M, dtype=complex)
    return {"n": M.shape[0], "re": M.real.tolist(), "im": M.imag.tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def write_json(path: str | Path, obj) -> Path:
    """``json.dumps(obj, indent=1, sort_keys=True)`` and a newline, byte for byte."""
    path = Path(path)
    path.write_text(_json(obj, 0) + "\n")
    return path


def _json(obj, depth: int) -> str:
    """Indented JSON of obj nested ``depth`` levels deep; lists of scalars take the C encoder."""
    pad = "\n" + " " * (depth + 1)
    if isinstance(obj, dict) and obj:
        body = ("," + pad).join(
            json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": " + _json(v, depth + 1)
            for k, v in sorted(obj.items()))
        return "{" + pad + body + pad[:-1] + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) <= JSON_SCALARS:
            body = json.dumps(obj, separators=("," + pad, ": "))[1:-1]
        else:
            body = ("," + pad).join(_json(x, depth + 1) for x in obj)
        return "[" + pad + body + pad[:-1] + "]"
    return json.dumps(obj)


def write_csv(path: str | Path, columns: list[str], data, header_lines=()) -> Path:
    """CSV with '#'-prefixed header lines and one row per entry of the equal-length columns.

    Integer and bool columns print with ``%d``, the others with ``FLOAT_FMT``.
    """
    path = Path(path)
    data = [np.asarray(c) for c in data]
    row = ",".join("%d" if c.dtype.kind in "biu" else FLOAT_FMT for c in data) + "\n"
    cells = tuple(itertools.chain.from_iterable(zip(*(c.tolist() for c in data))))
    head = "".join(f"# {line}\n" for line in header_lines) + ",".join(columns) + "\n"
    path.write_text(head + (row * len(data[0])) % cells)
    return path


def density_rows(sites, rho: np.ndarray) -> list[np.ndarray]:
    """Columns (n, m, re, im, abs) scanning the density matrix row-major."""
    n, m = np.meshgrid(sites, sites, indexing="ij")
    return [n.ravel(), m.ravel(), rho.real.ravel(), rho.imag.ravel(),
            np.hypot(rho.real, rho.imag).ravel()]


def spectrum_rows(eigenvalues, mean_positions=None) -> list[np.ndarray]:
    """Columns (index, re_E, im_E[, mean_position]) of a sorted spectrum."""
    cols = [np.arange(len(eigenvalues)), eigenvalues.real, eigenvalues.imag]
    return cols if mean_positions is None else cols + [mean_positions]


def frames_to_json(frames: list[tuple[float, np.ndarray, np.ndarray]]) -> dict:
    """Animation-ready frame sequence: per frame time, sites, and |rho|."""
    return {
        "frames": [
            {
                "time": float(t),
                "sites": [int(s) for s in sites],
                "abs": np.abs(rho).tolist(),
            }
            for (t, sites, rho) in frames
        ]
    }
