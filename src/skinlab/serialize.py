"""Binary-free serialization shared by the numerical modules and the runner.

CSV cells print integers with ``%d`` and floats with ``%.17g``; JSON floats
are Python's shortest round-trip repr.  Both layouts are deterministic, so
identical inputs always produce byte-identical files.

Hermitized density matrices, conjugate-pair spectra and real kernel matrices
repeat their magnitudes, so a float column or array of finite values is
formatted once per distinct magnitude (:func:`_float_texts`); where NaN or
inf occurs, every value is formatted on its own.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.17g"
JSON_SCALARS = {str, int, float, bool, type(None)}


def matrix_to_json(M: np.ndarray) -> dict:
    """Matrix as {"n": N, "re": [[...]], "im": [[...]]}, the parts as float arrays."""
    M = np.asarray(M, dtype=complex)
    return {"n": M.shape[0], "re": M.real, "im": M.imag}


def matrix_from_json(obj: dict) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def write_json(path: str | Path, obj) -> Path:
    """``json.dumps(obj, indent=1, sort_keys=True)`` and a newline, byte for byte.

    An ndarray in obj is written as its ``tolist()`` would be.
    """
    path = Path(path)
    path.write_text(_json(obj, 0) + "\n")
    return path


def _json(obj, depth: int) -> str:
    """Indented JSON of obj nested ``depth`` levels deep.

    Lists of scalars take the C encoder, a finite 1-D or 2-D float64 array
    one :func:`_float_texts` and any other array its ``tolist()``.
    """
    pad = "\n" + " " * (depth + 1)
    if isinstance(obj, np.ndarray):
        if (obj.dtype != np.float64 or obj.ndim not in (1, 2) or not obj.size
                or not np.isfinite(obj).all()):
            return _json(obj.tolist(), depth)
        items = _float_texts(obj, lambda values: list(map(float.__repr__, values)))
        if obj.ndim == 2:   # each row is a list one level deeper
            row_pad, n = pad + " ", obj.shape[1]
            items = ["[" + row_pad + ("," + row_pad).join(items[i:i + n]) + pad + "]"
                     for i in range(0, obj.size, n)]
        return "[" + pad + ("," + pad).join(items) + pad[:-1] + "]"
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


def _float_texts(values: np.ndarray, texts_of) -> list[str]:
    """Texts of the finite floats of values in C order, formatting each distinct magnitude once.

    ``texts_of`` maps a list of magnitudes to their texts; each value takes
    its magnitude's text, with "-" in front where its sign bit is set.
    """
    flat = values.ravel()
    magnitudes, inverse = np.unique(np.abs(flat), return_inverse=True)
    texts = texts_of(magnitudes.tolist())
    table = np.array(texts + ["-" + s for s in texts], dtype=object)
    return table[inverse + len(texts) * np.signbit(flat)].tolist()


def _printf(values: list[float]) -> list[str]:
    """``FLOAT_FMT % x`` of each value from one ``%`` call, which formats in C."""
    return ("".join([FLOAT_FMT + "\n"] * len(values)) % tuple(values)).split("\n")[:-1]


def write_csv(path: str | Path, columns: list[str], data, header_lines=()) -> Path:
    """CSV with '#'-prefixed header lines and one row per entry of the equal-length columns.

    Integer and bool columns print with ``%d``, the others with ``FLOAT_FMT``;
    a float column of finite values formats each distinct magnitude once.
    """
    path = Path(path)
    data = [np.asarray(c) for c in data]
    cell_fmt = ["%d" if c.dtype.kind in "biu"
                else "%s" if c.dtype.kind == "f" and np.isfinite(c).all()
                else FLOAT_FMT for c in data]
    row = ",".join(cell_fmt) + "\n"
    cells = tuple(itertools.chain.from_iterable(zip(*(
        _float_texts(c, _printf) if f == "%s" else c.tolist()
        for c, f in zip(data, cell_fmt)))))
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
                "abs": np.abs(rho),
            }
            for (t, sites, rho) in frames
        ]
    }
