"""Each output check of the benchmark accepts skinlab's output and rejects a corrupted copy.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from checks import Checker, CheckError  # noqa: E402
from skinlab.cli import run_experiment, validate_config  # noqa: E402

COSINE = {"type": "cosine", "J": 1.0, "T": 0.0, "R": 1.0, "phi": math.pi / 2}
CASES = {
    "spectrum": ({"experiment": "LiouvillianSpectrum", "model": COSINE, "n_sites": 6},
                 {"kernel_dim": 1}),
    "commuting": ({"experiment": "LiouvillianSpectrum", "model": dict(COSINE, phi=0.0),
                   "n_sites": 6}, {"kernel_dim": 6, "commuting": True}),
    "entropy": ({"experiment": "EntropyTrace", "model": dict(COSINE, phi=0.0), "n_sites": 7,
                 "rho0_site": 3, "times": [0.0, 1.0, 4.0, 16.0]}, {"commuting": True}),
    "trajectories": ({"experiment": "Trajectories", "model": COSINE, "n_sites": 5,
                      "rho0_site": 3, "t_final": 0.1, "dt": 0.005, "n_traj": 64,
                      "master_seed": 3}, {}),
    "bulk": ({"experiment": "BulkRelax", "model": COSINE, "n_k": 64, "times": [1.0, 2.0],
              "window": [-6, 6]}, {"cells": [(6, 6), (4, 9), (0, 12)]}),
    "rk4": ({"experiment": "HatanoNelson", "model": {"type": "hatano_nelson", "J1": 1.0,
                                                     "J2": 2.0},
             "n_sites": 34, "rho0_site": 17, "times": [0.5, 1.0], "include_spectrum": False},
            {}),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Untouched skinlab outputs of every case, written once."""
    base = tmp_path_factory.mktemp("outputs")
    for name, (raw, _) in CASES.items():
        cfg = validate_config(dict(raw, output_dir=str(base / name)))
        run_experiment(cfg)
    return base


def check(name: str, outdir: Path) -> None:
    raw, expect = CASES[name]
    cfg = validate_config(raw).resolved()
    Checker().check(cfg, outdir, expect)


def corrupted(outputs: Path, name: str, tmp_path: Path) -> Path:
    out = tmp_path / name
    out.mkdir(parents=True)
    for f in (outputs / name).iterdir():
        (out / f.name).write_bytes(f.read_bytes())
    return out


def edit_csv(path: Path, row: int, column: int, change) -> None:
    """Apply change to one numeric cell (row counts data rows from 0).

    In (n, m, re, im, abs) files the abs cell follows re and im, so that only
    the check aimed at the changed value can catch it.
    """
    lines = path.read_text().splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    cells = lines[body[row]].split(",")
    cells[column] = repr(change(float(cells[column])))
    if len(cells) == 5:
        cells[4] = repr(math.hypot(float(cells[2]), float(cells[3])))
    lines[body[row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def edit_json(path: Path, change) -> None:
    obj = json.loads(path.read_text())
    change(obj)
    path.write_text(json.dumps(obj))


@pytest.mark.parametrize("name", sorted(CASES))
def test_untouched_output_passes(outputs, name):
    check(name, outputs / name)


def complex_row(path: Path) -> int:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")][1:]
    return next(i for i, line in enumerate(lines) if abs(float(line.split(",")[1])) > 1e-3)


@pytest.mark.parametrize("name", ["spectrum", "commuting"])
@pytest.mark.parametrize("column", [0, 1])
def test_eigenvalue_shifted_by_1e_6_is_rejected(outputs, tmp_path, name, column):
    out = corrupted(outputs, name, tmp_path)
    edit_csv(out / "spectrum.csv", complex_row(out / "spectrum.csv"), column, lambda x: x + 1e-6)
    with pytest.raises(CheckError):
        check(name, out)


@pytest.mark.parametrize("delta", [-1, 1])
def test_kernel_count_off_by_one_is_rejected(outputs, tmp_path, delta):
    out = corrupted(outputs, "commuting", tmp_path)

    def change(obj):
        obj["zero_eigenvalue_multiplicity"] += delta
    edit_json(out / "stationary.json", change)
    with pytest.raises(CheckError):
        check("commuting", out)


def test_kernel_element_off_the_kernel_is_rejected(outputs, tmp_path):
    out = corrupted(outputs, "commuting", tmp_path)

    def change(obj):
        K = obj["kernel_basis"][0]
        K["re"][0][1] += 1e-6
        K["re"][1][0] += 1e-6
    edit_json(out / "stationary.json", change)
    with pytest.raises(CheckError):
        check("commuting", out)


def test_non_hermitian_rho_estimate_is_rejected(outputs, tmp_path):
    out = corrupted(outputs, "trajectories", tmp_path)
    edit_csv(out / "rho_estimate.csv", 1, 3, lambda x: x + 1e-6)   # im of rho[0, 1], not rho[1, 0]
    with pytest.raises(CheckError):
        check("trajectories", out)


def test_rho_estimate_bytes_must_repeat(outputs, tmp_path):
    checker = Checker()
    raw, expect = CASES["trajectories"]
    cfg = validate_config(raw).resolved()
    checker.check(cfg, outputs / "trajectories", expect)
    out = corrupted(outputs, "trajectories", tmp_path)
    (out / "rho_estimate.csv").write_text((out / "rho_estimate.csv").read_text() + "\n")
    with pytest.raises(CheckError):
        checker.check(cfg, out, expect)


@pytest.mark.parametrize("name, file, row, column", [
    ("bulk", "density_t1.csv", 4 * 13 + 9, 2),       # a sampled cell, compared with the k-sum
    ("entropy", "entropy.csv", 2, 1),                  # entropy at t = 4
    ("entropy", "entropy.csv", 3, 2),                  # purity at t = 16
    ("rk4", "timeseries.csv", 1, 3),                   # RK4 first moment at t = 1
])
def test_perturbed_csv_cell_is_rejected(outputs, tmp_path, name, file, row, column):
    out = corrupted(outputs, name, tmp_path)
    edit_csv(out / file, row, column, lambda x: x + 1e-6)
    with pytest.raises(CheckError):
        check(name, out)


def test_wrong_s_infinity_is_rejected(outputs, tmp_path):
    out = corrupted(outputs, "entropy", tmp_path)

    def change(obj):
        obj["s_infinity"] = math.log(7)   # the phi = pi/2 value; phi = 0 dephases instead
    edit_json(out / "summary.json", change)
    with pytest.raises(CheckError):
        check("entropy", out)


def test_missing_row_and_renamed_column_are_rejected(outputs, tmp_path):
    out = corrupted(outputs, "entropy", tmp_path)
    lines = (out / "entropy.csv").read_text().splitlines()
    (out / "entropy.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CheckError):
        check("entropy", out)
    out = corrupted(outputs, "spectrum", tmp_path / "renamed")
    text = (out / "spectrum.csv").read_text().replace("re,im", "real,imag")
    (out / "spectrum.csv").write_text(text)
    with pytest.raises(CheckError):
        check("spectrum", out)
