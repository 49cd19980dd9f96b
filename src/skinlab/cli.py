"""Experiment runner: declarative JSON configs to figure-ready datasets.

One config describes one experiment; running it writes CSV/JSON datasets plus
a manifest recording the resolved configuration, its hash, the tool version,
wall time, how the generator was factored, the numpy version and the BLAS
library it links, the BLAS thread variables and what the run did with
threads.  Every LAPACK call is numpy's; no run imports scipy.  A run sets
numpy's OpenBLAS to one thread and solves a generator's independent blocks
side by side on the cores instead (see :mod:`skinlab._threads`), so numeric
output files are byte-identical across reruns of the same config at any
BLAS pool size and core count;
builds without the OpenBLAS thread control (MKL, Accelerate) promise that
only at a fixed pool size.  Each experiment's fields, their defaults and
checks are one table, ``FIELDS[experiment]``.

Command line:

    skinlab run <config.json> [--out DIR] [--seed S]
    skinlab validate <config.json>

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from ._threads import pinned
from .band import BandModel, make_cosine_model, pbc_spectrum
from .bulk import bulk_wannier_density
from .errors import ConfigError, ParameterError, SkinlabError
from .evolve import (
    DensityMatrix,
    MasterPropagator,
    SemiclassicalPropagator,
    _taylor_master_states,
    entropy_trace,
    observables,
    von_neumann_entropy,
)
from .lattice_ops import (
    Construction,
    LatticeOperators,
    _check_range,
    build_hatano_nelson,
    build_obc,
    obc_spectrum,
    skin_localization,
)
from .liouvillian import (
    SPECTRUM_CAP,
    _blocked_eigenvalues,
    _check_cap,
    _spectrum_order,
    stationary_states,
)
from .serialize import (
    density_rows,
    frames_to_json,
    matrix_to_json,
    spectrum_rows,
    write_csv,
    write_json,
)
from .trajectories import MAX_DT, _validate_run, run_ensemble

DENSE_PROPAGATION_MAX = 32   # largest N propagated through the dense superoperator
UNITS_NOTE = "units: energies in units of the hopping scale (J or J1), times in its inverse"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REQUIRED = object()   # the default of a field that a config must give


@dataclass
class ExperimentConfig:
    """Validated, fully-resolved experiment description."""

    experiment: str
    model: dict
    output_dir: str
    n_sites: int | None = None
    n_k: int | None = None
    times: list[float] = field(default_factory=list)
    rho0_site: int | None = None
    window: list[int] | None = None
    t_final: float | None = None
    dt: float | None = None
    n_traj: int | None = None
    master_seed: int = 0
    include_spectrum: bool = False   # HatanoNelson's row defaults it to true

    def resolved(self) -> dict:
        """Canonical dict for hashing and the manifest: the experiment and its table's fields."""
        names = [row.name for row in BASE + FIELDS[self.experiment]]
        return {"experiment": self.experiment, **{name: getattr(self, name) for name in names}}

    def config_hash(self) -> str:
        """Hash of the numerical identity of the experiment.

        Excludes output_dir, which may not change any number in the
        datasets, so configs differing only there produce byte-identical
        files.
        """
        resolved = self.resolved()
        resolved.pop("output_dir", None)
        canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class Field(NamedTuple):
    """A table row: how one config field is parsed, defaulted and checked (see :func:`_read`)."""

    name: str
    parse: Callable   # int, float or bool (see _cast), or (name, value) -> value or ConfigError
    default: object = REQUIRED   # or a value, or a function of the fields before it
    check: Callable | None = None   # (value, fields before it) -> whether the value holds
    note: str = ""   # the error when it does not, formatted with the fields before it


def _read(rows: tuple[Field, ...], raw: dict, prefix: str = "") -> dict:
    """The fields of ``raw``, parsed, defaulted and checked in row order; every key needs a row.

    A missing or null field takes its default unchecked.  A ParameterError
    that a library check raises inside a row's check names the field.  Then
    a key that no row names is a ConfigError, so a misspelt field fails
    instead of leaving its default in place.
    """
    fields: dict = {}
    for row in rows:
        name = prefix + row.name
        if raw.get(row.name) is None:
            if row.default is REQUIRED:
                raise ConfigError(name, "missing required field")
            fields[row.name] = row.default(fields) if callable(row.default) else row.default
            continue
        value, parse = raw[row.name], row.parse
        value = _cast(name, value, parse) if isinstance(parse, type) else parse(name, value)
        try:
            holds = row.check is None or row.check(value, fields)
        except ParameterError as exc:
            raise ConfigError(name, str(exc)) from None
        if not holds:
            raise ConfigError(name, row.note.format(**fields))
        fields[row.name] = value
    for key in raw:
        if key not in fields:
            raise ConfigError(prefix + key, "unknown field")
    return fields


def _cast(name: str, value, kind):
    """``value`` as ``kind``: booleans as given, numbers finite and for int integral."""
    if kind is bool:
        ok = isinstance(value, bool)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        ok = False
    elif isinstance(value, int):
        ok = kind is int or abs(value) <= sys.float_info.max
    else:
        ok = math.isfinite(value) and (kind is float or value.is_integer())
    if not ok:
        finite = "a finite " if kind is float else ""
        raise ConfigError(name, f"expected {finite}{kind.__name__}, got {value!r}")
    return kind(value)


def _list(kind):
    """Parser of a list of ``kind`` values."""
    def parse(name: str, values) -> list:
        if not isinstance(values, (list, tuple)):
            raise ConfigError(name, f"must be a list of {kind.__name__}")
        return [_cast(name, value, kind) for value in values]
    return parse


def _phases(name: str, phi) -> float | list[float]:
    return _list(float)(name, phi) if isinstance(phi, (list, tuple)) else _cast(name, phi, float)


MODELS = {   # model type -> its parameter rows; BandModel checks the coefficient tables
    "cosine": (
        Field("J", float),
        Field("T", float),
        Field("R", float, check=lambda R, f: R >= 0, note="must be >= 0"),
        Field("phi", _phases, 0.0, lambda phi, f: phi != [], "must list at least one phase"),
    ),
    "hatano_nelson": (
        Field("J1", float, check=lambda J1, f: J1 >= 0, note="must be >= 0"),
        Field("J2", float, check=lambda J2, f: J2 >= f["J1"], note="must satisfy J2 >= J1"),
    ),
    "coeffs": (Field("h", lambda name, rows: rows), Field("p", lambda name, rows: rows),
               Field("label", lambda name, label: label, "")),
}


def _model(*types: str, phi_lists: bool = False):
    """Parser of a model of one of ``types``; a list of phases is valid with ``phi_lists``."""
    def parse(name: str, obj) -> dict:
        if not isinstance(obj, dict) or "type" not in obj:
            raise ConfigError(name, 'must be an object with a "type" field')
        kind = obj["type"]
        if kind not in types:
            raise ConfigError("model.type", f"{kind!r} is not one of {', '.join(types)}")
        parameters = {key: value for key, value in obj.items() if key != "type"}
        out = {"type": kind, **_read(MODELS[kind], parameters, "model.")}
        if isinstance(out.get("phi"), list) and not phi_lists:
            raise ConfigError("model.phi", "a list of phases is only valid for Spectra")
        if kind != "coeffs":
            return out
        try:
            model = BandModel.from_json(obj)
        except (SkinlabError, TypeError, ValueError) as exc:
            raise ConfigError(name, f"invalid coefficient tables: {exc}") from None
        return {"type": "coeffs", **model.to_json()}
    return parse


def _band_model(model: dict, phi: float | None = None) -> BandModel:
    if model["type"] == "coeffs":
        return BandModel.from_json(model)
    phi = model["phi"] if phi is None else phi
    return make_cosine_model(model["J"], model["T"], model["R"], phi)


def _lattice(model: dict, n_sites: int) -> LatticeOperators:
    if model["type"] == "hatano_nelson":
        return build_hatano_nelson(model["J1"], model["J2"], n_sites)
    return build_obc(_band_model(model), n_sites, Construction.TRUNCATE_P)


def _room(n_sites: int, fields: dict, spectrum: bool = False) -> bool:
    """Whether the chain has 2 sites or more and room for every harmonic of a band model.

    With ``spectrum`` the dense superoperator must also fit SPECTRUM_CAP.  The
    range and the cap are the library's own checks.
    """
    if n_sites < 2:
        return False
    if fields["model"]["type"] != "hatano_nelson":
        band = _band_model(fields["model"], phi=0.0)   # its harmonics do not depend on phi
        _check_range([*band.h_coeffs, *band.p_coeffs], n_sites)
    if spectrum:
        _check_cap(n_sites, SPECTRUM_CAP)
    return True


# The rows that FIELDS shares out.  Parsers: int, float, bool, _list(kind) and _model(types).
BAND_MODEL = Field("model", _model("cosine", "coeffs"))
N_SITES = Field("n_sites", int, REQUIRED, _room, "must be >= 2")
SPECTRUM_SITES = Field("n_sites", int, REQUIRED,
                       lambda n, f: _room(n, f, spectrum=f.get("include_spectrum", True)),
                       "must be >= 2")
DENSE_SITES = Field("n_sites", int, REQUIRED,
                    lambda n, f: n <= DENSE_PROPAGATION_MAX and _room(n, f),
                    f"must lie in 2..{DENSE_PROPAGATION_MAX}")
N_K = Field("n_k", int, 512, lambda n_k, f: n_k >= 2, "must be >= 2")
EVEN_N_K = Field("n_k", int, 512, lambda n_k, f: n_k >= 2 and n_k % 2 == 0,
                 "must be even and >= 2")
TIMES = Field("times", _list(float), REQUIRED,
              lambda t, f: bool(t) and t[0] >= 0 and all(a < b for a, b in zip(t, t[1:])),
              "must be non-empty, non-negative and strictly increasing")
WINDOW = Field("window", _list(int),
               lambda f: [-min(40, f["n_k"] // 2 - 1), min(40, f["n_k"] // 2 - 1)],
               lambda w, f: len(w) == 2 and -f["n_k"] // 2 <= w[0] <= w[1] < f["n_k"] // 2,
               "must be a pair [lo, hi] with -n_k/2 <= lo <= hi < n_k/2 (n_k = {n_k})")
RHO0_SITE = Field("rho0_site", int, lambda f: (f["n_sites"] + 1) // 2,
                  lambda site, f: 1 <= site <= f["n_sites"], "must lie in 1..{n_sites}")
# Accepted and hashed, so shipped configs keep their hashes; no master route reads it.
MASTER_DT = Field("dt", float, 0.002, lambda dt, f: dt > 0, "must be > 0")
STEP_DT = Field("dt", float, REQUIRED, lambda dt, f: 0 < dt <= MAX_DT,
                f"must satisfy 0 < dt <= {MAX_DT}")
# _validate_run returns the step count; it raises unless t_final is a positive multiple of dt
T_FINAL = Field("t_final", float, REQUIRED, lambda t, f: _validate_run(t, f["dt"]) > 0)
N_TRAJ = Field("n_traj", int, REQUIRED, lambda n, f: n >= 2, "must be >= 2")

BASE = (
    Field("output_dir", lambda name, value: str(value), "out"),
    Field("master_seed", int, 0, lambda seed, f: seed >= 0, "must be >= 0"),
)
FIELDS = {   # experiment -> its rows after BASE, in the order they are read
    "Spectra": (Field("model", _model("cosine", "coeffs", phi_lists=True)), N_SITES, N_K),
    "BulkRelax": (BAND_MODEL, EVEN_N_K, TIMES, WINDOW),
    "ObcRelax": (BAND_MODEL, N_SITES, TIMES, MASTER_DT, RHO0_SITE),
    "LiouvillianSpectrum": (Field("model", _model(*MODELS)), SPECTRUM_SITES),
    "EntropyTrace": (BAND_MODEL, DENSE_SITES, TIMES, RHO0_SITE),
    "Trajectories": (BAND_MODEL, N_SITES, STEP_DT, T_FINAL, N_TRAJ, RHO0_SITE),
    "HatanoNelson": (Field("model", _model("hatano_nelson")),
                     Field("include_spectrum", bool, True),
                     SPECTRUM_SITES, TIMES, MASTER_DT, RHO0_SITE),
    "SemiclassicalDrift": (BAND_MODEL, N_SITES, TIMES, MASTER_DT, RHO0_SITE),
}
EXPERIMENTS = tuple(FIELDS)


def validate_config(raw: dict) -> ExperimentConfig:
    """Check a raw config dict against its experiment's rows, ``BASE + FIELDS[experiment]``."""
    if not isinstance(raw, dict):
        raise ConfigError("config", "must be a JSON object")
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError("experiment", f"must be one of {', '.join(EXPERIMENTS)}")
    # n_threads, a thread option of older configs, is accepted and ignored
    rest = {key: value for key, value in raw.items() if key not in ("experiment", "n_threads")}
    return ExperimentConfig(experiment, **_read(BASE + FIELDS[experiment], rest))


def load_config(path: str | Path, **overrides) -> ExperimentConfig:
    """Read and validate a JSON config; ``overrides`` replace its fields before validation."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from None
    return validate_config({**raw, **overrides} if isinstance(raw, dict) else raw)


def _headers(cfg: ExperimentConfig, dataset: str, columns: list[str], **extra) -> list[str]:
    pairs = " ".join(f"{k}={v}" for k, v in extra.items())
    head = [
        f"skinlab v{__version__}",
        f"experiment={cfg.experiment} dataset={dataset}" + (f" {pairs}" if pairs else ""),
        f"config={cfg.config_hash()}",
        UNITS_NOTE,
        "columns: " + ",".join(columns),
    ]
    return head


def _master_states(
    ops: LatticeOperators, rho0: DensityMatrix, times: list[float]
) -> tuple[list[DensityMatrix], MasterPropagator | None, dict]:
    """Master-equation states at the given times, the dense propagator and the generator record.

    Up to ``DENSE_PROPAGATION_MAX`` sites the dense propagator factors the
    generator (and hands an ill-conditioned start to the Taylor route, see
    :class:`MasterPropagator`); above, the Taylor route runs (propagator None).
    """
    if ops.n_sites <= DENSE_PROPAGATION_MAX:
        prop = MasterPropagator(ops, rho0)
        states, taylor = prop.states(rho0, times)
        return states, prop, _generator_entry(ops, prop, taylor=taylor)
    states, taylor = _taylor_master_states(ops, rho0, times)
    return states, None, _generator_entry(ops, taylor=taylor)


def _generator_entry(ops: LatticeOperators, prop: MasterPropagator | None = None,
                     block_sizes=(), taylor: dict | None = None) -> dict:
    """Manifest record of the generator: structure, mirror, blocks, cond(V) and the Taylor record.

    ``blocks`` and ``largest_block`` count the diagonal blocks of the real
    generator (with a mirror, the sectors; ``sector_sizes`` lists them), and
    ``block_bytes`` is the memory of the block matrices assembled, 8 sum b^2.
    ``block_sizes`` come from ``prop`` when a dense propagator ran; then
    ``factored_blocks`` counts the blocks its start reached, ``cond_V`` is
    their eigenbasis' condition number and ``route`` says whether the states
    took the spectral or the Taylor route.  ``taylor`` is the record of
    :func:`skinlab.evolve._taylor_master_states` (route, norm bound, degree,
    substeps and last-term ratio per interval, generator products).
    """
    entry = {"structure": ops.structure, "mirror": ops.mirror is not None, **(taylor or {})}
    if prop is not None:
        block_sizes = prop.block_sizes
        entry.update(factored_blocks=prop.factored_blocks, cond_V=prop.cond, route=prop.route)
    if block_sizes:
        entry.update(blocks=len(block_sizes), largest_block=max(block_sizes),
                     block_bytes=8 * sum(b * b for b in block_sizes))
        if ops.mirror is not None:
            entry["sector_sizes"] = list(block_sizes)
    return entry


def _timeseries_rows(times, states, entropies) -> list:
    obs = [observables(state) for state in states]
    return [times, entropies, [o.purity for o in obs], [o.first_moment for o in obs]]


def _run_spectra(cfg: ExperimentConfig, outdir: Path, diagnostics: dict) -> list[str]:
    phis = cfg.model.get("phi")   # a cosine model's phase or list of phases; None for coeffs
    outputs, summary = [], []
    for i, phi in enumerate(phis if isinstance(phis, list) else [phis]):
        model = _band_model(cfg.model, phi)
        tag = f"phi{i}"
        k, energies = pbc_spectrum(model, cfg.n_k)
        pbc_path = outdir / f"pbc_{tag}.csv"
        cols = ["k", "re_E", "im_E"]
        write_csv(pbc_path, cols, [k, energies.real, energies.imag],
                  _headers(cfg, f"pbc-curve-{tag}", cols, phi=phi))
        ops = build_obc(model, cfg.n_sites, Construction.TRUNCATE_P)
        report = obc_spectrum(ops)
        obc_path = outdir / f"obc_{tag}.csv"
        cols = ["index", "re_E", "im_E", "mean_position"]
        write_csv(obc_path, cols, spectrum_rows(report.eigenvalues, report.mean_positions),
                  _headers(cfg, f"obc-points-{tag}", cols, phi=phi))
        summary.append({
            "phi": phi,
            "skin_localization": skin_localization(report, cfg.n_sites),
            "pbc_file": pbc_path.name,
            "obc_file": obc_path.name,
        })
        outputs += [pbc_path.name, obc_path.name]
    write_json(outdir / "summary.json", {"config": cfg.config_hash(), "panels": summary})
    return outputs + ["summary.json"]


def _run_bulk_relax(cfg: ExperimentConfig, outdir: Path, diagnostics: dict) -> list[str]:
    model = _band_model(cfg.model)
    outputs, frames = [], []
    cols = ["n", "m", "re", "im", "abs"]
    for i, t in enumerate(cfg.times):
        wd = bulk_wannier_density(model, cfg.n_k, t, cfg.window)
        path = outdir / f"density_t{i}.csv"
        write_csv(path, cols, density_rows(wd.sites, wd.rho),
                  _headers(cfg, f"bulk-density-t{i}", cols, t=t))
        frames.append((t, wd.sites, wd.rho))
        outputs.append(path.name)
    write_json(outdir / "frames.json", {"config": cfg.config_hash(), **frames_to_json(frames)})
    return outputs + ["frames.json"]


def _run_relaxation(cfg: ExperimentConfig, outdir: Path, diagnostics: dict) -> list[str]:
    """timeseries.csv and frames.json, and spectrum.csv where include_spectrum (HatanoNelson)."""
    ops = _lattice(cfg.model, cfg.n_sites)
    rho0 = DensityMatrix.site(cfg.n_sites, cfg.rho0_site)
    states, prop, entry = _master_states(ops, rho0, cfg.times)
    cols = ["t", "entropy", "purity", "first_moment"]
    rows = _timeseries_rows(cfg.times, states, [von_neumann_entropy(s) for s in states])
    write_csv(outdir / "timeseries.csv", cols, rows, _headers(cfg, "relaxation-timeseries", cols))
    sites = np.arange(1, cfg.n_sites + 1)
    frames = [(t, sites, s.rho) for t, s in zip(cfg.times, states)]
    write_json(outdir / "frames.json", {"config": cfg.config_hash(), **frames_to_json(frames)})
    outputs = ["timeseries.csv", "frames.json"]
    if cfg.include_spectrum:   # the frames' factorization when the dense route ran
        if prop is None:
            w, block_sizes = _blocked_eigenvalues(ops)
            entry.update(_generator_entry(ops, block_sizes=block_sizes))
        else:
            w = prop.eigenvalues
        outputs.append(_write_spectrum(cfg, outdir, w[_spectrum_order(w)]))
    diagnostics["generator"] = entry
    return outputs


def _write_spectrum(cfg: ExperimentConfig, outdir: Path, eigenvalues) -> str:
    cols = ["re", "im"]
    write_csv(outdir / "spectrum.csv", cols, [eigenvalues.real, eigenvalues.imag],
              _headers(cfg, "superoperator-spectrum", cols))
    return "spectrum.csv"


def _run_liouvillian_spectrum(cfg: ExperimentConfig, outdir: Path, diagnostics: dict) -> list[str]:
    ops = _lattice(cfg.model, cfg.n_sites)
    if cfg.n_sites > DENSE_PROPAGATION_MAX:
        w, block_sizes = _blocked_eigenvalues(ops)
        diagnostics["generator"] = _generator_entry(ops, block_sizes=block_sizes)
        return [_write_spectrum(cfg, outdir, w)]
    report = stationary_states(ops)
    diagnostics["generator"] = _generator_entry(ops, block_sizes=report.block_sizes)
    write_json(outdir / "stationary.json", {
        "config": cfg.config_hash(),
        "zero_eigenvalue_multiplicity": report.zero_eigenvalue_multiplicity,
        "gap_ratio": report.gap_ratio,
        "ill_conditioned": report.ill_conditioned,
        "kernel_basis": [matrix_to_json(m) for m in report.kernel_basis],
    })
    return [_write_spectrum(cfg, outdir, report.eigenvalues), "stationary.json"]


def _run_entropy_trace(cfg: ExperimentConfig, outdir: Path, diagnostics: dict) -> list[str]:
    ops = _lattice(cfg.model, cfg.n_sites)
    rho0 = DensityMatrix.site(cfg.n_sites, cfg.rho0_site)
    trace = entropy_trace(ops, rho0, cfg.times)
    diagnostics["generator"] = _generator_entry(ops, trace.propagator, taylor=trace.taylor)
    cols = ["t", "entropy", "purity", "first_moment"]
    rows = _timeseries_rows(cfg.times, trace.states, trace.entropies)
    write_csv(outdir / "entropy.csv", cols, rows,
              _headers(cfg, "entropy-trace", cols, s_infinity=trace.s_infinity))
    write_json(outdir / "summary.json", {
        "config": cfg.config_hash(),
        "s_infinity": trace.s_infinity,
        "max_entropy": float(np.log(cfg.n_sites)),
        "rho_infinity": matrix_to_json(trace.rho_infinity),
    })
    return ["entropy.csv", "summary.json"]


def _run_trajectories(cfg: ExperimentConfig, outdir: Path, diagnostics: dict) -> list[str]:
    ops = _lattice(cfg.model, cfg.n_sites)
    psi0 = np.zeros(cfg.n_sites, dtype=complex)
    psi0[cfg.rho0_site - 1] = 1.0
    ens = run_ensemble(ops, psi0, cfg.t_final, cfg.dt, cfg.n_traj, cfg.master_seed)
    drift = float(np.abs(ens.norms - 1.0).max())
    diagnostics["trajectories"] = {"steps": round(cfg.t_final / cfg.dt),
                                   "phase_rows": ens.phase_rows, "max_norm_drift": drift}
    sites = np.arange(1, cfg.n_sites + 1)
    cols = ["n", "m", "re", "im", "abs"]
    write_csv(outdir / "rho_estimate.csv", cols, density_rows(sites, ens.rho_estimate),
              _headers(cfg, "ensemble-density", cols,
                       seed=cfg.master_seed, n_traj=cfg.n_traj, dt=cfg.dt))
    summary = {
        "config": cfg.config_hash(),
        "seed": ens.master_seed,
        "n_traj": ens.n_traj,
        "dt": ens.dt,
        "t_final": ens.t_final,
        "standard_error": ens.standard_error,
        "max_norm_drift": drift,
        "rho_estimate": matrix_to_json(ens.rho_estimate),
    }
    rho0 = DensityMatrix.site(cfg.n_sites, cfg.rho0_site)
    (rho_master,), taylor = _taylor_master_states(ops, rho0, [cfg.t_final])
    diagnostics["generator"] = _generator_entry(ops, taylor=taylor)
    err = float(np.linalg.norm(ens.rho_estimate - rho_master.rho))
    summary.update(master_frobenius_error=err, error_over_standard_error=err / ens.standard_error)
    write_json(outdir / "ensemble.json", summary)
    return ["rho_estimate.csv", "ensemble.json"]


def _run_semiclassical_drift(cfg: ExperimentConfig, outdir: Path, diagnostics: dict) -> list[str]:
    ops = _lattice(cfg.model, cfg.n_sites)
    rho0 = DensityMatrix.site(cfg.n_sites, cfg.rho0_site)
    psi0 = np.zeros(cfg.n_sites, dtype=complex)
    psi0[cfg.rho0_site - 1] = 1.0
    master, _, diagnostics["generator"] = _master_states(ops, rho0, cfg.times)
    semi = SemiclassicalPropagator(ops)
    sites = np.arange(1, cfg.n_sites + 1)
    semi_pops, psi, t_prev = [], psi0, 0.0
    for t in cfg.times:   # the no-jump state carried from one output time to the next
        psi, t_prev = semi.at(psi, t - t_prev), t
        pops = np.abs(psi) ** 2
        semi_pops.append(pops / pops.sum())
    master_obs = [observables(state) for state in master]
    cols = ["t", "master_first_moment", "semiclassical_first_moment"]
    write_csv(outdir / "drift.csv", cols,
              [cfg.times, [o.first_moment for o in master_obs], [sites @ p for p in semi_pops]],
              _headers(cfg, "drift-comparison", cols))
    write_json(outdir / "populations.json", {
        "config": cfg.config_hash(),
        "times": list(cfg.times),
        "sites": [int(s) for s in sites],
        "master": [o.populations.tolist() for o in master_obs],
        "semiclassical": [pops.tolist() for pops in semi_pops],
    })
    return ["drift.csv", "populations.json"]


_RUNNERS = {
    "Spectra": _run_spectra,
    "BulkRelax": _run_bulk_relax,
    "ObcRelax": _run_relaxation,
    "LiouvillianSpectrum": _run_liouvillian_spectrum,
    "EntropyTrace": _run_entropy_trace,
    "Trajectories": _run_trajectories,
    "HatanoNelson": _run_relaxation,
    "SemiclassicalDrift": _run_semiclassical_drift,
}


def _blas(package) -> dict | None:
    """Name and version of the BLAS a numpy build links; None where its config lacks it.

    Reading the build config imports nothing new.
    """
    config = getattr(getattr(package, "__config__", None), "CONFIG", None) or {}
    blas = config.get("Build Dependencies", {}).get("blas")
    return {"name": blas.get("name"), "version": blas.get("version")} if blas else None


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute one experiment; returns the manifest (also written to disk).

    The runner works inside :func:`skinlab._threads.pinned`: one BLAS thread
    per LAPACK call, the pool size restored afterwards, also when it raises.
    """
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    environment = {
        "numpy": np.__version__, "numpy_blas": _blas(np),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
    diagnostics: dict = {"environment": environment}
    try:
        with pinned() as pin:
            outputs = _RUNNERS[cfg.experiment](cfg, outdir, diagnostics)
    except SkinlabError as exc:
        raise type(exc)(f"[{cfg.experiment}] {exc}") from exc
    environment.update(pin.record())
    manifest = {
        "tool": "skinlab",
        "version": __version__,
        "experiment": cfg.experiment,
        "config": cfg.resolved(),
        "config_hash": cfg.config_hash(),
        "outputs": outputs,
        "wall_time_s": round(time.perf_counter() - start, 3),
        "diagnostics": diagnostics,
    }
    write_json(outdir / "manifest.json", manifest)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="skinlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("config", help="path to the experiment JSON")
    run_p.add_argument("--out", dest="output_dir", help="override output_dir")
    run_p.add_argument("--seed", dest="master_seed", type=int, help="override master_seed")
    val_p = sub.add_parser("validate", help="validate a config without running it")
    val_p.add_argument("config", help="path to the experiment JSON")
    args = parser.parse_args(argv)

    try:
        overrides = {k: getattr(args, k, None) for k in ("output_dir", "master_seed")}
        cfg = load_config(args.config, **{k: v for k, v in overrides.items() if v is not None})
        if args.command == "validate":
            print(f"ok: {cfg.experiment} config (hash {cfg.config_hash()})")
            return 0
        manifest = run_experiment(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SkinlabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(manifest['outputs'])} files to {cfg.output_dir} "
          f"(config {manifest['config_hash']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
