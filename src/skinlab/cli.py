"""Experiment runner: declarative JSON configs to figure-ready datasets.

One config describes one experiment; running it writes CSV/JSON datasets plus
a manifest recording the resolved configuration, its hash, the tool version,
wall time, how the generator was factored, the numpy and scipy versions, the
BLAS library each of them links, the BLAS thread variables and what the run
did with threads.  A run sets every OpenBLAS it finds to one thread and
solves a generator's independent blocks and a trajectory chunk's tiles side
by side on the cores instead (see :mod:`skinlab._threads`), so numeric
output files are byte-identical across reruns of the same config at any
BLAS pool size and core count; builds without the OpenBLAS thread control
(MKL, Accelerate) promise that only at a fixed pool size.

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

import numpy as np
import scipy

from . import __version__
from ._threads import pinned
from .band import BandModel, make_cosine_model, pbc_spectrum
from .bulk import bulk_wannier_density
from .errors import ConfigError, SkinlabError
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
    build_hatano_nelson,
    build_obc,
    obc_spectrum,
    skin_localization,
)
from .liouvillian import (
    SPECTRUM_CAP,
    _blocked_eigenvalues,
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
from .trajectories import run_ensemble

EXPERIMENTS = (
    "Spectra",
    "BulkRelax",
    "ObcRelax",
    "LiouvillianSpectrum",
    "EntropyTrace",
    "Trajectories",
    "HatanoNelson",
    "SemiclassicalDrift",
)

DENSE_PROPAGATION_MAX = 32   # largest N propagated through the dense superoperator
UNITS_NOTE = "units: energies in units of the hopping scale (J or J1), times in its inverse"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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
    window: tuple[int, int] | None = None
    t_final: float | None = None
    dt: float | None = None
    n_traj: int | None = None
    master_seed: int = 0
    include_spectrum: bool = True

    def resolved(self) -> dict:
        """Canonical dict used for hashing and the manifest."""
        out = {
            "experiment": self.experiment,
            "model": self.model,
            "output_dir": self.output_dir,
            "master_seed": self.master_seed,
        }
        for key in ("n_sites", "n_k", "rho0_site", "t_final", "dt", "n_traj"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.times:
            out["times"] = list(self.times)
        if self.window is not None:
            out["window"] = list(self.window)
        if self.experiment == "HatanoNelson":
            out["include_spectrum"] = self.include_spectrum
        return out

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


def _cast(name: str, value, kind):
    """``value`` as ``kind``: strings and booleans as given, numbers finite and for int integral."""
    if kind in (str, bool):
        ok = isinstance(value, kind)
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


def _require(raw: dict, name: str, kind, check=None, note=""):
    if name not in raw:
        raise ConfigError(name, "missing required field")
    value = _cast(name, raw[name], kind)
    if check is not None and not check(value):
        raise ConfigError(name, note or f"value {value!r} out of range")
    return value


def _optional(raw: dict, name: str, kind, default=None, check=None, note=""):
    if name not in raw or raw[name] is None:
        return default
    return _require(raw, name, kind, check, note)


def _times(raw: dict, required: bool = True) -> list[float]:
    if "times" not in raw:
        if required:
            raise ConfigError("times", "missing required field")
        return []
    times = raw["times"]
    if not isinstance(times, (list, tuple)) or not times:
        raise ConfigError("times", "must be a non-empty list of times")
    times = [_cast("times", t, float) for t in times]
    if any(t < 0 for t in times) or any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("times", "must be non-negative and strictly increasing")
    return times


def _validate_model(obj, experiment: str) -> dict:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigError("model", 'must be an object with a "type" field')
    kind = obj["type"]
    if kind == "cosine":
        out = {"type": "cosine"}
        for key in ("J", "T", "R"):
            out[key] = _require(obj, key, float)
        if out["R"] < 0:
            raise ConfigError("model.R", "must be >= 0")
        phi = obj.get("phi", 0.0)
        if isinstance(phi, (list, tuple)):
            if experiment != "Spectra":
                raise ConfigError("model.phi", "a list of phases is only valid for Spectra")
            out["phi"] = [_cast("model.phi", p, float) for p in phi]
        else:
            out["phi"] = _cast("model.phi", phi, float)
        return out
    if kind == "coeffs":
        for key in ("h", "p"):
            if key not in obj:
                raise ConfigError(f"model.{key}", "missing coefficient table")
        try:
            model = BandModel.from_json(obj)
        except (SkinlabError, TypeError, ValueError) as exc:
            raise ConfigError("model", f"invalid coefficient tables: {exc}") from None
        return {"type": "coeffs", **model.to_json()}
    if kind == "hatano_nelson":
        if experiment not in ("LiouvillianSpectrum", "HatanoNelson"):
            raise ConfigError("model.type", f"hatano_nelson not supported by {experiment}")
        J1 = _require(obj, "J1", float, lambda x: x >= 0, "must be >= 0")
        J2 = _require(obj, "J2", float)
        if J2 < J1:
            raise ConfigError("model.J2", "must satisfy J2 >= J1")
        return {"type": "hatano_nelson", "J1": J1, "J2": J2}
    raise ConfigError("model.type", f"unknown model type {kind!r}")


def _band_model(model: dict, phi: float | None = None) -> BandModel:
    if model["type"] == "cosine":
        use_phi = model["phi"] if phi is None else phi
        return make_cosine_model(model["J"], model["T"], model["R"], use_phi)
    if model["type"] == "coeffs":
        return BandModel.from_json(model)
    raise ConfigError("model.type", f"{model['type']!r} is not a band model")


def _lattice(model: dict, n_sites: int) -> LatticeOperators:
    if model["type"] == "hatano_nelson":
        return build_hatano_nelson(model["J1"], model["J2"], n_sites)
    return build_obc(_band_model(model), n_sites, Construction.TRUNCATE_P)


def validate_config(raw: dict) -> ExperimentConfig:
    """Check a raw config dict against the experiment's preconditions."""
    if not isinstance(raw, dict):
        raise ConfigError("config", "must be a JSON object")
    experiment = _require(raw, "experiment", str, lambda e: e in EXPERIMENTS,
                          f"must be one of {', '.join(EXPERIMENTS)}")
    model = _validate_model(raw.get("model"), experiment)
    cfg = ExperimentConfig(
        experiment=experiment,
        model=model,
        output_dir=str(raw.get("output_dir", "out")),
        master_seed=_optional(raw, "master_seed", int, 0, lambda s: s >= 0, "must be >= 0"),
    )

    needs_sites = experiment != "BulkRelax"
    if needs_sites:
        cfg.n_sites = _require(raw, "n_sites", int, lambda n: n >= 2, "must be >= 2")

    if experiment == "Spectra":
        cfg.n_k = _optional(raw, "n_k", int, 512, lambda n: n >= 2, "must be >= 2")
    elif experiment == "BulkRelax":
        cfg.n_k = _optional(
            raw, "n_k", int, 512, lambda n: n >= 2 and n % 2 == 0, "must be even and >= 2"
        )
        cfg.times = _times(raw)
        window = raw.get("window")
        if window is None:
            half = min(40, cfg.n_k // 2 - 1)
            cfg.window = (-half, half)
        else:
            if not (isinstance(window, (list, tuple)) and len(window) == 2):
                raise ConfigError("window", "must be a [lo, hi] pair")
            lo, hi = (_cast("window", end, int) for end in window)
            if lo > hi or lo < -cfg.n_k // 2 or hi >= cfg.n_k // 2:
                raise ConfigError("window", f"must lie inside [-{cfg.n_k // 2}, {cfg.n_k // 2})")
            cfg.window = (lo, hi)
    elif experiment in ("ObcRelax", "HatanoNelson", "SemiclassicalDrift"):
        cfg.times = _times(raw)
        cfg.dt = _optional(raw, "dt", float, 0.002, lambda x: x > 0, "must be > 0")
    elif experiment == "EntropyTrace":
        cfg.times = _times(raw)
        if cfg.n_sites > DENSE_PROPAGATION_MAX:
            raise ConfigError(
                "n_sites", f"EntropyTrace needs n_sites <= {DENSE_PROPAGATION_MAX}"
            )
    elif experiment == "Trajectories":
        cfg.t_final = _require(raw, "t_final", float, lambda x: x > 0, "must be > 0")
        cfg.dt = _require(raw, "dt", float, lambda x: 0 < x <= 0.01,
                          "must satisfy 0 < dt <= 0.01")
        cfg.n_traj = _require(raw, "n_traj", int, lambda n: n >= 2, "must be >= 2")
        steps = round(cfg.t_final / cfg.dt)
        if steps < 1 or abs(steps * cfg.dt - cfg.t_final) > 1e-9:
            raise ConfigError("t_final", "must be a positive multiple of dt")
    elif experiment == "LiouvillianSpectrum":
        if cfg.n_sites**2 > SPECTRUM_CAP:
            raise ConfigError("n_sites", f"dense superoperator needs n_sites**2 <= {SPECTRUM_CAP}")

    if experiment == "HatanoNelson":
        if model["type"] != "hatano_nelson":
            raise ConfigError("model.type", "HatanoNelson requires a hatano_nelson model")
        cfg.include_spectrum = _optional(raw, "include_spectrum", bool, True)
        if cfg.include_spectrum and cfg.n_sites**2 > SPECTRUM_CAP:
            raise ConfigError("n_sites", f"spectrum output needs n_sites**2 <= {SPECTRUM_CAP}")

    if experiment in ("ObcRelax", "EntropyTrace", "Trajectories", "HatanoNelson",
                      "SemiclassicalDrift"):
        default_site = (cfg.n_sites + 1) // 2
        cfg.rho0_site = _optional(
            raw, "rho0_site", int, default_site,
            lambda s: 1 <= s <= cfg.n_sites, f"must lie in 1..{cfg.n_sites}",
        )
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from None
    return validate_config(raw)


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
    generator (with a mirror, the sectors; ``sector_sizes`` lists them).
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
        entry.update(blocks=len(block_sizes), largest_block=max(block_sizes))
        if ops.mirror is not None:
            entry["sector_sizes"] = list(block_sizes)
    return entry


def _timeseries_rows(times, states) -> list:
    obs = [observables(state) for state in states]
    return [times, [von_neumann_entropy(s) for s in states], [o.purity for o in obs],
            [o.first_moment for o in obs]]


def _run_spectra(cfg: ExperimentConfig, outdir: Path, diagnostics: dict) -> list[str]:
    phi_values = cfg.model.get("phi", 0.0) if cfg.model["type"] == "cosine" else None
    if not isinstance(phi_values, (list, tuple)):
        phi_values = [phi_values] if phi_values is not None else [None]
    outputs, summary = [], []
    for i, phi in enumerate(phi_values):
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


def _run_obc_relax(cfg: ExperimentConfig, outdir: Path, diagnostics: dict) -> list[str]:
    ops = _lattice(cfg.model, cfg.n_sites)
    outputs, _, diagnostics["generator"] = _write_relaxation(cfg, outdir, ops)
    return outputs


def _write_relaxation(cfg: ExperimentConfig, outdir: Path, ops: LatticeOperators):
    """Write timeseries.csv and frames.json; their names, dense propagator and generator record."""
    rho0 = DensityMatrix.site(cfg.n_sites, cfg.rho0_site)
    states, prop, entry = _master_states(ops, rho0, cfg.times)
    cols = ["t", "entropy", "purity", "first_moment"]
    write_csv(outdir / "timeseries.csv", cols, _timeseries_rows(cfg.times, states),
              _headers(cfg, "relaxation-timeseries", cols))
    sites = np.arange(1, cfg.n_sites + 1)
    frames = [(t, sites, s.rho) for t, s in zip(cfg.times, states)]
    write_json(outdir / "frames.json", {"config": cfg.config_hash(), **frames_to_json(frames)})
    return ["timeseries.csv", "frames.json"], prop, entry


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
    write_csv(outdir / "entropy.csv", cols, _timeseries_rows(cfg.times, trace.states),
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
    diagnostics["trajectories"] = {"steps": round(cfg.t_final / cfg.dt), "max_norm_drift": drift}
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


def _run_hatano_nelson(cfg: ExperimentConfig, outdir: Path, diagnostics: dict) -> list[str]:
    ops = _lattice(cfg.model, cfg.n_sites)
    outputs, prop, entry = _write_relaxation(cfg, outdir, ops)
    if cfg.include_spectrum:   # the frames' factorization when the dense route ran
        if prop is None:
            w, block_sizes = _blocked_eigenvalues(ops)
            entry.update(_generator_entry(ops, block_sizes=block_sizes))
        else:
            w = prop.eigenvalues
        outputs.append(_write_spectrum(cfg, outdir, w[_spectrum_order(w)]))
    diagnostics["generator"] = entry
    return outputs


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
    "ObcRelax": _run_obc_relax,
    "LiouvillianSpectrum": _run_liouvillian_spectrum,
    "EntropyTrace": _run_entropy_trace,
    "Trajectories": _run_trajectories,
    "HatanoNelson": _run_hatano_nelson,
    "SemiclassicalDrift": _run_semiclassical_drift,
}


def _blas(package) -> dict | None:
    """Name and version of the BLAS a numpy or scipy build links; None where its config lacks it.

    numpy and scipy wheels each bundle their own OpenBLAS, possibly of
    different versions, so the same LAPACK call can differ in the last digits
    between them.  Reading the build config imports nothing new.
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
        "numpy": np.__version__, "scipy": scipy.__version__,
        "numpy_blas": _blas(np), "scipy_blas": _blas(scipy),
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
    run_p.add_argument("--out", help="override output_dir")
    run_p.add_argument("--seed", type=int, help="override master_seed")
    val_p = sub.add_parser("validate", help="validate a config without running it")
    val_p.add_argument("config", help="path to the experiment JSON")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.command == "validate":
            print(f"ok: {cfg.experiment} config (hash {cfg.config_hash()})")
            return 0
        if args.out is not None:
            cfg.output_dir = args.out
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("master_seed", "must be >= 0")
            cfg.master_seed = args.seed
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
