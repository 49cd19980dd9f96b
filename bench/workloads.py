"""The benchmark's workloads: which experiments one pass runs, built from a seed.

Every experiment goes through ``skinlab.cli.load_config`` and
``skinlab.cli.run_experiment``.  Generated configs are written as JSON next
to the run's outputs; shipped configs are read from ``configs/``.  The seed
picks the launch site of the superoperator and Hatano-Nelson runs, the
ensemble's master seed and the density cells the figures check samples; it
never changes the amount of work in a pass.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

SUPEROP_N = 24          # smallest N in 24..32; a pass of six dense experiments
ENSEMBLE_TRAJ = 256     # half of one trajectory chunk (skinlab.trajectories.CHUNK)
HATANO_NELSON_N = 40    # above the dense-propagation cap, so RK4 frames plus eigvals of 1600x1600
FIGURE_ROUNDS = 4       # the quick configs take ~0.7 s together; four rounds make a pass
FIGURE_CONFIGS = ("spectra_n50", "bulk_relax", "obc_relax_n11",
                  "liouvillian_spectrum_n11", "entropy_trace_n11")
DENSITY_CELLS = 16      # sampled cells per density_t*.csv

RELAX_TIMES = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
ENTROPY_TIMES = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 320.0]


@dataclass
class Experiment:
    """One run_experiment call: a label, its config as a dict, and what the checks expect."""

    label: str
    config: dict
    expect: dict = field(default_factory=dict)
    shipped: str | None = None      # name under configs/, or None for a generated config

    def config_path(self, root: Path, workdir: Path) -> Path:
        if self.shipped is not None:
            return root / "configs" / f"{self.shipped}.json"
        return workdir / "configs" / f"{self.label}.json"


@dataclass
class Workload:
    name: str
    experiments: list[Experiment]
    rounds: int = 1                 # times a pass runs the experiment list


def _cosine(phi: float) -> dict:
    return {"type": "cosine", "J": 1.0, "T": 0.0, "R": 1.0, "phi": phi}


def ensemble(seed: int, root: Path, nproc: int) -> Workload:
    cfg = {"experiment": "Trajectories", "model": _cosine(math.pi / 2), "n_sites": 11,
           "rho0_site": 6, "t_final": 3.0, "dt": 0.005, "n_traj": ENSEMBLE_TRAJ,
           "master_seed": seed, "n_threads": nproc}
    return Workload("ensemble", [Experiment("trajectories", cfg)])


def superop(seed: int, root: Path, nproc: int) -> Workload:
    n = SUPEROP_N
    site = random.Random(seed).randint(n // 4 + 1, 3 * n // 4)
    experiments = []
    for tag, phi in (("phi0", 0.0), ("phi_half_pi", math.pi / 2)):
        commuting = phi == 0.0
        kernel_dim = n if commuting else 1
        model = _cosine(phi)
        experiments += [
            Experiment(f"spectrum_{tag}", {"experiment": "LiouvillianSpectrum", "model": model,
                                           "n_sites": n},
                       {"kernel_dim": kernel_dim, "commuting": commuting}),
            Experiment(f"entropy_{tag}", {"experiment": "EntropyTrace", "model": model,
                                          "n_sites": n, "rho0_site": site,
                                          "times": ENTROPY_TIMES},
                       {"commuting": commuting}),
            Experiment(f"relax_{tag}", {"experiment": "ObcRelax", "model": model, "n_sites": n,
                                        "rho0_site": site, "times": RELAX_TIMES}),
        ]
    return Workload("superop", experiments)


def chain(seed: int, root: Path, nproc: int) -> Workload:
    n = HATANO_NELSON_N
    site = random.Random(seed).randint(n // 4 + 1, 3 * n // 4)
    drift = Experiment("semiclassical_drift_n61",
                       json.loads((root / "configs/semiclassical_drift_n61.json").read_text()),
                       shipped="semiclassical_drift_n61")
    hn = Experiment("hatano_nelson", {"experiment": "HatanoNelson",
                                      "model": {"type": "hatano_nelson", "J1": 1.0, "J2": 2.0},
                                      "n_sites": n, "rho0_site": site,
                                      "times": [1.0, 2.0, 4.0, 8.0], "include_spectrum": True},
                    {"kernel_dim": 1})
    return Workload("chain", [drift, hn])


def figures(seed: int, root: Path, nproc: int) -> Workload:
    rng = random.Random(seed)
    experiments = []
    for name in FIGURE_CONFIGS:
        cfg = json.loads((root / "configs" / f"{name}.json").read_text())
        expect = {}
        if cfg["experiment"] == "BulkRelax":
            side = cfg["window"][1] - cfg["window"][0] + 1
            expect["cells"] = [(rng.randrange(side), rng.randrange(side))
                               for _ in range(DENSITY_CELLS)]
        elif cfg["experiment"] == "LiouvillianSpectrum":
            expect["kernel_dim"] = 1
        experiments.append(Experiment(name, cfg, expect, shipped=name))
    return Workload("figures", experiments, rounds=FIGURE_ROUNDS)


WORKLOADS = {"ensemble": ensemble, "superop": superop, "chain": chain, "figures": figures}
