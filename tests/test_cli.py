import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import skinlab.liouvillian
from conftest import block_workers
from skinlab import build_hatano_nelson, build_obc, make_cosine_model
from skinlab._threads import _controls, _cores, dgeev
from skinlab.cli import (EXPERIMENTS, FIELDS, _RUNNERS, _blas, load_config, main, run_experiment,
                         validate_config)
from skinlab.errors import ConfigError, ParameterError
from skinlab.evolve import _taylor_steps
from skinlab.lattice_ops import toeplitz_from_coefficients
from skinlab.serialize import matrix_from_json

DENSE_LINALG = ("eig", "eigvals", "svd", "cond", "inv")

PHI_HALF_PI = 1.5707963267948966

ROOT = Path(__file__).resolve().parents[1]


def src_env(**extra) -> dict:
    """The environment with this checkout's src first on PYTHONPATH, for a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": path}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def assert_taylor_record(generator, times):
    """The Taylor route's manifest record: per-interval degree and substeps follow its bound.

    The a-posteriori last-term ratio of every interval shows a converged
    series: its last term is far below its sum (0 for an empty interval).
    """
    assert set(generator) == {"route", "arithmetic", "norm_bound", "taylor_degree", "substeps",
                              "last_term_ratio", "products"}
    assert generator["route"] == "taylor" and generator["norm_bound"] > 0
    steps = [_taylor_steps(generator["norm_bound"] * t) if t > 0 else (0, 0)
             for t in np.diff([0.0, *times])]
    assert generator["taylor_degree"] == [m for m, _ in steps]
    assert generator["substeps"] == [s for _, s in steps]
    assert sum(s for _, s in steps) <= generator["products"] <= sum(m * s for m, s in steps)
    ratios = generator["last_term_ratio"]
    assert len(ratios) == len(times)
    assert all(0.0 < r <= 1e-10 if m else r == 0.0 for r, (m, _) in zip(ratios, steps))


def spectra_config(tmp_path, **overrides):
    cfg = {
        "experiment": "Spectra",
        "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": [0.0, PHI_HALF_PI]},
        "n_sites": 20,
        "n_k": 128,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


def test_validate_accepts_good_config(tmp_path):
    cfg = validate_config(spectra_config(tmp_path))
    assert cfg.experiment == "Spectra"
    assert len(cfg.config_hash()) == 16


def test_validation_errors_name_the_field(tmp_path):
    with pytest.raises(ConfigError) as err:
        validate_config(spectra_config(tmp_path, experiment="Wrong"))
    assert err.value.field == "experiment"
    with pytest.raises(ConfigError) as err:
        validate_config({"experiment": "Spectra", "model": {"type": "cosine", "J": 1, "T": 0, "R": -1}})
    assert err.value.field == "model.R"
    with pytest.raises(ConfigError) as err:
        validate_config({
            "experiment": "Trajectories",
            "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": 0.3},
            "n_sites": 5, "t_final": 1.0, "dt": 0.02, "n_traj": 10,
        })
    assert err.value.field == "dt"


def test_config_hash_ignores_output_plumbing(tmp_path):
    a = validate_config(spectra_config(tmp_path))
    # n_threads of older configs is read and ignored
    b = validate_config(spectra_config(tmp_path, output_dir="elsewhere", n_threads=4))
    assert a.config_hash() == b.config_hash()
    c = validate_config(spectra_config(tmp_path, n_k=256))
    assert a.config_hash() != c.config_hash()


def test_spectra_experiment_outputs(tmp_path):
    cfg = validate_config(spectra_config(tmp_path))
    manifest = run_experiment(cfg)
    outdir = Path(cfg.output_dir)
    assert sorted(manifest["outputs"]) == sorted(
        ["pbc_phi0.csv", "obc_phi0.csv", "pbc_phi1.csv", "obc_phi1.csv", "summary.json"]
    )
    assert (outdir / "manifest.json").exists()
    summary = json.loads((outdir / "summary.json").read_text())
    locs = {round(p["phi"], 3): abs(p["skin_localization"]) for p in summary["panels"]}
    assert locs[0.0] < 0.05 and locs[round(PHI_HALF_PI, 3)] > 0.3
    header = (outdir / "pbc_phi0.csv").read_text().splitlines()
    assert header[2] == f"# config={manifest['config_hash']}"


def test_reruns_are_byte_identical(tmp_path):
    cfg_a = validate_config(spectra_config(tmp_path, output_dir=str(tmp_path / "a")))
    cfg_b = validate_config(spectra_config(tmp_path, output_dir=str(tmp_path / "b")))
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    for name in ("pbc_phi0.csv", "obc_phi1.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_manifest_records_the_environment_and_no_numeric_file_does(tmp_path, monkeypatch):
    base = {
        "experiment": "BulkRelax",
        "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": PHI_HALF_PI},
        "n_k": 64, "times": [0.5, 2.0], "window": [-6, 6],
    }
    manifests = {}
    for sub, threads in (("a", "1"), ("b", "7")):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        monkeypatch.setenv("OMP_NUM_THREADS", threads)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        run_experiment(validate_config({**base, "output_dir": str(tmp_path / sub)}))
        manifests[sub] = json.loads((tmp_path / sub / "manifest.json").read_text())
    environment = manifests["b"]["diagnostics"]["environment"]
    blas = environment.pop("numpy_blas")
    # the pool size numpy's OpenBLAS reports (the variables count only at start-up); that
    # OpenBLAS is the one skinlab calls, pinned while the runner ran
    controls = _controls(np.linalg._umath_linalg.__file__)
    pool = controls[0]() if controls else None
    assert environment == {
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": "7", "OMP_NUM_THREADS": "7", "MKL_NUM_THREADS": None,
        "blas_threads": pool,
        "blas_pinned": ["numpy"] if controls else [],
        "lapack_in_place": dgeev() is not None,
        "block_workers": _cores() - 1 if pool else 0,
    }
    expect = np.__config__.CONFIG["Build Dependencies"]["blas"]
    assert blas == {"name": expect["name"], "version": expect["version"]}
    assert manifests["a"]["diagnostics"]["environment"]["OPENBLAS_NUM_THREADS"] == "1"
    for name in manifests["a"]["outputs"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_blas_entry_is_null_where_a_build_config_lacks_it():
    assert _blas(SimpleNamespace()) is None
    assert _blas(SimpleNamespace(__config__=SimpleNamespace(CONFIG={"Build Dependencies": {}}))) is None
    partial = SimpleNamespace(CONFIG={"Build Dependencies": {"blas": {"name": "openblas"}}})
    assert _blas(SimpleNamespace(__config__=partial)) == {"name": "openblas", "version": None}


# Runs configs one after another in a fresh interpreter and prints, after importing
# skinlab.cli and after each run, whether scipy has been imported.
SCIPY_PROBE = """
import json, sys
import skinlab.cli
from skinlab.cli import load_config, run_experiment
loaded = ["scipy" in sys.modules]
for i, path in enumerate(sys.argv[2:]):
    cfg = load_config(path)
    cfg.output_dir = f"{sys.argv[1]}/{i}"
    run_experiment(cfg)
    loaded.append("scipy" in sys.modules)
print(json.dumps(loaded))
"""


def test_no_run_imports_scipy(tmp_path):
    shipped = sorted((ROOT / "configs").glob("*.json"))
    handoff = write_config(tmp_path, {
        "experiment": "EntropyTrace",
        "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": 0.7853981633974483},
        "n_sites": 20, "times": [0.0, 1.0],
    }, "handoff.json")
    spectra = write_config(tmp_path, spectra_config(tmp_path, n_sites=8, n_k=16), "spectra.json")
    configs = [*shipped, handoff, spectra]
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path / "runs"),
                          *map(str, configs)],
                         env=src_env(), capture_output=True, text=True, timeout=600, check=True)
    assert json.loads(out.stdout) == [False] * (len(configs) + 1)
    experiments = {json.loads(path.read_text())["experiment"] for path in shipped}
    assert experiments == {"Spectra", "BulkRelax", "ObcRelax", "LiouvillianSpectrum",
                           "EntropyTrace", "Trajectories", "HatanoNelson", "SemiclassicalDrift"}
    manifest = json.loads((tmp_path / "runs" / str(len(shipped)) / "manifest.json").read_text())
    assert manifest["diagnostics"]["generator"]["route"] == "taylor"


def test_trajectories_experiment_workers_do_not_change_bytes(tmp_path):
    base = {
        "experiment": "Trajectories",
        "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": PHI_HALF_PI},
        "n_sites": 7,
        "t_final": 0.5,
        "dt": 0.01,
        "n_traj": 300,
        "master_seed": 11,
    }
    for sub, workers in (("t1", 0), ("t4", 3)):
        with block_workers(workers):
            run_experiment(validate_config({**base, "output_dir": str(tmp_path / sub)}))
    assert (tmp_path / "t1" / "rho_estimate.csv").read_bytes() == \
        (tmp_path / "t4" / "rho_estimate.csv").read_bytes()
    summary = json.loads((tmp_path / "t1" / "ensemble.json").read_text())
    assert summary["error_over_standard_error"] < 5
    assert summary["max_norm_drift"] < 1e-9


def test_trajectories_manifest_records_steps_and_drift_and_the_workers_once(tmp_path):
    base = {
        "experiment": "Trajectories",
        "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": PHI_HALF_PI},
        "n_sites": 5, "t_final": 0.2, "dt": 0.005, "n_traj": 600, "master_seed": 3,
    }
    controlled = _controls(np.linalg._umath_linalg.__file__) is not None
    for workers in (0, 1, 15):
        outdir = tmp_path / f"w{workers}"
        with block_workers(workers):
            diagnostics = run_experiment(
                validate_config({**base, "output_dir": str(outdir)}))["diagnostics"]
        record = diagnostics["trajectories"]
        summary = json.loads((outdir / "ensemble.json").read_text())
        # the mirror leaves cos/sin for 3 of the 5 phase rows
        assert record == {"steps": 40, "phase_rows": 3, "max_norm_drift": summary["max_norm_drift"]}
        assert record["max_norm_drift"] < 1e-12
        assert diagnostics["environment"]["block_workers"] == (workers if controlled else 0)
        for name in ("rho_estimate.csv", "ensemble.json"):
            assert (outdir / name).read_bytes() == (tmp_path / "w0" / name).read_bytes()


def test_trajectories_side_check_runs_above_the_dense_propagation_cap(tmp_path):
    cfg = validate_config({
        "experiment": "Trajectories",
        "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": PHI_HALF_PI},
        "n_sites": 33, "rho0_site": 17, "t_final": 0.05, "dt": 0.01, "n_traj": 8,
        "output_dir": str(tmp_path / "traj"),
    })
    generator = run_experiment(cfg)["diagnostics"]["generator"]
    assert generator.pop("structure") == "transpose_sector"
    assert generator.pop("mirror") is True
    assert generator["arithmetic"] == "real"    # a site start in the transpose gauge
    assert_taylor_record(generator, [0.05])
    summary = json.loads((tmp_path / "traj" / "ensemble.json").read_text())
    assert 0 < summary["master_frobenius_error"] < 1
    assert summary["error_over_standard_error"] > 0


def test_entropy_trace_experiment(tmp_path):
    cfg = validate_config({
        "experiment": "EntropyTrace",
        "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": PHI_HALF_PI},
        "n_sites": 11,
        "times": [0.0, 5.0, 320.0],
        "output_dir": str(tmp_path / "ent"),
    })
    run_experiment(cfg)
    summary = json.loads((tmp_path / "ent" / "summary.json").read_text())
    assert abs(summary["s_infinity"] - np.log(11)) < 1e-6
    rows = [l for l in (tmp_path / "ent" / "entropy.csv").read_text().splitlines()
            if not l.startswith("#")]
    last = rows[-1].split(",")
    assert abs(float(last[1]) - np.log(11)) < 1e-3


def test_entropy_trace_runs_on_the_taylor_handoff(tmp_path):
    config = write_config(tmp_path, {
        "experiment": "EntropyTrace",
        "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": 0.7853981633974483},
        "n_sites": 20,
        "times": [0.0, 1.0],
        "output_dir": str(tmp_path / "ent"),
    })
    assert main(["run", str(config)]) == 0
    summary = json.loads((tmp_path / "ent" / "summary.json").read_text())
    assert abs(summary["s_infinity"] - np.log(20)) <= 1e-8
    manifest = json.loads((tmp_path / "ent" / "manifest.json").read_text())
    generator = manifest["diagnostics"]["generator"]
    assert generator.pop("cond_V") > 1e8      # the factorization ran; its cond(V) hands off
    assert {key: generator.pop(key) for key in ("structure", "mirror", "factored_blocks",
                                                "blocks", "largest_block", "block_bytes")} == \
        {"structure": "none", "mirror": False, "factored_blocks": 1, "blocks": 1,
         "largest_block": 400, "block_bytes": 8 * 400**2}
    assert_taylor_record(generator, [0.0, 1.0])


def test_bulk_and_drift_and_liouvillian_experiments(tmp_path):
    bulk_cfg = validate_config({
        "experiment": "BulkRelax",
        "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": 0.0},
        "n_k": 128,
        "times": [1.0, 2.0],
        "window": [-10, 10],
        "output_dir": str(tmp_path / "bulk"),
    })
    manifest = run_experiment(bulk_cfg)
    assert "density_t0.csv" in manifest["outputs"]
    frames = json.loads((tmp_path / "bulk" / "frames.json").read_text())
    assert len(frames["frames"]) == 2

    drift_cfg = validate_config({
        "experiment": "SemiclassicalDrift",
        "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": PHI_HALF_PI},
        "n_sites": 21,
        "times": [1.0, 3.0],
        "rho0_site": 11,
        "output_dir": str(tmp_path / "drift"),
    })
    run_experiment(drift_cfg)
    rows = [l for l in (tmp_path / "drift" / "drift.csv").read_text().splitlines()
            if not l.startswith("#") and not l.startswith("t,")]
    t, fm_master, fm_semi = (float(x) for x in rows[-1].split(","))
    assert abs(fm_master - 11) < 0.5
    assert abs(fm_semi - 11) > 1.0

    lsp_cfg = validate_config({
        "experiment": "LiouvillianSpectrum",
        "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": 0.0},
        "n_sites": 7,
        "output_dir": str(tmp_path / "lsp"),
    })
    run_experiment(lsp_cfg)
    stationary = json.loads((tmp_path / "lsp" / "stationary.json").read_text())
    assert stationary["zero_eigenvalue_multiplicity"] == 7


def test_chained_no_jump_populations_match_expm_at_every_time(tmp_path):
    """The drift runner carries the no-jump state between output times; each still matches expm."""
    import scipy.linalg

    n, site, times = 15, 8, [0.5, 1.0, 2.5, 4.0, 4.25]
    cfg = validate_config({
        "experiment": "SemiclassicalDrift",
        "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": PHI_HALF_PI},
        "n_sites": n, "times": times, "rho0_site": site, "output_dir": str(tmp_path / "drift"),
    })
    run_experiment(cfg)
    written = json.loads((tmp_path / "drift" / "populations.json").read_text())["semiclassical"]
    H_eff = build_obc(make_cosine_model(1, 0, 1, PHI_HALF_PI), n).H_eff
    assert len(written) == len(times)
    for t, pops in zip(times, written):
        exact = np.abs(scipy.linalg.expm(-1j * H_eff * t)[:, site - 1]) ** 2
        assert np.abs(np.array(pops) - exact / exact.sum()).max() <= 1e-10


def test_hatano_nelson_experiment(tmp_path):
    cfg = validate_config({
        "experiment": "HatanoNelson",
        "model": {"type": "hatano_nelson", "J1": 1, "J2": 2},
        "n_sites": 9,
        "times": [0.5, 1.0],
        "rho0_site": 5,
        "output_dir": str(tmp_path / "hn"),
    })
    manifest = run_experiment(cfg)
    assert "spectrum.csv" in manifest["outputs"]
    spectrum = [l for l in (tmp_path / "hn" / "spectrum.csv").read_text().splitlines()
                if not l.startswith("#") and not l.startswith("re,")]
    assert len(spectrum) == 81
    assert max(float(row.split(",")[0]) for row in spectrum) <= 1e-8


def test_liouvillian_spectrum_above_the_dense_propagation_cap(tmp_path):
    cfg = validate_config({
        "experiment": "LiouvillianSpectrum",
        "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": PHI_HALF_PI},
        "n_sites": 33,
        "output_dir": str(tmp_path / "lsp"),
    })
    assert run_experiment(cfg)["outputs"] == ["spectrum.csv"]
    rows = [l.split(",") for l in (tmp_path / "lsp" / "spectrum.csv").read_text().splitlines()
            if not l.startswith("#") and not l.startswith("re,")]
    w = np.array([float(re) + 1j * float(im) for re, im in rows])
    assert w.size == 33**2
    assert w.real.max() <= 1e-8
    assert int(np.sum(np.abs(w) < 1e-8)) == 1


def test_hatano_nelson_builds_its_operators_once(tmp_path, monkeypatch):
    import skinlab.cli

    calls = []
    build = skinlab.cli.build_hatano_nelson

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(skinlab.cli, "build_hatano_nelson", counting)
    cfg = validate_config({
        "experiment": "HatanoNelson",
        "model": {"type": "hatano_nelson", "J1": 1, "J2": 2},
        "n_sites": 5,
        "times": [0.5],
        "output_dir": str(tmp_path / "hn"),
    })
    run_experiment(cfg)
    assert calls == [(1.0, 2.0, 5)]


def test_main_exit_codes(tmp_path, capsys):
    good = write_config(tmp_path, spectra_config(tmp_path), "good.json")
    assert main(["validate", str(good)]) == 0
    bad = write_config(tmp_path, {"experiment": "Nope"}, "bad.json")
    assert main(["validate", str(bad)]) == 2
    assert main(["run", str(bad)]) == 2
    # passes validation but trips the wrap-around guard at runtime
    runtime_bad = write_config(tmp_path, {
        "experiment": "BulkRelax",
        "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": 0.0},
        "n_k": 64,
        "times": [100.0],
        "output_dir": str(tmp_path / "boom"),
    }, "runtime.json")
    assert main(["run", str(runtime_bad)]) == 3
    capsys.readouterr()


def test_main_run_with_overrides(tmp_path):
    path = write_config(tmp_path, spectra_config(tmp_path), "cfg.json")
    assert main(["run", str(path), "--out", str(tmp_path / "other"), "--seed", "2"]) == 0
    assert (tmp_path / "other" / "manifest.json").exists()
    with pytest.raises(SystemExit):     # the core count sets the threads; there is no flag
        main(["run", str(path), "--threads", "2"])


def test_run_seed_override_is_validated_as_master_seed(tmp_path, capsys):
    path = write_config(tmp_path, spectra_config(tmp_path), "cfg.json")
    assert main(["run", str(path), "--seed", "-1"]) == 2
    assert "error: master_seed:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["run", str(path), "--seed", "5", "--out", str(tmp_path / "seeded")]) == 0
    manifest = json.loads((tmp_path / "seeded" / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 5
    assert manifest["config"]["output_dir"] == str(tmp_path / "seeded")


# config_hash() of every shipped config, pinned: the validation table may not move one
SHIPPED_HASHES = {
    "bulk_relax": "80e09c732a2e7f6c",
    "entropy_trace_n11": "3cc3c8081dcea090",
    "hatano_nelson_n61": "c03070a9992d11ac",
    "liouvillian_spectrum_n11": "0d1692ebdb9ffc82",
    "obc_relax_n11": "baaae4df061004d8",
    "semiclassical_drift_n61": "0e6b56427a8faed3",
    "spectra_n50": "2d66154ffc947533",
    "trajectories_n11": "7cacaaf0ef69e14f",
}
BASE_KEYS = {"experiment", "model", "output_dir", "master_seed"}
RESOLVED_KEYS = {
    "Spectra": BASE_KEYS | {"n_sites", "n_k"},
    "BulkRelax": BASE_KEYS | {"n_k", "times", "window"},
    "ObcRelax": BASE_KEYS | {"n_sites", "times", "dt", "rho0_site"},
    "LiouvillianSpectrum": BASE_KEYS | {"n_sites"},
    "EntropyTrace": BASE_KEYS | {"n_sites", "times", "rho0_site"},
    "Trajectories": BASE_KEYS | {"n_sites", "t_final", "dt", "n_traj", "rho0_site"},
    "HatanoNelson": BASE_KEYS | {"n_sites", "times", "dt", "rho0_site", "include_spectrum"},
    "SemiclassicalDrift": BASE_KEYS | {"n_sites", "times", "dt", "rho0_site"},
}
OPTIONAL = ("output_dir", "master_seed", "n_k", "window", "rho0_site", "include_spectrum")


@pytest.mark.parametrize("name", sorted(SHIPPED_HASHES))
def test_shipped_config_hashes_and_resolved_keys_are_pinned(name):
    raw = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    cfg = validate_config(raw)
    assert cfg.config_hash() == SHIPPED_HASHES[name]
    assert set(cfg.resolved()) == RESOLVED_KEYS[cfg.experiment]
    # the optional fields left out, their defaults are resolved under the same keys
    minimal = {k: v for k, v in raw.items() if k not in OPTIONAL}
    if cfg.experiment != "Trajectories":   # Trajectories' dt is required
        minimal.pop("dt", None)
    assert set(validate_config(minimal).resolved()) == RESOLVED_KEYS[cfg.experiment]


def test_every_experiment_has_a_table_and_a_runner():
    assert set(EXPERIMENTS) == set(FIELDS) == set(_RUNNERS) == set(RESOLVED_KEYS)


@pytest.mark.parametrize("raw,harmonics", [
    ({"experiment": "ObcRelax", "model": {"type": "cosine", "J": 1, "T": 0.5, "R": 1},
      "n_sites": 2, "times": [1.0]}, {-2: 0.5, 2: 0.5}),
    ({"experiment": "Spectra", "model": {"type": "coeffs", "h": [[3, 1, 0], [-3, 1, 0]],
                                         "p": [[0, 1, 0]]}, "n_sites": 3}, {-3: 1, 3: 1}),
], ids=["cosine_T_on_2_sites", "coeffs_range_3_on_3_sites"])
def test_n_sites_below_the_model_range_fail_validation(tmp_path, capsys, raw, harmonics):
    """The chain must hold every harmonic: the library's rule, checked before any output."""
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.field == "n_sites"
    with pytest.raises(ParameterError) as library:
        toeplitz_from_coefficients(harmonics, raw["n_sites"])
    assert str(err.value) == f"n_sites: {library.value}"
    path = write_config(tmp_path, {**raw, "output_dir": str(tmp_path / "out")})
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path)]) == 2
    assert "does not fit" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert validate_config({**raw, "n_sites": raw["n_sites"] + 1}).n_sites == raw["n_sites"] + 1


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")


def test_coefficient_table_model(tmp_path):
    cfg = validate_config({
        "experiment": "Spectra",
        "model": {"type": "coeffs",
                  "h": [[1, 1.0, 0.0], [-1, 1.0, 0.0]],
                  "p": [[0, 1.0, 0.0]],
                  "label": "chain"},
        "n_sites": 10,
        "n_k": 64,
        "output_dir": str(tmp_path / "coeffs"),
    })
    assert cfg.model["label"] == "chain"
    manifest = run_experiment(cfg)
    assert "pbc_phi0.csv" in manifest["outputs"]
    # momentum-independent jump amplitude: every energy has Im = -1/2
    rows = [l for l in (tmp_path / "coeffs" / "pbc_phi0.csv").read_text().splitlines()
            if not l.startswith("#") and not l.startswith("k,")]
    ims = {float(r.split(",")[2]) for r in rows}
    assert all(abs(v + 0.5) < 1e-12 for v in ims)


def test_coefficient_table_hash_is_that_of_its_integer_indices():
    def cfg(h):
        return validate_config({"experiment": "Spectra", "n_sites": 10, "n_k": 64,
                                "model": {"type": "coeffs", "h": h, "p": [[0, 1.0, 0.0]]}})
    hashes = {cfg(h).config_hash() for h in ([[1, 1.0, 0.0], [-1, 1.0, 0.0]],
                                              [[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0]],
                                              [[-1, 1.0, 0.0], [1, 1.0, 0.0]])}
    assert hashes == {"4f9cd40085d6b7e9"}


def test_bad_coefficient_tables_fail_validation():
    with pytest.raises(ConfigError) as err:
        validate_config({
            "experiment": "Spectra",
            "model": {"type": "coeffs", "h": [[1, 1.0, 0.0]], "p": []},
            "n_sites": 10,
        })
    assert err.value.field == "model"


@pytest.mark.parametrize("experiment,model,rest", [
    ("LiouvillianSpectrum", {"type": "cosine", "J": 1, "T": 0, "R": 1}, {}),
    ("HatanoNelson", {"type": "hatano_nelson", "J1": 1, "J2": 2}, {"times": [1.0]}),
])
def test_dense_spectrum_cap(experiment, model, rest):
    raw = {"experiment": experiment, "model": model, **rest}
    assert validate_config({**raw, "n_sites": 64}).n_sites == 64
    with pytest.raises(ConfigError) as err:
        validate_config({**raw, "n_sites": 65})
    assert err.value.field == "n_sites"


OBC_RELAX = {"experiment": "ObcRelax", "model": {"type": "cosine", "J": 1, "T": 0, "R": 1},
             "n_sites": 6, "times": [1.0]}
BULK_RELAX = {"experiment": "BulkRelax", "model": {"type": "cosine", "J": 1, "T": 0, "R": 1},
              "n_k": 16, "times": [0.5]}
HATANO_NELSON = {"experiment": "HatanoNelson", "model": {"type": "hatano_nelson", "J1": 1, "J2": 2},
                 "n_sites": 6, "times": [1.0]}


@pytest.mark.parametrize("raw,field", [
    ({**OBC_RELAX, "times": [1, "x"]}, "times"),
    ({**BULK_RELAX, "window": ["a", 2]}, "window"),
    ({**OBC_RELAX, "model": {**OBC_RELAX["model"], "phi": [0, "q"]}, "experiment": "Spectra"},
     "model.phi"),
    ({**OBC_RELAX, "times": [1, float("nan")]}, "times"),
    ({**OBC_RELAX, "model": {**OBC_RELAX["model"], "phi": float("nan")}}, "model.phi"),
    ({**OBC_RELAX, "n_sites": 5.7}, "n_sites"),
    ({**OBC_RELAX, "rho0_site": 2.9}, "rho0_site"),
    ({**HATANO_NELSON, "include_spectrum": "false"}, "include_spectrum"),
    ({**OBC_RELAX, "times": [1, 10**400]}, "times"),
    ({**BULK_RELAX, "model": {"type": "coeffs", "h": [[0, float("nan"), 0]], "p": [[0, 1, 0]]}},
     "model"),
    ({**BULK_RELAX, "model": {"type": "coeffs", "h": [[1.5, 1, 0], [-1.5, 1, 0]],
                              "p": [[0, 1, 0]]}}, "model"),
    ({**BULK_RELAX, "model": {"type": "coeffs", "h": [[1, 1, 0], [-1, 1, 0], [1, 2, 0]],
                              "p": [[0, 1, 0]]}}, "model"),
    ({**OBC_RELAX, "model": {"type": "cosine", "T": 0, "R": 1}}, "model.J"),
    ({**OBC_RELAX, "model": {**OBC_RELAX["model"], "T": "x"}}, "model.T"),
    ({**OBC_RELAX, "model": {**OBC_RELAX["model"], "R": float("nan")}}, "model.R"),
    ({**HATANO_NELSON, "model": {"type": "hatano_nelson", "J2": 2}}, "model.J1"),
    ({**HATANO_NELSON, "model": {"type": "hatano_nelson", "J1": 1, "J2": "2"}}, "model.J2"),
    ({**OBC_RELAX, "model": {**OBC_RELAX["model"], "phi": []}, "experiment": "Spectra"},
     "model.phi"),
], ids=["text_time", "text_window", "text_phi", "nan_time", "nan_phi", "fractional_n_sites",
        "fractional_rho0_site", "text_include_spectrum", "time_beyond_float", "nan_coefficient",
        "fractional_harmonic", "repeated_harmonic", "missing_J", "text_T", "nan_R", "missing_J1",
        "text_J2", "empty_phi"])
def test_malformed_values_are_config_errors_and_exit_2(tmp_path, capsys, raw, field):
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.field == field
    path = write_config(tmp_path, {**raw, "output_dir": str(tmp_path / "out")})
    assert main(["run", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw,field", [
    ({**OBC_RELAX, "rho0_sit": 2}, "rho0_sit"),
    ({**OBC_RELAX, "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "Phi": PHI_HALF_PI}},
     "model.Phi"),
    ({**OBC_RELAX, "model": {**OBC_RELAX["model"], "label": "chain"}}, "model.label"),
    ({**OBC_RELAX, "model": {**OBC_RELAX["model"], "n_threads": 2}}, "model.n_threads"),
], ids=["rho0_sit", "Phi", "cosine_label", "model_n_threads"])
def test_unknown_fields_are_config_errors_and_exit_2(tmp_path, capsys, raw, field):
    """A misspelt key fails instead of leaving its field at the default (site 3, phi = 0)."""
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.field == field and str(err.value) == f"{field}: unknown field"
    path = write_config(tmp_path, {**raw, "output_dir": str(tmp_path / "out")})
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path)]) == 2
    assert "unknown field" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integral_floats_and_booleans_still_validate():
    cfg = validate_config({**OBC_RELAX, "n_sites": 6.0, "rho0_site": 2.0})
    assert (cfg.n_sites, cfg.rho0_site) == (6, 2) and isinstance(cfg.n_sites, int)
    assert validate_config({**HATANO_NELSON, "include_spectrum": False}).include_spectrum is False


def test_hatano_nelson_without_spectrum_skips_the_cap():
    cfg = validate_config({
        "experiment": "HatanoNelson",
        "model": {"type": "hatano_nelson", "J1": 1, "J2": 2},
        "n_sites": 65,
        "times": [1.0],
        "include_spectrum": False,
    })
    assert not cfg.include_spectrum


def dense_linalg_calls(monkeypatch, cfg) -> list[tuple[str, np.dtype, int, int]]:
    """Name, input dtype, stack count and side of each np.linalg factorization of square matrices.

    Generator blocks reach numpy stacked by size, so a call on a (k, s, s)
    array factors k blocks of side s.  The in-place eigenvalue solve
    (``_eigvals_in_place``) counts as ``eigvals``.  Unstacked N x N calls
    (the lattice operators' own checks) are left out.
    """
    calls = []

    def counting(name, original):
        def wrapper(a, *args, **kwargs):
            shape = np.shape(a)
            if len(shape) >= 2 and shape[-1] == shape[-2] and shape != (cfg.n_sites,) * 2:
                calls.append((name, np.asarray(a).dtype, int(np.prod(shape[:-2])), shape[-1]))
            return original(a, *args, **kwargs)
        return wrapper

    for name in DENSE_LINALG:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(skinlab.liouvillian, "_eigvals_in_place",
                        counting("eigvals", skinlab.liouvillian._eigvals_in_place))
    run_experiment(cfg)
    return calls


def count_dense_factorizations(monkeypatch, cfg) -> dict:
    """How often each np.linalg factorization covered the N^2 x N^2 generator in one run.

    A call counts by the generator coordinates its blocks cover, so the whole
    generator factored once counts 1 whether it came as one block or many.
    """
    covered = dict.fromkeys(DENSE_LINALG, 0)
    for name, _, count, side in dense_linalg_calls(monkeypatch, cfg):
        covered[name] += count * side
    return {name: n / cfg.n_sites**2 for name, n in covered.items()}


def test_each_generator_is_factored_once(tmp_path, monkeypatch):
    model = {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": PHI_HALF_PI}
    entropy = validate_config({
        "experiment": "EntropyTrace", "model": model, "n_sites": 11,
        "times": [0.0, 1.0, 5.0], "output_dir": str(tmp_path / "ent"),
    })
    # the propagator's eig, the SVD behind cond(V) and inv; the kernel's SVD.  The centre
    # site is mirror-symmetric and real in the transpose gauge: it reaches only the even
    # sector of the symmetric block, 36 of the 121 coordinates
    reached = 36 / 121
    assert count_dense_factorizations(monkeypatch, entropy) == \
        {"eig": reached, "eigvals": 0, "svd": 2 * reached, "cond": 0, "inv": reached}
    spectrum = validate_config({
        "experiment": "LiouvillianSpectrum", "model": model, "n_sites": 11,
        "output_dir": str(tmp_path / "lsp"),
    })
    assert count_dense_factorizations(monkeypatch, spectrum) == \
        {"eig": 0, "eigvals": 1, "svd": 1, "cond": 0, "inv": 0}


def test_hatano_nelson_factors_its_dense_generator_once(tmp_path, monkeypatch):
    cfg = validate_config({
        "experiment": "HatanoNelson", "model": {"type": "hatano_nelson", "J1": 1, "J2": 2},
        "n_sites": 9, "times": [0.5, 1.0], "output_dir": str(tmp_path / "hn"),
    })
    # a site start reaches the symmetric block (45 of 81): eig there, eigvals of the rest
    reached = 45 / 81
    assert count_dense_factorizations(monkeypatch, cfg) == \
        {"eig": reached, "eigvals": 1 - reached, "svd": reached, "cond": 0, "inv": reached}


DENSE_ROUTE_CONFIGS = [
    {"experiment": "LiouvillianSpectrum",
     "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": 0.0}, "n_sites": 9},
    {"experiment": "EntropyTrace",
     "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": PHI_HALF_PI},
     "n_sites": 9, "times": [0.0, 1.0, 5.0]},
    {"experiment": "ObcRelax",
     "model": {"type": "cosine", "J": 1, "T": 0.3, "R": 1, "phi": 0.7},
     "n_sites": 10, "times": [0.5, 2.0]},
    {"experiment": "Trajectories",
     "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": PHI_HALF_PI},
     "n_sites": 7, "t_final": 0.5, "dt": 0.01, "n_traj": 16},
    {"experiment": "HatanoNelson", "model": {"type": "hatano_nelson", "J1": 1, "J2": 2},
     "n_sites": 8, "times": [0.5, 1.0]},
]


@pytest.mark.parametrize("raw", DENSE_ROUTE_CONFIGS, ids=lambda raw: raw["experiment"])
def test_no_runner_builds_the_complex_generator(tmp_path, monkeypatch, raw):
    built = []
    original = skinlab.liouvillian.build_liouvillian

    def counting(ops):
        built.append(ops.n_sites)
        return original(ops)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "skinlab" and vars(module).get("build_liouvillian") is original:
            monkeypatch.setattr(module, "build_liouvillian", counting)
    cfg = validate_config({**raw, "output_dir": str(tmp_path / "out")})
    solves = [dtype for name, dtype, *_ in dense_linalg_calls(monkeypatch, cfg)
              if name in ("eig", "eigvals", "svd")]
    assert built == []
    assert all(dtype == np.float64 for dtype in solves)
    # the Trajectories side check takes the Taylor route: no dense solve at all
    assert bool(solves) == (raw["experiment"] != "Trajectories")


@pytest.mark.parametrize("raw", [
    {"experiment": "SemiclassicalDrift",
     "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": PHI_HALF_PI},
     "n_sites": 33, "rho0_site": 17, "times": [0.25 * k for k in range(1, 9)]},
    {"experiment": "HatanoNelson", "model": {"type": "hatano_nelson", "J1": 1, "J2": 2},
     "n_sites": 40, "rho0_site": 20, "times": [0.25, 0.5, 0.75, 1.0]},
    {"experiment": "Trajectories",
     "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": PHI_HALF_PI},
     "n_sites": 11, "rho0_site": 6, "t_final": 0.5, "dt": 0.005, "n_traj": 64,
     "master_seed": 7},
], ids=lambda raw: raw["experiment"])
def test_jump_operator_is_diagonalized_once_per_experiment(tmp_path, monkeypatch, raw):
    cfg = validate_config({**raw, "output_dir": str(tmp_path / "out")})
    model = cfg.model
    if model["type"] == "hatano_nelson":
        ops = build_hatano_nelson(model["J1"], model["J2"], cfg.n_sites)
    else:
        ops = build_obc(make_cosine_model(model["J"], model["T"], model["R"], model["phi"]),
                        cfg.n_sites)
    calls = []

    def is_jump(a):   # P, or P^2 of a square-root construction, in any diagonal gauge
        return np.shape(a) == ops.P.shape and any(
            np.allclose(np.abs(a), np.abs(X), rtol=0, atol=1e-12) for X in (ops.P, ops.P2))

    def counting(original):
        def wrapper(a, *args, **kwargs):
            if is_jump(a):
                calls.append(original.__name__)
            return original(a, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    run_experiment(cfg)
    assert len(calls) == 1


@pytest.mark.parametrize("phi, entry, factored", [
    # block_bytes: 8 bytes times 7 + 21 * 2^2, 16^2 + 12^2 + 9^2 + 12^2 and 49^2
    (0.0, {"structure": "commuting", "mirror": False, "blocks": 28, "largest_block": 2,
           "block_bytes": 728}, 28),
    (PHI_HALF_PI, {"structure": "transpose_sector", "mirror": True, "blocks": 4,
                   "largest_block": 16, "sector_sizes": [16, 12, 9, 12], "block_bytes": 5000}, 2),
    (0.7853981633974483, {"structure": "none", "mirror": False, "blocks": 1,
                          "largest_block": 49, "block_bytes": 19208}, 1),
], ids=["commuting", "transpose_sector", "none"])
def test_manifest_records_the_generator_structure(tmp_path, phi, entry, factored):
    model = {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": phi}
    relax = validate_config({"experiment": "ObcRelax", "model": model, "n_sites": 7,
                             "rho0_site": 2, "times": [0.5, 2.0],
                             "output_dir": str(tmp_path / "relax")})
    generator = run_experiment(relax)["diagnostics"]["generator"]
    assert generator.pop("cond_V") >= 1.0
    # a site start off the centre reaches both mirror sectors of the symmetric block only
    assert generator.pop("factored_blocks") == factored
    assert generator.pop("route") == "spectral"
    assert generator == entry
    spectrum = validate_config({"experiment": "LiouvillianSpectrum", "model": model,
                                "n_sites": 7, "output_dir": str(tmp_path / "lsp")})
    run_experiment(spectrum)
    manifest = json.loads((tmp_path / "lsp" / "manifest.json").read_text())
    assert manifest["diagnostics"]["generator"] == entry
    taylor = validate_config({"experiment": "SemiclassicalDrift", "model": model, "n_sites": 33,
                              "rho0_site": 17, "times": [0.1, 0.35],
                              "output_dir": str(tmp_path / "taylor")})
    generator = run_experiment(taylor)["diagnostics"]["generator"]
    assert generator.pop("structure") == entry["structure"]
    assert generator.pop("mirror") == entry["mirror"]
    assert_taylor_record(generator, [0.1, 0.35])


def test_commuting_stationary_file_is_canonical_under_blas_threads(tmp_path):
    config = write_config(tmp_path, {
        "experiment": "LiouvillianSpectrum",
        "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": 0.0}, "n_sites": 11,
    })
    for threads in ("1", "2"):
        env = src_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "skinlab.cli", "run", str(config),
                        "--out", str(tmp_path / threads)],
                       env=env, capture_output=True, timeout=300, check=True)
    files = [(tmp_path / t / "stationary.json").read_bytes() for t in ("1", "2")]
    assert files[0] == files[1]
    basis = [matrix_from_json(m) for m in json.loads(files[0])["kernel_basis"]]
    V = build_obc(make_cosine_model(1, 0, 1, 0.0), 11).V
    assert len(basis) == 11
    for v, rho in zip(V.T, basis):
        assert np.abs(rho - np.outer(v, v.conj())).max() <= 1e-12


def largest_blocks(monkeypatch, cfg) -> dict:
    """Largest side each np.linalg factorization saw on a generator block in one run."""
    sides = dict.fromkeys(DENSE_LINALG, 0)
    for name, _, _, side in dense_linalg_calls(monkeypatch, cfg):
        sides[name] = max(sides[name], side)
    return sides


@pytest.mark.parametrize("phi, largest", [(0.0, 2), (PHI_HALF_PI, 156)],
                         ids=["phi0", "phi_half_pi"])
def test_superoperator_pass_factors_only_generator_blocks(tmp_path, monkeypatch, phi, largest):
    model = {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": phi}
    for raw in ({"experiment": "LiouvillianSpectrum"},
                {"experiment": "EntropyTrace", "rho0_site": 9, "times": [0.0, 1.0, 320.0]},
                {"experiment": "ObcRelax", "rho0_site": 9, "times": [0.5, 64.0]}):
        cfg = validate_config({**raw, "model": model, "n_sites": 24,
                               "output_dir": str(tmp_path / raw["experiment"])})
        sides = largest_blocks(monkeypatch, cfg)
        assert max(sides[name] for name in ("eig", "eigvals", "svd", "inv")) == largest
        assert sides["cond"] == 0
        if raw["experiment"] == "LiouvillianSpectrum":
            assert sides["eig"] == 0        # spectrum from eigvals, kernel from the SVD


def test_hatano_nelson_spectrum_solves_each_sector_alone(tmp_path, monkeypatch):
    cfg = validate_config({
        "experiment": "HatanoNelson", "model": {"type": "hatano_nelson", "J1": 1, "J2": 2},
        "n_sites": 40, "rho0_site": 20, "times": [0.01], "output_dir": str(tmp_path / "hn"),
    })
    assert largest_blocks(monkeypatch, cfg)["eigvals"] == 820
