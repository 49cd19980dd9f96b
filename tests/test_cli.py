import json
import sys
from pathlib import Path

import numpy as np
import pytest

from skinlab import build_hatano_nelson, build_obc, make_cosine_model
from skinlab.cli import load_config, main, run_experiment, validate_config
from skinlab.errors import ConfigError

DENSE_LINALG = ("eig", "eigvals", "svd", "cond", "inv")

PHI_HALF_PI = 1.5707963267948966


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


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


def test_trajectories_experiment_threads_do_not_change_bytes(tmp_path):
    base = {
        "experiment": "Trajectories",
        "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": PHI_HALF_PI},
        "n_sites": 7,
        "t_final": 0.5,
        "dt": 0.01,
        "n_traj": 300,
        "master_seed": 11,
    }
    for sub, threads in (("t1", 1), ("t4", 4)):
        cfg = validate_config({**base, "output_dir": str(tmp_path / sub), "n_threads": threads})
        run_experiment(cfg)
    assert (tmp_path / "t1" / "rho_estimate.csv").read_bytes() == \
        (tmp_path / "t4" / "rho_estimate.csv").read_bytes()
    summary = json.loads((tmp_path / "t1" / "ensemble.json").read_text())
    assert summary["error_over_standard_error"] < 5
    assert summary["max_norm_drift"] < 1e-9


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
    assert main(["run", str(path), "--out", str(tmp_path / "other"), "--threads", "2"]) == 0
    assert (tmp_path / "other" / "manifest.json").exists()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")


def test_coefficient_table_model(tmp_path):
    cfg = validate_config({
        "experiment": "Spectra",
        "model": {"type": "coeffs",
                  "h": [[1, 1.0, 0.0], [-1, 1.0, 0.0]],
                  "p": [[0, 1.0, 0.0]]},
        "n_sites": 10,
        "n_k": 64,
        "output_dir": str(tmp_path / "coeffs"),
    })
    manifest = run_experiment(cfg)
    assert "pbc_phi0.csv" in manifest["outputs"]
    # momentum-independent jump amplitude: every energy has Im = -1/2
    rows = [l for l in (tmp_path / "coeffs" / "pbc_phi0.csv").read_text().splitlines()
            if not l.startswith("#") and not l.startswith("k,")]
    ims = {float(r.split(",")[2]) for r in rows}
    assert all(abs(v + 0.5) < 1e-12 for v in ims)


def test_bad_coefficient_tables_fail_validation():
    with pytest.raises(ConfigError) as err:
        validate_config({
            "experiment": "Spectra",
            "model": {"type": "coeffs", "h": [[1, 1.0, 0.0]], "p": []},
            "n_sites": 10,
        })
    assert err.value.field == "model"


@pytest.mark.parametrize("experiment,model", [
    ("LiouvillianSpectrum", {"type": "cosine", "J": 1, "T": 0, "R": 1}),
    ("HatanoNelson", {"type": "hatano_nelson", "J1": 1, "J2": 2}),
])
def test_dense_spectrum_cap(experiment, model):
    raw = {"experiment": experiment, "model": model, "times": [1.0]}
    assert validate_config({**raw, "n_sites": 64}).n_sites == 64
    with pytest.raises(ConfigError) as err:
        validate_config({**raw, "n_sites": 65})
    assert err.value.field == "n_sites"


def test_hatano_nelson_without_spectrum_skips_the_cap():
    cfg = validate_config({
        "experiment": "HatanoNelson",
        "model": {"type": "hatano_nelson", "J1": 1, "J2": 2},
        "n_sites": 65,
        "times": [1.0],
        "include_spectrum": False,
    })
    assert not cfg.include_spectrum


def dense_linalg_calls(monkeypatch, cfg) -> list[tuple[str, np.dtype]]:
    """Name and input dtype of each np.linalg factorization of an N^2 x N^2 matrix in one run."""
    side = cfg.n_sites**2
    calls = []

    def counting(name, original):
        def wrapper(a, *args, **kwargs):
            if np.shape(a) == (side, side):
                calls.append((name, np.asarray(a).dtype))
            return original(a, *args, **kwargs)
        return wrapper

    for name in DENSE_LINALG:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    run_experiment(cfg)
    return calls


def count_dense_factorizations(monkeypatch, cfg) -> dict:
    """Calls of each np.linalg factorization on N^2 x N^2 matrices during one run."""
    names = [name for name, _ in dense_linalg_calls(monkeypatch, cfg)]
    return {name: names.count(name) for name in DENSE_LINALG}


def test_each_generator_is_factored_once(tmp_path, monkeypatch):
    model = {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": PHI_HALF_PI}
    entropy = validate_config({
        "experiment": "EntropyTrace", "model": model, "n_sites": 11,
        "times": [0.0, 1.0, 5.0], "output_dir": str(tmp_path / "ent"),
    })
    assert count_dense_factorizations(monkeypatch, entropy) == \
        {"eig": 1, "eigvals": 0, "svd": 0, "cond": 1, "inv": 1}
    spectrum = validate_config({
        "experiment": "LiouvillianSpectrum", "model": model, "n_sites": 11,
        "output_dir": str(tmp_path / "lsp"),
    })
    assert count_dense_factorizations(monkeypatch, spectrum) == \
        {"eig": 1, "eigvals": 0, "svd": 1, "cond": 0, "inv": 0}


def test_hatano_nelson_factors_its_dense_generator_once(tmp_path, monkeypatch):
    cfg = validate_config({
        "experiment": "HatanoNelson", "model": {"type": "hatano_nelson", "J1": 1, "J2": 2},
        "n_sites": 9, "times": [0.5, 1.0], "output_dir": str(tmp_path / "hn"),
    })
    assert count_dense_factorizations(monkeypatch, cfg) == \
        {"eig": 1, "eigvals": 0, "svd": 0, "cond": 1, "inv": 1}


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
    import skinlab.liouvillian

    built = []
    original = skinlab.liouvillian.build_liouvillian

    def counting(ops):
        built.append(ops.n_sites)
        return original(ops)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "skinlab" and vars(module).get("build_liouvillian") is original:
            monkeypatch.setattr(module, "build_liouvillian", counting)
    cfg = validate_config({**raw, "output_dir": str(tmp_path / "out")})
    solves = [dtype for name, dtype in dense_linalg_calls(monkeypatch, cfg)
              if name in ("eig", "eigvals", "svd")]
    assert built == []
    assert solves and all(dtype == np.float64 for dtype in solves)


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
        P = build_hatano_nelson(model["J1"], model["J2"], cfg.n_sites).P
    else:
        P = build_obc(make_cosine_model(model["J"], model["T"], model["R"], model["phi"]),
                      cfg.n_sites).P
    calls = []

    def counting(original):
        def wrapper(a, *args, **kwargs):
            if np.shape(a) == P.shape and np.array_equal(a, P):
                calls.append(original.__name__)
            return original(a, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    run_experiment(cfg)
    assert len(calls) == 1
