"""One BLAS thread per LAPACK call during a run, and generator blocks solved side by side."""

import json
import subprocess
import sys
import threading

import numpy as np
import pytest

from skinlab import _threads, build_hatano_nelson, build_obc, make_cosine_model
from skinlab.cli import _RUNNERS, run_experiment, validate_config
from skinlab.errors import NumericalFailure
from skinlab.evolve import MasterPropagator
from skinlab.liouvillian import liouvillian_eigenvalues

from conftest import block_workers
from test_cli import PHI_HALF_PI, src_env, write_config

NUMPY_CONTROLS = _threads._controls(np.linalg._umath_linalg.__file__)
needs_control = pytest.mark.skipif(NUMPY_CONTROLS is None,
                                   reason="numpy's BLAS has no OpenBLAS thread control")


def pool_size() -> int:
    return NUMPY_CONTROLS[0]()


def bulk_config(tmp_path, name="bulk") -> dict:
    return validate_config({
        "experiment": "BulkRelax", "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": 0.0},
        "n_k": 16, "times": [0.5], "window": [-2, 2], "output_dir": str(tmp_path / name),
    })


@needs_control
def test_the_pin_restores_the_pool_size_after_a_run_and_after_a_failing_runner(tmp_path,
                                                                               monkeypatch):
    before, seen = pool_size(), []

    def runner(cfg, outdir, diagnostics):
        seen.append(pool_size())
        if len(seen) == 2:
            raise NumericalFailure("runner failed")
        return []

    monkeypatch.setitem(_RUNNERS, "BulkRelax", runner)
    manifest = run_experiment(bulk_config(tmp_path))
    assert pool_size() == before
    assert manifest["diagnostics"]["environment"]["blas_threads"] == before
    with pytest.raises(NumericalFailure, match="runner failed"):
        run_experiment(bulk_config(tmp_path))
    assert pool_size() == before
    assert seen == [1, 1]
    assert _threads._pin is None


def recording(original, names):
    """``original`` noting the name of the thread of each call in ``names``."""
    def wrapper(*args, **kwargs):
        names.append(threading.current_thread().name)
        return original(*args, **kwargs)
    return wrapper


def solve_with_workers(monkeypatch, workers, solve):
    """solve() inside the pin with ``workers`` block workers; its result and the calling threads."""
    names = []
    with monkeypatch.context() as patch:
        for name in ("eig", "eigvals", "svd", "inv"):
            patch.setattr(np.linalg, name, recording(getattr(np.linalg, name), names))
        with block_workers(workers):
            result = solve()
    return result, names


def assert_same_bits(a, b):
    for x, y in zip(a, b, strict=True):
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


@needs_control
@pytest.mark.parametrize("case", ["hatano_nelson_n12_spectrum", "mirror_n11_propagator"])
def test_blockwise_gives_the_bits_of_the_serial_loop(monkeypatch, case):
    if case == "hatano_nelson_n12_spectrum":
        ops = build_hatano_nelson(1.0, 2.0, 12)

        def solve():
            return [liouvillian_eigenvalues(ops)]
    else:
        ops = build_obc(make_cosine_model(1.0, 0.0, 1.0, PHI_HALF_PI), 11)
        assert ops.mirror is not None
        rho0 = np.diag(np.arange(1.0, 12.0)) / 66.0
        rho0[2, 8] = rho0[8, 2] = 0.01

        def solve():
            prop = MasterPropagator(ops)
            return [prop.eigenvalues, prop.cond,
                    *(prop.evolve(rho0, t) for t in (0.5, 4.0, 60.0)),
                    prop.stationary_projection(rho0)]

    serial, serial_threads = solve_with_workers(monkeypatch, 0, solve)
    assert all(name == threading.current_thread().name for name in serial_threads)
    for workers in (1, 3):
        blocked, threads = solve_with_workers(monkeypatch, workers, solve)
        assert any(name.startswith("skinlab-block") for name in threads)
        assert_same_bits(blocked, serial)


@pytest.mark.parametrize("workers", [0, 1, 3])
def test_blockwise_deals_the_items_round_robin_and_returns_the_serial_bits_in_order(workers):
    rng = np.random.default_rng(5)
    caller = threading.current_thread().name
    for count in range(1, 8):
        items = [rng.standard_normal((12, 12)) for _ in range(count)]
        ran = []     # (item, thread) in the order the items ran

        def solve(i):
            ran.append((i, threading.current_thread().name))
            return np.linalg.eigvals(items[i])

        with block_workers(workers) as pin:
            blocked = _threads.blockwise(solve, range(count))
        assert_same_bits(blocked, [np.linalg.eigvals(m) for m in items])
        shares = min(count, pin.workers + 1)
        assert shares == min(count, workers + 1) or NUMPY_CONTROLS is None
        order = [i for i, _ in ran]
        for k in range(shares):    # share k runs items k, k + shares, ... in order, share 0 here
            assert [i for i in order if i % shares == k] == list(range(k, count, shares))
            assert {name == caller for i, name in ran if i % shares == k} == {k == 0}


def test_blockwise_runs_the_plain_loop_outside_the_pin():
    calls = []
    assert _threads.blockwise(lambda x: calls.append(threading.current_thread()) or 2 * x,
                              [1, 2, 3]) == [2, 4, 6]
    assert calls == [threading.current_thread()] * 3


@needs_control
def test_a_failing_block_raises_in_the_caller(monkeypatch):
    def solve(x):
        if x == 3:
            raise np.linalg.LinAlgError("block 3")
        return x

    monkeypatch.setattr(_threads, "_cores", lambda: 3)
    with _threads.pinned(), pytest.raises(np.linalg.LinAlgError, match="block 3"):
        _threads.blockwise(solve, range(6))


def test_without_the_thread_control_runs_are_serial_and_write_the_same_bytes(tmp_path,
                                                                             monkeypatch):
    raw = {"experiment": "LiouvillianSpectrum", "n_sites": 11,
           "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": PHI_HALF_PI}}
    threads = []
    monkeypatch.setattr(np.linalg, "eigvals", recording(np.linalg.eigvals, threads))
    manifests = {}
    for name in ("pinned", "serial"):
        if name == "serial":
            threads.clear()
            monkeypatch.setattr(_threads, "_controls", lambda path: None)
        cfg = validate_config({**raw, "output_dir": str(tmp_path / name)})
        manifests[name] = run_experiment(cfg)
        if name == "pinned" and NUMPY_CONTROLS is not None and _threads._cores() > 1:
            assert any(thread.startswith("skinlab-block") for thread in threads)
    environment = manifests["serial"]["diagnostics"]["environment"]
    assert (environment["blas_threads"], environment["blas_pinned"],
            environment["block_workers"]) == (None, [], 0)
    assert len(threads) > 1 and set(threads) == {threading.current_thread().name}
    for name in manifests["serial"]["outputs"]:
        pinned, serial = ((tmp_path / run / name).read_bytes() for run in ("pinned", "serial"))
        assert pinned == serial


def test_mirror_n24_relaxation_writes_the_same_bytes_at_1_and_2_blas_threads(tmp_path):
    config = write_config(tmp_path, {
        "experiment": "ObcRelax", "n_sites": 24, "rho0_site": 9,
        "model": {"type": "cosine", "J": 1, "T": 0, "R": 1, "phi": PHI_HALF_PI},
        "times": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
    })
    outputs = {}
    for threads in ("1", "2"):
        env = src_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                      MKL_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "skinlab.cli", "run", str(config),
                        "--out", str(tmp_path / threads)],
                       env=env, capture_output=True, timeout=300, check=True)
        manifest = json.loads((tmp_path / threads / "manifest.json").read_text())
        outputs[threads] = {name: (tmp_path / threads / name).read_bytes()
                            for name in manifest["outputs"]}
    assert outputs["1"] == outputs["2"]
