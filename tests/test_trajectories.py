import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from conftest import ZeroStream, block_workers, split_evolve_oracle
from skinlab import (
    BandModel,
    NoiseStream,
    ParameterError,
    bloch_trajectory,
    build_obc,
    bulk_evolve,
    localized_bulk_state,
    bulk_wannier_density,
    make_cosine_model,
    propagate_master,
    propagate_semiclassical,
    run_ensemble,
    run_trajectory,
    stroboscopic_loop,
    trajectory_step,
    DensityMatrix,
)
from skinlab import trajectories
from skinlab.trajectories import (
    CHUNK,
    TILE,
    _jump_phases,
    _split_evolve,
    _split_factors,
    _wiener_rows,
)


def exact_exponential_evolve(ops, psi0, dt, dW):
    """Reference kernel: every step applies exp(-i (H dt + P dW)) from a batched eigh.

    ``dW`` has shape (c, n_steps); returns the (c, N) final states.
    """
    psi = np.tile(np.asarray(psi0, dtype=complex), (dW.shape[0], 1))[:, :, None]
    for s in range(dW.shape[1]):
        w, V = np.linalg.eigh(ops.H[None] * dt + ops.P[None] * dW[:, s, None, None])
        psi = V @ (np.exp(-1j * w)[:, :, None] * (V.conj().transpose(0, 2, 1) @ psi))
    return psi[:, :, 0]


@pytest.fixture(scope="module")
def skew11():
    return build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 11)


@pytest.fixture(scope="module")
def center11():
    psi0 = np.zeros(11, complex)
    psi0[5] = 1.0
    return psi0


def test_noise_streams_are_reproducible_and_distinct():
    a = NoiseStream(123, 4).standard_normal(10)
    b = NoiseStream(123, 4).standard_normal(10)
    c = NoiseStream(123, 5).standard_normal(10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def jumped_normals(seed, j, size):
    return np.random.Generator(np.random.Philox(key=seed).jumped(j)).standard_normal(size)


@pytest.mark.parametrize("seed", [0, 42, 2**63])
@pytest.mark.parametrize("j", [0, 1, 255, 2**32, 2**64 - 1, 2**64, 2**64 + 255, 2**127 + 3])
def test_noise_stream_is_the_master_stream_jumped_by_its_index(seed, j):
    # indices from 2**64 on carry into the counter's top word, as jumped() does
    got = NoiseStream(seed, j).standard_normal(700)
    assert got.tobytes() == jumped_normals(seed, j, 700).tobytes()


def test_noise_stream_rejects_indices_beyond_the_counter():
    NoiseStream(1, 2**128 - 1)
    for j in (2**128, -1):
        with pytest.raises(ParameterError):
            NoiseStream(1, j)


@pytest.mark.parametrize("indices", [range(0, 70), range(2**64 - 3, 2**64 + 3)])
def test_tile_noise_rows_are_the_trajectory_streams(indices):
    rows = _wiener_rows(2**63, indices, 33, 0.005)
    expect = np.array([NoiseStream(2**63, j).wiener_increments(33, 0.005) for j in indices])
    assert rows.tobytes() == expect.tobytes()


def noise(seed, c, n_steps, dt=0.005):
    return np.sqrt(dt) * np.random.default_rng(seed).standard_normal((c, n_steps))


def test_kernel_matches_the_complex_exp_oracle_bit_for_bit(skew11, center11, monkeypatch):
    factors = _split_factors(skew11, 0.005)
    dW = noise(1, 64, 50)
    # blocks of 7 steps, which do not divide 50
    monkeypatch.setattr(trajectories, "PHASE_BLOCK", 7 * 11 * 64 + 5)
    got = _split_evolve(factors, center11, dW)
    assert got.tobytes() == split_evolve_oracle(factors, center11, dW).tobytes()
    path = _split_evolve(factors, center11, dW, return_path=True)
    assert path.shape == (51, 64, 11)
    assert path.tobytes() == split_evolve_oracle(factors, center11, dW, True).tobytes()


def test_jump_phases_are_the_complex_exp_bits_also_at_exact_zeros():
    p = np.array([0.0, 0.3, 1.7])
    dW = noise(2, 5, 9)
    dW[:, ::3] = 0.0
    dW[1, 4] = -0.0
    angle, z = np.empty((9, 3, 5)), np.empty((9, 3, 5), complex)
    _jump_phases(p, dW, angle, z)
    expect = np.stack([np.exp(np.outer(-1j * p, dW[:, s])) for s in range(9)])
    assert z.tobytes() == expect.tobytes()


def test_tiles_evolved_one_by_one_give_the_whole_chunk(skew11, center11):
    factors = _split_factors(skew11, 0.005)
    dW = noise(3, CHUNK, 40)
    whole = split_evolve_oracle(factors, center11, dW)
    cuts = [*range(0, CHUNK - TILE, TILE), CHUNK - 20]      # the last two tiles uneven
    tiles = [_split_evolve(factors, center11, dW[lo:hi])
             for lo, hi in zip(cuts, [*cuts[1:], CHUNK])]
    assert np.concatenate(tiles).tobytes() == whole.tobytes()
    assert _split_evolve(factors, center11, dW).tobytes() == whole.tobytes()


def ensemble_at(workers: int, *args, **kwargs):
    """``run_ensemble(*args, **kwargs)`` with ``workers`` block workers besides the caller."""
    with block_workers(workers):
        return run_ensemble(*args, **kwargs)


def test_ensemble_evolves_fixed_tiles_of_each_chunk(skew11, center11, monkeypatch):
    assert CHUNK % TILE == 0
    chunks = []

    def blockwise(fn, tiles):
        chunks.append([(r.start, r.stop) for r in tiles])
        return [fn(tile) for tile in tiles]

    monkeypatch.setattr(trajectories, "blockwise", blockwise)
    for n_traj in (600, 100, 2):
        run_ensemble(skew11, center11, 0.01, 0.005, n_traj, master_seed=9)
    assert chunks == [[(lo, lo + TILE) for lo in range(0, CHUNK, TILE)],
                      [(512, 576), (576, 600)], [(0, 64), (64, 100)], [(0, 2)]]


@pytest.mark.parametrize("n_traj", [200, 600])
def test_ensemble_is_identical_at_0_1_and_3_workers(skew11, center11, n_traj):
    runs = [ensemble_at(k, skew11, center11, 0.25, 0.005, n_traj, master_seed=9)
            for k in (0, 1, 3)]
    for other in runs[1:]:
        for name in ("rho_estimate", "psi_mean", "psi_mean_se", "norms"):
            assert getattr(other, name).tobytes() == getattr(runs[0], name).tobytes()
        assert other.standard_error == runs[0].standard_error


@pytest.mark.parametrize("workers", [0, 1])
def test_ensemble_noise_memory_is_a_tile_per_thread(workers):
    ops = build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 5)
    psi0 = np.zeros(5, complex)
    psi0[2] = 1.0
    n_steps, n_traj = 2000, 512
    run_ensemble(ops, psi0, 0.01, 0.005, 2, master_seed=4)    # one-time allocations first
    with block_workers(workers) as pin:
        tracemalloc.start()
        try:
            run_ensemble(ops, psi0, n_steps * 0.005, 0.005, n_traj, master_seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    tile_noise = TILE * n_steps * 8
    threads = pin.workers + 1       # the caller and its workers; 8 tiles a chunk bound neither
    assert pin.workers == (workers if pin.libraries.get("numpy") else 0)
    assert peak <= 1.25 * threads * tile_noise + 2**19
    assert peak < CHUNK * n_steps * 8 / 2


def test_step_without_noise_is_hamiltonian_evolution(skew11, center11):
    out = trajectory_step(skew11, center11, 0.01, 0.0)
    expect = scipy.linalg.expm(-1j * skew11.H * 0.01) @ center11
    assert np.abs(out - expect).max() < 1e-12


def test_step_with_diagonal_jump_operator():
    p = np.array([0.3, 1.1, 2.2])
    P = np.diag(p).astype(complex)
    from skinlab.lattice_ops import Construction, LatticeOperators

    ops = LatticeOperators(3, np.zeros((3, 3), complex), P, P @ P,
                           -0.5j * P @ P, Construction.TRUNCATE_P)
    psi = np.array([1.0, 1.0, 1.0], complex) / np.sqrt(3)
    out = trajectory_step(ops, psi, 0.01, 0.5)
    expect = psi * np.exp(-1j * p * 0.5)
    assert np.abs(out - expect).max() < 1e-12
    assert abs(np.linalg.norm(out) - 1) < 1e-12


def test_split_step_error_against_exact_exponential_is_second_order(skew11):
    # halving dt with dW scaled by 1/sqrt(2) must cut the one-step splitting
    # error by at least 3x (theory: the leading dt dW^2 term shrinks 4x).
    # [H, P] of this chain lives at its ends, so the step starts on an edge site.
    edge = np.zeros(11, complex)
    edge[0] = 1.0
    diffs = []
    for dt, dW in ((0.01, 0.1), (0.005, 0.1 / np.sqrt(2))):
        split = trajectory_step(skew11, edge, dt, dW)
        exact = exact_exponential_evolve(skew11, edge, dt, np.full((1, 1), dW))[0]
        diffs.append(np.linalg.norm(split - exact))
    assert diffs[1] > 1e-10  # a splitting error, not round-off
    assert diffs[0] >= 3 * diffs[1]


def test_ensemble_matches_exact_exponential_oracle_on_same_noise(skew11, center11):
    n_traj, t_final, dt, seed = 256, 1.0, 0.005, 42
    ens = run_ensemble(skew11, center11, t_final, dt, n_traj, master_seed=seed)
    n_steps = round(t_final / dt)
    dW = np.array([NoiseStream(seed, j).wiener_increments(n_steps, dt) for j in range(n_traj)])
    psi = exact_exponential_evolve(skew11, center11, dt, dW)
    rho_oracle = psi.T @ psi.conj() / n_traj
    assert np.linalg.norm(ens.rho_estimate - rho_oracle) <= 0.05 * ens.standard_error


def test_pathwise_norm_conservation_long_run(skew11, center11):
    # 1e4 unitary steps must accumulate < 1e-9 norm drift
    psi = run_trajectory(skew11, center11, 50.0, 0.005, NoiseStream(2, 0))
    assert abs(np.linalg.norm(psi) - 1) < 1e-9


def test_zero_noise_trajectory_is_semiclassical_without_decay(skew11, center11):
    # P = 0 lattice: every stream gives the deterministic unitary evolution
    ops = build_obc(BandModel({1: 1.0, -1: 1.0}, {}), 11)
    psi_a = run_trajectory(ops, center11, 1.0, 0.005, NoiseStream(0, 0))
    psi_b = run_trajectory(ops, center11, 1.0, 0.005, NoiseStream(9, 3))
    exact = propagate_semiclassical(ops, center11, 1.0).psi
    assert np.abs(psi_a - psi_b).max() < 1e-12
    assert np.abs(psi_a - exact).max() < 1e-9


def test_trajectory_validates_step_size(skew11, center11):
    with pytest.raises(ParameterError):
        run_trajectory(skew11, center11, 1.0, 0.02, NoiseStream(0, 0))
    with pytest.raises(ParameterError):
        run_trajectory(skew11, center11, 1.00371, 0.01, NoiseStream(0, 0))


def test_trajectory_path_output(skew11, center11):
    path = run_trajectory(skew11, center11, 0.05, 0.01, NoiseStream(5, 1), return_path=True)
    assert path.shape == (6, 11)
    assert np.abs(np.linalg.norm(path, axis=1) - 1).max() < 1e-12


def test_ensemble_reproducibility_across_worker_counts(skew11, center11):
    base = ensemble_at(0, skew11, center11, 1.0, 0.005, 600, master_seed=7)
    for workers in (1, 3):
        other = ensemble_at(workers, skew11, center11, 1.0, 0.005, 600, master_seed=7)
        assert np.array_equal(base.rho_estimate, other.rho_estimate)
        assert base.standard_error == other.standard_error
        assert np.array_equal(base.psi_mean, other.psi_mean)


def test_ensemble_bytes_do_not_depend_on_blas_threads():
    # N = 32 with a 512-trajectory chunk is large enough for OpenBLAS to
    # split the per-step GEMM across threads
    code = (
        "import numpy as np\n"
        "from skinlab import build_obc, make_cosine_model, run_ensemble\n"
        "ops = build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 32)\n"
        "psi0 = np.zeros(32, complex)\n"
        "psi0[15] = 1.0\n"
        "ens = run_ensemble(ops, psi0, 0.5, 0.005, 600, master_seed=7)\n"
        "print(ens.rho_estimate.tobytes().hex())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        outputs.append(run.stdout.strip())
    assert len(outputs[0]) == 2 * 32 * 32 * 16
    assert outputs[0] == outputs[1]


def test_ensemble_estimate_properties(skew11, center11):
    ens = run_ensemble(skew11, center11, 1.0, 0.005, 500, master_seed=3)
    assert np.abs(ens.rho_estimate - ens.rho_estimate.conj().T).max() < 1e-12
    assert abs(np.trace(ens.rho_estimate) - 1) < 1e-10
    assert np.abs(ens.norms - 1).max() < 1e-9
    with pytest.raises(ParameterError):
        run_ensemble(skew11, center11, 1.0, 0.005, 1, master_seed=3)


def test_ensemble_matches_master_solution(skew11, center11):
    ens = run_ensemble(skew11, center11, 1.5, 0.005, 2000, master_seed=21)
    rho_master = propagate_master(skew11,
                                  DensityMatrix.site(11, 6), 1.5)
    err = np.linalg.norm(ens.rho_estimate - rho_master.rho)
    assert err < 5 * ens.standard_error


def test_ensemble_mean_wavefunction_is_semiclassical(skew11, center11):
    ens = run_ensemble(skew11, center11, 1.5, 0.005, 2000, master_seed=21)
    exact = propagate_semiclassical(skew11, center11, 1.5).psi
    assert np.all(np.abs(ens.psi_mean - exact) <= 4 * ens.psi_mean_se)


def test_ensemble_error_scales_with_sqrt_m(skew11, center11):
    rho_master = propagate_master(skew11,
                                  DensityMatrix.site(11, 6), 1.0).rho
    scaled = []
    ses = {}
    for n_traj in (500, 2000, 8000):
        ens = run_ensemble(skew11, center11, 1.0, 0.005, n_traj, master_seed=77)
        scaled.append(np.linalg.norm(ens.rho_estimate - rho_master) * np.sqrt(n_traj))
        ses[n_traj] = ens.standard_error
    assert max(scaled) / min(scaled) < 3
    assert 1.6 <= ses[500] / ses[2000] <= 2.6


def test_halving_dt_does_not_shift_estimate(skew11, center11):
    coarse = run_ensemble(skew11, center11, 1.0, 0.01, 2000, master_seed=5)
    fine = run_ensemble(skew11, center11, 1.0, 0.005, 2000, master_seed=5)
    shift = np.linalg.norm(coarse.rho_estimate - fine.rho_estimate)
    assert shift <= 2 * np.hypot(coarse.standard_error, fine.standard_error)


def test_bloch_trajectory_basics():
    model = make_cosine_model(1, 0, 1, np.pi / 2)
    psi0 = np.full(32, 1 / np.sqrt(2 * np.pi), complex)
    k, psi = bloch_trajectory(model, psi0, 0.0, NoiseStream(1, 0))
    assert np.abs(psi - psi0).max() < 1e-15
    for j in range(5):
        _, psi = bloch_trajectory(model, psi0, 2.0, NoiseStream(1, j))
        assert np.abs(np.abs(psi) - np.abs(psi0)).max() < 1e-14


def test_bloch_ensemble_reproduces_multiplier_solution():
    model = make_cosine_model(1, 0, 1, np.pi / 2)
    M, draws, t = 64, 5000, 1.5
    psi0 = np.full(M, 1 / np.sqrt(2 * np.pi), complex)
    acc = np.zeros((M, M), complex)
    for j in range(draws):
        _, psi = bloch_trajectory(model, psi0, t, NoiseStream(99, j))
        acc += np.outer(psi, psi.conj())
    acc /= draws
    exact = bulk_evolve(model, localized_bulk_state(M), t).rho_kk
    rel = np.abs(acc - exact).max() / np.abs(exact).max()
    assert rel < 4 / np.sqrt(draws)


def test_stroboscopic_forced_zero_noise():
    model = make_cosine_model(1, 0, 1, np.pi / 2)
    psi0 = np.full(32, 1 / np.sqrt(2 * np.pi), complex)
    path = stroboscopic_loop(model, psi0, 3, ZeroStream())
    from skinlab import momentum_grid

    k = momentum_grid(32)
    expect = psi0 * np.exp(-1j * np.real(model.h(k)) * 3)
    assert np.abs(path.psi_k[3] - expect).max() < 1e-12


def test_stroboscopic_noise_variance():
    model = make_cosine_model(1, 0, 1, 0)
    psi0 = np.full(8, 1 / np.sqrt(2 * np.pi), complex)
    totals = np.array([
        stroboscopic_loop(model, psi0, 25, NoiseStream(7, j)).noise.sum()
        for j in range(10000)
    ])
    assert abs(totals.var() / 25.0 - 1) < 0.03


def test_stroboscopic_coherence_matches_continuous_solution():
    # discrete-time loop at integer t coincides with the continuous solution
    model = make_cosine_model(1, 0, 1, np.pi / 2)
    M, draws, t = 128, 10000, 10
    psi0 = np.full(M, 1 / np.sqrt(2 * np.pi), complex)
    acc = np.zeros((M, M), complex)
    for j in range(draws):
        path = stroboscopic_loop(model, psi0, t, NoiseStream(123, j))
        psi_n = path.psi_sites[t]
        acc += np.outer(psi_n, psi_n.conj())
    # comb amplitudes integrate without the 1/sqrt(2 pi) basis factor, so the
    # mutual coherence carries 2 pi relative to the density matrix
    acc /= draws * 2 * np.pi
    wd = bulk_wannier_density(model, M, float(t))
    scale = np.abs(wd.rho).max()
    assert np.abs(acc - wd.rho).max() < 4 * scale / np.sqrt(draws)
