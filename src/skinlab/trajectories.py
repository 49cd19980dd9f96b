"""Stochastic wavefunction unraveling with exactly unitary steps.

Each integration step is the Strang splitting

    exp(-i H dt/2) exp(-i P dW) exp(-i H dt/2),    dW ~ Normal(0, dt),

a product of unitaries, so the state norm is conserved pathwise and the
ensemble average of the pure-state projectors reproduces the
master-equation solution.  dt controls only the bias of the discrete step
against the continuous-time solution (the splitting differs from
exp(-i (H dt + P dW)) at O(dt^2) per step), not norm drift.

The step is applied in the eigenbasis of P = V diag(p) V^dagger, where the
jump factor is the elementwise phase exp(-i p dW) and the Hamiltonian
half-steps of adjacent steps fuse into W = V^dagger exp(-i H dt) V.  P's
eigenbasis comes with the lattice operators and H_tilde = V^dagger H V is
diagonalized once per run, so one step of a whole batch of trajectories is a
phase multiply and one matrix product.

Noise streams are counter-based (Philox): independent trajectories use the
same master key jumped by the trajectory index, so any trajectory can be
regenerated in isolation and ensembles reduce deterministically no matter
how the work is scheduled.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass

import numpy as np

from .band import BandModel, momentum_grid
from .errors import ParameterError
from .lattice_ops import LatticeOperators

MAX_DT = 0.01
CHUNK = 512  # trajectories integrated per batch; fixed so reductions never reorder


class NoiseStream:
    """Reproducible Gaussian stream keyed by (master_seed, trajectory_index)."""

    def __init__(self, master_seed: int, trajectory_index: int = 0):
        if master_seed < 0:
            raise ParameterError(f"master_seed must be >= 0, got {master_seed}")
        if trajectory_index < 0:
            raise ParameterError(f"trajectory_index must be >= 0, got {trajectory_index}")
        self.master_seed = int(master_seed)
        self.trajectory_index = int(trajectory_index)
        bitgen = np.random.Philox(key=self.master_seed).jumped(self.trajectory_index)
        self._gen = np.random.Generator(bitgen)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def wiener_increments(self, n_steps: int, dt: float) -> np.ndarray:
        """n_steps independent increments dW ~ Normal(0, dt)."""
        return self.standard_normal(n_steps) * math.sqrt(dt)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Reduced density-matrix estimate from a seeded trajectory ensemble.

    ``standard_error`` is the sample Frobenius deviation of the pure-state
    projectors divided by sqrt(n_traj).  ``psi_mean`` and ``psi_mean_se``
    give the ensemble-mean wavefunction with per-component standard errors
    (the mean wavefunction follows the no-jump H_eff evolution).
    """

    n_traj: int
    rho_estimate: np.ndarray
    standard_error: float
    norms: np.ndarray
    psi_mean: np.ndarray
    psi_mean_se: np.ndarray
    master_seed: int
    dt: float
    t_final: float


def _split_factors(ops: LatticeOperators, dt: float):
    """(p, V, W_half, W) of the Strang step: P = V diag(p) V^dagger from ``ops`` and
    W_half = V^dagger exp(-i H dt/2) V = exp(-i H_tilde dt/2), W = W_half @ W_half."""
    h, U = np.linalg.eigh(ops.H_tilde)
    W_half = (U * np.exp(-0.5j * dt * h)) @ U.conj().T
    return ops.p, ops.V, W_half, W_half @ W_half


def _split_evolve(factors, psi0: np.ndarray, dW: np.ndarray, return_path: bool = False):
    """Strang-split evolution of c copies of psi0, one step per column of dW.

    ``dW`` has shape (c, n_steps); row j holds trajectory j's increments.
    Returns the final states as a (c, N) array, or with ``return_path`` the
    (n_steps + 1, c, N) path starting at psi0.  The state is carried in P's
    eigenbasis as an N x c array, so each step is one phase multiply and one
    GEMM for the whole batch; W_half is applied only at the ends.
    """
    p, V, W_half, W = factors
    psi0 = np.asarray(psi0, dtype=complex)
    c, n_steps = dW.shape
    phi = np.repeat((W_half @ (V.conj().T @ psi0))[:, None], c, axis=1)
    path = [np.repeat(psi0[:, None], c, axis=1)] if return_path else None
    for s in range(n_steps):
        if s:
            phi = W @ phi
        phi *= np.exp(np.outer(-1j * p, dW[:, s]))
        if return_path:
            path.append(V @ (W_half @ phi))
    if return_path:
        return np.stack(path).transpose(0, 2, 1)
    return np.ascontiguousarray((V @ (W_half @ phi)).T)


def trajectory_step(ops: LatticeOperators, psi: np.ndarray, dt: float, dW: float) -> np.ndarray:
    """One exactly unitary Strang step exp(-iH dt/2) exp(-iP dW) exp(-iH dt/2) applied to psi."""
    if dt <= 0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    return _split_evolve(_split_factors(ops, dt), psi, np.full((1, 1), float(dW)))[0]


def _validate_run(t_final: float, dt: float) -> int:
    if not 0 < dt <= MAX_DT:
        raise ParameterError(f"dt must satisfy 0 < dt <= {MAX_DT}, got {dt}")
    n_steps = round(t_final / dt)
    if n_steps < 1 or abs(n_steps * dt - t_final) > 1e-9:
        raise ParameterError(f"t_final = {t_final} is not a positive multiple of dt = {dt}")
    return n_steps


def run_trajectory(
    ops: LatticeOperators,
    psi0: np.ndarray,
    t_final: float,
    dt: float,
    stream: NoiseStream,
    return_path: bool = False,
):
    """Integrate a single trajectory; returns the final state or the full path."""
    n_steps = _validate_run(t_final, dt)
    dW = np.asarray(stream.wiener_increments(n_steps, dt), dtype=float).reshape(1, n_steps)
    out = _split_evolve(_split_factors(ops, dt), psi0, dW, return_path)
    return out[:, 0] if return_path else out[0]


def _pairwise_sum(stack: np.ndarray) -> np.ndarray:
    """Sum over the leading axis with a fixed binary tree (order-independent)."""
    while stack.shape[0] > 1:
        m = stack.shape[0]
        paired = stack[0 : m - m % 2 : 2] + stack[1 : m : 2]
        if m % 2:
            paired = np.concatenate([paired, stack[m - 1 : m]], axis=0)
        stack = paired
    return stack[0]


def _integrate_chunk(factors, psi0, dt, n_steps, master_seed, indices):
    """Integrate one fixed chunk of trajectories; returns reduction pieces."""
    dW = np.empty((len(indices), n_steps))
    for row, j in enumerate(indices):
        dW[row] = NoiseStream(master_seed, j).wiener_increments(n_steps, dt)
    psi = _split_evolve(factors, psi0, dW)
    projectors = psi[:, :, None] * psi[:, None, :].conj()
    return {
        "proj_sum": _pairwise_sum(projectors),
        "psi_sum": _pairwise_sum(psi),
        "abs2_sum": _pairwise_sum(np.abs(psi) ** 2),
        "norm4_sum": float(_pairwise_sum(np.linalg.norm(psi, axis=1) ** 4)),
        "norms": np.linalg.norm(psi, axis=1),
    }


def run_ensemble(
    ops: LatticeOperators,
    psi0: np.ndarray,
    t_final: float,
    dt: float,
    n_traj: int,
    master_seed: int,
    n_threads: int = 1,
) -> TrajectoryEnsemble:
    """Seeded trajectory ensemble reduced to a density-matrix estimate.

    The ensemble is split into fixed-size chunks whose composition does not
    depend on ``n_threads``; chunk results are combined by a pairwise tree in
    chunk order, so the output is bit-identical for any thread count.
    """
    if n_traj < 2:
        raise ParameterError(f"need n_traj >= 2, got {n_traj}")
    n_steps = _validate_run(t_final, dt)
    chunks = [range(lo, min(lo + CHUNK, n_traj)) for lo in range(0, n_traj, CHUNK)]
    factors = _split_factors(ops, dt)
    work = [(factors, psi0, dt, n_steps, master_seed, idx) for idx in chunks]
    if n_threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=n_threads) as pool:
            parts = list(pool.map(lambda args: _integrate_chunk(*args), work))
    else:
        parts = [_integrate_chunk(*args) for args in work]

    proj_sum, psi_sum, abs2_sum = (_pairwise_sum(np.stack([p[key] for p in parts]))
                                   for key in ("proj_sum", "psi_sum", "abs2_sum"))
    norm4_sum = float(_pairwise_sum(np.array([p["norm4_sum"] for p in parts])))
    norms = np.concatenate([p["norms"] for p in parts])

    rho = proj_sum / n_traj
    purity_like = float(np.trace(rho.conj().T @ rho).real)
    sample_var = max(norm4_sum - n_traj * purity_like, 0.0) / (n_traj - 1)
    standard_error = math.sqrt(sample_var / n_traj)

    psi_mean = psi_sum / n_traj
    comp_var = np.maximum(abs2_sum - n_traj * np.abs(psi_mean) ** 2, 0.0) / (n_traj - 1)
    psi_mean_se = np.sqrt(comp_var / n_traj)

    return TrajectoryEnsemble(
        n_traj=n_traj,
        rho_estimate=rho,
        standard_error=standard_error,
        norms=norms,
        psi_mean=psi_mean,
        psi_mean_se=psi_mean_se,
        master_seed=int(master_seed),
        dt=dt,
        t_final=t_final,
    )


def _grid_state(model: BandModel, psi0_k, n_k: int | None):
    if callable(psi0_k):
        if n_k is None:
            raise ParameterError("n_k is required when psi0_k is a callable")
        k = momentum_grid(n_k)
        psi0 = np.asarray(psi0_k(k), dtype=complex)
    else:
        psi0 = np.asarray(psi0_k, dtype=complex)
        k = momentum_grid(psi0.size)
    h = np.real(model.h(k))
    p = np.real(model.p(k))
    return k, psi0, h, p


def bloch_trajectory(
    model: BandModel,
    psi0_k,
    t: float,
    stream: NoiseStream,
    n_k: int | None = None,
):
    """Exact single-draw trajectory in the translation-invariant setting.

    Psi(k, t) = Psi(k, 0) exp[-i H(k) t - i P(k) W] with one Gaussian draw
    W ~ Normal(0, t); no discretization error in t.

    Returns
    -------
    k : momentum grid
    psi : trajectory wavefunction on the grid
    """
    if t < 0:
        raise ParameterError(f"time must be >= 0, got {t}")
    k, psi0, h, p = _grid_state(model, psi0_k, n_k)
    W = float(stream.standard_normal()) * math.sqrt(t)
    return k, psi0 * np.exp(-1j * (h * t + p * W))


@dataclass(frozen=True)
class StroboscopicPath:
    """Round-trip-resolved loop trajectory, in momentum and site bases.

    ``psi_k[t]`` is the field after t round trips; ``psi_sites[t]`` holds the
    comb amplitudes psi_n = integral dk Psi(k) exp(i k n) on ``sites``.
    """

    k: np.ndarray
    sites: np.ndarray
    psi_k: np.ndarray
    psi_sites: np.ndarray
    noise: np.ndarray


def stroboscopic_loop(
    model: BandModel,
    psi0_k,
    n_roundtrips: int,
    stream: NoiseStream,
    n_k: int | None = None,
) -> StroboscopicPath:
    """Discrete-time loop map: one standard-normal kick per round trip.

    After t round trips, Psi(k, t) = Psi(k, 0) exp[-i H(k) t - i P(k) W_t]
    with W_t the cumulative sum of t independent standard normals (variance
    t, the discrete Wiener process).
    """
    if n_roundtrips < 1:
        raise ParameterError(f"need n_roundtrips >= 1, got {n_roundtrips}")
    k, psi0, h, p = _grid_state(model, psi0_k, n_k)
    M = k.size
    xi = np.asarray(stream.standard_normal(n_roundtrips), dtype=float)
    W = np.concatenate([[0.0], np.cumsum(xi)])
    t_grid = np.arange(n_roundtrips + 1)
    psi_k = psi0[None, :] * np.exp(
        -1j * (h[None, :] * t_grid[:, None] + p[None, :] * W[:, None])
    )
    sites = np.arange(-(M // 2), M - M // 2)
    fourier = np.exp(1j * np.outer(k, sites))  # (M grid points, sites)
    psi_sites = (2.0 * np.pi / M) * psi_k @ fourier
    return StroboscopicPath(k, sites, psi_k, psi_sites, xi)
