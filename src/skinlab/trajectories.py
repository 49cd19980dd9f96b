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
diagonalized once per run.  The phases of a block of steps (about
``PHASE_BLOCK`` of them) are taken at once from the real angles -p dW as
cos + i sin, so one step of a batch of trajectories is a phase multiply and
one matrix product.

Noise streams are counter-based (Philox): trajectory j of master seed s is
the stream of key s whose counter starts at j * 2**128, the master stream
jumped j times, so any trajectory can be regenerated in isolation.  An
ensemble is evolved in fixed tiles of ``TILE`` trajectories, spread over
the cores by :func:`skinlab._threads.blockwise`, and reduced chunk by chunk
of ``CHUNK`` trajectories in a fixed order, so its bytes do not depend on
how many cores run it and its noise memory is a tile per thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._threads import blockwise
from .band import BandModel, momentum_grid
from .errors import ParameterError
from .lattice_ops import LatticeOperators

MAX_DT = 0.01
CHUNK = 512  # trajectories reduced per batch; fixed so reductions never reorder
TILE = 64    # trajectories evolved per task; CHUNK is a multiple of it
PHASE_BLOCK = 2**13  # jump phases taken per cos/sin call


class NoiseStream:
    """Reproducible Gaussian stream keyed by (master_seed, trajectory_index)."""

    def __init__(self, master_seed: int, trajectory_index: int = 0):
        if master_seed < 0:
            raise ParameterError(f"master_seed must be >= 0, got {master_seed}")
        if not 0 <= trajectory_index < 2**128:   # j * 2**128 fills the counter's top two words
            raise ParameterError(
                f"trajectory_index must be in [0, 2**128), got {trajectory_index}")
        self.master_seed = int(master_seed)
        self.trajectory_index = int(trajectory_index)
        # the master stream jumped j times: Philox(key).jumped(j) adds j * 2**128 to the counter
        bitgen = np.random.Philox(key=self.master_seed, counter=self.trajectory_index << 128)
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


def _jump_phases(p: np.ndarray, dW: np.ndarray, angle: np.ndarray, z: np.ndarray) -> None:
    """z[s, a, j] = exp(-i p[a] dW[j, s]) for a (c, steps) block of increments.

    Taken as cos + i sin of the real angles, into ``angle`` and ``z`` of
    shape (steps, N, c).  These are the bits of the complex exp of
    np.outer(-1j * p, dW[:, s]), whose real parts are +-0 and whose
    imaginary parts are -(p dW), +0 rather than -0 where p dW is 0.
    """
    np.multiply(p[:, None], dW.T[:, None, :], out=angle)
    np.subtract(0.0, angle, out=angle)
    np.cos(angle, out=z.real)
    np.sin(angle, out=z.imag)


def _split_evolve(factors, psi0: np.ndarray, dW: np.ndarray, return_path: bool = False):
    """Strang-split evolution of c copies of psi0, one step per column of dW.

    ``dW`` has shape (c, n_steps); row j holds trajectory j's increments.
    Returns the final states as a (c, N) array, or with ``return_path`` the
    (n_steps + 1, c, N) path starting at psi0.  The state is carried in P's
    eigenbasis as an N x c array, so each step is one phase multiply and one
    GEMM for the whole batch; W_half is applied only at the ends.  The phases
    of a block of steps, about ``PHASE_BLOCK`` of them, come from one
    :func:`_jump_phases`.
    """
    p, V, W_half, W = factors
    psi0 = np.asarray(psi0, dtype=complex)
    c, n_steps = dW.shape
    phi = np.repeat((W_half @ (V.conj().T @ psi0))[:, None], c, axis=1)
    path = [np.repeat(psi0[:, None], c, axis=1)] if return_path else None
    block = min(n_steps, max(1, PHASE_BLOCK // (p.size * c)))
    angle = np.empty((block, p.size, c))
    phases = np.empty((block, p.size, c), dtype=complex)
    for lo in range(0, n_steps, block):
        steps = min(block, n_steps - lo)
        z = phases[:steps]
        _jump_phases(p, dW[:, lo:lo + steps], angle[:steps], z)
        for s in range(steps):
            if lo + s:
                phi = W @ phi
            phi *= z[s]
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


def _wiener_rows(master_seed: int, indices: range, n_steps: int, dt: float) -> np.ndarray:
    """Row r: ``NoiseStream(master_seed, indices[r]).wiener_increments(n_steps, dt)``.

    The first stream's Philox is rewound to each next stream's counter
    instead of a generator being built per trajectory.
    """
    gen = NoiseStream(master_seed, indices[0])._gen
    bitgen = gen.bit_generator
    state = bitgen.state
    counter = state["state"]["counter"]
    dW = np.empty((len(indices), n_steps))
    for row, j in zip(dW, indices):
        counter[2:] = j % 2**64, j >> 64
        bitgen.state = state
        gen.standard_normal(out=row)
    dW *= math.sqrt(dt)
    return dW


def _reduce_chunk(psi: np.ndarray) -> dict:
    """Reduction pieces of one chunk's final states, (c, N)."""
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
) -> TrajectoryEnsemble:
    """Seeded trajectory ensemble reduced to a density-matrix estimate.

    The ensemble is split into fixed chunks of ``CHUNK`` trajectories, each
    evolved as tiles of ``TILE`` through :func:`skinlab._threads.blockwise`
    (side by side inside :func:`skinlab._threads.pinned`); a chunk is reduced
    from its tiles' states in index order and chunk results are combined by
    a pairwise tree in chunk order, so the output is bit-identical for any
    core count.  Chunks run one after another, so at most one tile of noise
    per thread is held at a time.
    """
    if n_traj < 2:
        raise ParameterError(f"need n_traj >= 2, got {n_traj}")
    n_steps = _validate_run(t_final, dt)
    factors = _split_factors(ops, dt)

    def evolve(tile: range) -> np.ndarray:
        return _split_evolve(factors, psi0, _wiener_rows(master_seed, tile, n_steps, dt))

    parts = []
    for lo in range(0, n_traj, CHUNK):
        hi = min(lo + CHUNK, n_traj)
        tiles = [range(t, min(t + TILE, hi)) for t in range(lo, hi, TILE)]
        parts.append(_reduce_chunk(np.concatenate(blockwise(evolve, tiles))))

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
