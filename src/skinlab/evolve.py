"""Time propagation of density matrices and no-jump wavefunctions.

Propagation is exact-exponential: one helper diagonalizes the generator (L
as a real matrix in P's eigenbasis, or -i H_eff for the no-jump wavefunction)
once and applies exp(A t) spectrally for every time, falling back to scipy
expm above a per-generator eigenbasis condition limit.  Fixed-step RK4 of the
master equation, run in the jump operator's eigenbasis, is an independent
cross-check and the route for lattices too large for the dense
superoperator; both master routes end in the same state checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalFailure, ParameterError
from .lattice_ops import LatticeOperators
from .liouvillian import (
    _block_stacks,
    _diagonal_blocks,
    _from_hermitian_coords,
    _hermitian_basis_generator,
    _hermitian_coords,
    _stationary_kernel,
    _zero_tolerance,
    liouvillian_eigenvalues,
)

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-8       # beyond this the propagation aborts, never clips
DRIFT_ABORT = 1e-6          # hermiticity/trace drift that counts as failure
EIG_COND_LIMIT_MASTER = 1e8
EIG_COND_LIMIT_SEMI = 1e10


@dataclass(frozen=True)
class DensityMatrix:
    """N x N Hermitian, unit-trace, positive-semidefinite state."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        object.__setattr__(self, "rho", rho)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ParameterError(f"density matrix must be square, got shape {rho.shape}")
        herm = float(np.abs(rho - rho.conj().T).max())
        if herm > HERM_TOL:
            raise ParameterError(f"density matrix not Hermitian: max deviation {herm:.3e}")
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ParameterError(f"density matrix trace {tr} differs from 1")
        w_min = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
        if w_min < -POSITIVITY_TOL:
            raise ParameterError(f"density matrix has eigenvalue {w_min:.3e} < 0")

    @property
    def n_sites(self) -> int:
        return self.rho.shape[0]

    @classmethod
    def pure(cls, psi: np.ndarray) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex)
        psi = psi / np.linalg.norm(psi)
        return cls(np.outer(psi, psi.conj()))

    @classmethod
    def site(cls, n_sites: int, site: int) -> "DensityMatrix":
        """Projector on a single site (1-based index)."""
        if not 1 <= site <= n_sites:
            raise ParameterError(f"site {site} outside 1..{n_sites}")
        psi = np.zeros(n_sites)
        psi[site - 1] = 1.0
        return cls.pure(psi)

    @classmethod
    def maximally_mixed(cls, n_sites: int) -> "DensityMatrix":
        return cls(np.eye(n_sites) / n_sites)


@dataclass(frozen=True)
class SemiclassicalState:
    """Unnormalized no-jump wavefunction; its norm decays under H_eff."""

    psi: np.ndarray
    method: str = "spectral"


def _matrix(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    return rho.rho if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def _checked_state(rho: np.ndarray) -> DensityMatrix:
    """Drift check, Hermitize, renormalize, one positivity check; NumericalFailure if any fails."""
    herm_drift = float(np.abs(rho - rho.conj().T).max())
    trace_drift = abs(complex(np.trace(rho)) - 1.0)
    if not max(herm_drift, trace_drift) <= DRIFT_ABORT:
        raise NumericalFailure(
            f"propagation drift beyond tolerance: hermiticity {herm_drift:.3e}, "
            f"trace {trace_drift:.3e}",
            residual=max(herm_drift, trace_drift),
        )
    rho = 0.5 * (rho + rho.conj().T)
    try:
        return DensityMatrix(rho / np.trace(rho).real)
    except ParameterError as exc:
        raise NumericalFailure(f"propagation lost positivity: {exc}") from exc


class _SpectralExponential:
    """exp(A t) x for any t from one eigendecomposition A = V diag(w) V^-1 per diagonal block.

    ``blocks`` are index sets with A exactly zero between them (default: one
    block).  cond(V) is max sigma_max / min sigma_min over the blocks; for
    real A it comes from the real R of :func:`_real_eigenbasis`, with
    V^-1 = U^dagger R^-1.  Falls back to scaling-and-squaring (scipy expm)
    when cond(V) exceeds ``cond_limit`` or is not finite.
    """

    def __init__(self, A: np.ndarray, cond_limit: float, blocks=None):
        self.A = A
        self.blocks = [np.arange(A.shape[0])] if blocks is None else blocks
        self.block_sizes = [b.size for b in self.blocks]
        factors, s_max, s_min = [], 0.0, np.inf
        for idx, stack in _block_stacks(A, self.blocks):
            w, V = np.linalg.eig(stack)
            R, pairs = _real_eigenbasis(w, V) if np.isrealobj(A) else (V, None)
            s = np.linalg.svd(R, compute_uv=False)
            s_max, s_min = max(s_max, float(s[:, 0].max())), min(s_min, float(s[:, -1].min()))
            factors.append((idx, w, V, R, pairs))
        self.cond = s_max / s_min if s_min > 0 else np.inf
        self.use_expm = not np.isfinite(self.cond) or self.cond > cond_limit
        self.eigenvalues = np.concatenate([w.ravel() for _, w, *_ in factors])
        self._factors = [] if self.use_expm else [
            (idx, w, V, _inverse_from_real(R, pairs)) for idx, w, V, R, pairs in factors]

    @property
    def method(self) -> str:
        return "expm" if self.use_expm else "spectral"

    def apply(self, x: np.ndarray, t: float) -> np.ndarray:
        """exp(A t) x; t = 0 returns x itself, free of V V^-1 round-off, as RK4 does."""
        if t < 0:
            raise ParameterError(f"propagation time must be >= 0, got {t}")
        if t == 0:
            return np.array(x, dtype=complex)
        if self.use_expm:
            return scipy.linalg.expm(self.A * t) @ x
        out = np.zeros(x.shape, dtype=complex)
        for idx, w, V, V_inv in self._factors:
            y = np.exp(w * t) * (V_inv @ x[idx][..., None])[..., 0]
            out[idx] = (V @ y[..., None])[..., 0]
        return out


def _real_eigenbasis(w: np.ndarray, V: np.ndarray):
    """Real R with V = R U, U block-unitary, for the eigenvectors of real matrices (stacked).

    Columns of V are real or come in conjugate pairs (v, conj v), the first
    with Im w > 0; R keeps the real ones and turns each pair into
    sqrt2 (Re v, Im v).  Returns R and the pairs' (matrix, first column) indices.
    """
    R = V.real.copy()
    k, j = pairs = np.nonzero(w.imag > 0)
    R[k, :, j] *= np.sqrt(2.0)
    R[k, :, j + 1] = np.sqrt(2.0) * V.imag[k, :, j]
    return R, pairs


def _inverse_from_real(R: np.ndarray, pairs) -> np.ndarray:
    """V^-1 = U^dagger R^-1 for R from :func:`_real_eigenbasis` (pairs None: V^-1 = R^-1)."""
    R_inv = np.linalg.inv(R)
    if pairs is None:
        return R_inv
    V_inv = R_inv.astype(complex)
    k, j = pairs
    first, second = R_inv[k, j], R_inv[k, j + 1]
    V_inv[k, j] = (first - 1j * second) / np.sqrt(2.0)
    V_inv[k, j + 1] = (first + 1j * second) / np.sqrt(2.0)
    return V_inv


class MasterPropagator(_SpectralExponential):
    """exp(L t) from one eigendecomposition per diagonal block of the real generator M.

    Falls back to expm above cond(V) = 1e8.  Raises ParameterError before
    allocating when N^2 exceeds ``SPECTRUM_CAP``.
    """

    def __init__(self, ops: LatticeOperators):
        self.ops = ops
        M = _hermitian_basis_generator(ops)
        super().__init__(M, EIG_COND_LIMIT_MASTER, _diagonal_blocks(M))

    def evolve(self, rho0: np.ndarray, t: float) -> np.ndarray:
        """Raw matrix-form solution at time t without state validation."""
        x = _hermitian_coords(self.ops, _matrix(rho0))
        return _from_hermitian_coords(self.ops, self.apply(x, t))

    def propagate(self, rho0: DensityMatrix | np.ndarray, t: float) -> DensityMatrix:
        """Propagated state with invariant checks; aborts on drift beyond tolerance."""
        return _checked_state(self.evolve(rho0, t))

    def stationary_projection(self, rho0: DensityMatrix | np.ndarray) -> np.ndarray:
        """Infinite-time limit Q Q^T rho0, Q the kernel basis of :func:`_stationary_kernel`."""
        Q = _stationary_kernel(self.ops, self.A, self.blocks)[0]
        x = _hermitian_coords(self.ops, _matrix(rho0))
        rho = _from_hermitian_coords(self.ops, Q @ (Q.T @ x))
        return 0.5 * (rho + rho.conj().T)


def propagate_master(
    ops: LatticeOperators, rho0: DensityMatrix | np.ndarray, t: float
) -> DensityMatrix:
    """One-shot master-equation propagation; see :class:`MasterPropagator`."""
    return MasterPropagator(ops).propagate(rho0, t)


def propagate_master_rk4(
    ops: LatticeOperators,
    rho0: DensityMatrix | np.ndarray,
    t_final: float,
    dt: float = 1e-3,
) -> DensityMatrix:
    """Fixed-step classical RK4 integration of the master equation in matrix form.

    Independent of the superoperator route (needs only H, P), with the same
    state checks; the step count is rounded so the final time is hit exactly.
    It runs in P's eigenbasis from ``ops``, where a Hermitian state's generator
    is X + X^dagger + D * rho with X = -i H_tilde rho (one matrix product per
    application, a real one when -i H_tilde is real), in the Horner form
    y <- rho + (h/k) L(y), k = 4, 3, 2, 1, of the RK4 step.  A start whose
    Hermiticity deviation exceeds ``DRIFT_ABORT`` raises NumericalFailure.
    """
    if t_final < 0:
        raise ParameterError(f"propagation time must be >= 0, got {t_final}")
    if dt <= 0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    rho = _matrix(rho0)
    herm_drift = float(np.abs(rho - rho.conj().T).max())
    if not herm_drift <= DRIFT_ABORT:
        raise NumericalFailure(
            f"RK4 start not Hermitian: max deviation {herm_drift:.3e}", residual=herm_drift
        )
    n_steps = max(1, round(t_final / dt)) if t_final > 0 else 0
    if n_steps == 0:
        return _checked_state(rho)
    h = t_final / n_steps
    V, A = ops.V, -1j * ops.H_tilde
    real = not A.imag.any()     # then one real GEMM on y's interleaved (Re, Im) columns
    A = A.real if real else A
    stages = [(h / k, (h / k) * ops.D) for k in (4.0, 3.0, 2.0, 1.0)]
    y = V.conj().T @ rho @ V
    for _ in range(n_steps):
        start = y
        for hk, hk_D in stages:
            X = (A @ y.view(float)).view(complex) if real else A @ y
            y = start + hk * (X + X.conj().T) + hk_D * y
    return _checked_state(V @ y @ V.conj().T)


class SemiclassicalPropagator(_SpectralExponential):
    """exp(-i H_eff t) applied spectrally, with expm fallback for defective H_eff."""

    def __init__(self, ops: LatticeOperators):
        super().__init__(-1j * ops.H_eff, EIG_COND_LIMIT_SEMI)

    def at(self, psi0: np.ndarray, t: float) -> np.ndarray:
        return self.apply(np.asarray(psi0, dtype=complex), t)


def propagate_semiclassical(
    ops: LatticeOperators, psi0: np.ndarray, t: float
) -> SemiclassicalState:
    """No-jump evolution psi(t) = exp(-i H_eff t) psi0; norm never grows."""
    prop = SemiclassicalPropagator(ops)
    return SemiclassicalState(prop.at(psi0, t), method=prop.method)


def von_neumann_entropy(rho: DensityMatrix | np.ndarray) -> float:
    """-sum_i lambda_i ln lambda_i over the state's eigenvalues (nats).

    Eigenvalues are clamped to [0, 1]; those at most N eps max(lambda), the
    eigensolver's round-off, count as 0 (0 ln 0 = 0), and the rest are
    renormalized to unit sum, so a pure state reads exactly 0.
    """
    rho = _matrix(rho)
    w = np.clip(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)), 0.0, 1.0)
    w = w[w > rho.shape[0] * np.finfo(float).eps * w.max()]
    w = w / w.sum()
    return float((w * np.log(1.0 / w)).sum())


@dataclass(frozen=True)
class EntropyTrace:
    """Entropy along a time grid plus the infinite-time (kernel-projected) value.

    ``states`` holds the propagated state at each time and ``propagator`` the
    factorization that produced them.
    """

    times: np.ndarray
    entropies: np.ndarray
    s_infinity: float
    rho_infinity: np.ndarray
    states: list[DensityMatrix]
    propagator: MasterPropagator


def entropy_trace(
    ops: LatticeOperators, rho0: DensityMatrix | np.ndarray, times
) -> EntropyTrace:
    """Von Neumann entropy at each time, with the stationary limit appended.

    The infinite-time state is the projection of rho0 onto the kernel of the
    generator (not the last sampled time), on the spectral and expm routes alike.
    """
    times = np.asarray(times, dtype=float)
    if times.size and np.any(np.diff(times) < 0):
        raise ParameterError("times must be sorted ascending")
    prop = MasterPropagator(ops)
    states = [prop.propagate(rho0, t) for t in times]
    entropies = np.array([von_neumann_entropy(s) for s in states])
    rho_inf = prop.stationary_projection(rho0)
    return EntropyTrace(times, entropies, von_neumann_entropy(rho_inf), rho_inf, states, prop)


@dataclass(frozen=True)
class Observables:
    """Site populations, anti-diagonal coherences, first moment and purity."""

    populations: np.ndarray
    coherence_antidiag: np.ndarray
    first_moment: float
    purity: float


def observables(rho: DensityMatrix | np.ndarray) -> Observables:
    """Standard diagnostics of a state in the site basis (1-based site index)."""
    rho = _matrix(rho)
    n = rho.shape[0]
    populations = np.real(np.diag(rho))
    coherence = np.abs(rho[np.arange(n), n - 1 - np.arange(n)])
    first_moment = float(np.arange(1, n + 1) @ populations)
    purity = float(np.trace(rho @ rho).real)
    return Observables(populations, coherence, first_moment, purity)


def relaxation_time(ops: LatticeOperators, factor: float = 10.0) -> float:
    """Model-independent horizon for asymptotic checks: factor / |Re lambda_slow|.

    lambda_slow is the decaying eigenvalue whose real part is closest to
    zero (excluding the kernel itself), from :func:`liouvillian_eigenvalues`.
    """
    w = liouvillian_eigenvalues(ops)
    decaying = w[w.real < -_zero_tolerance(ops)]
    if decaying.size == 0:
        raise ParameterError("generator has no decaying modes")
    slow = float(np.max(decaying.real))
    return factor / abs(slow)
