"""Time propagation of density matrices and no-jump wavefunctions.

Propagation is exact-exponential: one helper diagonalizes the generator (L
as a real matrix in P's eigenbasis, or -i H_eff for the no-jump wavefunction)
once, block by block (independent blocks side by side during a run, see
:mod:`skinlab._threads`) and only in the blocks the start reaches, and applies
exp(A t) spectrally for every time, falling back to scipy expm in a block
above a per-generator eigenbasis condition limit.  Lattices too large
for the dense superoperator take the truncated Taylor series with scaling of
exp(t L) rho, run in the jump operator's eigenbasis; fixed-step RK4 there is
an independent cross-check.  All master routes end in the same state checks.

scipy.linalg is imported only inside the expm fallback: importing it costs
about 0.3 s of start-up (it pulls in numpy.f2py, numpy.testing and more), and
most runs never take that fallback.  Where they do, expm runs on scipy's own
OpenBLAS build, which the manifest's ``diagnostics.environment`` records as
``scipy_blas`` next to numpy's ``numpy_blas``, and which is pinned to one
thread there, as numpy's is for the whole run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._threads import blockwise, pin_loaded
from .errors import NumericalFailure, ParameterError
from .lattice_ops import SECTOR_TOL, LatticeOperators
from .liouvillian import (
    _block_eigenvalues,
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

# theta_m: the largest ||t A||_1 for which the degree-m Taylor polynomial, s = 1, is the
# exact exponential of a matrix within relative backward error 2^-53 of t A.  Al-Mohy &
# Higham, SIAM J. Sci. Comput. 33, 488 (2011): m <= 30 from Higham, Functions of
# Matrices (SIAM 2008), Table A.3; m = 35..55 from their Table 3.1.
TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3, 7: 2.38e-2,
    8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1,
    14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43, 26: 2.64, 27: 2.86, 28: 3.08,
    29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
TAYLOR_TOL = 2.0**-53


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
    """exp(A t) x for any t from one eigendecomposition A_b = V diag(w) V^-1 per diagonal block b.

    ``blocks`` are index sets with A exactly zero between them (default: one
    block).  Without ``start`` every block is factored at once; with it only
    the blocks the start reaches, and any other block when :meth:`apply`
    first meets a vector that reaches it.  A vector reaches a block where one
    of its coordinates exceeds ``floor`` times its largest in size (by
    default where it is nonzero); a block it does not reach stays exactly
    zero.  A block's cond(V) is sigma_max / sigma_min of V,
    for real A of the real R of :func:`_real_eigenbasis`, with
    V^-1 = U^dagger R^-1; a block whose cond(V) exceeds ``cond_limit`` or is
    not finite takes scaling-and-squaring (scipy expm) instead.  ``cond`` is
    max sigma_max / min sigma_min over the factored blocks: the cond(V) of
    their whole eigenbasis.
    """

    def __init__(self, A: np.ndarray, cond_limit: float, blocks=None, start=None,
                 floor: float = 0.0):
        self.A, self.cond_limit, self.floor = A, cond_limit, floor
        self.blocks = [np.arange(A.shape[0])] if blocks is None else blocks
        self.block_sizes = [b.size for b in self.blocks]
        self._label = np.empty(A.shape[0], dtype=np.intp)
        for k, b in enumerate(self.blocks):
            self._label[b] = k
        self._pending = np.ones(len(self.blocks), dtype=bool)
        self._spectral, self._expm, self._w = [], [], []
        self._s_max, self._s_min = 0.0, np.inf
        self._factor(self._pending.copy() if start is None else self._reached(start))

    def _reached(self, x: np.ndarray) -> np.ndarray:
        """Mask of the blocks x reaches."""
        size = np.abs(x)
        on = np.flatnonzero(size > self.floor * size.max(initial=0.0))
        return np.bincount(self._label[on], minlength=len(self.blocks)) > 0

    def _factor(self, todo: np.ndarray) -> None:
        """Factor the blocks in mask ``todo`` not factored yet."""
        todo = todo & self._pending
        if not todo.any():
            return
        self._pending &= ~todo
        stacks = _block_stacks(self.A, [b for b, t in zip(self.blocks, todo) if t])
        for w, s, expm, spectral in blockwise(self._factor_stack, stacks):
            self._s_max = max(self._s_max, float(s[:, 0].max()))
            self._s_min = min(self._s_min, float(s[:, -1].min()))
            self._w.append(w.ravel())
            self._expm += expm
            if spectral is not None:
                self._spectral.append(spectral)

    def _factor_stack(self, item):
        """One stack (idx, A_stack): eigenvalues, singular values of the eigenbasis, expm, the rest.

        The singular values are those of R of :func:`_real_eigenbasis` for real
        A.  Blocks above ``cond_limit`` come back as (b, A_b) for expm, the
        others as (idx, w, V, V^-1), or None when there are none.
        """
        idx, stack = item
        real = np.isrealobj(stack)
        w_all, V = np.linalg.eig(stack)
        R, pairs = _real_eigenbasis(w_all, V) if real else (V, None)
        s = np.linalg.svd(R, compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = s[:, 0] / s[:, -1] <= self.cond_limit
        expm = list(zip(idx[~ok], stack[~ok]))
        if not ok.any():
            return w_all, s, expm, None
        w = w_all
        if not ok.all():
            idx, w, V = idx[ok], w_all[ok], V[ok]
            R, pairs = _real_eigenbasis(w, V) if real else (V, None)
        V_inv = _inverse_from_real(R, pairs) if real else np.linalg.inv(R)
        return w_all, s, expm, (idx, w, V, V_inv)

    @property
    def cond(self) -> float:
        return self._s_max / self._s_min if self._s_min > 0 else np.inf

    @property
    def factored_blocks(self) -> int:
        return int((~self._pending).sum())

    @property
    def method(self) -> str:
        """"spectral", "expm", or "spectral+expm" when the factored blocks took both."""
        return "+".join(name for name, used in (("spectral", self._spectral), ("expm", self._expm))
                        if used) or "spectral"

    @property
    def eigenvalues(self) -> np.ndarray:
        """A's eigenvalues, unsorted: the factored blocks' from eig, the rest's from eigvals."""
        rest = _block_stacks(self.A, [b for b, todo in zip(self.blocks, self._pending) if todo])
        return np.concatenate(self._w + ([_block_eigenvalues(rest)] if rest else []))

    def apply(self, x: np.ndarray, t: float) -> np.ndarray:
        """exp(A t) x; t = 0 returns x itself, free of V V^-1 round-off, as RK4 does."""
        if t < 0:
            raise ParameterError(f"propagation time must be >= 0, got {t}")
        if t == 0:
            return np.array(x, dtype=complex)
        self._factor(self._reached(x))
        out = np.zeros(x.shape, dtype=complex)
        for idx, w, V, V_inv in self._spectral:
            y = np.exp(w * t) * (V_inv @ x[idx][..., None])[..., 0]
            out[idx] = (V @ y[..., None])[..., 0]
        if self._expm:
            from scipy.linalg import expm
            pin_loaded()
        for b, A_b in self._expm:
            out[b] = expm(A_b * t) @ x[b]
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
    """V^-1 = U^dagger R^-1 for R and its pairs from :func:`_real_eigenbasis`."""
    R_inv = np.linalg.inv(R)
    V_inv = R_inv.astype(complex)
    k, j = pairs
    first, second = R_inv[k, j], R_inv[k, j + 1]
    V_inv[k, j] = (first - 1j * second) / np.sqrt(2.0)
    V_inv[k, j + 1] = (first + 1j * second) / np.sqrt(2.0)
    return V_inv


class MasterPropagator(_SpectralExponential):
    """exp(L t) from one eigendecomposition per diagonal block (sector) of the real generator M.

    Given ``rho0``, factors only the blocks rho0 reaches (see
    :class:`_SpectralExponential`).  With a mirror, whose sectors are exact
    only to ``SECTOR_TOL``, a state reaches a sector where a coordinate
    exceeds SECTOR_TOL times its largest: the round-off a mirror-symmetric
    start leaves in the odd sectors stays out.  A block falls back to expm
    above cond(V) = 1e8.  Raises ParameterError before allocating when N^2
    exceeds ``SPECTRUM_CAP``.
    """

    def __init__(self, ops: LatticeOperators, rho0: DensityMatrix | np.ndarray | None = None):
        self.ops = ops
        M = _hermitian_basis_generator(ops)
        start = None if rho0 is None else _hermitian_coords(ops, _matrix(rho0))
        super().__init__(M, EIG_COND_LIMIT_MASTER, _diagonal_blocks(M), start,
                         0.0 if ops.mirror is None else SECTOR_TOL)

    def evolve(self, rho0: np.ndarray, t: float) -> np.ndarray:
        """Raw matrix-form solution at time t without state validation."""
        x = _hermitian_coords(self.ops, _matrix(rho0))
        return _from_hermitian_coords(self.ops, self.apply(x, t))

    def propagate(self, rho0: DensityMatrix | np.ndarray, t: float) -> DensityMatrix:
        """Propagated state with invariant checks; aborts on drift beyond tolerance."""
        return _checked_state(self.evolve(rho0, t))

    def stationary_projection(self, rho0: DensityMatrix | np.ndarray) -> np.ndarray:
        """Infinite-time limit Q Q^T rho0, Q the kernel basis of :func:`_stationary_kernel`.

        The kernel comes only from the blocks rho0 reaches, and Q Q^T acts on
        the coordinates' (Re, Im) columns by real products.
        """
        x = _hermitian_coords(self.ops, _matrix(rho0))
        reached = [b for b, on in zip(self.blocks, self._reached(x)) if on]
        Q = _stationary_kernel(self.ops, _block_stacks(self.A, reached), values=False)[0]
        parts = x.view(float).reshape(-1, 2)
        rho = _from_hermitian_coords(self.ops, (Q @ (Q.T @ parts)).view(complex).ravel())
        return 0.5 * (rho + rho.conj().T)


def propagate_master(
    ops: LatticeOperators, rho0: DensityMatrix | np.ndarray, t: float
) -> DensityMatrix:
    """One-shot master-equation propagation; see :class:`MasterPropagator`."""
    return MasterPropagator(ops, rho0).propagate(rho0, t)


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
    rho = _hermitian_start(rho0, "RK4")
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


def _hermitian_start(rho0: DensityMatrix | np.ndarray, route: str) -> np.ndarray:
    """The start as a matrix; NumericalFailure if its Hermiticity deviation exceeds DRIFT_ABORT.

    The eigenbasis routes apply the generator as X + X^dagger + D * rho, which
    holds only for a Hermitian rho.
    """
    rho = _matrix(rho0)
    herm_drift = float(np.abs(rho - rho.conj().T).max())
    if not herm_drift <= DRIFT_ABORT:
        raise NumericalFailure(
            f"{route} start not Hermitian: max deviation {herm_drift:.3e}", residual=herm_drift
        )
    return rho


def _taylor_steps(norm_t: float) -> tuple[int, int]:
    """Degree m and substep count s, norm_t / s <= theta_m, that need the fewest products m * s."""
    return min(((m, max(1, math.ceil(norm_t / theta))) for m, theta in TAYLOR_THETA.items()),
               key=lambda ms: ms[0] * ms[1])


def _taylor_master_states(
    ops: LatticeOperators, rho0: DensityMatrix | np.ndarray, times
) -> tuple[list[DensityMatrix], dict]:
    """Checked master-equation states at ascending times from a truncated Taylor series of exp(t L).

    Algorithm 3.2 of Al-Mohy & Higham (2011) in P's eigenbasis from ``ops``,
    run from one output time to the next.  With h = diag(H_tilde) and A = -i
    times H_tilde off its diagonal, one product of the shifted generator is
    X + X^dagger + E * y with X = A y and E_ab = D_ab - mu - i (h_a - h_b),
    mu = mean(D) (the trace of L over N^2); exp(mu t) scales it back.  Per
    interval of length t the degree m and the substep count s come from the
    a-priori bound ||L - mu||_1 <= 2 ||A||_1 + max |E|; a substep's series stops
    early once two successive terms fall below 2^-53 of the sum, in max-norm,
    so reruns repeat every operation; the a-posteriori record is, per
    interval, the largest max-norm ratio of a substep's last term to its sum.
    With A and E real (the transpose sector) the product is real: on the real
    matrix alone when the rotated start is real to within its round-off
    ("real"), on y's interleaved (Re, Im) columns otherwise ("interleaved");
    any other model takes complex products ("complex").

    An interval of length 0 returns the checked state; a negative one raises
    ParameterError and a start whose Hermiticity deviation exceeds
    ``DRIFT_ABORT`` NumericalFailure, both before any propagation.  Returns the
    states and a record of the route: its arithmetic, norm bound, m, s and
    the last-term ratio per interval and the number of generator products.
    """
    times = [float(t) for t in times]
    if any(t < 0 for t in np.diff([0.0] + times)):
        raise ParameterError(f"propagation times must be >= 0 and ascending, got {times}")
    rho = _hermitian_start(rho0, "Taylor")
    V, H_tilde = ops.V, ops.H_tilde
    h = H_tilde.diagonal().real
    mu = float(ops.D.mean())
    A = -1j * (H_tilde - np.diag(H_tilde.diagonal()))
    E = (ops.D - mu) - 1j * (h[:, None] - h[None, :])
    norm = 2.0 * float(np.abs(A).sum(axis=0).max()) + float(np.abs(E).max())
    y = V.conj().T @ rho @ V
    arithmetic = "complex"
    if not (A.imag.any() or E.imag.any()):
        A, E, arithmetic = A.real, E.real, "interleaved"
        if np.abs(y.imag).max() <= np.finfo(float).eps * np.abs(y).max():
            y, arithmetic = y.real, "real"      # the symmetric sector

    def generator(y):
        X = (A @ y.view(float)).view(complex) if arithmetic == "interleaved" else A @ y
        return X + X.conj().T + E * y

    states, degrees, substeps, tails, products, t_prev = [], [], [], [], 0, 0.0
    for t in times:
        tau, t_prev = t - t_prev, t
        tail = 0.0
        if tau > 0:
            m, s = _taylor_steps(norm * tau)
            scale = math.exp(mu * tau / s)
            for _ in range(s):
                term = total = y
                previous = np.abs(term).max()
                for j in range(1, m + 1):
                    term = (tau / (s * j)) * generator(term)
                    products += 1
                    total = total + term
                    current, size = np.abs(term).max(), np.abs(total).max()
                    if previous + current <= TAYLOR_TOL * size:
                        break
                    previous = current
                tail = max(tail, float(current / size))
                y = scale * total
            rho = V @ y @ V.conj().T
        else:
            m, s = 0, 0
        degrees.append(m)
        substeps.append(s)
        tails.append(tail)
        states.append(_checked_state(rho))
    return states, {"route": "taylor", "arithmetic": arithmetic, "norm_bound": norm,
                    "taylor_degree": degrees, "substeps": substeps, "last_term_ratio": tails,
                    "products": products}


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
    prop = MasterPropagator(ops, rho0)
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
