"""Time propagation of density matrices and no-jump wavefunctions.

Master-equation propagation is exact-exponential.  Up to the dense cap,
:class:`MasterPropagator` diagonalizes the real generator (L in P's
eigenbasis) once, one diagonal block at a time (the blocks are assembled
without the whole generator, see :mod:`skinlab.liouvillian`, and
independent ones solved side by side during a run, see
:mod:`skinlab._threads`) and only in the blocks the start reaches, and
applies exp(L t) spectrally for every time.  Lattices too large for the
dense superoperator, and starts that reach a block whose eigenbasis is too
ill-conditioned for the spectral route, take the truncated Taylor series
with scaling of exp(t L) rho, run in the jump operator's eigenbasis;
fixed-step RK4 there is an independent cross-check.  All master routes end
in the same state checks.  The no-jump wavefunction exp(-i H_eff t) psi0
runs on the same Taylor kernel, whose accuracy does not depend on how
non-normal H_eff is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._threads import blockwise
from .errors import NumericalFailure, ParameterError
from .lattice_ops import SECTOR_TOL, LatticeOperators
from .liouvillian import (
    _block_eigenvalues,
    _from_hermitian_coords,
    _generator_blocks,
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


def _real_eigenbasis(stack: np.ndarray):
    """``eig`` of real matrices (stacked) made real: w, R with V = R U (U block-unitary), partner.

    Columns of V are real or come in conjugate pairs (v, conj v), the first with Im w > 0; R
    keeps the real ones and turns each pair into sqrt2 (Re v, Im v); V is not kept.  partner
    numbers each column's pair partner, or itself, as a row of the stack's columns end to end.
    """
    w, V = np.linalg.eig(stack)
    R = V.real.copy()
    k, j = np.nonzero(w.imag > 0)
    R[k, :, j] *= np.sqrt(2.0)
    R[k, :, j + 1] = np.sqrt(2.0) * V.imag[k, :, j]
    return w, R, np.arange(w.size).reshape(w.shape) + np.sign(w.imag).astype(np.intp)


class MasterPropagator:
    """exp(L t) from one eigendecomposition per diagonal block (sector) of the real generator M.

    Holds the block matrices of :func:`skinlab.liouvillian._generator_blocks`,
    not M.  Given ``rho0``, factors only the blocks rho0 reaches, and any
    other block when :meth:`apply` first meets a vector that reaches it; a
    block a vector does not reach stays exactly zero.  A vector reaches a
    block where a coordinate is nonzero or, with a mirror, whose sectors are
    exact only to ``SECTOR_TOL``, exceeds SECTOR_TOL times its largest in
    size, so the round-off a mirror-symmetric start leaves in the odd
    sectors stays out.
    A block keeps R and R^-1, real rotations for conjugate pairs, from V = R U
    (:func:`_real_eigenbasis`); ``cond`` is max sigma_max / min sigma_min of R
    over the factored blocks, the cond(V) of their whole eigenbasis.  Where
    a factored block's own cond(V) exceeds ``EIG_COND_LIMIT_MASTER`` or is
    not finite, ``route`` is "taylor" and :meth:`states` come from
    :func:`_taylor_master_states` instead.  Raises ParameterError before
    allocating when N^2 exceeds ``SPECTRUM_CAP``.
    """

    def __init__(self, ops: LatticeOperators, rho0: DensityMatrix | np.ndarray | None = None):
        self.ops = ops
        self.blocks, self._stacks = _generator_blocks(ops)
        self.block_sizes = [b.size for b in self.blocks]
        self.floor = 0.0 if ops.mirror is None else SECTOR_TOL
        self._label = np.empty(ops.n_sites**2, dtype=np.intp)
        for k, b in enumerate(self.blocks):
            self._label[b] = k
        self._pending = np.ones(len(self.blocks), dtype=bool)
        self._factors, self._w = [], []
        self._s_max, self._s_min = 0.0, np.inf
        self._factor(self._pending.copy() if rho0 is None
                     else self._reached(_hermitian_coords(ops, _matrix(rho0))))

    def _reached(self, x: np.ndarray) -> np.ndarray:
        """Mask of the blocks x reaches."""
        size = np.abs(x)
        on = np.flatnonzero(size > self.floor * size.max(initial=0.0))
        return np.bincount(self._label[on], minlength=len(self.blocks)) > 0

    def _stacks_of(self, mask: np.ndarray) -> list:
        """(idx, stack) pairs of the blocks in ``mask``, batched as in the full stacks."""
        picked = []
        for idx, stack in self._stacks:
            on = mask[self._label[idx[:, 0]]]
            if on.all():
                picked.append((idx, stack))
            elif on.any():
                picked.append((idx[on], stack[on]))
        return picked

    def _factor(self, todo: np.ndarray) -> None:
        """Factor the blocks in mask ``todo`` not factored yet."""
        todo = todo & self._pending
        if todo.any():
            self._pending &= ~todo
            for w, s, factors in blockwise(self._factor_stack, self._stacks_of(todo)):
                self._s_max = max(self._s_max, float(s[:, 0].max()))
                self._s_min = min(self._s_min, float(s[:, -1].min()))
                self._w.append(w.ravel())
                self._factors.append(factors)

    @staticmethod
    def _factor_stack(item):
        """One stack (idx, M_stack): eigenvalues, R's singular values, (idx, w, partner, R, R^-1).

        The last is None, and R is not inverted, where a block's cond(V) exceeds
        ``EIG_COND_LIMIT_MASTER`` or is not finite (:func:`_real_eigenbasis`).
        """
        idx, stack = item
        w, R, partner = _real_eigenbasis(stack)
        s = np.linalg.svd(R, compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            spectral = bool((s[:, 0] / s[:, -1] <= EIG_COND_LIMIT_MASTER).all())
        return w, s, (idx, w, partner, R, np.linalg.inv(R)) if spectral else None

    @property
    def cond(self) -> float:
        return self._s_max / self._s_min if self._s_min > 0 else np.inf

    @property
    def factored_blocks(self) -> int:
        return int((~self._pending).sum())

    @property
    def route(self) -> str:
        """"taylor" once a factored block is too ill-conditioned for the spectral route."""
        return "taylor" if any(f is None for f in self._factors) else "spectral"

    @property
    def eigenvalues(self) -> np.ndarray:
        """M's eigenvalues, unsorted: the factored blocks' from eig, the rest's from eigvals.

        The rest are solved on copies of their stacks, which a later
        :meth:`apply` may still factor.
        """
        rest = [(idx, stack.copy(order="K")) for idx, stack in self._stacks_of(self._pending)]
        return np.concatenate(self._w + ([_block_eigenvalues(rest)] if rest else []))

    def apply(self, x: np.ndarray, t: float) -> np.ndarray:
        """exp(M t) x; t = 0 returns x itself, free of R R^-1 round-off, as RK4 does."""
        return next(self._orbit(x, [t]))

    def _orbit(self, x: np.ndarray, times):
        """exp(M t) x at each of the ascending times, from one y = R^-1 x per factored stack.

        Real products on x's (Re, Im) columns, R B(t) y per block: B(t) is Re e^(wt) on the
        diagonal plus Im e^(wt) from a pair's other column, a rotation by beta t on alpha +- i beta.
        """
        times = _checked_times(times)
        x = np.array(x, dtype=complex)
        parts, reduced = x.view(float).reshape(-1, 2), []
        if any(times):
            self._factor(self._reached(x))
            for factors in self._factors:
                if factors is None:
                    raise NumericalFailure(f"no spectral route: eigenbasis condition number "
                                           f"{self.cond:.3e}", residual=self.cond)
                idx, w, partner, R, R_inv = factors
                y = R_inv @ parts[idx]
                reduced.append((idx, w, R, y, y.reshape(-1, 2)[partner]))
        for t in times:
            if t == 0:
                yield x
                continue
            z = np.zeros_like(parts)
            for idx, w, R, y, y_partner in reduced:
                e = np.exp(w * t)[..., None]
                z[idx] = R @ (e.real * y + e.imag * y_partner)
            yield z.view(complex).ravel()

    def evolve(self, rho0: np.ndarray, t: float) -> np.ndarray:
        """Raw matrix-form solution at time t on the spectral route, without state validation."""
        x = _hermitian_coords(self.ops, _matrix(rho0))
        return _from_hermitian_coords(self.ops, self.apply(x, t))

    def propagate(self, rho0: DensityMatrix | np.ndarray, t: float) -> DensityMatrix:
        """Propagated state with invariant checks; aborts on drift beyond tolerance."""
        return self.states(rho0, [t])[0][0]

    def states(self, rho0: DensityMatrix | np.ndarray, times) -> tuple[list[DensityMatrix],
                                                                       dict | None]:
        """Checked states at ascending times and the Taylor route's record (None if spectral)."""
        times = _checked_times(times)
        x = _hermitian_coords(self.ops, _matrix(rho0))
        self._factor(self._reached(x))
        if self.route == "taylor":      # the only route check, once the start's blocks are factored
            return _taylor_master_states(self.ops, rho0, times)
        return [_checked_state(_from_hermitian_coords(self.ops, z))
                for z in self._orbit(x, times)], None

    def stationary_projection(self, rho0: DensityMatrix | np.ndarray) -> np.ndarray:
        """Infinite-time limit Q Q^T rho0, Q the kernel basis of :func:`_stationary_kernel`.

        The kernel comes only from the blocks rho0 reaches, and Q Q^T acts on
        the coordinates' (Re, Im) columns by real products.
        """
        x = _hermitian_coords(self.ops, _matrix(rho0))
        Q = _stationary_kernel(self.ops, self._stacks_of(self._reached(x)), values=False)[0]
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
    _checked_times([t_final])
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


def _checked_times(times) -> list[float]:
    """The times as floats; ParameterError unless they are >= 0 and ascending."""
    times = [float(t) for t in times]
    if any(b < a for a, b in zip([0.0] + times, times)):
        raise ParameterError(f"propagation times must be >= 0 and ascending, got {times}")
    return times


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


def _taylor_action(product, y: np.ndarray, tau: float, norm: float, mu: float | complex):
    """exp(tau (A + mu)) y by the truncated Taylor series of Al-Mohy & Higham (2011), Alg. 3.2.

    ``product`` applies the shifted generator A and ``norm`` bounds ||A||_1,
    which fixes m and s (:func:`_taylor_steps`).  A substep's series stops
    once two successive terms fall below 2^-53 of the sum, in max-norm, so
    reruns repeat every operation.  Returns the result, m, s, the largest
    ratio of a substep's last term to its sum and the product count; tau = 0
    returns y itself and m = s = 0.
    """
    if tau == 0:
        return y, 0, 0, 0.0, 0
    m, s = _taylor_steps(norm * tau)
    shift = mu * tau / s
    scale = np.exp(shift) if isinstance(shift, complex) else math.exp(shift)
    tail, products = 0.0, 0
    for _ in range(s):
        term = total = y
        previous = np.abs(term).max()
        for j in range(1, m + 1):
            term = (tau / (s * j)) * product(term)
            products += 1
            total = total + term
            current, size = np.abs(term).max(), np.abs(total).max()
            if previous + current <= TAYLOR_TOL * size:
                break
            previous = current
        tail = max(tail, float(current / size))
        y = scale * total
    return y, m, s, tail, products


def _taylor_master_states(
    ops: LatticeOperators, rho0: DensityMatrix | np.ndarray, times
) -> tuple[list[DensityMatrix], dict]:
    """Checked master-equation states at ascending times from a truncated Taylor series of exp(t L).

    :func:`_taylor_action` in P's eigenbasis from ``ops``, run from one output
    time to the next.  With h = diag(H_tilde) and A = -i times H_tilde off
    its diagonal, one product of the shifted generator is X + X^dagger + E * y
    with X = A y and E_ab = D_ab - mu - i (h_a - h_b), mu = mean(D) (the trace
    of L over N^2), under the a-priori bound ||L - mu||_1 <= 2 ||A||_1 + max |E|;
    the a-posteriori record is, per interval, the largest max-norm ratio of a
    substep's last term to its sum.  With A and E real (the transpose sector)
    and the rotated start real to within its round-off the product is real
    ("real"); any other model or start takes complex products ("complex").

    An interval of length 0 returns the checked state; a negative one raises
    ParameterError and a start whose Hermiticity deviation exceeds
    ``DRIFT_ABORT`` NumericalFailure, both before any propagation.  Returns the
    states and a record of the route: its arithmetic, norm bound, m, s and
    the last-term ratio per interval and the number of generator products.
    """
    times = _checked_times(times)
    rho = _hermitian_start(rho0, "Taylor")
    V, H_tilde = ops.V, ops.H_tilde
    h = H_tilde.diagonal().real
    mu = float(ops.D.mean())
    A = -1j * (H_tilde - np.diag(H_tilde.diagonal()))
    E = (ops.D - mu) - 1j * (h[:, None] - h[None, :])
    norm = 2.0 * float(np.abs(A).sum(axis=0).max()) + float(np.abs(E).max())
    y = V.conj().T @ rho @ V
    arithmetic = "complex"
    if not (A.imag.any() or E.imag.any()) and \
            np.abs(y.imag).max() <= np.finfo(float).eps * np.abs(y).max():
        A, E, y, arithmetic = A.real, E.real, y.real, "real"      # the symmetric sector

    def generator(y):
        X = A @ y
        return X + X.conj().T + E * y

    states, steps, t_prev = [], [], 0.0
    for t in times:
        tau, t_prev = t - t_prev, t
        y, *step = _taylor_action(generator, y, tau, norm, mu)
        if tau > 0:
            rho = V @ y @ V.conj().T
        steps.append(step)
        states.append(_checked_state(rho))
    degrees, substeps, tails, products = ([step[k] for step in steps] for k in range(4))
    return states, {"route": "taylor", "arithmetic": arithmetic, "norm_bound": norm,
                    "taylor_degree": degrees, "substeps": substeps, "last_term_ratio": tails,
                    "products": sum(products)}


class SemiclassicalPropagator:
    """exp(-i H_eff t) psi0 by the truncated Taylor series, however non-normal H_eff is.

    The series runs on A = -i H_eff - mu, mu = tr(-i H_eff) / N, with the
    bound ||A||_1 (see :func:`_taylor_action`).
    """

    def __init__(self, ops: LatticeOperators):
        A = -1j * ops.H_eff
        self.mu = complex(np.trace(A)) / ops.n_sites
        self.A = A - self.mu * np.eye(ops.n_sites)
        self.norm = float(np.abs(self.A).sum(axis=0).max())

    def at(self, psi0: np.ndarray, t: float) -> np.ndarray:
        _checked_times([t])
        psi = np.array(psi0, dtype=complex)
        return _taylor_action(self.A.__matmul__, psi, t, self.norm, self.mu)[0]


def propagate_semiclassical(
    ops: LatticeOperators, psi0: np.ndarray, t: float
) -> SemiclassicalState:
    """No-jump evolution psi(t) = exp(-i H_eff t) psi0; norm never grows."""
    return SemiclassicalState(SemiclassicalPropagator(ops).at(psi0, t))


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

    ``states`` holds the propagated state at each time, ``propagator`` the
    factorization and ``taylor`` the Taylor route's record where that route
    produced them (None on the spectral route).
    """

    times: np.ndarray
    entropies: np.ndarray
    s_infinity: float
    rho_infinity: np.ndarray
    states: list[DensityMatrix]
    propagator: MasterPropagator
    taylor: dict | None


def entropy_trace(
    ops: LatticeOperators, rho0: DensityMatrix | np.ndarray, times
) -> EntropyTrace:
    """Von Neumann entropy at each time, with the stationary limit appended.

    The infinite-time state is the projection of rho0 onto the kernel of the
    generator (not the last sampled time), on the spectral and Taylor routes alike.
    """
    times = np.array(_checked_times(times))
    prop = MasterPropagator(ops, rho0)
    states, taylor = prop.states(rho0, times)
    entropies = np.array([von_neumann_entropy(s) for s in states])
    rho_inf = prop.stationary_projection(rho0)
    return EntropyTrace(times, entropies, von_neumann_entropy(rho_inf), rho_inf, states, prop,
                        taylor)


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
