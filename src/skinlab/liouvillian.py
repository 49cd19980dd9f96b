"""Dense superoperator of the collective-jump master equation.

The generator acting on a density matrix is

    d rho / dt = -i [H, rho] - (1/2) (P^2 rho + rho P^2 - 2 P rho P)

and is represented as an N^2 x N^2 matrix acting on column-stacked vec(rho).
With that stacking (column index slowest), vec(A X B) = (B^T kron A) vec(X),
so

    L = -i (I kron H - H^T kron I) - 1/2 (I kron P^2 + (P^2)^T kron I)
        + P^T kron P.

Mixing vectorization conventions silently transposes the jump term; the one
above is frozen package-wide.

L preserves Hermiticity, so in an orthonormal basis of Hermitian matrices it
is a real matrix M with the same spectrum, singular values and cond(V); every
dense solve runs on M, assembled in P's eigenbasis from H_tilde and D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, ParameterError
from .lattice_ops import LatticeOperators

SPECTRUM_CAP = 4096             # largest N^2 the dense solver will accept
ZERO_TOL_SCALE = 1e-8           # relative zero-eigenvalue threshold
KERNEL_GAP_WARN = 10.0          # flag kernels whose first decaying mode sits this close
SORT_TIE_TOL = 1e-9             # relative real-part tie tolerance of the spectrum order


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector (first column first)."""
    return np.asarray(rho).reshape(-1, order="F")


def unvec(v: np.ndarray, n_sites: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v).reshape((n_sites, n_sites), order="F")


@dataclass(frozen=True)
class LiouvillianMatrix:
    """N^2 x N^2 matrix representation of the master-equation generator."""

    n_sites: int
    L: np.ndarray


@dataclass(frozen=True)
class StationaryReport:
    """Kernel (non-decaying subspace) of the generator.

    ``kernel_basis`` holds Hermitian representatives, normalized to unit
    trace whenever their trace is nonzero (Frobenius-normalized otherwise).
    ``kernel_vectors`` is an orthonormal basis of the kernel as column
    vectors, for projector overlap queries.  ``eigenvalues`` is the full
    spectrum from the same eigendecomposition, sorted as by
    :func:`liouvillian_spectrum`.  ``gap_ratio`` compares the first
    decaying singular value against the largest kernel one;
    ``ill_conditioned`` flags a first decaying mode within a factor
    ``KERNEL_GAP_WARN`` of the zero threshold.
    """

    zero_eigenvalue_multiplicity: int
    kernel_basis: list[np.ndarray]
    kernel_vectors: np.ndarray
    gap_ratio: float
    ill_conditioned: bool
    eigenvalues: np.ndarray


def build_liouvillian(ops: LatticeOperators) -> LiouvillianMatrix:
    """Assemble the dense superoperator matrix for the given lattice operators."""
    N = ops.n_sites
    eye = np.eye(N)
    L = (
        -1j * (np.kron(eye, ops.H) - np.kron(ops.H.T, eye))
        - 0.5 * (np.kron(eye, ops.P2) + np.kron(ops.P2.T, eye))
        + np.kron(ops.P.T, ops.P)
    )
    return LiouvillianMatrix(N, L)


def liouvillian_spectrum(Lm: LiouvillianMatrix, eigenvectors: bool = False,
                         cap: int = SPECTRUM_CAP):
    """Full dense spectrum, sorted by real then imaginary part (see :func:`_spectrum_order`).

    With ``eigenvectors=True`` also returns the right eigenvectors (columns,
    same order) and verifies every eigenpair residual against
    1e-8 * ||L||_F.

    Raises
    ------
    ParameterError
        If N^2 exceeds the configured cap.
    NumericalFailure
        On eigensolver non-convergence or residuals above the bound.
    """
    _check_cap(Lm.n_sites, cap)
    return _sorted_spectrum(Lm.L, eigenvectors)


def _sorted_spectrum(A: np.ndarray, eigenvectors: bool):
    """Eigenvalues of A in :func:`_spectrum_order`; with eigenvectors, residual-checked."""
    try:
        w, V = np.linalg.eig(A) if eigenvectors else (np.linalg.eigvals(A), None)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
    order = _spectrum_order(w)
    if V is None:
        return w[order]
    w, V = w[order], V[:, order]
    residual = float(np.abs(A @ V - V * w).max())
    if residual > 1e-8 * float(np.linalg.norm(A)):
        raise NumericalFailure(f"eigenpair residual {residual:.3e} exceeds 1e-8 * ||L||",
                               residual=residual)
    return w, V


def _check_cap(n_sites: int, cap: int) -> None:
    if n_sites**2 > cap:
        raise ParameterError(f"superoperator dimension {n_sites**2} exceeds the cap {cap}")


def _spectrum_order(w: np.ndarray) -> np.ndarray:
    """Indices sorting eigenvalues by real part, then imaginary part.

    Sorted real parts that step by at most SORT_TIE_TOL * max(1, max|w|) form
    one tie group, ordered by imaginary part, so round-off cannot reorder rows.
    """
    by_real = np.argsort(w.real, kind="stable")
    tol = SORT_TIE_TOL * max(1.0, float(np.abs(w).max(initial=0.0)))
    group = np.concatenate([[0], np.cumsum(np.diff(w.real[by_real]) > tol)])
    return by_real[np.lexsort((w.imag[by_real], group))]


def _hermitian_basis_generator(ops: LatticeOperators) -> np.ndarray:
    """The generator as a real N^2 x N^2 matrix in an orthonormal Hermitian basis.

    The basis lives in P's eigenbasis: |a><a| (a = 0..N-1), then
    S_ab = (|a><b| + |b><a|)/sqrt2 and A_ab = i(|a><b| - |b><a|)/sqrt2 over the
    pairs a < b in ``np.triu_indices`` order.  The matrix is the real
    antisymmetric one of -i[H_tilde, .] plus the diagonal (0_N, D_ab, D_ab).
    With z = H_tilde[e, c], A_ed = -A_de and c, d, e distinct, its entries are
    <S_de, S_cd> = -<A_de, A_cd> = Im z, <S_de, A_cd> = <A_de, S_cd> = Re z,
    <S_ce, |c><c|> = sqrt2 Im z, <A_ce, |c><c|> = sqrt2 Re z and
    <A_cd, S_cd> = H_tilde[d, d] - H_tilde[c, c]: O(N^3) entries, set by scatters.
    """
    N, h = ops.n_sites, ops.H_tilde
    rows, cols = np.triu_indices(N, 1)
    n_pairs, sites = rows.size, np.arange(N)
    S = N + np.arange(n_pairs)                                  # index of S_ab; A_ab follows
    pair = np.zeros((N, N), dtype=np.intp)
    pair[rows, cols] = pair[cols, rows] = S
    others = np.nonzero(~np.eye(N, dtype=bool))[1].reshape(N, N - 1)  # others[d]: e != d
    S_de = pair[sites[:, None], others]
    sign = np.sign(others - sites[:, None]).astype(float)       # A_de = sign * A_(min, max)
    out = np.zeros((N * N, N * N))

    e, c = others[:, :, None], others[:, None, :]
    blk = np.empty((N, 2, N - 1, 2, N - 1))   # [d, (S_de, A_de), e, (S_cd, A_cd), c]
    blk[:, 0, :, 0] = h.imag[e, c]
    np.negative(blk[:, 0, :, 0], out=blk[:, 1, :, 1])
    blk[:, 0, :, 1] = blk[:, 1, :, 0] = h.real[e, c]
    blk[:, 1] *= sign[:, :, None, None]          # to the stored A_(min, max) rows
    blk[:, :, :, 1] *= -sign[:, None, None, :]   # and columns, A_cd = -sign[d, c] * A_(min, max)
    idx = np.stack([S_de, S_de + n_pairs], axis=1)
    out[idx[..., None, None], idx[:, None, None]] = blk

    g = np.sqrt(2.0) * h[others, sites[:, None]]
    out[S_de, sites[:, None]], out[sites[:, None], S_de] = g.imag, -g.imag
    out[S_de + n_pairs, sites[:, None]] = sign * g.real
    out[sites[:, None], S_de + n_pairs] = -sign * g.real
    # c == e above wrote into the pair-with-itself blocks; set them here
    energies = h.diagonal().real
    out[S + n_pairs, S] = energies[cols] - energies[rows]
    out[S, S + n_pairs] = energies[rows] - energies[cols]
    out[S, S] = out[S + n_pairs, S + n_pairs] = ops.D[rows, cols]
    return out


def liouvillian_eigenvalues(ops: LatticeOperators, cap: int = SPECTRUM_CAP) -> np.ndarray:
    """Full generator spectrum from one real eigensolve, sorted as :func:`liouvillian_spectrum`.

    Works on :func:`_hermitian_basis_generator`, so the eigenvalues come in
    exact complex-conjugate pairs.

    Raises
    ------
    ParameterError
        If N^2 exceeds ``cap``; checked before anything is allocated.
    NumericalFailure
        On eigensolver non-convergence.
    """
    _check_cap(ops.n_sites, cap)
    return _sorted_spectrum(_hermitian_basis_generator(ops), eigenvectors=False)


def _hermitian_coords(ops: LatticeOperators, X: np.ndarray) -> np.ndarray:
    """Coordinates tr(B_k X) in the basis of :func:`_hermitian_basis_generator`.

    With Y = V^dagger X V they are diag Y, (Y_ab + Y_ba)/sqrt2 and
    i(Y_ba - Y_ab)/sqrt2: complex-linear, isometric, and real for Hermitian X.
    """
    Y = ops.V.conj().T @ X @ ops.V
    rows, cols = np.triu_indices(ops.n_sites, 1)
    upper, lower = Y[rows, cols], Y[cols, rows]
    return np.concatenate([Y.diagonal(), (upper + lower) / np.sqrt(2.0),
                           1j * (lower - upper) / np.sqrt(2.0)])


def _from_hermitian_coords(ops: LatticeOperators, x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_hermitian_coords`: sum_k x_k B_k in the site basis."""
    N = ops.n_sites
    rows, cols = np.triu_indices(N, 1)
    sym, anti = np.split(x[N:] / np.sqrt(2.0), 2)
    Y = np.diag(np.asarray(x[:N], dtype=complex))
    Y[rows, cols], Y[cols, rows] = sym + 1j * anti, sym - 1j * anti
    return ops.V @ Y @ ops.V.conj().T


def _zero_tolerance(ops: LatticeOperators) -> float:
    """Zero-eigenvalue threshold ZERO_TOL_SCALE * max(1, max|M_ij| / N) on the real generator M.

    max|M_ij| is read off H_tilde and D: sqrt2 |Re|, |Im| off the diagonal, E_b - E_a, D.
    """
    h = ops.H_tilde
    off = h[~np.eye(ops.n_sites, dtype=bool)]
    scale = max(np.sqrt(2.0) * np.abs(np.concatenate([off.real, off.imag])).max(initial=0.0),
                float(np.ptp(h.diagonal().real)), float(-ops.D.min()))
    return ZERO_TOL_SCALE * max(1.0, scale / ops.n_sites)


def stationary_states(ops: LatticeOperators) -> StationaryReport:
    """Count and construct the non-decaying states from one eig and one SVD of the real M."""
    _check_cap(ops.n_sites, SPECTRUM_CAP)
    M = _hermitian_basis_generator(ops)
    tol = _zero_tolerance(ops)
    w, X = _sorted_spectrum(M, eigenvectors=True)
    kernel_mask = np.abs(w) <= tol
    multiplicity = int(kernel_mask.sum())
    if multiplicity == 0:  # pragma: no cover - trace preservation forbids this
        raise NumericalFailure("no zero eigenvalue found; generator is not trace-preserving")

    # M is real: its kernel is the real span of its kernel eigenvectors, whose
    # real coordinates are Hermitian matrices (of unit norm: the map is isometric)
    K = X[:, kernel_mask]
    Q = np.linalg.svd(np.hstack([K.real, K.imag]), full_matrices=False)[0][:, :multiplicity]
    kernel = [_from_hermitian_coords(ops, q) for q in Q.T]

    # singular-value picture of the kernel separation
    svals = np.linalg.svd(M, compute_uv=False)[::-1]  # ascending
    first_decaying = float(svals[multiplicity]) if multiplicity < svals.size else np.inf
    kernel_floor = max(float(svals[:multiplicity].max()), np.finfo(float).eps * float(svals[-1]))
    gap_ratio = first_decaying / kernel_floor if kernel_floor > 0 else np.inf   # M = 0: all kernel
    ill_conditioned = first_decaying < KERNEL_GAP_WARN * tol

    basis = [0.5 * (m + m.conj().T) for m in kernel]
    traces = [np.trace(m).real for m in basis]
    basis = [m / tr if abs(tr) > 1e-8 else m for m, tr in zip(basis, traces)]
    vectors = np.stack([vec(m) for m in kernel], axis=1)
    return StationaryReport(multiplicity, basis, vectors, gap_ratio, ill_conditioned, w)


def kernel_overlap(report: StationaryReport, rho: np.ndarray) -> float:
    """Fraction of the Frobenius norm of rho lying inside the kernel subspace."""
    v = vec(rho)
    return float(np.linalg.norm(report.kernel_vectors.conj().T @ v) ** 2 / np.linalg.norm(v) ** 2)


def open_chain_modes(n_sites: int) -> np.ndarray:
    """Sine eigenmodes of the open chain: column alpha is sqrt(2/(N+1)) sin(pi n alpha/(N+1))."""
    n = np.arange(1, n_sites + 1)[:, None]
    alpha = np.arange(1, n_sites + 1)[None, :]
    return np.sqrt(2.0 / (n_sites + 1)) * np.sin(np.pi * n * alpha / (n_sites + 1))


def analytic_commuting_spectrum(J: float, R: float, n_sites: int):
    """Closed-form generator spectrum of the commuting nearest-neighbour model.

    Valid for the cosine model with T = 0, phi = 0 under TRUNCATE_P, where H
    and P are commuting Jacobi matrices sharing the open-chain sine modes.
    Each mode pair (alpha, beta) contributes the eigenvalue

        lambda = i (E_beta - E_alpha) - 1/2 (p_alpha - p_beta)^2

    with E_alpha = 2 J cos(pi alpha/(N+1)) and
    p_alpha = R [1 + cos(pi alpha/(N+1))].

    Returns
    -------
    alpha, beta : int ndarrays of shape (N^2,)
    lam : complex ndarray of shape (N^2,)
    """
    idx = np.arange(1, n_sites + 1)
    E = 2.0 * J * np.cos(np.pi * idx / (n_sites + 1))
    p = R * (1.0 + np.cos(np.pi * idx / (n_sites + 1)))
    alpha, beta = np.meshgrid(idx, idx, indexing="ij")
    lam = 1j * (E[beta - 1] - E[alpha - 1]) - 0.5 * (p[alpha - 1] - p[beta - 1]) ** 2
    return alpha.ravel(), beta.ravel(), lam.ravel()


def bidiagonal_stationary_state(n_sites: int) -> np.ndarray:
    """Diagonal-plus-antidiagonal stationary state of transpose-symmetric chains.

    Equals (I + X)/(N+1) with X the exchange matrix.  For even N that matrix
    has trace N/(N+1), so it is rescaled by (N+1)/N to unit trace; for odd N
    it is unit-trace as constructed, with purity 2/(N+1).
    """
    rho = (np.eye(n_sites) + np.eye(n_sites)[::-1]) / (n_sites + 1)
    return rho / np.trace(rho).real
