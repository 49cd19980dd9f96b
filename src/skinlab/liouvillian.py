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
dense solve runs on M, assembled in P's eigenbasis from H_tilde and D, one
diagonal block (connected component of its nonzero pattern) at a time, with
independent blocks solved side by side during a run
(:func:`skinlab._threads.blockwise`).  A model with a mirror
(:class:`skinlab.lattice_ops.Mirror`) has M rotated to the mirror's even and
odd coordinates, so its blocks are the mirror sectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._threads import blockwise
from .errors import NumericalFailure, ParameterError
from .lattice_ops import LatticeOperators

SPECTRUM_CAP = 4096             # largest N^2 the dense solver will accept
ZERO_TOL_SCALE = 1e-8           # relative zero-eigenvalue threshold
KERNEL_GAP_WARN = 10.0          # flag kernels whose first decaying mode sits this close
SORT_TIE_TOL = 1e-9             # relative real-part tie tolerance of the spectrum order
_HALF = np.sqrt(0.5)
_CHUNK = 2**15                  # entries per temporary of the mirror-sector rotation


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
    spectrum, sorted as by :func:`liouvillian_spectrum`.  ``gap_ratio``
    compares the first decaying singular value against the largest kernel
    one; ``ill_conditioned`` flags a first decaying mode within a factor
    ``KERNEL_GAP_WARN`` of the zero threshold.  ``block_sizes`` lists the
    diagonal blocks of the real generator that were factored one by one.
    """

    zero_eigenvalue_multiplicity: int
    kernel_basis: list[np.ndarray]
    kernel_vectors: np.ndarray
    gap_ratio: float
    ill_conditioned: bool
    eigenvalues: np.ndarray
    block_sizes: list[int]


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
    L = Lm.L
    try:
        w, V = np.linalg.eig(L) if eigenvectors else (np.linalg.eigvals(L), None)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
    order = _spectrum_order(w)
    if V is None:
        return w[order]
    residual = float(np.abs(L @ V - V * w).max())
    if residual > 1e-8 * float(np.linalg.norm(L)):
        raise NumericalFailure(f"eigenpair residual {residual:.3e} exceeds 1e-8 * ||L||",
                               residual=residual)
    return w[order], V[:, order]


def _diagonal_blocks(M: np.ndarray) -> list[np.ndarray]:
    """Index sets of M's diagonal blocks: the connected components of its nonzero pattern.

    Each set is sorted and the sets come in order of their first index; every
    entry of M between two sets is exactly zero.  One set means no structure.
    A BFS finds the components.  When index 0 has at most one link, as every
    index has in the commuting case, the components of one or two indices are
    first peeled off in one vectorized step.
    """
    n = M.shape[0]
    nonzero = M != 0
    linked = nonzero | nonzero.T
    blocks, unseen = [], np.ones(n, dtype=bool)
    if np.count_nonzero(linked[0, 1:]) <= 1:
        linked[np.diag_indices(n)] = False
        # each row's first link, then whether a second one follows (argmax stops at the first)
        rows = np.arange(n)
        partner = linked.argmax(axis=1)
        lone = ~linked[rows, partner]
        linked[rows, partner] = False
        single = ~lone & ~linked[rows, linked.argmax(axis=1)]
        linked[rows, partner] = ~lone
        paired = single & single[partner]
        first = np.flatnonzero(paired & (partner > rows))
        blocks = [*np.flatnonzero(lone)[:, None], *np.stack([first, partner[first]], axis=1)]
        unseen = ~(lone | paired)
    for start in np.flatnonzero(unseen):
        if not unseen[start]:
            continue
        members = np.zeros_like(unseen)
        members[start] = True
        frontier = members.copy()
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~members
            members |= frontier
        unseen &= ~members
        blocks.append(np.flatnonzero(members))
    return sorted(blocks, key=lambda b: b[0])


def _block_stacks(M: np.ndarray, blocks: list[np.ndarray]) -> list:
    """Equal-size blocks batched, largest first: (idx, stack) pairs.

    idx is (k, s) and stack[i] = M[idx[i]][:, idx[i]].
    """
    if len(blocks) == 1 and blocks[0].size == M.shape[0]:
        return [(blocks[0][None], M[None])]
    stacks = []
    for size in sorted({b.size for b in blocks}, reverse=True):
        idx = np.stack([b for b in blocks if b.size == size])
        stacks.append((idx, M[idx[:, :, None], idx[:, None, :]]))
    return stacks


def _block_eigenvalues(stacks) -> np.ndarray:
    """Eigenvalues of the (idx, stack) pairs of :func:`_block_stacks`, in :func:`_spectrum_order`.

    One ``eigvals`` per stack, the stacks solved side by side (:func:`blockwise`).
    """
    try:
        w = np.concatenate([w.ravel() for w in
                            blockwise(lambda item: np.linalg.eigvals(item[1]), stacks)])
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
    return w[_spectrum_order(w)]


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


def _frame(ops: LatticeOperators):
    """Where the dense route reads V, H_tilde and D: the mirror's symmetric copies, or ops."""
    return ops if ops.mirror is None else ops.mirror


def _mirror_pairs(ops: LatticeOperators):
    """(K, J, eps), K < J: rho -> W rho W^dagger maps coordinate K[i] to eps[i] times J[i].

    In the mirror's basis W maps |a><a| to |a'><a'|, a' = N-1-a, S_ab to
    s_a s_b S_b'a' and A_ab to -s_a s_b A_b'a' (s = ``ops.mirror.signs``).
    The coordinates W maps to plus or minus themselves (|c><c| at the centre
    c of odd N, S_aa' and A_aa') are left out: each lies in one sector.
    """
    N, s = ops.n_sites, ops.mirror.signs
    rows, cols = np.triu_indices(N, 1)
    pair = np.zeros((N, N), dtype=np.intp)
    pair[rows, cols] = np.arange(rows.size)
    image = pair[N - 1 - cols, N - 1 - rows]
    sign = s[rows] * s[cols]
    sigma = np.concatenate([np.arange(N)[::-1], N + image, N + rows.size + image])
    eps = np.concatenate([np.ones(N), sign, -sign])
    K = np.flatnonzero(np.arange(N * N) < sigma)
    return K, sigma[K], eps[K]


def _to_sectors(x: np.ndarray, pairs, inverse: bool = False) -> np.ndarray:
    """Rotate axis 0 of x in place to the mirror's even and odd coordinates, or back.

    With (K, J, eps) from :func:`_mirror_pairs`, x_K, x_J become
    (x_K + eps x_J)/sqrt2 and (x_K - eps x_J)/sqrt2: even at K, odd at J.
    Rows go in chunks of about _CHUNK entries.  A generator that commutes with
    the mirror exactly gets exact zeros between the sectors, since every
    entry pair there rounds the same sum.
    """
    K, J, eps = pairs
    step = max(1, _CHUNK // max(1, x[0].size))
    for lo in range(0, K.size, step):
        k, j = K[lo:lo + step], J[lo:lo + step]
        e = eps[lo:lo + step].reshape((-1,) + (1,) * (x.ndim - 1))
        a, b = x[k], x[j]
        if not inverse:
            b *= e
        total = a + b
        a -= b
        total *= _HALF
        a *= _HALF
        if inverse:
            a *= e
        x[k], x[j] = total, a
    return x


def _hermitian_basis_generator(ops: LatticeOperators, cap: int = SPECTRUM_CAP) -> np.ndarray:
    """The generator as a real N^2 x N^2 matrix in an orthonormal Hermitian basis.

    The basis lives in P's eigenbasis (the mirror's, see :func:`_frame`):
    |a><a| (a = 0..N-1), then S_ab = (|a><b| + |b><a|)/sqrt2 and
    A_ab = i(|a><b| - |b><a|)/sqrt2 over the pairs a < b in ``np.triu_indices``
    order.  The matrix is the real antisymmetric one of -i[H_tilde, .] plus
    the diagonal (0_N, D_ab, D_ab).
    With z = H_tilde[e, c], A_ed = -A_de and c, d, e distinct, its entries are
    <S_de, S_cd> = -<A_de, A_cd> = Im z, <S_de, A_cd> = <A_de, S_cd> = Re z,
    <S_ce, |c><c|> = sqrt2 Im z, <A_ce, |c><c|> = sqrt2 Re z and
    <A_cd, S_cd> = H_tilde[d, d] - H_tilde[c, c]: O(N^3) entries, set by scatters.
    With a mirror, rows and columns are then rotated by :func:`_to_sectors`.
    Raises ParameterError before allocating if N^2 exceeds ``cap``.
    """
    _check_cap(ops.n_sites, cap)
    frame = _frame(ops)
    N, h = ops.n_sites, frame.H_tilde
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
    out[S, S] = out[S + n_pairs, S + n_pairs] = frame.D[rows, cols]
    if ops.mirror is not None:
        pairs = _mirror_pairs(ops)
        _to_sectors(out, pairs)
        rows = max(1, _CHUNK // (N * N))
        for lo in range(0, N * N, rows):    # columns, a cache-sized band of rows at a time
            _to_sectors(out[lo:lo + rows].T, pairs)
    return out


def liouvillian_eigenvalues(ops: LatticeOperators, cap: int = SPECTRUM_CAP) -> np.ndarray:
    """Full generator spectrum from real eigensolves, sorted as :func:`liouvillian_spectrum`.

    Works on :func:`_hermitian_basis_generator`, one ``eigvals`` per diagonal
    block (:func:`_diagonal_blocks`), so the eigenvalues come in exact
    complex-conjugate pairs.

    Raises
    ------
    ParameterError
        If N^2 exceeds ``cap``; checked before anything is allocated.
    NumericalFailure
        On eigensolver non-convergence.
    """
    return _blocked_eigenvalues(ops, cap)[0]


def _blocked_eigenvalues(ops: LatticeOperators, cap: int = SPECTRUM_CAP):
    """:func:`liouvillian_eigenvalues` and the generator's block sizes.

    M is dropped once its blocks are cut out, so blocks solved side by side
    need no more memory than M.
    """
    M = _hermitian_basis_generator(ops, cap)
    blocks = _diagonal_blocks(M)
    stacks = _block_stacks(M, blocks)
    del M
    return _block_eigenvalues(stacks), [b.size for b in blocks]


def _hermitian_coords(ops: LatticeOperators, X: np.ndarray) -> np.ndarray:
    """Coordinates tr(B_k X) in the basis of :func:`_hermitian_basis_generator`.

    With Y = V^dagger X V they are diag Y, (Y_ab + Y_ba)/sqrt2 and
    i(Y_ba - Y_ab)/sqrt2, rotated to the mirror sectors when there is a
    mirror: complex-linear, isometric, and real for Hermitian X.
    """
    V = _frame(ops).V
    Y = V.conj().T @ X @ V
    rows, cols = np.triu_indices(ops.n_sites, 1)
    upper, lower = Y[rows, cols], Y[cols, rows]
    x = np.concatenate([Y.diagonal(), (upper + lower) / np.sqrt(2.0),
                        1j * (lower - upper) / np.sqrt(2.0)])
    return x if ops.mirror is None else _to_sectors(x, _mirror_pairs(ops))


def _from_hermitian_coords(ops: LatticeOperators, x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_hermitian_coords`: sum_k x_k B_k in the site basis."""
    N, V = ops.n_sites, _frame(ops).V
    if ops.mirror is not None:
        x = _to_sectors(np.array(x, dtype=complex), _mirror_pairs(ops), inverse=True)
    rows, cols = np.triu_indices(N, 1)
    sym, anti = np.split(x[N:] / np.sqrt(2.0), 2)
    Y = np.diag(np.asarray(x[:N], dtype=complex))
    Y[rows, cols], Y[cols, rows] = sym + 1j * anti, sym - 1j * anti
    return V @ Y @ V.conj().T


def _zero_tolerance(ops: LatticeOperators) -> float:
    """Zero-eigenvalue threshold ZERO_TOL_SCALE * max(1, max|M_ij| / N) on the real generator M.

    max|M_ij| is read off H_tilde and D: sqrt2 |Re|, |Im| off the diagonal, E_b - E_a, D.
    """
    h = ops.H_tilde
    off = h[~np.eye(ops.n_sites, dtype=bool)]
    scale = max(np.sqrt(2.0) * np.abs(np.concatenate([off.real, off.imag])).max(initial=0.0),
                float(np.ptp(h.diagonal().real)), float(-ops.D.min()))
    return ZERO_TOL_SCALE * max(1.0, scale / ops.n_sites)


def _stationary_kernel(ops: LatticeOperators, stacks, values: bool = True):
    """Orthonormal real basis Q (columns) of ker M, and M's singular values, ascending.

    ``stacks`` are (idx, stack) pairs of :func:`_block_stacks` covering the
    blocks of M to search.  M = A + diag(d), A antisymmetric,
    d = (0_N, D_ab, D_ab) <= 0, so x^T M x = sum_k d_k x_k^2 for real x.  So
    a kernel vector vanishes where d_k < 0, and there M x = A x = -M^T x:
    ker M = ker M^T, and Q Q^T is the spectral projector onto the stationary
    states.  So too |M x| >= min|d_k| |x| on a block whose d_k all exceed
    :func:`_zero_tolerance` in size: it holds no kernel and gets a
    values-only SVD, or none when ``values`` is False (then the singular
    values come back as None).  In every other block the right singular
    vectors with singular values up to that threshold span its part of the
    kernel, in the order of the blocks' first index.  Blocks of one size
    share one batched SVD call per kind, and the stacks are solved side by
    side (:func:`blockwise`).
    """
    tol = _zero_tolerance(ops)

    def solve(item):
        idx, stack = item
        decays = np.abs(np.diagonal(stack, axis1=1, axis2=2)).min(axis=1) > tol
        svals, found = [], []
        # a mask that keeps the whole stack takes it uncopied, and the kernel vectors are
        # copied out of Vt: blocks solved side by side each hold no more than they must
        if values and decays.any():
            svals.append(np.linalg.svd(stack if decays.all() else stack[decays],
                                       compute_uv=False).ravel())
        if not decays.all():
            idx = idx[~decays]
            _, s, Vt = np.linalg.svd(stack[~decays] if decays.any() else stack)
            svals.append(s.ravel())
            found = [(idx[i, 0], j, idx[i], Vt[i, j].copy()) for i, j in zip(*np.nonzero(s <= tol))]
        return svals, found

    found, svals = [], []
    for block_svals, block_found in blockwise(solve, stacks):
        svals += block_svals
        found += block_found
    Q = np.zeros((ops.n_sites**2, len(found)))
    for column, (*_, b, v) in enumerate(sorted(found, key=lambda f: f[:2])):
        Q[b, column] = v
    return Q, np.sort(np.concatenate(svals)) if values else None


def stationary_states(ops: LatticeOperators) -> StationaryReport:
    """Count and construct the non-decaying states of the real generator M, block by block.

    The kernel and the gap ratio come from the SVDs of :func:`_stationary_kernel`,
    the spectrum from one ``eigvals`` per block.  The kernel basis follows
    the blocks, so a kernel spread over many blocks has a canonical basis:
    for the commuting case the projectors |v_a><v_a| on P's eigenvectors.
    """
    M = _hermitian_basis_generator(ops)
    blocks = _diagonal_blocks(M)
    stacks = _block_stacks(M, blocks)
    del M                   # the stacks hold all the rest needs
    Q, svals = _stationary_kernel(ops, stacks)
    kernel = [_from_hermitian_coords(ops, q) for q in Q.T]
    multiplicity = len(kernel)

    # singular-value picture of the kernel separation
    first_decaying = float(svals[multiplicity]) if multiplicity < svals.size else np.inf
    kernel_floor = max(float(svals[:multiplicity].max()), np.finfo(float).eps * float(svals[-1]))
    gap_ratio = first_decaying / kernel_floor if kernel_floor > 0 else np.inf   # M = 0: all kernel
    ill_conditioned = first_decaying < KERNEL_GAP_WARN * _zero_tolerance(ops)

    basis = [0.5 * (m + m.conj().T) for m in kernel]
    traces = [np.trace(m).real for m in basis]
    basis = [m / tr if abs(tr) > 1e-8 else m for m, tr in zip(basis, traces)]
    vectors = np.stack([vec(m) for m in kernel], axis=1)
    return StationaryReport(multiplicity, basis, vectors, gap_ratio, ill_conditioned,
                            _block_eigenvalues(stacks), [b.size for b in blocks])


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
