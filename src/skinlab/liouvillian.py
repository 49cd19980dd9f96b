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
is a real matrix M with the same spectrum, singular values and cond(V).
Every dense solve runs on M's diagonal blocks, one at a time, with
independent blocks solved side by side (:func:`skinlab._threads.blockwise`).
The blocks, the commutant and weak-symmetry sectors of {H, P} (Buca &
Prosen, New J. Phys. 14, 073007 (2012)), are read off the lattice's
structure (:func:`_labels`), and M's O(N^3) entries, from H_tilde and D in
P's eigenbasis, scattered straight into them (:func:`_generator_blocks`); M
itself is never formed.  A model with a mirror (``ops.mirror``, whose
eigenbasis :func:`skinlab.lattice_ops._find_mirror` makes exactly
mirror-symmetric) has its blocks rotated to the mirror's even and odd
coordinates, the sectors.  Each block is stored column-major, so the
eigenvalue-only solves hand it to LAPACK as it lies (:func:`_eigvals_in_place`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _threads
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


def _components(linked: np.ndarray) -> list[np.ndarray]:
    """Sorted index sets of the connected components of a symmetric boolean pattern, by BFS.

    The sets come in order of their first index.  The program searches N x N
    patterns with it (:func:`_labels`), the tests' dense oracle M's.
    """
    blocks, unseen = [], np.ones(linked.shape[0], dtype=bool)
    while unseen.any():
        members = frontier = np.arange(unseen.size) == np.argmax(unseen)
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~members
            members |= frontier
        unseen &= ~members
        blocks.append(np.flatnonzero(members))
    return blocks


def _stacked(blocks: list[np.ndarray]):
    """Zero (idx, stack) pairs for ``blocks``, in one buffer: equal sizes batched, largest first.

    idx is (k, s): the blocks of size s in order of first index; every stack
    is a view of the one flat buffer returned with them, each matrix laid
    out column-major (F-contiguous), as LAPACK reads it.
    """
    sizes = sorted({b.size for b in blocks}, reverse=True)
    idx = [np.stack([b for b in blocks if b.size == size]) for size in sizes]
    flat = np.zeros(sum(i.shape[0] * i.shape[1]**2 for i in idx))
    stacks, lo = [], 0
    for i in idx:
        k, s = i.shape
        stacks.append((i, flat[lo:lo + k * s * s].reshape(k, s, s).transpose(0, 2, 1)))
        lo += k * s * s
    return stacks, flat


def _filled(n: int, blocks: list[np.ndarray], entries) -> list:
    """:func:`_stacked` pairs of ``blocks`` holding the (rows, cols, values) ``entries`` in them.

    Each coordinate's block and the flat position of its column are tabulated, so an
    entry lands in its stack in one scatter; one off every block is dropped, and a
    nonzero one from a block to any other coordinate raises NumericalFailure.
    """
    stacks, flat = _stacked(blocks)
    block = np.full(n, -1)
    column, local = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    count = lo = 0
    for idx, _ in stacks:
        k, s = idx.shape
        block[idx] = count + np.arange(k)[:, None]
        column[idx] = lo + s * (s * np.arange(k)[:, None] + np.arange(s))
        local[idx] = np.arange(s)
        count, lo = count + k, lo + k * s * s
    for r, c, v in entries:
        of_r = block[r]
        inside = of_r == block[c]
        if v[~inside].any():
            raise NumericalFailure("a nonzero entry of the generator joins two of its blocks")
        inside &= of_r >= 0
        flat[(column[c] + local[r])[inside]] = v[inside]
    return stacks


def _block_eigenvalues(stacks) -> np.ndarray:
    """Eigenvalues of :func:`_generator_blocks` (idx, stack) pairs, in :func:`_spectrum_order`.

    One solve per stack, the stacks solved side by side (:func:`blockwise`):
    :func:`_eigvals_in_place`, which overwrites the blocks, or
    ``np.linalg.eigvals`` where numpy's LAPACK has no ``dgeev`` to call.
    """
    solve = np.linalg.eigvals if _threads.dgeev() is None else _eigvals_in_place
    try:
        w = np.concatenate([w.ravel() for w in blockwise(lambda item: solve(item[1]), stacks)])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
    return w[_spectrum_order(w)]


def _eigvals_in_place(stack: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvals(stack)`` of a real (k, s, s) stack, bit for bit, without its copies.

    Calls numpy's own ``dgeev`` (:func:`skinlab._threads.dgeev`) on each
    F-contiguous matrix where it lies, overwriting it; a stack of other
    matrices is copied once first, as numpy copies every one.  As in numpy the stack's
    entries must be finite, the workspace is the size a query returns, and
    the result is real when every imaginary part is zero.  Raises
    NumericalFailure on a non-finite entry or non-convergence.
    """
    import ctypes

    geev, integer = _threads.dgeev()
    if stack.dtype != np.float64 or stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"dgeev takes a stack of real square matrices, got {stack.dtype} "
                         f"{stack.shape}")
    if not (np.isfinite(stack.min()) and np.isfinite(stack.max())):   # both propagate NaN
        raise NumericalFailure("eigensolver input holds infs or NaNs")
    k, s = stack.shape[:2]
    wr, wi = np.empty((2, k, s))
    n, lwork, info = integer(s), integer(-1), integer(0)
    size, lwork_at, info_at = ctypes.byref(n), ctypes.byref(lwork), ctypes.byref(info)
    wr_at, wi_at, row = wr.ctypes.data, wi.ctypes.data, 8 * s

    def solve(a: int, i: int, work: int) -> None:
        """dgeev of the matrix at address a into row i of wr and wi."""
        # lda = ldvl = ldvr = n; vl and vr are not referenced with jobvl = jobvr = "N"
        geev(b"N", b"N", size, a, size, wr_at + i * row, wi_at + i * row, None, size, None,
             size, work, lwork_at, info_at)
        if info.value:
            raise NumericalFailure(f"eigensolver did not converge (dgeev info {info.value})")

    query = np.empty(1)
    solve(stack.ctypes.data, 0, query.ctypes.data)      # lwork = -1: reads no matrix
    work = np.empty(int(query[0]))
    lwork.value, work_at = work.size, work.ctypes.data
    if not (stack[0].flags.f_contiguous and stack.flags.writeable):   # the matrices share strides
        stack = np.ascontiguousarray(stack.transpose(0, 2, 1)).transpose(0, 2, 1)
    at, step = stack.ctypes.data, stack.strides[0]
    for i in range(k):
        solve(at + i * step, i, work_at)
    if not wi.any():
        return wr
    w = np.empty((k, s), dtype=complex)
    w.real, w.imag = wr, wi
    return w


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


def _mirror_pairs(ops: LatticeOperators):
    """(sigma, eps): rho -> W rho W^dagger maps coordinate k to eps[k] times coordinate sigma[k].

    In P's eigenbasis W maps |a><a| to |a'><a'|, a' = N-1-a, S_ab to
    s_a s_b S_b'a' and A_ab to -s_a s_b A_b'a' (s = ``ops.mirror``).  sigma
    is an involution; the coordinates it fixes (|c><c| at the centre c of odd
    N, S_aa' and A_aa') each lie in the sector of their sign.
    """
    N, s = ops.n_sites, ops.mirror
    rows, cols = np.triu_indices(N, 1)
    pair = np.zeros((N, N), dtype=np.intp)
    pair[rows, cols] = np.arange(rows.size)
    image = pair[N - 1 - cols, N - 1 - rows]
    sign = s[rows] * s[cols]
    sigma = np.concatenate([np.arange(N)[::-1], N + image, N + rows.size + image])
    return sigma, np.concatenate([np.ones(N), sign, -sign])


def _to_sectors(x: np.ndarray, pairs, inverse: bool = False) -> np.ndarray:
    """Rotate axis 0 of x in place to the mirror's even and odd coordinates, or back.

    With (sigma, eps) from :func:`_mirror_pairs`, x_K, x_J for each pair
    K < J = sigma[K] become (x_K + eps x_J)/sqrt2 and (x_K - eps x_J)/sqrt2:
    even at K, odd at J; a coordinate sigma fixes is left as it is.  Rows go
    in chunks of about _CHUNK entries.  A generator that commutes with the
    mirror exactly gets exact zeros between the sectors, since every entry
    pair there rounds the same sum.
    """
    sigma, eps = pairs
    K = np.flatnonzero(np.arange(sigma.size) < sigma)
    step = max(1, _CHUNK // max(1, x[0].size))
    for lo in range(0, K.size, step):
        k = K[lo:lo + step]
        j, e = sigma[k], eps[k].reshape((-1,) + (1,) * (x.ndim - 1))
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


def _generator_entries(ops: LatticeOperators):
    """The entries of the real generator M, before any mirror rotation, as (rows, cols, values).

    M is L as a real N^2 x N^2 matrix in an orthonormal Hermitian basis of
    P's eigenbasis ``ops.V``: |a><a| (a = 0..N-1),
    then S_ab = (|a><b| + |b><a|)/sqrt2 and A_ab = i(|a><b| - |b><a|)/sqrt2
    over the pairs a < b in ``np.triu_indices`` order.  It is the real
    antisymmetric matrix of -i[H_tilde, .] plus the diagonal (0_N, D_ab, D_ab).
    With z = H_tilde[e, c], A_ed = -A_de and c, d, e distinct, its entries are
    <S_de, S_cd> = -<A_de, A_cd> = Im z, <S_de, A_cd> = <A_de, S_cd> = Re z,
    <S_ce, |c><c|> = sqrt2 Im z, <A_ce, |c><c|> = sqrt2 Re z and
    <A_cd, S_cd> = H_tilde[d, d] - H_tilde[c, c]: O(N^3) of them, each
    position given once, exact zeros included.  Every other entry of M is zero.
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
    # with c = others[d, shift[i, k]] != e = others[d, i]: every (d, e, c) once, the four
    # kinds (S_de, S_cd), (A_de, A_cd), (A_de, S_cd), (S_de, A_cd) stacked; d in chunks of
    # about _CHUNK / 4 entries, whose temporaries stay small beside the blocks they fill
    shift = (np.arange(N - 1)[:, None] + np.arange(1, N - 1)) % (N - 1)
    step = max(1, _CHUNK // 4 // max(1, 4 * (N - 1) * (N - 2)))
    for lo in range(0, N, step):
        d = slice(lo, lo + step)
        e, c = others[d, :, None], others[d][:, shift]
        S_rows, S_cols = S_de[d, :, None], S_de[d][:, shift]
        sign_de, sign_dc = sign[d, :, None], sign[d][:, shift]
        r, col = np.empty((2, 4) + c.shape, dtype=np.intp)
        v = np.empty((4,) + c.shape)
        r[0] = r[3] = S_rows
        r[1] = r[2] = S_rows + n_pairs
        col[0] = col[2] = S_cols
        col[1] = col[3] = S_cols + n_pairs
        im, re = h.imag[e, c], h.real[e, c]
        v[0] = im
        np.negative(im, out=v[1])
        v[1] *= sign_de             # to the stored A_(min, max) rows
        v[1] *= -sign_dc            # and columns, A_cd = -sign[d, c] * A_(min, max)
        np.multiply(re, sign_de, out=v[2])
        np.multiply(re, -sign_dc, out=v[3])
        yield r, col, v
    g = np.sqrt(2.0) * h[others, sites[:, None]]
    site = np.broadcast_to(sites[:, None], S_de.shape).ravel()
    S_de, sign, A = S_de.ravel(), sign.ravel(), S + n_pairs
    energies = h.diagonal().real
    yield (np.concatenate([S_de, site, S_de + n_pairs, site, A, S, S, A]),
           np.concatenate([site, S_de, site, S_de + n_pairs, S, A, S, A]),
           np.concatenate([g.imag.ravel(), -g.imag.ravel(), sign * g.real.ravel(),
                           -sign * g.real.ravel(), energies[cols] - energies[rows],
                           energies[rows] - energies[cols], ops.D[rows, cols],
                           ops.D[rows, cols]]))


def _labels(ops: LatticeOperators) -> np.ndarray:
    """A label per coordinate of M: |a><a|, S_ab, A_ab get {comp(a), comp(b)}, A apart if exact.

    comp are the components of H_tilde's nonzero off-diagonal graph, as each entry of M joins
    two coordinates through one H_tilde[e, c]; A's links to |a><a| and S vanish in the
    "transpose_sector", and in the "commuting" case where E_a == E_b.  A label is a union of
    M's components (one on the suite's models): M splits further where H_tilde or E_a - E_b
    vanish by accident, as with a diagonal P and a sparse H, and then a block is larger.
    """
    N, h = ops.n_sites, ops.H_tilde
    comp = np.empty(N, dtype=np.intp)
    for k, members in enumerate(_components((h != 0) & ~np.eye(N, dtype=bool))):
        comp[members] = k
    rows, cols = np.triu_indices(N, 1)
    pair = np.minimum(comp[rows], comp[cols]) * N + np.maximum(comp[rows], comp[cols])
    same = h.real[rows, rows] == h.real[cols, cols]
    apart = same if ops.structure == "commuting" else ops.structure == "transpose_sector"
    return np.concatenate([comp * (N + 1), pair, pair + N * N * apart])


def _groups(label: np.ndarray) -> list[np.ndarray]:
    """Sorted index sets of the coordinates sharing a label, in order of their first index."""
    order = np.argsort(label, kind="stable")
    return sorted(np.split(order, np.flatnonzero(np.diff(label[order])) + 1), key=lambda g: g[0])


def _generator_blocks(ops: LatticeOperators, cap: int = SPECTRUM_CAP):
    """The diagonal blocks of the real generator M and their (idx, stack) pairs, without M.

    The blocks, sorted index sets in order of their first index, are the coordinates of one
    :func:`_labels` label, known before anything is filled.  The stacks batch equal-size
    blocks, largest first (:func:`_stacked`), stack[i] = M[idx[i]][:, idx[i]], filled from
    :func:`_generator_entries` in one pass.  With a mirror, each label merges with its image
    under :func:`_mirror_pairs` and splits into even (K, and a fixed coordinate of sign +1)
    and odd sectors, whose stacks are allocated first; then each merged block in turn is
    filled, rotated and copied in (:func:`_rotated_sectors`).  Raises ParameterError before
    allocating if N^2 exceeds ``cap``, NumericalFailure if a nonzero entry joins two blocks.
    """
    _check_cap(ops.n_sites, cap)
    n = ops.n_sites**2
    label = _labels(ops)
    if ops.mirror is None:
        blocks = _groups(label)
        return blocks, _filled(n, blocks, _generator_entries(ops))
    sigma, eps = pairs = _mirror_pairs(ops)
    image = np.empty(label.max() + 1, dtype=np.intp)
    image[label] = label[sigma]
    if not np.array_equal(image[label], label[sigma]):
        raise NumericalFailure("the mirror maps one block of the generator onto two")
    label = np.minimum(label, image[label])
    odd = np.where(sigma == np.arange(n), eps < 0, sigma < np.arange(n))   # J = sigma[K] > K
    blocks = _groups(2 * label + odd)
    stacks = _stacked(blocks)[0]
    slots = {b[0]: stack[i] for idx, stack in stacks for i, b in enumerate(idx)}
    for group in _groups(label):
        _rotated_sectors(n, group, odd[group], pairs, _generator_entries(ops), slots)
    return blocks, stacks


def _rotated_sectors(n: int, group: np.ndarray, odd: np.ndarray, pairs, entries, slots) -> None:
    """Fill M's merged block ``group``, rotate it to the sectors and copy them to ``slots``.

    Rows, then columns, by :func:`_to_sectors`: the arithmetic per entry of
    all of M, so the zeros between sectors stay exact; a nonzero one raises
    NumericalFailure.  A cache-sized band of columns at a time, so nothing
    block-sized but the block is held.
    """
    m = _filled(n, [group], entries)[0][1][0]   # column-major
    inside = np.searchsorted(group, pairs[0][group]), pairs[1][group]
    band = max(1, _CHUNK // group.size)
    for lo in range(0, group.size, band):
        _to_sectors(m[:, lo:lo + band], inside)
    _to_sectors(m.T, inside)
    for part in (np.flatnonzero(~odd), np.flatnonzero(odd)):
        for lo in range(0, part.size, band):
            columns = m[:, part[lo:lo + band]]
            if columns[odd != odd[part[0]]].any():
                raise NumericalFailure("an entry of the rotated generator joins two mirror sectors")
            slots[group[part[0]]][:, lo:lo + band] = columns[part]


def liouvillian_eigenvalues(ops: LatticeOperators, cap: int = SPECTRUM_CAP) -> np.ndarray:
    """Full generator spectrum from real eigensolves, sorted as :func:`liouvillian_spectrum`.

    One real eigenvalue-only solve per diagonal block of the real generator
    (:func:`_generator_blocks`, :func:`_block_eigenvalues`), so the
    eigenvalues come in exact complex-conjugate pairs.

    Raises
    ------
    ParameterError
        If N^2 exceeds ``cap``; checked before anything is allocated.
    NumericalFailure
        On eigensolver non-convergence.
    """
    return _blocked_eigenvalues(ops, cap)[0]


def _blocked_eigenvalues(ops: LatticeOperators, cap: int = SPECTRUM_CAP):
    """:func:`liouvillian_eigenvalues` and the generator's block sizes."""
    blocks, stacks = _generator_blocks(ops, cap)
    return _block_eigenvalues(stacks), [b.size for b in blocks]


def _hermitian_coords(ops: LatticeOperators, X: np.ndarray) -> np.ndarray:
    """Coordinates tr(B_k X) in the basis of :func:`_generator_entries`.

    With Y = V^dagger X V they are diag Y, (Y_ab + Y_ba)/sqrt2 and
    i(Y_ba - Y_ab)/sqrt2, rotated to the mirror sectors when there is a
    mirror: complex-linear, isometric, and real for Hermitian X.
    """
    Y = ops.V.conj().T @ X @ ops.V
    rows, cols = np.triu_indices(ops.n_sites, 1)
    upper, lower = Y[rows, cols], Y[cols, rows]
    x = np.concatenate([Y.diagonal(), (upper + lower) / np.sqrt(2.0),
                        1j * (lower - upper) / np.sqrt(2.0)])
    return x if ops.mirror is None else _to_sectors(x, _mirror_pairs(ops))


def _from_hermitian_coords(ops: LatticeOperators, x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_hermitian_coords`: sum_k x_k B_k in the site basis."""
    N, V = ops.n_sites, ops.V
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

    ``stacks`` are (idx, stack) pairs of :func:`_generator_blocks` covering the
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
    the spectrum from one eigenvalue-only solve per block
    (:func:`_block_eigenvalues`).  The kernel basis follows the blocks, so a
    kernel spread over many blocks has a canonical basis: for the commuting
    case the projectors |v_a><v_a| on P's eigenvectors.
    """
    blocks, stacks = _generator_blocks(ops)
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
