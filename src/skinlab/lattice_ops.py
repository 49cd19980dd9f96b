"""Finite open-boundary lattice operators and their spectral diagnostics.

Builds the dense Wannier-basis matrices H, P, P^2 and H_eff = H - (i/2) P^2
for a band model truncated to N sites, plus the asymmetric-hopping chain with
its long-range jump operator.  Dense storage throughout; N is a few hundred
at most by design.

The spectra use numpy's LAPACK alone.  Inside a run its OpenBLAS is pinned to
one thread (:func:`skinlab._threads.pinned`), so the eigenvectors, and the
Spectra outputs, keep their bytes at any BLAS pool size.  They still depend
on the LAPACK build where the skin effect is strong: at N = 50, phi = pi/2
the eigenvalue condition number is about 2.5e10.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from enum import Enum

import numpy as np

from .band import BandModel, Coefficients, pbc_spectrum
from .errors import NotPSDError, NumericalFailure, ParameterError

HERMITICITY_TOL = 1e-12
P2_CONSISTENCY_TOL = 1e-10
PSD_CLAMP_TOL = 1e-10          # eigenvalues of P^2 in [-tol, 0) clamp to zero
SPECTRUM_RESIDUAL_TOL = 1e-8   # relative eigenpair residual bound
SECTOR_TOL = 1e-12             # relative size of the parts the transpose gauge drops
COMMUTING_TOL = 1e-12          # relative size of the off-diagonal H_tilde the commuting case drops


class Construction(Enum):
    """How the finite jump operator is obtained from the band data.

    TRUNCATE_P keeps the jump operator local (Toeplitz truncation of the
    p-coefficients); it preserves the commuting Jacobi structure of the
    nearest-neighbour symmetric models.  TRUNCATE_P2_THEN_SQRT truncates the
    coefficients of P(k)^2 instead and takes the matrix square root, which is
    the construction forced on models whose P(k) is not a finite Fourier
    series (asymmetric-hopping chain).
    """

    TRUNCATE_P = "TruncateP"
    TRUNCATE_P2_THEN_SQRT = "TruncateP2ThenSqrt"


@dataclass(frozen=True)
class LatticeOperators:
    """Dense N-site operators of a purely dissipative open chain.

    Invariants, enforced at construction: H, P, P2 Hermitian; P2 = P @ P;
    P positive semidefinite; every eigenvalue of H_eff has Im <= 0 (up to
    round-off tolerances).

    Construction diagonalizes P = V diag(p) V^dagger once and stores ``p``,
    ``V``, ``H_tilde`` = V^dagger H V and ``D``, D_ab = -(p_a - p_b)^2 / 2:
    in that basis the generator is rho -> -i[H_tilde, rho] + D * rho.
    ``structure`` names what the basis makes exact (see :func:`_jump_eigenbasis`):
    "transpose_sector" when H_tilde - tr H / N is purely imaginary, "commuting"
    when H_tilde is diagonal, "none" otherwise.  ``mirror`` holds the signs of
    the weak symmetry P -> c - P of a non-commuting model, or None; with it V,
    H_tilde and D are made exactly mirror-symmetric (see :func:`_find_mirror`).
    ``eigenbasis`` lets a builder that already diagonalized P pass
    (p, V, H_tilde, structure) on.
    """

    n_sites: int
    H: np.ndarray
    P: np.ndarray
    P2: np.ndarray
    H_eff: np.ndarray
    construction: Construction
    eigenbasis: InitVar[tuple | None] = None
    p: np.ndarray = field(init=False, repr=False, compare=False)
    V: np.ndarray = field(init=False, repr=False, compare=False)
    H_tilde: np.ndarray = field(init=False, repr=False, compare=False)
    D: np.ndarray = field(init=False, repr=False, compare=False)
    structure: str = field(init=False, compare=False)
    mirror: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self, eigenbasis):
        for name in ("H", "P", "P2"):
            M = getattr(self, name)
            if _maxabs(M - M.conj().T) > HERMITICITY_TOL:
                raise ParameterError(f"{name} is not Hermitian to {HERMITICITY_TOL}")
        if _maxabs(self.P @ self.P - self.P2) > P2_CONSISTENCY_TOL * max(1.0, _maxabs(self.P2)):
            raise ParameterError("P2 does not match P @ P")
        p, V, H_tilde, structure = eigenbasis or _jump_eigenbasis(self.H, self.P)
        if p[0] < -PSD_CLAMP_TOL:
            raise NotPSDError(f"P has eigenvalue {p[0]:.3e} < 0", min_eigenvalue=float(p[0]))
        im_max = float(np.linalg.eigvals(self.H_eff).imag.max())
        if im_max > 1e-10:
            raise ParameterError(f"H_eff has eigenvalue with Im = {im_max:.3e} > 0")
        # all off-diagonal entries at once: dropping only the small ones of a
        # non-normal generator moves its spectrum far more than they weigh
        off = H_tilde - np.diag(H_tilde.diagonal())
        if _maxabs(off) <= COMMUTING_TOL * max(1.0, _maxabs(H_tilde)):
            H_tilde, structure = np.diag(H_tilde.diagonal().real).astype(complex), "commuting"
        D = -0.5 * (p[:, None] - p[None, :]) ** 2
        mirror = None if structure == "commuting" else _find_mirror(p, V, H_tilde)
        if mirror is not None:      # rephased V, exactly mirror-symmetric H_tilde and D
            mirror, V, H_tilde, D = mirror
        for name, value in (("p", p), ("V", V), ("H_tilde", H_tilde), ("D", D),
                            ("structure", structure), ("mirror", mirror)):
            object.__setattr__(self, name, value)


def _transpose_gauge(H: np.ndarray, X: np.ndarray) -> np.ndarray | None:
    """Unit-modulus g making G^dagger X G real and G^dagger (H - tr H / N) G imaginary, or None.

    G = diag(g).  Each X_ab, or else H_ab, above its tolerance SECTOR_TOL * max(1, max|X|)
    or SECTOR_TOL * max(1, max|H|) fixes arg g_b - arg g_a modulo pi; one pass along the
    spanning forest of the entries largest over their tolerance sets every phase, and
    every entry is then checked: the parts dropped must stay below those tolerances.
    """
    N = H.shape[0]
    Hc = H - (np.trace(H).real / N) * np.eye(N)
    tol_x, tol_h = (SECTOR_TOL * max(1.0, _maxabs(M)) for M in (X, H))
    size_x, size_h = np.abs(X) / tol_x, np.abs(Hc) / tol_h
    on_x = size_x > 1.0
    step = np.where(on_x, -np.angle(X), 0.5 * np.pi - np.angle(Hc))
    g = np.exp(1j * _forest_phases(np.where(on_x, size_x, size_h * (size_h > 1.0)), step))
    if _maxabs(_gauged(X, g).imag) > tol_x or _maxabs(_gauged(Hc, g).real) > tol_h:
        return None
    return g


def _forest_phases(weight: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Angles theta with theta_b = theta_a + step[a, b] along a maximum-weight spanning forest.

    ``weight`` is symmetric, zero where a and b are not linked.  Prim's algorithm roots each
    tree at its smallest index, angle 0, and adds the outside index with the heaviest link
    into the tree (the first of equals), so no phase comes through a small entry, whose
    angle carries the most round-off, where a heavier path reaches it.
    """
    n = weight.shape[0]
    theta, best, parent = np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.intp)
    for _ in range(n):
        b = int(np.argmax(best))                # best 0: nothing links in, b roots a tree
        if best[b] > 0:
            theta[b] = np.mod(theta[parent[b]] + step[parent[b], b], 2.0 * np.pi)
        best[b] = -1.0                          # in the tree
        closer = (weight[b] > best) & (best >= 0)
        best[closer], parent[closer] = weight[b, closer], b
    return theta


def _find_mirror(p: np.ndarray, V: np.ndarray, H_tilde: np.ndarray):
    """(signs, V, H_tilde, D) of the mirror of P's eigenbasis (p ascending, V, H_tilde), or None.

    The mirror is a unitary W with W H W^dagger = H and W P W^dagger = c - P: the
    dissipator -1/2 [P, [P, rho]] is unchanged under P -> c - P, so rho -> W rho W^dagger
    commutes with L (Buca & Prosen, New J. Phys. 14, 073007 (2012)).  It needs
    non-degenerate p with p_a + p_(N-1-a) = c, and then W e_a = g_a e_(N-1-a).
    W H_tilde W^dagger = H_tilde fixes arg g_b - arg g_a from every nonzero H_tilde_ab, set
    along the maximum-|H_tilde_ab| spanning forest; every entry and W^2 = const are checked
    to SECTOR_TOL, the cheap checks first, so a model without the mirror costs O(N) or
    O(N^2).  V keeps real relative phases (the transpose gauge); otherwise its columns are
    rephased so that g = signs.  H_tilde and D come back exactly mirror-symmetric:
    H_tilde[N-1-a, N-1-b] = signs[a] signs[b] H_tilde[a, b], D[N-1-a, N-1-b] = D[a, b].
    """
    scale_p = SECTOR_TOL * max(1.0, float(np.abs(p).max()))
    if np.diff(p).min() <= scale_p or np.abs(p + p[::-1] - (p[0] + p[-1])).max() > scale_p:
        return None
    tol = SECTOR_TOL * max(1.0, _maxabs(H_tilde))
    flipped = H_tilde[::-1, ::-1]
    if (np.abs(H_tilde.diagonal() - flipped.diagonal()).max() > tol
            or _maxabs(np.abs(H_tilde) - np.abs(flipped)) > tol):
        return None
    weight = np.abs(H_tilde) * (np.abs(H_tilde) > tol)
    g = np.exp(1j * _forest_phases(weight, np.angle(H_tilde) - np.angle(flipped)))
    kappa = g * g[::-1]
    if (_maxabs(_gauged(H_tilde, g.conj()) - flipped) > tol
            or _maxabs(kappa - kappa[0]) > SECTOR_TOL):
        return None
    e = np.ones(p.size)
    if _maxabs(g.imag) > SECTOR_TOL:            # g_0 = 1: complex relative phases
        g = g / np.sqrt(kappa[0])               # W^2 = 1, so g_a g_(N-1-a) = 1
        e = g ** -0.5
        g = e[::-1].conj() * g * e              # the rephased W: a signed reversal
    signs = np.sign(g.real)
    if _maxabs(g - signs) > SECTOR_TOL:
        return None
    h = _gauged(H_tilde, e)
    u = 0.5 * (p - p[::-1])                     # p - c/2, exactly odd under the reversal
    return (signs, V * e, 0.5 * (h + np.outer(signs, signs) * h[::-1, ::-1]),
            -0.5 * (u[:, None] - u[None, :]) ** 2)


def _gauged(M: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g.conj()[:, None] * M * g[None, :]


def _jump_eigenbasis(H: np.ndarray, X: np.ndarray):
    """(w, V, H_tilde, structure) from one eigh of X = V diag(w) V^dagger.

    With a transpose gauge G of (H, X) the eigh is the real one of
    Re(G^dagger X G) = O diag(w) O^T, V = G O, and H_tilde is set to exactly
    i O^T Im(G^dagger (H - c) G) O + c, c = tr H / N (imaginary off the
    diagonal, constant real diagonal).  X may be P or, for a square-root
    construction, P^2: both share the eigenvectors and the gauge.
    """
    g = _transpose_gauge(H, X)
    if g is None:
        w, V = np.linalg.eigh(X)
        return w, V, V.conj().T @ H @ V, "none"
    w, O = np.linalg.eigh(_gauged(X, g).real)
    c = np.trace(H).real / H.shape[0]
    B = O.T @ _gauged(H, g).imag @ O
    H_tilde = 1j * (0.5 * (B - B.T)) + c * np.eye(H.shape[0])
    return w, g[:, None] * O, H_tilde, "transpose_sector"


@dataclass(frozen=True)
class SpectrumReport:
    """Full eigendecomposition of H_eff with per-mode localization data.

    ``eigenvalues`` are sorted by real then imaginary part; the columns of
    ``right_eigenvectors`` follow the same order, have unit 2-norm, and carry
    a fixed gauge (largest-magnitude component real positive).
    ``mean_positions`` holds <n> = sum_n n |v_n|^2 with 1-based site index.
    """

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray
    mean_positions: np.ndarray


def _maxabs(M: np.ndarray) -> float:
    return float(np.abs(M).max()) if M.size else 0.0


def _check_range(harmonics, n_sites: int) -> None:
    """ParameterError unless every harmonic |m| is below n_sites: a Toeplitz truncation needs it."""
    reach = max(map(abs, harmonics), default=0)
    if reach >= n_sites:
        raise ParameterError(f"coefficient range |m| = {reach} does not fit on {n_sites} sites")


def toeplitz_from_coefficients(coeffs: Coefficients, n_sites: int) -> np.ndarray:
    """Dense Toeplitz matrix X_{n,n'} = c_{n-n'} on n_sites sites."""
    _check_range(coeffs, n_sites)
    M = np.zeros((n_sites, n_sites), dtype=complex)
    for m in sorted(coeffs):
        # c_m lives on the (constant) diagonal with row - column = m
        M += coeffs[m] * np.eye(n_sites, k=-m)
    return M


def convolve_coefficients(a: Coefficients, b: Coefficients) -> Coefficients:
    """Coefficient map of the product function, (a*b)_m = sum_j a_j b_{m-j}."""
    out: Coefficients = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            out[ma + mb] = out.get(ma + mb, 0.0) + ca * cb
    return out


def sqrt_psd(M: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in [-1e-10, 0) are treated as truncation round-off and
    clamped to zero; anything below that raises.

    Raises
    ------
    ParameterError
        If M is not Hermitian to 1e-12.
    NotPSDError
        If the smallest eigenvalue is below -1e-10.
    """
    M = np.asarray(M, dtype=complex)
    if _maxabs(M - M.conj().T) > HERMITICITY_TOL:
        raise ParameterError("matrix square root requires a Hermitian input")
    w, V = np.linalg.eigh(M)
    if w.size and w.min() < -PSD_CLAMP_TOL:
        raise NotPSDError(
            f"matrix has eigenvalue {w.min():.3e} below the PSD clamp tolerance",
            min_eigenvalue=float(w.min()),
        )
    w = np.clip(w, 0.0, None)
    S = (V * np.sqrt(w)) @ V.conj().T
    return 0.5 * (S + S.conj().T)


def build_obc(
    model: BandModel,
    n_sites: int,
    construction: Construction = Construction.TRUNCATE_P,
) -> LatticeOperators:
    """Open-boundary operators for a band model on n_sites sites.

    Under TRUNCATE_P both H and P are Toeplitz truncations of their
    coefficient maps and P2 = P @ P.  Under TRUNCATE_P2_THEN_SQRT the
    coefficients of P(k)^2 are truncated instead and P is the PSD matrix
    square root of the result.
    """
    if n_sites < 2:
        raise ParameterError(f"need n_sites >= 2, got {n_sites}")
    construction = Construction(construction)
    H = toeplitz_from_coefficients(model.h_coeffs, n_sites)
    if construction is Construction.TRUNCATE_P:
        P = toeplitz_from_coefficients(model.p_coeffs, n_sites)
        P2 = P @ P
    else:
        p2_coeffs = convolve_coefficients(model.p_coeffs, model.p_coeffs)
        P2 = toeplitz_from_coefficients(p2_coeffs, n_sites)
        return _sqrt_construction(n_sites, H, P2)
    H_eff = H - 0.5j * P2
    return LatticeOperators(n_sites, H, P, P2, H_eff, construction)


def build_hatano_nelson(J1: float, J2: float, n_sites: int) -> LatticeOperators:
    """Asymmetric-hopping chain with on-site loss making it purely dissipative.

    H is tridiagonal with off-diagonal (J1+J2)/2.  P2 is tridiagonal with
    diagonal 2(J2-J1), super-diagonal -i(J2-J1) and sub-diagonal +i(J2-J1),
    and P = sqrt_psd(P2) is long-range.  The resulting H_eff has bulk rows
    (J2, -i(J2-J1), J1): right hopping J1, left hopping J2.
    """
    if not (J2 >= J1 >= 0):
        raise ParameterError(f"need J2 >= J1 >= 0, got J1 = {J1}, J2 = {J2}")
    if n_sites < 2:
        raise ParameterError(f"need n_sites >= 2, got {n_sites}")
    g = J2 - J1
    hop = 0.5 * (J1 + J2)
    H = hop * (np.eye(n_sites, k=1) + np.eye(n_sites, k=-1)).astype(complex)
    P2 = (
        2.0 * g * np.eye(n_sites)
        - 1j * g * np.eye(n_sites, k=1)
        + 1j * g * np.eye(n_sites, k=-1)
    ).astype(complex)
    return _sqrt_construction(n_sites, H, P2)


def _sqrt_construction(n_sites: int, H: np.ndarray, P2: np.ndarray) -> LatticeOperators:
    """Operators with P the PSD square root of P2, from P2's one eigendecomposition.

    P2 = V diag(w) V^dagger gives P = V diag(sqrt w) V^dagger and P's eigenbasis
    at once; eigenvalues in [-1e-10, 0) clamp to zero as in :func:`sqrt_psd`.
    """
    w, V, H_tilde, structure = _jump_eigenbasis(H, P2)
    if w[0] < -PSD_CLAMP_TOL:
        raise NotPSDError(f"P^2 has eigenvalue {w[0]:.3e} below the PSD clamp tolerance",
                          min_eigenvalue=float(w[0]))
    p = np.sqrt(np.clip(w, 0.0, None))
    P = (V * p) @ V.conj().T
    P = 0.5 * (P + P.conj().T)
    return LatticeOperators(n_sites, H, P, P2, H - 0.5j * P2,
                            Construction.TRUNCATE_P2_THEN_SQRT, (p, V, H_tilde, structure))


def hatano_nelson_pbc_dispersion(J1: float, J2: float, k) -> np.ndarray:
    """Bloch energies (J1+J2) cos k - i (J2-J1)(1 + sin k) of the periodic chain."""
    k = np.asarray(k, dtype=float)
    return (J1 + J2) * np.cos(k) - 1j * (J2 - J1) * (1.0 + np.sin(k))


def obc_spectrum(ops: LatticeOperators) -> SpectrumReport:
    """Dense non-Hermitian eigendecomposition of H_eff.

    Raises
    ------
    NumericalFailure
        On eigensolver non-convergence, or when any eigenpair residual
        exceeds 1e-8 * ||H_eff||_2.
    """
    try:
        w, V = np.linalg.eig(ops.H_eff)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
    order = np.lexsort((w.imag, w.real))
    w, V = w[order], V[:, order]
    V = V / np.linalg.norm(V, axis=0, keepdims=True)
    # gauge: largest-magnitude component of each eigenvector real positive
    lead = np.argmax(np.abs(V), axis=0)
    phases = V[lead, np.arange(V.shape[1])]
    V = V * np.where(np.abs(phases) > 0, np.conj(phases) / np.abs(phases), 1.0)

    scale = np.linalg.norm(ops.H_eff, 2)
    residual = _maxabs(ops.H_eff @ V - V * w)
    if residual > SPECTRUM_RESIDUAL_TOL * scale:
        raise NumericalFailure(
            f"eigenpair residual {residual:.3e} exceeds {SPECTRUM_RESIDUAL_TOL:.0e} * ||H_eff||",
            residual=residual,
        )
    sites = np.arange(1, ops.n_sites + 1)
    mean_positions = sites @ (np.abs(V) ** 2)
    return SpectrumReport(w, V, mean_positions)


def skin_localization(report: SpectrumReport, n_sites: int) -> float:
    """Mean eigenvector displacement from the chain center, scaled to [-1, 1].

    Near 0: reflection-symmetric (delocalized) modes; near +-1: modes piled
    up at one edge.
    """
    center = 0.5 * (n_sites + 1)
    half_span = 0.5 * (n_sites - 1)
    return float(np.mean((report.mean_positions - center) / half_span))


def winding_numbers(points: np.ndarray, loop: np.ndarray) -> np.ndarray:
    """Winding number of a closed loop (complex vertices) around each point.

    The loop is closed implicitly between its last and first vertex.  Points
    lying exactly on the loop give undefined results.
    """
    points = np.atleast_1d(np.asarray(points, dtype=complex))
    loop = np.asarray(loop, dtype=complex)
    z0 = loop[:, None] - points[None, :]
    z1 = np.roll(loop, -1, axis=0)[:, None] - points[None, :]
    angles = np.angle(z1 / z0)
    return np.rint(angles.sum(axis=0) / (2.0 * np.pi)).astype(int)


def distance_to_curve(points: np.ndarray, curve: np.ndarray) -> np.ndarray:
    """Euclidean distance from each complex point to a closed polyline."""
    points = np.atleast_1d(np.asarray(points, dtype=complex))
    a = np.asarray(curve, dtype=complex)
    b = np.roll(a, -1)
    seg = b - a
    seg_len2 = np.abs(seg) ** 2
    seg_len2 = np.where(seg_len2 > 0, seg_len2, 1.0)
    rel = points[None, :] - a[:, None]
    t = np.clip((rel * seg.conj()[:, None]).real / seg_len2[:, None], 0.0, 1.0)
    closest = a[:, None] + t * seg[:, None]
    return np.abs(points[None, :] - closest).min(axis=0)


def pbc_loop(model: BandModel, n_k: int = 512) -> np.ndarray:
    """Closed periodic-boundary energy loop as complex vertices."""
    _, energies = pbc_spectrum(model, n_k)
    return energies
