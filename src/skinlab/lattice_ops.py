"""Finite open-boundary lattice operators and their spectral diagnostics.

Builds the dense Wannier-basis matrices H, P, P^2 and H_eff = H - (i/2) P^2
for a band model truncated to N sites, plus the asymmetric-hopping chain with
its long-range jump operator.  Dense storage throughout; N is a few hundred
at most by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg

from .band import BandModel, Coefficients, pbc_spectrum
from .errors import NotPSDError, NumericalFailure, ParameterError

HERMITICITY_TOL = 1e-12
P2_CONSISTENCY_TOL = 1e-10
PSD_CLAMP_TOL = 1e-10          # eigenvalues of P^2 in [-tol, 0) clamp to zero
SPECTRUM_RESIDUAL_TOL = 1e-8   # relative eigenpair residual bound


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
    """

    n_sites: int
    H: np.ndarray
    P: np.ndarray
    P2: np.ndarray
    H_eff: np.ndarray
    construction: Construction
    p: np.ndarray = field(init=False, repr=False, compare=False)
    V: np.ndarray = field(init=False, repr=False, compare=False)
    H_tilde: np.ndarray = field(init=False, repr=False, compare=False)
    D: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("H", "P", "P2"):
            M = getattr(self, name)
            if _maxabs(M - M.conj().T) > HERMITICITY_TOL:
                raise ParameterError(f"{name} is not Hermitian to {HERMITICITY_TOL}")
        if _maxabs(self.P @ self.P - self.P2) > P2_CONSISTENCY_TOL * max(1.0, _maxabs(self.P2)):
            raise ParameterError("P2 does not match P @ P")
        p, V = np.linalg.eigh(self.P)
        if p[0] < -PSD_CLAMP_TOL:
            raise NotPSDError(f"P has eigenvalue {p[0]:.3e} < 0", min_eigenvalue=float(p[0]))
        im_max = float(np.linalg.eigvals(self.H_eff).imag.max())
        if im_max > 1e-10:
            raise ParameterError(f"H_eff has eigenvalue with Im = {im_max:.3e} > 0")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "H_tilde", V.conj().T @ self.H @ V)
        object.__setattr__(self, "D", -0.5 * (p[:, None] - p[None, :]) ** 2)


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


def toeplitz_from_coefficients(coeffs: Coefficients, n_sites: int) -> np.ndarray:
    """Dense Toeplitz matrix X_{n,n'} = c_{n-n'} on n_sites sites."""
    M = np.zeros((n_sites, n_sites), dtype=complex)
    for m in sorted(coeffs):
        if abs(m) >= n_sites:
            raise ParameterError(
                f"coefficient range |m| = {abs(m)} does not fit on {n_sites} sites"
            )
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
        P = sqrt_psd(P2)
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
    P = sqrt_psd(P2)
    H_eff = H - 0.5j * P2
    return LatticeOperators(n_sites, H, P, P2, H_eff, Construction.TRUNCATE_P2_THEN_SQRT)


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
        w, V = scipy.linalg.eig(ops.H_eff)
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
