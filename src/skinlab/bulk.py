"""Edge-free relaxation dynamics solved exactly in momentum space.

In the translation-invariant setting the density matrix in the Bloch basis
evolves by a pure multiplier,

    rho(k, k', t) = rho(k, k', 0) * exp[i G(k, k') t],
    G(k, k') = H(k') - H(k) + (i/2) [P(k') - P(k)]^2,

so momentum populations |rho(k, k)| are conserved and every coherence decays
at the rate set by the jump-amplitude mismatch.  The site-basis density
matrix for an excitation launched at site 0 is the double Fourier transform
of the multiplier, evaluated here by the trapezoidal rule on an even
M-point grid (spectrally accurate for periodic integrands) as a matrix
congruence F E F^dagger.  The multiplier factors as
E_jl = e^{-i h_j t} G_jl e^{i h_l t} with the real symmetric
G_jl = exp[-t (p_j - p_l)^2 / 2], so F E F^dagger = X G X^dagger with
X_nj = exp[i (k_j n - h_j t)]: one real exponential and one real GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .band import BandModel, momentum_grid
from .errors import ParameterError, UnderflowError

HERM_TOL = 1e-12
TRACE_TOL = 1e-10
DEFAULT_GRID = 512
UNDERFLOW_FLOOR = 1e-14

DIAGONAL = "diagonal"
ANTIDIAGONAL = "antidiagonal"


@dataclass(frozen=True)
class BulkState:
    """Bloch-basis density matrix rho(k_j, k_l) on an even uniform grid.

    Uses the continuum normalization (2 pi / M) sum_j rho[j, j] = 1.
    """

    n_k: int
    rho_kk: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        if self.n_k < 2 or self.n_k % 2:
            raise ParameterError(f"momentum grid size must be even and >= 2, got {self.n_k}")
        rho = np.asarray(self.rho_kk, dtype=complex)
        object.__setattr__(self, "rho_kk", rho)
        if rho.shape != (self.n_k, self.n_k):
            raise ParameterError(f"rho_kk shape {rho.shape} does not match n_k = {self.n_k}")
        if float(np.abs(rho - rho.conj().T).max()) > HERM_TOL:
            raise ParameterError("rho_kk is not Hermitian")
        tr = (2.0 * np.pi / self.n_k) * np.trace(rho)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ParameterError(f"continuum trace {tr} differs from 1")


def localized_bulk_state(n_k: int) -> BulkState:
    """Bloch-basis state of a particle sitting at site 0: rho(k, k') = 1/(2 pi)."""
    rho = np.full((n_k, n_k), 1.0 / (2.0 * np.pi), dtype=complex)
    return BulkState(n_k, rho, 0.0)


def _grid_dispersion(model: BandModel, n_k: int):
    k = momentum_grid(n_k)
    return k, np.real(model.h(k)), np.real(model.p(k))


def _multiplier(model: BandModel, n_k: int, t: float) -> np.ndarray:
    """exp[i G(k_j, k_l) t] with rows indexed by k and columns by k'."""
    _, h, p = _grid_dispersion(model, n_k)
    dh = h[None, :] - h[:, None]
    dp = p[None, :] - p[:, None]
    return np.exp(1j * dh * t - 0.5 * dp**2 * t)


def bulk_evolve(model: BandModel, rho0: BulkState, t: float) -> BulkState:
    """Evolve a Bloch-basis state for a further time t >= 0."""
    if t < 0:
        raise ParameterError(f"propagation time must be >= 0, got {t}")
    rho = rho0.rho_kk * _multiplier(model, rho0.n_k, t)
    return BulkState(rho0.n_k, rho, rho0.time + t)


def _check_horizon(model: BandModel, n_k: int, t: float):
    """Keep the ballistic light cone inside half the effective lattice."""
    v_max = model.max_group_velocity()
    if v_max > 0 and t > n_k / (4.0 * v_max):
        raise ParameterError(
            f"t = {t} exceeds the wrap-around horizon {n_k / (4.0 * v_max):.3g} "
            f"for grid size {n_k}"
        )


@dataclass(frozen=True)
class WannierDensity:
    """Site-basis density matrix on a window of sites, from the bulk solution."""

    sites: np.ndarray
    rho: np.ndarray
    time: float


def bulk_wannier_density(
    model: BandModel,
    n_k: int,
    t: float,
    window: tuple[int, int] | None = None,
) -> WannierDensity:
    """Site-basis density matrix at time t for the site-0 initial excitation.

    Parameters
    ----------
    window : (lo, hi), optional
        Inclusive site range to return; defaults to the full effective
        lattice [-n_k/2, n_k/2).  Must stay inside that range.
    """
    if t < 0:
        raise ParameterError(f"time must be >= 0, got {t}")
    if n_k < 2 or n_k % 2:
        raise ParameterError(f"momentum grid size must be even and >= 2, got {n_k}")
    _check_horizon(model, n_k, t)
    if window is None:
        sites = np.arange(-n_k // 2, n_k // 2)
    else:
        lo, hi = int(window[0]), int(window[1])
        if lo > hi or lo < -n_k // 2 or hi >= n_k // 2:
            raise ParameterError(
                f"window {window} outside the effective lattice [-{n_k // 2}, {n_k // 2})"
            )
        sites = np.arange(lo, hi + 1)
    rho = _fourier_congruence(model, n_k, t, sites, sites)
    rho = 0.5 * (rho + rho.conj().T)
    return WannierDensity(sites, rho, t)


def wannier_element(model: BandModel, n_k: int, t: float, n: int, m: int) -> complex:
    """Single density-matrix element rho_{n,m}(t) of the bulk solution."""
    _check_horizon(model, n_k, t)
    return complex(_fourier_congruence(model, n_k, t, [n], [m])[0, 0])


def _fourier_congruence(model: BandModel, n_k: int, t: float, left_sites, right_sites):
    """F_L E F_R^dagger / n_k^2 as X_L G X_R^dagger / n_k^2 (see the module docstring).

    G multiplies the interleaved (Re, Im) columns of X_R^dagger in one real GEMM.  h is
    taken from the middle of its range, a global phase that keeps |h| t, and with it the
    rounding of h t against k n, as small as it can be.
    """
    k, h, p = _grid_dispersion(model, n_k)
    h = h - 0.5 * (h.max() + h.min())
    G = np.subtract.outer(p, p)
    G *= G
    G *= -0.5 * t
    np.exp(G, out=G)
    x_right = np.exp(-1j * (np.multiply.outer(k, right_sites) - (h * t)[:, None]))
    if left_sites is right_sites:   # exp of the negated real argument: the conjugate, bit for bit
        x_left = x_right.conj().T
    else:
        x_left = np.exp(1j * (np.multiply.outer(left_sites, k) - h * t))
    return x_left @ (G @ x_right.view(float)).view(complex) / n_k**2


def _linear_fit(x: np.ndarray, y: np.ndarray):
    """Least-squares line y = a x + b; returns (a, b, rms_residual, a_stderr)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    xc = x - x.mean()
    sxx = float(xc @ xc)
    a = float(xc @ (y - y.mean())) / sxx
    b = float(y.mean() - a * x.mean())
    resid = y - (a * x + b)
    rms = float(np.sqrt(np.mean(resid**2)))
    stderr = float(np.sqrt((resid @ resid) / (n - 2) / sxx)) if n > 2 else float("nan")
    return a, b, rms, stderr


@dataclass(frozen=True)
class DecayFit:
    """Competing power-law and exponential fits to |rho| samples along a ray.

    The ray follows n = round(velocity * t) with m = n (populations,
    "diagonal") or m = -n (coherences, "antidiagonal").  Power law fits
    log|rho| against log t; exponential fits log|rho| against t; the fit with
    the smaller residual describes the asymptotics better.
    """

    line: str
    velocity: float
    times: np.ndarray
    values: np.ndarray
    fit_times: np.ndarray
    power_exponent: float
    power_stderr: float
    power_residual: float
    exp_rate: float
    exp_stderr: float
    exp_residual: float


def decay_exponents(
    model: BandModel,
    times,
    line: str,
    velocity: float,
    n_k: int = DEFAULT_GRID,
) -> DecayFit:
    """Fit the asymptotic decay of |rho_{n, +-n}(t)| along a ballistic ray.

    Both fits use only the latest half of the supplied times, where the
    asymptotic behavior holds.

    Raises
    ------
    ParameterError
        For unsorted/short time lists or an unknown line choice.
    UnderflowError
        If every sampled value is below 1e-14.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 3 or np.any(np.diff(times) <= 0):
        raise ParameterError("need at least 3 strictly increasing times")
    if np.any(times <= 0):
        raise ParameterError("decay fits need strictly positive times")
    if line not in (DIAGONAL, ANTIDIAGONAL):
        raise ParameterError(f"line must be '{DIAGONAL}' or '{ANTIDIAGONAL}', got {line!r}")
    values = np.empty(times.size)
    for i, t in enumerate(times):
        n = int(round(velocity * t))
        m = n if line == DIAGONAL else -n
        values[i] = abs(wannier_element(model, n_k, t, n, m))
    if np.all(values < UNDERFLOW_FLOOR):
        raise UnderflowError(f"all sampled values below {UNDERFLOW_FLOOR}")
    start = times.size // 2
    fit_t, fit_v = times[start:], values[start:]
    if np.any(fit_v < UNDERFLOW_FLOOR):
        raise UnderflowError("sampled values in the fit window underflow")
    log_v = np.log(fit_v)
    a_pow, _, res_pow, err_pow = _linear_fit(np.log(fit_t), log_v)
    a_exp, _, res_exp, err_exp = _linear_fit(fit_t, log_v)
    return DecayFit(
        line=line,
        velocity=velocity,
        times=times,
        values=values,
        fit_times=fit_t,
        power_exponent=a_pow,
        power_stderr=err_pow,
        power_residual=res_pow,
        exp_rate=a_exp,
        exp_stderr=err_exp,
        exp_residual=res_exp,
    )
