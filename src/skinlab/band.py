"""Translation-invariant band data of a dissipative one-band lattice.

A model is a pair of finite Fourier-coefficient maps: hopping amplitudes
``h_m`` defining the dispersion H(k) and jump amplitudes ``p_m`` defining the
collective dissipation amplitude P(k).

Conventions (shared by every module in this package)
-----------------------------------------------------
A coefficient map ``{m: c_m}`` defines the Bloch function

    X(k) = sum_m c_m * exp(-i k m),        k in [-pi, pi)

and the Wannier-basis matrix elements ``<n|X|n'> = c_{n-n'}``, so that a
plane wave exp(i k n) is an eigenvector of the (infinite) lattice operator
with eigenvalue X(k).  The mirror convention (conjugate off-diagonal
coefficients) describes the spatially reflected lattice; only one of the two
is used here, consistently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

COEFF_TOL = 1e-12        # Hermiticity / realness checks on coefficient maps
P_NONNEG_TOL = 1e-12     # allowed negative excursion of P(k) at construction
_P_CHECK_POINTS = 1024   # sampling grid for the non-negativity check

Coefficients = dict[int, complex]


def momentum_grid(n_k: int) -> np.ndarray:
    """Uniform Brillouin-zone grid k_j = -pi + 2*pi*j/n_k, j = 0..n_k-1."""
    if n_k < 2:
        raise ParameterError(f"momentum grid needs n_k >= 2, got {n_k}")
    return -np.pi + 2.0 * np.pi * np.arange(n_k) / n_k


def eval_coefficients(coeffs: Coefficients, k) -> np.ndarray | complex:
    """Evaluate sum_m c_m exp(-i k m) at scalar or array k."""
    k_arr = np.asarray(k, dtype=float)
    out = np.zeros(k_arr.shape, dtype=complex)
    for m in sorted(coeffs):
        out = out + coeffs[m] * np.exp(-1j * m * k_arr)
    return out if k_arr.ndim else complex(out)


@dataclass(frozen=True)
class BandModel:
    """Fourier data H(k), P(k) of a one-band lattice with collective dissipation.

    Parameters
    ----------
    h_coeffs : dict[int, complex]
        Hopping amplitudes; H(k) = sum_m h_m exp(-ikm).  Must be real, even in
        m (time-reversal symmetric) and Hermitian (h_{-m} = conj(h_m)).
    p_coeffs : dict[int, complex]
        Jump amplitudes; P(k) = sum_m p_m exp(-ikm).  Must satisfy
        p_{-m} = conj(p_m) (real P(k)) and P(k) >= 0 on the Brillouin zone,
        checked on a dense grid at construction.
    label : str
        Free-form model name.
    """

    h_coeffs: Coefficients
    p_coeffs: Coefficients
    label: str = ""

    def __post_init__(self):
        h = {int(m): complex(c) for m, c in self.h_coeffs.items()}
        p = {int(m): complex(c) for m, c in self.p_coeffs.items()}
        object.__setattr__(self, "h_coeffs", h)
        object.__setattr__(self, "p_coeffs", p)
        if not np.isfinite([*h.values(), *p.values()]).all():
            raise ParameterError("coefficients must be finite")
        for m, c in h.items():
            if abs(c.imag) > COEFF_TOL:
                raise ParameterError(f"h_coeffs[{m}] = {c} is not real (time-reversal broken)")
            if abs(h.get(-m, 0.0) - np.conj(c)) > COEFF_TOL:
                raise ParameterError(f"h_coeffs violates Hermiticity at m = {m}")
        for m, c in p.items():
            if abs(p.get(-m, 0.0) - np.conj(c)) > COEFF_TOL:
                raise ParameterError(f"p_coeffs[{m}] has no conjugate partner: P(k) not real")
        p_vals = np.real(eval_coefficients(p, momentum_grid(_P_CHECK_POINTS)))
        if p_vals.size and p_vals.min() < -P_NONNEG_TOL:
            raise ParameterError(
                f"P(k) reaches {p_vals.min():.3e} < 0; jump amplitude must be non-negative"
            )

    def h(self, k):
        """Dispersion H(k); imaginary part is round-off for a valid model."""
        return eval_coefficients(self.h_coeffs, k)

    def p(self, k):
        """Jump amplitude P(k); imaginary part is round-off for a valid model."""
        return eval_coefficients(self.p_coeffs, k)

    def max_group_velocity(self) -> float:
        """Upper bound sum_m |m||h_m| on |H'(k)| (ballistic spreading speed)."""
        return float(sum(abs(m) * abs(c) for m, c in self.h_coeffs.items()))

    def to_json(self) -> dict:
        """JSON object {"h": [[m, re, im], ...], "p": [[m, re, im], ...], "label": str}."""
        pack = lambda d: [[m, d[m].real, d[m].imag] for m in sorted(d)]
        return {"h": pack(self.h_coeffs), "p": pack(self.p_coeffs), "label": self.label}

    @classmethod
    def from_json(cls, obj: dict) -> "BandModel":
        unpack = lambda rows: {int(m): complex(re, im) for m, re, im in rows}
        return cls(unpack(obj["h"]), unpack(obj["p"]), str(obj.get("label", "")))


def make_cosine_model(J: float, T: float, R: float, phi: float) -> BandModel:
    """Cosine-band lattice with a phase-shifted cosine jump amplitude.

    Produces H(k) = 2J cos k + 2T cos 2k and P(k) = R [1 + cos(k + phi)].
    The coefficient maps are h_{+-1} = J, h_{+-2} = T, p_0 = R and
    p_{+-1} = (R/2) exp(-+ i phi).

    Raises
    ------
    ParameterError
        If R < 0 (P(k) would go negative).
    """
    if R < 0:
        raise ParameterError(f"R = {R} < 0: jump amplitude P(k) would go negative")
    h: Coefficients = {}
    if J != 0:
        h[1] = h[-1] = complex(J)
    if T != 0:
        h[2] = h[-2] = complex(T)
    p: Coefficients = {}
    if R != 0:
        p[0] = complex(R)
        p[1] = 0.5 * R * np.exp(-1j * phi)
        p[-1] = 0.5 * R * np.exp(+1j * phi)
    return BandModel(h, p, label=f"cosine(J={J}, T={T}, R={R}, phi={phi})")


def eval_dispersion(model: BandModel, k: float) -> tuple[complex, complex]:
    """Evaluate (H(k), P(k)) at a single momentum."""
    return model.h(k), model.p(k)


def pbc_spectrum(model: BandModel, n_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Periodic-boundary energy curve E(k) = H(k) - (i/2) P(k)^2.

    Returns
    -------
    k : ndarray of shape (n_k,)
        The uniform momentum grid.
    energies : complex ndarray of shape (n_k,)
        E(k_j); the imaginary part is <= 0 everywhere (purely dissipative).
    """
    k = momentum_grid(n_k)
    h = np.real(model.h(k))
    p = np.real(model.p(k))
    return k, h - 0.5j * p**2


def is_p_symmetric(model: BandModel) -> bool:
    """Whether P(-k) = P(k), i.e. p_m = p_{-m} for every range m.

    This is the symmetry that decides between boundary-insensitive spectra
    (True) and edge condensation of the open-chain eigenmodes (False).
    """
    p = model.p_coeffs
    gap = max((abs(p[m] - p.get(-m, 0.0)) for m in p), default=0.0)
    return gap < 1e-12
