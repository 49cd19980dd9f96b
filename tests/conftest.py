import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from skinlab import master_rhs


def assert_multiset_close(a, b, tol):
    """Optimal-assignment multiset comparison, robust to degenerate sorting."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    assert a.size == b.size
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = cost[rows, cols].max()
    assert worst <= tol, f"multiset mismatch: worst pairing distance {worst:.3e} > {tol:.0e}"


class ZeroStream:
    """Forced all-zero noise, for deterministic-limit checks."""

    def standard_normal(self, size=None):
        return np.zeros(size) if size is not None else 0.0

    def wiener_increments(self, n_steps, dt):
        return np.zeros(n_steps)


def site_basis_rk4(ops, rho0, t_final, dt):
    """Reference classical RK4 in the site basis: four master_rhs stages per step.

    Same step count rule as ``propagate_master_rk4``; returns the raw matrix.
    """
    rho = np.asarray(rho0, dtype=complex)
    n_steps = max(1, round(t_final / dt)) if t_final > 0 else 0
    h = t_final / n_steps if n_steps else 0.0
    for _ in range(n_steps):
        k1 = master_rhs(ops, rho)
        k2 = master_rhs(ops, rho + 0.5 * h * k1)
        k3 = master_rhs(ops, rho + 0.5 * h * k2)
        k4 = master_rhs(ops, rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def conjugation_symmetric(w, tol=1e-8):
    """Whether the eigenvalue multiset is closed under complex conjugation.

    Groups eigenvalues with real parts within tol (conjugate partners always
    share a group) and checks each group's imaginary parts are symmetric
    about zero.
    """
    w = np.asarray(w, dtype=complex)
    order = np.argsort(w.real)
    w = w[order]
    breaks = np.where(np.diff(w.real) > tol)[0] + 1
    for group in np.split(w, breaks):
        im = np.sort(group.imag)
        if not np.allclose(im, -im[::-1], atol=2 * tol):
            return False
    return True


@pytest.fixture(scope="session")
def cosine_phases():
    return 0.0, np.pi / 4, np.pi / 2
