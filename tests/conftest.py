import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from skinlab import build_liouvillian, vec


def assert_multiset_close(a, b, tol):
    """Optimal-assignment multiset comparison, robust to degenerate sorting."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    assert a.size == b.size
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = cost[rows, cols].max()
    assert worst <= tol, f"multiset mismatch: worst pairing distance {worst:.3e} > {tol:.0e}"


def master_rhs(ops, rho):
    """Right-hand side of the master equation in matrix form, in the site basis."""
    H, P, P2 = ops.H, ops.P, ops.P2
    return -1j * (H @ rho - rho @ H) - 0.5 * (P2 @ rho + rho @ P2) + P @ rho @ P


def hermitian_basis(n):
    """Columns vec(B) of the orthonormal Hermitian basis, in the documented order."""
    basis = [np.diag(np.eye(n)[a]).astype(complex) for a in range(n)]
    pairs = list(zip(*np.triu_indices(n, 1)))
    for phase in (1.0, 1j):
        for a, b in pairs:
            B = np.zeros((n, n), complex)
            B[a, b], B[b, a] = phase / np.sqrt(2), np.conj(phase) / np.sqrt(2)
            basis.append(B)
    return np.stack([vec(B) for B in basis], axis=1)


def jump_eigenbasis_generator(ops):
    """The dense L in P's eigenbasis, then in the Hermitian basis.

    U^dagger W^dagger L W U with W = kron(conj(V), V) and U = ``hermitian_basis``.
    """
    U = hermitian_basis(ops.n_sites)
    W = np.kron(ops.V.conj(), ops.V)
    return U.conj().T @ W.conj().T @ build_liouvillian(ops).L @ W @ U


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
