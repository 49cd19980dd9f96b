import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment


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
