import os
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from skinlab import _threads, build_hatano_nelson, build_liouvillian, build_obc, make_cosine_model, vec
from skinlab.cli import BLAS_THREAD_VARS
from skinlab.lattice_ops import Construction


HOST_LINES = pytest.StashKey[list]()


def pytest_configure(config):
    """CPUs, load average and BLAS thread variables, with a warning when the CPUs are busy.

    Two processes each running multithreaded BLAS on the same cores slow each
    other several-fold, which shows up as slow tests and timings, never as a
    failure.  Read once at start-up for the header and the terminal summary.
    """
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    load = os.getloadavg()
    threads = ", ".join(f"{var}={os.environ.get(var)}" for var in BLAS_THREAD_VARS)
    lines = [f"nproc {nproc}, load average {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}; {threads}"]
    if load[0] >= nproc:
        lines.append(f"WARNING: 1-minute load {load[0]:.2f} >= nproc {nproc}: "
                     "other processes compete for the CPUs, timings will be slow")
    config.stash[HOST_LINES] = lines


def pytest_report_header(config):
    return config.stash[HOST_LINES]


def pytest_terminal_summary(terminalreporter, config):
    """The high-load warning again where the header is not shown (``pytest -q``)."""
    header_shown = terminalreporter.showheader and not terminalreporter.no_header
    if not header_shown:
        for line in config.stash[HOST_LINES][1:]:
            terminalreporter.write_line(line, yellow=True, bold=True)


@contextmanager
def block_workers(workers: int):
    """Inside :func:`skinlab._threads.pinned` as if on ``workers`` + 1 cores.

    Without the OpenBLAS thread control the pin has no workers, whatever the cores.
    """
    with mock.patch.object(_threads, "_cores", lambda: workers + 1), _threads.pinned() as pin:
        yield pin


def assert_multiset_close(a, b, tol):
    """Optimal-assignment multiset comparison, robust to degenerate sorting."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    assert a.size == b.size
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = cost[rows, cols].max()
    assert worst <= tol, f"multiset mismatch: worst pairing distance {worst:.3e} > {tol:.0e}"


def cosine(phi, T=0.0, R=1.0, construction=Construction.TRUNCATE_P):
    return lambda n: build_obc(make_cosine_model(1.0, T, R, phi), n, construction)


# name: (lattice of n sites, structure its jump eigenbasis exposes)
SUITE_MODELS = {
    "cosine_phi0": (cosine(0.0), "commuting"),
    "cosine_phi_quarter_pi": (cosine(np.pi / 4), "none"),
    "cosine_phi_half_pi": (cosine(np.pi / 2), "transpose_sector"),
    "cosine_phi_half_pi_T05": (cosine(np.pi / 2, T=0.5), "none"),
    "cosine_phi_0.7_T03": (cosine(0.7, T=0.3), "none"),
    "hatano_nelson": (lambda n: build_hatano_nelson(1.0, 2.0, n), "transpose_sector"),
    "sqrt_phi_half_pi": (cosine(np.pi / 2, construction=Construction.TRUNCATE_P2_THEN_SQRT),
                         "transpose_sector"),
    "sqrt_phi_0.4": (cosine(0.4, construction=Construction.TRUNCATE_P2_THEN_SQRT), "none"),
    "no_jumps": (cosine(0.0, R=0.0), "transpose_sector"),
}


def master_rhs(ops, rho):
    """Right-hand side of the master equation in matrix form, in the site basis."""
    H, P, P2 = ops.H, ops.P, ops.P2
    return -1j * (H @ rho - rho @ H) - 0.5 * (P2 @ rho + rho @ P2) + P @ rho @ P


def rowwise_csv(columns, rows, header_lines=()):
    """Reference CSV text written row by row: str(int) for integer cells, %.17g for the rest."""
    def cell(x):
        return str(int(x)) if isinstance(x, (int, np.integer)) else "%.17g" % float(x)

    lines = [f"# {line}" for line in header_lines] + [",".join(columns)]
    lines += [",".join(cell(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


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


def sector_rotation(ops):
    """Orthogonal R taking ``hermitian_basis`` coordinates to the mirror's even and odd ones.

    Built from the mirror's action on the basis itself: with W_m the signed
    reversal of ``ops.mirror``, each B_k maps to eps B_sigma(k); column k <
    sigma(k) of R is (e_k + eps e_sigma(k))/sqrt2, column sigma(k) is
    (e_k - eps e_sigma(k))/sqrt2, and a fixed coordinate keeps e_k.
    Identity without a mirror.
    """
    n = ops.n_sites
    if ops.mirror is None:
        return np.eye(n * n)
    W = np.zeros((n, n))
    W[np.arange(n)[::-1], np.arange(n)] = ops.mirror.signs
    U = hermitian_basis(n)
    S = (U.conj().T @ np.kron(W, W) @ U).real      # W real: conj(W) = W
    R = np.zeros((n * n, n * n))
    for k in range(n * n):
        j = int(np.argmax(np.abs(S[:, k])))
        eps = S[j, k]
        if j == k:
            R[k, k] = 1.0
        elif k < j:
            R[[k, j], k] = np.array([1.0, eps]) / np.sqrt(2)
            R[[k, j], j] = np.array([1.0, -eps]) / np.sqrt(2)
    return R


def generator_basis(ops):
    """Columns vec(B_k) in the site basis of the basis the real generator M works in.

    W U R with W = kron(conj(V), V) of the dense route's eigenbasis (the
    mirror's when there is one), U = ``hermitian_basis`` and R = ``sector_rotation``.
    """
    V = ops.V if ops.mirror is None else ops.mirror.V
    return np.kron(V.conj(), V) @ hermitian_basis(ops.n_sites) @ sector_rotation(ops)


def jump_eigenbasis_generator(ops):
    """The dense L in P's eigenbasis, then in the Hermitian basis (and the mirror sectors).

    B^dagger L B with B = ``generator_basis``.
    """
    B = generator_basis(ops)
    return B.conj().T @ build_liouvillian(ops).L @ B


class ZeroStream:
    """Forced all-zero noise, for deterministic-limit checks."""

    def standard_normal(self, size=None):
        return np.zeros(size) if size is not None else 0.0

    def wiener_increments(self, n_steps, dt):
        return np.zeros(n_steps)


def split_evolve_oracle(factors, psi0, dW, return_path=False):
    """Reference Strang-split kernel: each step's phases from one complex exp.

    The same steps as ``skinlab.trajectories._split_evolve`` with the jump
    factor exp(np.outer(-1j p, dW[:, s])) taken per step, on complex
    arguments whose real part is +-0; arguments and returns as there.
    """
    p, V, W_half, W = factors
    psi0 = np.asarray(psi0, dtype=complex)
    c, n_steps = dW.shape
    phi = np.repeat((W_half @ (V.conj().T @ psi0))[:, None], c, axis=1)
    path = [np.repeat(psi0[:, None], c, axis=1)] if return_path else None
    for s in range(n_steps):
        if s:
            phi = W @ phi
        phi *= np.exp(np.outer(-1j * p, dW[:, s]))
        if return_path:
            path.append(V @ (W_half @ phi))
    if return_path:
        return np.stack(path).transpose(0, 2, 1)
    return np.ascontiguousarray((V @ (W_half @ phi)).T)


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
