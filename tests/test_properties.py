"""Property-based checks of the propagators on random small band models.

Models have real, even hopping tables and jump tables whose zeroth
coefficient dominates, so P(k) >= 0 holds by construction.  The settings
are derandomized, so every run draws the same examples.
"""

import dataclasses

import numpy as np
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    ZeroStream,
    assert_multiset_close,
    generator_basis,
    jump_eigenbasis_generator,
    site_basis_rk4,
)
from skinlab import (
    BandModel,
    DensityMatrix,
    MasterPropagator,
    NoiseStream,
    SemiclassicalPropagator,
    build_liouvillian,
    build_obc,
    liouvillian_eigenvalues,
    liouvillian_spectrum,
    make_cosine_model,
    propagate_master_rk4,
    run_trajectory,
    stationary_states,
    trajectory_step,
    vec,
)
from skinlab.evolve import EIG_COND_LIMIT_MASTER, _SpectralExponential, _taylor_master_states
from skinlab.liouvillian import (
    ZERO_TOL_SCALE,
    _diagonal_blocks,
    _from_hermitian_coords,
    _hermitian_basis_generator,
    _hermitian_coords,
)
from skinlab.trajectories import _split_factors

PROFILE = settings(max_examples=8, derandomize=True, deadline=None, database=None)
coefficient = st.floats(-0.5, 0.5, allow_nan=False)


@st.composite
def lattices(draw):
    """Open-chain operators of a random band model with hopping/jump range 2, 3 <= N <= 6."""
    h = {0: draw(coefficient)}
    p = {}
    for m in (1, 2):
        h[m] = h[-m] = draw(coefficient)
        p[m] = complex(draw(coefficient), draw(coefficient))
        p[-m] = p[m].conjugate()
    p[0] = 2.0 * (abs(p[1]) + abs(p[2])) + draw(st.floats(0.0, 0.5))
    return build_obc(BandModel(h, p), draw(st.integers(3, 6)))


@st.composite
def sector_lattices(draw):
    """Random models with a transpose gauge diag(i^n): real h_0, h_1; p_1 imaginary, p_2 real."""
    h = {0: draw(coefficient)}
    h[1] = h[-1] = draw(coefficient)
    p1, p2 = draw(coefficient), draw(coefficient)
    p = {1: 1j * p1, -1: -1j * p1, 2: p2, -2: p2}
    p[0] = 2.0 * (abs(p1) + abs(p2)) + draw(st.floats(0.0, 0.5))
    return build_obc(BandModel(h, p), draw(st.integers(3, 6)))


def assert_state(rho):
    assert np.abs(rho - rho.conj().T).max() <= 1e-12
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-8


@PROFILE
@given(ops=lattices(), data=st.data(), t=st.floats(0.0, 2.0))
def test_master_routes_keep_state_invariants_and_agree(ops, data, t):
    rho0 = DensityMatrix.site(ops.n_sites, data.draw(st.integers(1, ops.n_sites)))
    spectral = MasterPropagator(ops).propagate(rho0, t).rho
    rk4 = propagate_master_rk4(ops, rho0, t, dt=1e-3).rho
    assert_state(spectral)
    assert_state(rk4)
    assert np.abs(spectral - rk4).max() <= 1e-8


@PROFILE
@given(ops=lattices(), seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 2.0))
def test_rk4_in_jump_eigenbasis_matches_site_basis_loop(ops, seed, t):
    rho0 = DensityMatrix.pure(random_state(ops.n_sites, seed))
    fast = propagate_master_rk4(ops, rho0, t, dt=1e-3).rho
    assert np.abs(fast - site_basis_rk4(ops, rho0.rho, t, 1e-3)).max() <= 1e-12


@PROFILE
@given(ops=st.one_of(lattices(), sector_lattices()), seed=st.integers(0, 2**32 - 1),
       t=st.floats(0.0, 3.0))
def test_taylor_route_matches_the_complex_superoperator_exponential(ops, seed, t):
    rho0 = DensityMatrix.pure(random_state(ops.n_sites, seed))
    times = [0.5 * t, t]
    states, record = _taylor_master_states(ops, rho0, times)
    L = build_liouvillian(ops).L
    for tk, state in zip(times, states):
        exact = (scipy.linalg.expm(L * tk) @ vec(rho0.rho)).reshape(rho0.rho.shape, order="F")
        assert_state(state.rho)
        assert np.abs(state.rho - exact).max() <= 1e-12
    assert record["products"] <= sum(m * s for m, s in zip(record["taylor_degree"],
                                                           record["substeps"]))


@PROFILE
@given(ops=lattices())
def test_spectrum_is_conjugation_symmetric(ops):
    w = liouvillian_spectrum(build_liouvillian(ops))
    assert_multiset_close(w, w.conj(), 1e-8)


@PROFILE
@given(ops=lattices(), data=st.data())
def test_semiclassical_norm_never_grows(ops, data):
    psi0 = np.zeros(ops.n_sites, complex)
    psi0[data.draw(st.integers(0, ops.n_sites - 1))] = 1.0
    prop = SemiclassicalPropagator(ops)
    norms = [np.linalg.norm(prop.at(psi0, t)) for t in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)]
    assert abs(norms[0] - 1.0) <= 1e-12
    assert np.all(np.diff(norms) <= 1e-12)


def random_state(n, seed):
    psi = np.random.default_rng(seed).normal(size=(n, 2)) @ np.array([1.0, 1j])
    return psi / np.linalg.norm(psi)


seeds = st.integers(0, 2**32 - 1)
step_sizes = st.floats(1e-4, 0.01)


@PROFILE
@given(ops=lattices(), seed=seeds)
def test_split_trajectory_norm_drift_after_200_steps(ops, seed):
    psi0 = random_state(ops.n_sites, seed)
    psi = run_trajectory(ops, psi0, 1.0, 0.005, NoiseStream(seed, 0))
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


@PROFILE
@given(ops=lattices(), seed=seeds, dt=step_sizes, n_steps=st.integers(1, 40))
def test_split_trajectory_without_noise_is_hamiltonian_evolution(ops, seed, dt, n_steps):
    psi0 = random_state(ops.n_sites, seed)
    psi = run_trajectory(ops, psi0, n_steps * dt, dt, ZeroStream())
    expect = scipy.linalg.expm(-1j * ops.H * (n_steps * dt)) @ psi0
    assert np.abs(psi - expect).max() <= 1e-12


@PROFILE
@given(ops=lattices(), seed=seeds, dt=step_sizes, dW=st.floats(-1.0, 1.0))
def test_split_step_without_hamiltonian_is_the_jump_exponential(ops, seed, dt, dW):
    jump_only = dataclasses.replace(ops, H=np.zeros_like(ops.H), H_eff=-0.5j * ops.P2)
    psi0 = random_state(ops.n_sites, seed)
    psi = trajectory_step(jump_only, psi0, dt, dW)
    expect = scipy.linalg.expm(-1j * ops.P * dW) @ psi0
    assert np.abs(psi - expect).max() <= 1e-12


@PROFILE
@given(ops=lattices())
def test_real_generator_is_antisymmetric_plus_the_dephasing_diagonal(ops):
    N = ops.n_sites
    M = _hermitian_basis_generator(ops)
    assert np.abs(M - jump_eigenbasis_generator(ops)).max() <= 1e-12
    off = M - np.diag(np.diag(M))
    assert np.abs(off + off.T).max() <= 1e-13
    D_pairs = ops.D[np.triu_indices(N, 1)]
    assert np.array_equal(np.diag(M), np.concatenate([np.zeros(N), D_pairs, D_pairs]))


@PROFILE
@given(ops=lattices())
def test_real_spectrum_lies_in_the_closed_left_half_plane(ops):
    # numerical range of antisymmetric plus a nonpositive diagonal
    assert liouvillian_eigenvalues(ops).real.max() <= 1e-12


@PROFILE
@given(ops=lattices(), dt=step_sizes)
def test_split_half_step_is_the_hamiltonian_exponential_in_the_jump_eigenbasis(ops, dt):
    W_half = _split_factors(ops, dt)[2]
    expect = ops.V.conj().T @ scipy.linalg.expm(-0.5j * dt * ops.H) @ ops.V
    assert np.abs(W_half - expect).max() <= 1e-13


def random_matrix(n, seed):
    return np.random.default_rng(seed).normal(size=(n, n, 2)) @ np.array([1.0, 1j])


@PROFILE
@given(ops=lattices(), seed=seeds)
def test_hermitian_coordinates_are_the_documented_isometric_basis_change(ops, seed):
    N = ops.n_sites
    X = random_matrix(N, seed)
    x = _hermitian_coords(ops, X)
    # oracle: B^dagger vec(X), B = the documented basis (with the mirror's sector rotation)
    assert np.abs(x - generator_basis(ops).conj().T @ vec(X)).max() <= 1e-13
    assert np.abs(_from_hermitian_coords(ops, x) - X).max() <= 1e-13
    y = random_matrix(N, seed + 1).ravel()
    assert np.abs(_hermitian_coords(ops, _from_hermitian_coords(ops, y)) - y).max() <= 1e-13
    assert abs(np.linalg.norm(x) - np.linalg.norm(X)) <= 1e-13
    assert np.abs(_hermitian_coords(ops, X + X.conj().T).imag).max() <= 1e-13


@PROFILE
@given(ops=lattices(), seed=seeds, t=st.floats(0.0, 2.0))
def test_master_propagator_is_the_exponential_of_the_complex_generator(ops, seed, t):
    prop = MasterPropagator(ops)
    expm_Lt = scipy.linalg.expm(build_liouvillian(ops).L * t)
    X = random_matrix(ops.n_sites, seed)
    for Y in (X + X.conj().T, X):      # Hermitian and not
        assert np.abs(vec(prop.evolve(Y, t)) - expm_Lt @ vec(Y)).max() <= 1e-10


@PROFILE
@given(ops=lattices())
@example(ops=build_obc(make_cosine_model(1, 0, 1, 0.0), 5))    # kernel of dimension 5
def test_stationary_kernel_projector_matches_the_complex_dense_kernel(ops):
    report = stationary_states(ops)
    Lm = build_liouvillian(ops)
    w, V = liouvillian_spectrum(Lm, eigenvectors=True)
    tol = ZERO_TOL_SCALE * max(1.0, np.abs(Lm.L).max() / ops.n_sites)
    dense = np.linalg.qr(V[:, np.abs(w) <= tol])[0]
    assert report.zero_eigenvalue_multiplicity == dense.shape[1]
    Q = report.kernel_vectors
    assert np.abs(Q @ Q.conj().T - dense @ dense.conj().T).max() <= 1e-10


def dense_kernel_projector(ops):
    """Orthogonal projector onto the zero eigenvectors of the complex L (the dense oracle)."""
    Lm = build_liouvillian(ops)
    w, V = liouvillian_spectrum(Lm, eigenvectors=True)
    tol = ZERO_TOL_SCALE * max(1.0, np.abs(Lm.L).max() / ops.n_sites)
    dense = np.linalg.qr(V[:, np.abs(w) <= tol])[0]
    return dense @ dense.conj().T


@PROFILE
@given(ops=lattices(), seed=seeds)
@example(ops=build_obc(make_cosine_model(1, 0, 1, np.pi / 4), 20), seed=0)   # expm fallback
def test_stationary_projection_matches_the_complex_dense_kernel_projector(ops, seed):
    prop = MasterPropagator(ops)
    X = random_matrix(ops.n_sites, seed)
    rho = X + X.conj().T
    expect = dense_kernel_projector(ops) @ vec(rho)
    assert np.abs(vec(prop.stationary_projection(rho)) - expect).max() <= 1e-10


@PROFILE
@given(ops=lattices(), data=st.data())
def test_expm_fallback_on_the_real_generator_matches_the_spectral_route(ops, data):
    M = _hermitian_basis_generator(ops)
    site = data.draw(st.integers(1, ops.n_sites))
    x = _hermitian_coords(ops, DensityMatrix.site(ops.n_sites, site).rho)
    spectral = _SpectralExponential(M, EIG_COND_LIMIT_MASTER)
    fallback = _SpectralExponential(M, 0.0)
    assert (spectral.method, fallback.method) == ("spectral", "expm")
    for t in (0.0, 0.7, 3.0, 12.0):
        assert np.abs(fallback.apply(x, t) - spectral.apply(x, t)).max() <= 1e-10


@PROFILE
@given(ops=st.one_of(lattices(), sector_lattices()))
def test_generator_is_exactly_zero_between_its_blocks(ops):
    M = _hermitian_basis_generator(ops)
    label = np.empty(M.shape[0], dtype=int)
    for k, block in enumerate(_diagonal_blocks(M)):
        label[block] = k
    assert not M[label[:, None] != label[None, :]].any()


@PROFILE
@given(ops=sector_lattices(), seed=seeds, t=st.floats(0.0, 2.0))
@example(ops=build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 5), seed=1, t=0.7)
def test_real_rk4_of_sector_models_matches_site_basis_loop(ops, seed, t):
    if ops.structure == "transpose_sector" and not ops.H.diagonal().any():
        assert not (-1j * ops.H_tilde).imag.any()      # the real stage product runs
    rho0 = DensityMatrix.pure(random_state(ops.n_sites, seed))
    fast = propagate_master_rk4(ops, rho0, t, dt=1e-3).rho
    assert np.abs(fast - site_basis_rk4(ops, rho0.rho, t, 1e-3)).max() <= 1e-12


@PROFILE
@given(ops=lattices())
def test_models_without_structure_keep_a_single_block(ops):
    M = _hermitian_basis_generator(ops)
    # a mirror alone splits the generator into its even and odd sectors
    assert ops.structure != "none" or len(_diagonal_blocks(M)) == (1 if ops.mirror is None else 2)


@PROFILE
@given(ops=st.one_of(lattices(), sector_lattices()))
def test_jump_eigenbasis_reconstructs_the_lattice_operators(ops):
    V = ops.V
    assert np.abs(V.conj().T @ V - np.eye(ops.n_sites)).max() <= 1e-13
    assert np.abs((V * ops.p) @ V.conj().T - ops.P).max() <= 1e-12
    assert np.abs(V @ ops.H_tilde @ V.conj().T - ops.H).max() <= 1e-12
