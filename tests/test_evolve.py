import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import site_basis_rk4
from skinlab import (
    BandModel,
    DensityMatrix,
    MasterPropagator,
    NumericalFailure,
    ParameterError,
    SemiclassicalPropagator,
    bidiagonal_stationary_state,
    build_hatano_nelson,
    build_liouvillian,
    build_obc,
    entropy_trace,
    make_cosine_model,
    observables,
    open_chain_modes,
    propagate_master,
    propagate_master_rk4,
    propagate_semiclassical,
    relaxation_time,
    vec,
    von_neumann_entropy,
)
from skinlab.evolve import (
    EIG_COND_LIMIT_MASTER,
    EIG_COND_LIMIT_SEMI,
    _inverse_from_real,
    _real_eigenbasis,
    _SpectralExponential,
)


@pytest.fixture(scope="module")
def skew11():
    ops = build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 11)
    return ops, MasterPropagator(ops)


def test_density_matrix_validation():
    with pytest.raises(ParameterError):
        DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ParameterError):
        DensityMatrix(np.eye(3))  # trace 3
    with pytest.raises(ParameterError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_propagate_identity_at_zero_time(skew11):
    _, prop = skew11
    rho0 = DensityMatrix.site(11, 6)
    out = prop.propagate(rho0, 0.0)
    assert np.abs(out.rho - rho0.rho).max() < 1e-12


def test_maximally_mixed_is_fixed_point(skew11):
    _, prop = skew11
    rho0 = DensityMatrix.maximally_mixed(11)
    out = prop.propagate(rho0, 7.3)
    assert np.abs(out.rho - rho0.rho).max() < 1e-12


def test_long_time_state_is_maximally_mixed(skew11):
    ops, prop = skew11
    t_long = relaxation_time(ops)
    out = prop.propagate(DensityMatrix.site(11, 6), t_long)
    assert np.abs(out.rho - np.eye(11) / 11).max() < 1e-3


def test_propagation_preserves_state_invariants(skew11):
    _, prop = skew11
    rho0 = DensityMatrix.site(11, 6)
    for t in (0.1, 1.0, 5.0, 25.0):
        out = prop.propagate(rho0, t)
        assert np.abs(out.rho - out.rho.conj().T).max() < 1e-10
        assert abs(np.trace(out.rho) - 1) < 1e-10
        assert np.linalg.eigvalsh(out.rho).min() > -1e-8


def test_semigroup_property(skew11):
    _, prop = skew11
    rho0 = DensityMatrix.site(11, 6)
    two_step = prop.propagate(prop.propagate(rho0, 1.3), 2.1)
    one_step = prop.propagate(rho0, 3.4)
    assert np.abs(two_step.rho - one_step.rho).max() < 1e-9


def test_rk4_cross_check(skew11):
    ops, prop = skew11
    rho0 = DensityMatrix.site(11, 6)
    rk = propagate_master_rk4(ops, rho0, 2.0, dt=1e-3)
    sp = prop.propagate(rho0, 2.0)
    assert np.abs(rk.rho - sp.rho).max() < 1e-9


def test_unitary_limit_matches_semiclassical_projector():
    ops = build_obc(BandModel({1: 1.0, -1: 1.0}, {}), 7)
    psi0 = np.zeros(7, complex)
    psi0[3] = 1.0
    state = propagate_semiclassical(ops, psi0, 2.5)
    assert abs(np.linalg.norm(state.psi) - 1) < 1e-10
    rho = propagate_master(ops, DensityMatrix.site(7, 4), 2.5)
    assert np.abs(rho.rho - np.outer(state.psi, state.psi.conj())).max() < 1e-9


def test_semiclassical_norm_never_grows():
    ops = build_obc(make_cosine_model(1, 0, 1, 0.7), 15)
    psi0 = np.zeros(15, complex)
    psi0[7] = 1.0
    norms = [np.linalg.norm(propagate_semiclassical(ops, psi0, t).psi) for t in (0, 1, 2, 4)]
    assert all(n <= 1 + 1e-10 for n in norms)
    assert norms[-1] < norms[0]


def test_semiclassical_drift_contrast():
    sites = np.arange(1, 42)
    psi0 = np.zeros(41, complex)
    psi0[20] = 1.0
    skew = build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 41)
    psi = propagate_semiclassical(skew, psi0, 6.0).psi
    pops = np.abs(psi) ** 2
    pops /= pops.sum()
    assert abs(float(sites @ pops) - 21) > 4
    sym = build_obc(make_cosine_model(1, 0, 1, 0), 41)
    psi = propagate_semiclassical(sym, psi0, 6.0).psi
    pops = np.abs(psi) ** 2
    pops /= pops.sum()
    assert abs(float(sites @ pops) - 21) < 0.5


def test_master_first_moment_stays_centered_despite_drift():
    ops = build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 41)
    state = propagate_master_rk4(ops, DensityMatrix.site(41, 21), 6.0, dt=0.002)
    assert abs(observables(state).first_moment - 21) < 0.5


def test_entropy_values():
    assert von_neumann_entropy(DensityMatrix.site(11, 6)) < 1e-12
    assert abs(von_neumann_entropy(DensityMatrix.maximally_mixed(11)) - np.log(11)) < 1e-12
    rho = DensityMatrix(np.diag([0.5, 0.5, 0.0]))
    assert abs(von_neumann_entropy(rho) - np.log(2)) < 1e-12


def test_entropy_trace_saturates_at_log_n(skew11):
    ops, _ = skew11
    t_long = relaxation_time(ops)
    trace = entropy_trace(ops, DensityMatrix.site(11, 6), [0.0, 1.0, t_long])
    assert trace.entropies[0] < 1e-10
    assert abs(trace.entropies[-1] - np.log(11)) < 1e-3
    assert abs(trace.s_infinity - np.log(11)) < 1e-6


def test_pure_start_at_zero_time_has_exactly_zero_entropy():
    ops = build_obc(make_cosine_model(1, 0.5, 1, np.pi / 2), 24)
    trace = entropy_trace(ops, DensityMatrix.site(24, 12), [0.0])
    assert trace.propagator.method == "spectral"
    assert trace.entropies[0] == 0.0


def test_entropy_trace_projects_onto_the_kernel_in_expm_fallback_mode():
    # the skin-effect chain itself: cond(V) 1.4e8 at N = 20 takes the expm route
    ops = build_obc(make_cosine_model(1, 0, 1, np.pi / 4), 20)
    trace = entropy_trace(ops, DensityMatrix.site(20, 10), [0.0, 1.0])
    assert trace.propagator.method == "expm"
    assert abs(trace.s_infinity - np.log(20)) <= 1e-8
    assert np.abs(trace.rho_infinity - np.eye(20) / 20).max() <= 1e-12


def test_dense_master_routes_fail_before_allocating_above_the_cap():
    ops = build_hatano_nelson(1, 2, 65)
    rho0 = DensityMatrix.site(65, 33)
    tracemalloc.start()
    try:
        for run in (lambda: MasterPropagator(ops), lambda: propagate_master(ops, rho0, 1.0),
                    lambda: entropy_trace(ops, rho0, [1.0])):
            with pytest.raises(ParameterError):
                run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_entropy_trace_symmetric_model_stays_below_log_n():
    ops = build_obc(make_cosine_model(1, 0, 1, 0), 11)
    trace = entropy_trace(ops, DensityMatrix.site(11, 6), [1.0])
    assert trace.s_infinity < np.log(11) - 0.05
    # independent construction: project onto the shared sine eigenmodes
    V = open_chain_modes(11)
    weights = np.abs(V[5, :]) ** 2
    rho_inf = (V * weights) @ V.T
    assert abs(trace.s_infinity - von_neumann_entropy(rho_inf)) < 1e-6


def test_entropy_trace_constant_for_mixed_start(skew11):
    ops, _ = skew11
    trace = entropy_trace(ops, DensityMatrix.maximally_mixed(11), [0.0, 2.0, 10.0])
    assert np.abs(trace.entropies - np.log(11)).max() < 1e-10


def test_entropy_monotone_for_pure_start_with_skin(skew11):
    _, prop = skew11
    rho0 = DensityMatrix.site(11, 6)
    S = [von_neumann_entropy(prop.propagate(rho0, t)) for t in np.linspace(0, 30, 31)]
    assert np.diff(S).min() > -1e-6


def test_observables_reference_states():
    obs = observables(DensityMatrix.maximally_mixed(8))
    assert np.abs(obs.populations - 1 / 8).max() < 1e-14
    assert abs(obs.purity - 1 / 8) < 1e-14
    obs = observables(DensityMatrix.site(11, 6))
    assert abs(obs.first_moment - 6) < 1e-12
    assert abs(obs.purity - 1) < 1e-12
    obs = observables(bidiagonal_stationary_state(11))
    assert abs(obs.purity - 1 / 6) < 1e-12
    # anti-diagonal coherences of the bidiagonal state are 1/(N+1) off-center
    assert abs(obs.coherence_antidiag[0] - 1 / 12) < 1e-14


def test_times_must_be_sorted(skew11):
    ops, _ = skew11
    with pytest.raises(ParameterError):
        entropy_trace(ops, DensityMatrix.site(11, 6), [2.0, 1.0])


@pytest.mark.parametrize("ops", [
    build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 11),
    build_obc(make_cosine_model(1, 0, 1, np.pi / 4), 11),
    build_hatano_nelson(1, 2, 21),
], ids=["cosine_phi_half_pi_n11", "cosine_phi_quarter_pi_n11", "hatano_nelson_n21"])
def test_relaxation_time_matches_the_complex_generator(ops):
    L = build_liouvillian(ops).L
    w = np.linalg.eigvals(L)
    tol = 1e-8 * max(1.0, np.abs(L).max() / ops.n_sites)
    expect = 10.0 / abs(w.real[w.real < -tol].max())
    assert abs(relaxation_time(ops) / expect - 1.0) <= 1e-10


@pytest.mark.parametrize("generator", ["L", "H_eff"])
def test_expm_fallback_matches_spectral_route(generator):
    ops = build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 7)
    if generator == "L":
        A, limit = build_liouvillian(ops).L, EIG_COND_LIMIT_MASTER
        x = vec(DensityMatrix.site(7, 4).rho)
    else:
        A, limit, x = -1j * ops.H_eff, EIG_COND_LIMIT_SEMI, np.eye(7)[3]
    spectral = _SpectralExponential(A, limit)
    fallback = _SpectralExponential(A, 0.0)
    assert (spectral.method, fallback.method) == ("spectral", "expm")
    for t in (0.0, 0.7, 3.0, 12.0):
        assert np.abs(fallback.apply(x, t) - spectral.apply(x, t)).max() <= 1e-10


def test_semiclassical_route_follows_eigenbasis_condition():
    assert SemiclassicalPropagator(build_hatano_nelson(1, 2, 61)).method == "spectral"
    prop = SemiclassicalPropagator(build_hatano_nelson(1, 2, 70))
    assert prop.method == "expm"
    psi0 = np.zeros(70, complex)
    psi0[34] = 1.0
    norms = [np.linalg.norm(prop.at(psi0, t)) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert norms[0] == 1.0
    assert np.all(np.diff(norms) <= 1e-12)


def test_non_psd_start_fails_on_both_master_routes(skew11):
    ops, prop = skew11
    rho0 = np.diag([1.5, -0.5] + [0.0] * 9)
    with pytest.raises(NumericalFailure):
        prop.propagate(rho0, 0.0)
    with pytest.raises(NumericalFailure):
        propagate_master_rk4(ops, rho0, 0.0)


def test_drift_aborts_both_master_routes(skew11):
    ops, prop = skew11
    rho0 = np.eye(11) / 10.0  # trace 1.1
    with pytest.raises(NumericalFailure):
        prop.propagate(rho0, 1.0)
    with pytest.raises(NumericalFailure):
        propagate_master_rk4(ops, rho0, 0.01, dt=0.01)


@pytest.mark.parametrize("ops", [
    build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 41),
    build_hatano_nelson(1, 2, 40),
    build_obc(make_cosine_model(1, 0, 0, np.pi / 2), 41),
], ids=["cosine_phi_half_pi_n41", "hatano_nelson_n40", "no_jump_n41"])
def test_rk4_in_jump_eigenbasis_matches_site_basis_loop(ops):
    n = ops.n_sites
    psi = np.random.default_rng(n).normal(size=(n, 2)) @ np.array([1.0, 1j])
    for rho0 in (DensityMatrix.site(n, n // 2 + 1), DensityMatrix.pure(psi)):
        fast = propagate_master_rk4(ops, rho0, 1.0, dt=0.002).rho
        assert np.abs(fast - site_basis_rk4(ops, rho0.rho, 1.0, 0.002)).max() <= 1e-12


def test_rk4_rejects_non_hermitian_start(skew11):
    ops, _ = skew11
    rho0 = DensityMatrix.site(11, 6).rho.copy()
    rho0[5, 6], rho0[6, 5] = 1e-3, -1e-3
    for t in (0.0, 0.01):
        with pytest.raises(NumericalFailure, match="not Hermitian"):
            propagate_master_rk4(ops, rho0, t, dt=0.01)


@pytest.mark.parametrize("symmetric", [False, True], ids=["conjugate_pairs", "real_spectrum"])
def test_real_eigenbasis_gives_the_complex_condition_number_and_inverse(symmetric):
    A = np.random.default_rng(5).normal(size=(6, 9, 9))
    A = A + A.swapaxes(1, 2) if symmetric else A
    w, V = np.linalg.eig(A)
    R, pairs = _real_eigenbasis(w, V)
    assert R.dtype == np.float64
    assert (pairs[0].size == 0) == symmetric
    assert np.abs(np.linalg.cond(R) / np.linalg.cond(V) - 1.0).max() <= 1e-10
    V_inv = np.linalg.inv(V)
    assert np.abs(_inverse_from_real(R, pairs) - V_inv).max() <= 1e-12 * np.abs(V_inv).max()


def test_blocked_condition_number_is_that_of_the_whole_eigenbasis():
    rng = np.random.default_rng(9)
    A = scipy.linalg.block_diag(rng.normal(size=(5, 5)), rng.normal(size=(4, 4)))
    blocks = [np.arange(5), np.arange(5, 9)]
    blocked = _SpectralExponential(A, EIG_COND_LIMIT_MASTER, blocks)
    assert blocked.block_sizes == [5, 4]
    assert abs(blocked.cond / np.linalg.cond(np.linalg.eig(A)[1]) - 1.0) <= 1e-10
    x = rng.normal(size=9)
    assert np.abs(blocked.apply(x, 0.8) - scipy.linalg.expm(0.8 * A) @ x).max() <= 1e-12
