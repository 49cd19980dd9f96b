import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import SUITE_MODELS, hermitian_basis_generator, site_basis_rk4
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
from skinlab import evolve
from skinlab.evolve import (
    EIG_COND_LIMIT_MASTER,
    TAYLOR_THETA,
    _real_eigenbasis,
    _taylor_master_states,
    _taylor_steps,
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
    assert trace.propagator.route == "spectral" and trace.taylor is None
    assert trace.entropies[0] == 0.0


def test_entropy_trace_projects_onto_the_kernel_on_the_taylor_handoff():
    # the skin-effect chain itself: cond(V) 1.4e8 at N = 20 hands the states to the Taylor route
    ops = build_obc(make_cosine_model(1, 0, 1, np.pi / 4), 20)
    rho0 = DensityMatrix.site(20, 10)
    trace = entropy_trace(ops, rho0, [0.0, 1.0])
    assert trace.propagator.route == "taylor" and trace.propagator.cond > EIG_COND_LIMIT_MASTER
    assert trace.taylor["route"] == "taylor" and trace.taylor["taylor_degree"][0] == 0
    for state, exact in zip(trace.states, expm_states(ops, rho0.rho, [0.0, 1.0])):
        assert np.abs(state.rho - exact).max() <= 1e-12
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


def test_taylor_handoff_matches_spectral_route(skew11, monkeypatch):
    ops, spectral = skew11
    rho0 = DensityMatrix.site(11, 6)
    monkeypatch.setattr(evolve, "EIG_COND_LIMIT_MASTER", 0.0)
    handoff = MasterPropagator(ops, rho0)
    assert (spectral.route, handoff.route) == ("spectral", "taylor")
    assert 1.0 <= handoff.cond <= EIG_COND_LIMIT_MASTER    # factored; only the limit moved
    times = [0.0, 0.7, 3.0, 12.0]
    states, record = handoff.states(rho0, times)
    assert record["route"] == "taylor"
    for t, state, exact in zip(times, states, expm_states(ops, rho0.rho, times)):
        assert np.abs(state.rho - exact).max() <= 1e-10
        assert np.abs(state.rho - spectral.propagate(rho0, t).rho).max() <= 1e-10
        assert np.abs(handoff.propagate(rho0, t).rho - state.rho).max() <= 1e-10
    with pytest.raises(NumericalFailure, match="no spectral route"):
        handoff.evolve(rho0.rho, 1.0)


def test_both_master_routes_refuse_descending_times(skew11, monkeypatch):
    ops, spectral = skew11
    rho0 = DensityMatrix.site(11, 6)
    monkeypatch.setattr(evolve, "EIG_COND_LIMIT_MASTER", 0.0)
    handoff = MasterPropagator(ops, rho0)
    assert (spectral.route, handoff.route) == ("spectral", "taylor")
    for prop in (spectral, handoff):
        with pytest.raises(ParameterError, match="ascending"):
            prop.states(rho0, [2.0, 1.0])


@pytest.mark.parametrize("n", [7, 61, 70])
def test_no_jump_propagation_matches_expm_of_the_effective_hamiltonian(n):
    # cond(V) of H_eff is 1.1e9 at N = 61: there an eigenbasis route is off by 1e-6
    ops = build_hatano_nelson(1, 2, n) if n > 7 else \
        build_obc(make_cosine_model(1, 0, 1, np.pi / 2), n)
    psi0 = np.zeros(n, complex)
    psi0[n // 2] = 1.0
    prop = SemiclassicalPropagator(ops)
    for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
        exact = scipy.linalg.expm(-1j * ops.H_eff * t) @ psi0
        for psi in (prop.at(psi0, t), propagate_semiclassical(ops, psi0, t).psi):
            assert np.linalg.norm(psi - exact) <= 1e-10 * np.linalg.norm(exact)
    norms = [np.linalg.norm(prop.at(psi0, t)) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert norms[0] == 1.0
    assert np.all(np.diff(norms) <= 1e-12)
    with pytest.raises(ParameterError):
        prop.at(psi0, -1.0)


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
    w, R, partner = _real_eigenbasis(A)
    V = np.linalg.eig(A)[1]
    assert R.dtype == np.float64
    assert (partner == np.arange(A.shape[0] * 9).reshape(-1, 9)).all() == symmetric
    assert np.abs(np.linalg.cond(R) / np.linalg.cond(V) - 1.0).max() <= 1e-10
    # R^-1 A R is diag(Re w) plus [[0, beta], [-beta, 0]] on each pair, beta = Im w > 0 first
    blocks = np.zeros_like(A)
    blocks[:, range(9), range(9)] = w.real
    k, j = np.nonzero(w.imag > 0)
    assert (partner[k, j] == 9 * k + j + 1).all() and (partner[k, j + 1] == 9 * k + j).all()
    blocks[k, j, j + 1], blocks[k, j + 1, j] = w.imag[k, j], -w.imag[k, j]
    assert np.abs(np.linalg.inv(R) @ A @ R - blocks).max() <= 1e-12 * np.abs(A).max()


def test_blocked_condition_number_is_that_of_the_whole_eigenbasis():
    ops = build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 7)     # four mirror sectors
    prop = MasterPropagator(ops)
    M = hermitian_basis_generator(ops)
    assert prop.block_sizes == [16, 12, 9, 12] and prop.factored_blocks == 4
    V = np.zeros(M.shape, dtype=complex)
    for block in prop.blocks:
        V[np.ix_(block, block)] = np.linalg.eig(M[np.ix_(block, block)])[1]
    assert abs(prop.cond / np.linalg.cond(V) - 1.0) <= 1e-10
    held = [stack for _, stack in prop._stacks] + [m for f in prop._factors for m in f[-2:]]
    assert all(m.dtype == np.float64 for m in held)
    x = np.random.default_rng(9).normal(size=M.shape[0])
    assert np.abs(prop.apply(x, 0.8) - scipy.linalg.expm(0.8 * M) @ x).max() <= 1e-12


def expm_states(ops, rho0, times):
    """exp(L t) rho0 from scipy expm of the complex superoperator, as matrices."""
    n, L = ops.n_sites, build_liouvillian(ops).L
    return [(scipy.linalg.expm(L * t) @ vec(rho0)).reshape((n, n), order="F") for t in times]


@pytest.mark.parametrize("name", SUITE_MODELS)
def test_taylor_route_matches_expm_and_rk4_on_every_suite_model(name):
    build, structure = SUITE_MODELS[name]
    ops = build(6)
    assert ops.structure == structure
    real = structure == "transpose_sector"
    psi = np.random.default_rng(6).normal(size=(6, 2)) @ np.array([1.0, 1j])
    times = [0.0, 0.4, 1.5, 1.5, 4.0]
    for rho0, arithmetic in ((DensityMatrix.site(6, 3), "real" if real else "complex"),
                             (DensityMatrix.pure(psi), "complex")):
        states, record = _taylor_master_states(ops, rho0, times)
        assert record["arithmetic"] == arithmetic
        for state, exact in zip(states, expm_states(ops, rho0.rho, times)):
            assert np.abs(state.rho - exact).max() <= 1e-13
        rk4 = propagate_master_rk4(ops, rho0, 1.5, dt=1e-3)
        assert np.abs(states[2].rho - rk4.rho).max() <= 1e-9


@pytest.mark.parametrize("name", SUITE_MODELS)
def test_taylor_norm_bound_holds_on_every_suite_model(name):
    ops = SUITE_MODELS[name][0](5)
    W = np.kron(ops.V.conj(), ops.V)     # the series runs in P's eigenbasis
    L = W.conj().T @ build_liouvillian(ops).L @ W
    shifted = L - (np.trace(L) / L.shape[0]) * np.eye(L.shape[0])
    _, record = _taylor_master_states(ops, DensityMatrix.site(5, 2), [1.0])
    assert record["norm_bound"] >= np.abs(shifted).sum(axis=0).max() * (1.0 - 1e-12)


@pytest.mark.parametrize("ops", [
    build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 41),
    build_hatano_nelson(1, 2, 40),
    build_obc(make_cosine_model(1, 0, 1, np.pi / 4), 33),
], ids=["cosine_phi_half_pi_n41", "hatano_nelson_n40", "cosine_phi_quarter_pi_n33"])
def test_taylor_route_matches_rk4_above_the_dense_cap(ops):
    n, times = ops.n_sites, [0.5, 1.0, 2.0]
    states, _ = _taylor_master_states(ops, DensityMatrix.site(n, n // 2 + 1), times)
    rk4, previous = DensityMatrix.site(n, n // 2 + 1), 0.0
    for t, state in zip(times, states):
        rk4, previous = propagate_master_rk4(ops, rk4, t - previous, dt=1e-3), t
        assert np.abs(state.rho - rk4.rho).max() <= 1e-10
    again, _ = _taylor_master_states(ops, DensityMatrix.site(n, n // 2 + 1), times)
    assert all(np.array_equal(a.rho, b.rho) for a, b in zip(states, again))


def test_taylor_steps_minimize_the_product_count():
    assert _taylor_steps(0.0) == (1, 1)
    assert _taylor_steps(1e-3) == (5, 1)
    assert _taylor_steps(12.3301073251299) == (45, 2)   # semiclassical_drift_n61, one unit of t
    for norm_t in np.linspace(0.0, 40.0, 401):
        m, s = _taylor_steps(norm_t)
        assert norm_t / s <= TAYLOR_THETA[m]
        assert m * s == min(k * max(1, int(np.ceil(norm_t / theta)))
                            for k, theta in TAYLOR_THETA.items())


def test_taylor_series_runs_to_its_full_degree_on_short_intervals(skew11):
    # at ||t L||_1 = 1e-3 the fifth term is still above 2^-53 of the sum: no early stop
    ops, _ = skew11
    rho0 = DensityMatrix.site(11, 6)
    norm = _taylor_master_states(ops, rho0, [1.0])[1]["norm_bound"]
    (state,), record = _taylor_master_states(ops, rho0, [1e-3 / norm])
    assert (record["taylor_degree"], record["substeps"], record["products"]) == ([5], [1], 5)
    (exact,) = expm_states(ops, rho0.rho, [1e-3 / norm])
    assert np.abs(state.rho - exact).max() <= 1e-15


def test_taylor_route_rejects_what_rk4_rejects(skew11):
    ops, _ = skew11
    rho0 = DensityMatrix.site(11, 6)
    (taylor,), record = _taylor_master_states(ops, rho0, [0.0])
    assert np.array_equal(taylor.rho, propagate_master_rk4(ops, rho0, 0.0).rho)
    assert record["products"] == 0 and record["substeps"] == [0]
    with pytest.raises(ParameterError):
        _taylor_master_states(ops, rho0, [1.0, 0.5])
    with pytest.raises(ParameterError):
        _taylor_master_states(ops, rho0, [-0.5])
    skew = rho0.rho.copy()
    skew[5, 6], skew[6, 5] = 1e-3, -1e-3
    for t in (0.0, 0.01):
        with pytest.raises(NumericalFailure, match="not Hermitian"):
            _taylor_master_states(ops, skew, [t])
    for bad in (np.diag([1.5, -0.5] + [0.0] * 9), np.eye(11) / 10.0):   # not PSD; trace 1.1
        with pytest.raises(NumericalFailure):
            _taylor_master_states(ops, bad, [0.0, 1.0])
