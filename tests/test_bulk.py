import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skinlab import (
    BandModel,
    ParameterError,
    UnderflowError,
    bulk_evolve,
    bulk_wannier_density,
    decay_exponents,
    localized_bulk_state,
    make_cosine_model,
)
from skinlab.band import momentum_grid
from skinlab.bulk import _fourier_congruence, _multiplier, wannier_element


@pytest.fixture(scope="module")
def model_sym():
    return make_cosine_model(1, 0, 1, 0)


@pytest.fixture(scope="module")
def model_skew():
    return make_cosine_model(1, 0, 1, np.pi / 2)


def mirror_errors(rho, sites):
    """Max deviations from rho[-n,m], rho[n,-m], rho[-n,-m] = rho[n,m]."""
    keep = [i for i, n in enumerate(sites) if -n in set(sites.tolist())]
    r = rho[np.ix_(keep, keep)]
    return (
        np.abs(r - r[::-1, :]).max(),
        np.abs(r - r[:, ::-1]).max(),
        np.abs(r - r[::-1, ::-1]).max(),
    )


def test_diagonal_multiplier_is_unity(model_skew):
    state = localized_bulk_state(64)
    out = bulk_evolve(model_skew, state, 2.7)
    assert np.abs(np.diag(out.rho_kk) - np.diag(state.rho_kk)).max() < 1e-15


def test_symmetric_model_keeps_opposite_momentum_coherence(model_sym):
    M = 64
    state = localized_bulk_state(M)
    out = bulk_evolve(model_sym, state, 3.0)
    # (k, -k) entries keep unit-magnitude multipliers when P is even
    mags = np.abs(out.rho_kk[np.arange(M), (M - np.arange(M)) % M])
    assert np.abs(mags - 1 / (2 * np.pi)).max() < 1e-14


def test_skewed_model_damps_opposite_momenta(model_skew):
    # P(pi/2) = 0 and P(-pi/2) = 2, so that coherence decays at rate 2
    val = bulk_evolve(model_skew, localized_bulk_state(8), 1.0)
    k_idx = {round(k, 9): j for j, k in enumerate(np.linspace(-np.pi, np.pi, 8, endpoint=False))}
    j_plus = k_idx[round(np.pi / 2, 9)]
    j_minus = k_idx[round(-np.pi / 2, 9)]
    mag = abs(val.rho_kk[j_plus, j_minus]) * 2 * np.pi
    assert abs(mag - np.exp(-2.0)) < 1e-12


def test_bulk_evolve_rejects_negative_time(model_sym):
    with pytest.raises(ParameterError):
        bulk_evolve(model_sym, localized_bulk_state(8), -0.1)


def test_momentum_populations_conserved(model_skew):
    state = localized_bulk_state(32)
    for t in (0.5, 2.0, 5.0):
        out = bulk_evolve(model_skew, state, t)
        assert np.abs(np.abs(np.diag(out.rho_kk)) - 1 / (2 * np.pi)).max() < 1e-12


def test_initial_density_is_point_excitation(model_sym):
    wd = bulk_wannier_density(model_sym, 256, 0.0)
    expect = np.zeros_like(wd.rho)
    expect[np.where(wd.sites == 0)[0][0], np.where(wd.sites == 0)[0][0]] = 1.0
    assert np.abs(wd.rho - expect).max() < 1e-12


def test_density_is_hermitian_unit_trace(model_skew):
    wd = bulk_wannier_density(model_skew, 256, 3.0)
    assert np.abs(wd.rho - wd.rho.conj().T).max() < 1e-12
    assert abs(np.trace(wd.rho) - 1) < 1e-8
    assert np.diag(wd.rho).real.min() > -1e-10


def test_symmetry_constraints_even_jump_amplitude(model_sym):
    for t in (1.0, 2.0, 4.0):
        wd = bulk_wannier_density(model_sym, 512, t)
        errs = mirror_errors(wd.rho, wd.sites)
        assert max(errs) < 1e-10, f"t={t}: {errs}"


def test_first_moment_stays_centered(model_sym, model_skew):
    wd = bulk_wannier_density(model_sym, 512, 4.0)
    assert abs(float(wd.sites @ np.diag(wd.rho).real)) < 1e-8
    wd = bulk_wannier_density(model_skew, 512, 4.0)
    assert abs(float(wd.sites @ np.diag(wd.rho).real)) < 1e-6


def test_window_selection(model_skew):
    wd = bulk_wannier_density(model_skew, 128, 2.0, window=(-5, 5))
    assert wd.sites.tolist() == list(range(-5, 6))
    full = bulk_wannier_density(model_skew, 128, 2.0)
    sub = np.ix_([np.where(full.sites == n)[0][0] for n in wd.sites],
                 [np.where(full.sites == n)[0][0] for n in wd.sites])
    assert np.abs(wd.rho - full.rho[sub]).max() < 1e-14
    with pytest.raises(ParameterError):
        bulk_wannier_density(model_skew, 128, 2.0, window=(-80, 80))


def test_wraparound_horizon_guard(model_skew):
    with pytest.raises(ParameterError):
        bulk_wannier_density(model_skew, 64, 10.0)


def test_element_sampler_matches_full_transform(model_skew):
    wd = bulk_wannier_density(model_skew, 128, 3.0, window=(-10, 10))
    i = np.where(wd.sites == 4)[0][0]
    j = np.where(wd.sites == -4)[0][0]
    direct = wannier_element(model_skew, 128, 3.0, 4, -4)
    assert abs(direct - wd.rho[i, j]) < 1e-14


def test_antidiagonal_suppressed_at_ballistic_front(model_skew):
    # grid-independence doubles as the dense-quadrature oracle (M = 1024)
    vals = {}
    for M in (512, 1024):
        wd = bulk_wannier_density(model_skew, M, 4.0, window=(-30, 30))
        diag = np.abs(np.diag(wd.rho))
        n_front = wd.sites[np.argmax(diag)]
        i = np.where(wd.sites == n_front)[0][0]
        j = np.where(wd.sites == -n_front)[0][0]
        vals[M] = (diag.max(), abs(wd.rho[i, j]))
        anti = np.abs(wd.rho[np.arange(len(wd.sites)), len(wd.sites) - 1 - np.arange(len(wd.sites))])
        anti[np.where(wd.sites == 0)[0][0]] = 0.0
        assert anti.max() < diag.max()
    assert abs(vals[512][0] - vals[1024][0]) < 1e-10
    front_ratio = vals[1024][1] / vals[1024][0]
    assert front_ratio < 0.2


def test_momentum_route_matches_finite_lattice_pre_edge(model_skew):
    # independent route: master equation on a 41-site open chain, recentered
    from skinlab import DensityMatrix, build_obc, propagate_master_rk4

    ops = build_obc(model_skew, 41)
    rho = propagate_master_rk4(ops, DensityMatrix.site(41, 21), 3.0, dt=1e-3).rho
    wd = bulk_wannier_density(model_skew, 256, 3.0, window=(-12, 12))
    idx = [20 + n for n in wd.sites]
    sub = rho[np.ix_(idx, idx)]
    assert np.abs(sub - wd.rho).max() < 1e-9


def test_decay_fit_symmetric_model_equal_lines(model_sym):
    times = [1.5, 2, 3, 4, 5, 6, 7, 8]
    fd = decay_exponents(model_sym, times, "diagonal", 2.0)
    fa = decay_exponents(model_sym, times, "antidiagonal", 2.0)
    gap = abs(fd.power_exponent - fa.power_exponent)
    assert gap <= 2 * (fd.power_stderr + fa.power_stderr) + 1e-9


def test_decay_fit_skewed_model_orderings(model_skew):
    times = [1.5, 2, 3, 4, 5, 6, 7, 8]
    fd = decay_exponents(model_skew, times, "diagonal", 2.0)
    assert fd.power_exponent >= -1.0
    assert fd.power_residual < fd.exp_residual
    fa = decay_exponents(model_skew, times, "antidiagonal", 2.0)
    assert fa.exp_residual < fa.power_residual


def test_decay_fit_argument_checks(model_skew):
    with pytest.raises(ParameterError):
        decay_exponents(model_skew, [1, 2], "diagonal", 2.0)
    with pytest.raises(ParameterError):
        decay_exponents(model_skew, [1, 2, 3], "sideways", 2.0)
    with pytest.raises(UnderflowError):
        decay_exponents(model_skew, [30, 40, 50, 60], "antidiagonal", 2.0)


coefficient = st.floats(-0.5, 0.5, allow_nan=False)


@st.composite
def bulk_cases(draw):
    """Random range-2 band model, grid, window holding site 0 and a time inside the horizon."""
    h = {0: draw(coefficient)}
    p = {}
    for m in (1, 2):
        h[m] = h[-m] = draw(coefficient)
        p[m] = complex(draw(coefficient), draw(coefficient))
        p[-m] = p[m].conjugate()
    p[0] = 2.0 * (abs(p[1]) + abs(p[2])) + draw(st.floats(0.0, 0.5))
    model = BandModel(h, p)
    n_k = draw(st.sampled_from([2, 6, 64, 256]))
    window = (draw(st.integers(-n_k // 2, 0)), draw(st.integers(0, n_k // 2 - 1)))
    v_max = model.max_group_velocity()
    horizon = n_k / (4.0 * v_max) if v_max > 0 else 10.0
    return model, n_k, window, draw(st.floats(0.0, 1.0)) * horizon


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(bulk_cases())
def test_factored_congruence_matches_the_literal_fourier_sum(case):
    model, n_k, window, t = case
    wd = bulk_wannier_density(model, n_k, t, window)
    F = np.exp(1j * np.outer(wd.sites, momentum_grid(n_k)))
    literal = F @ _multiplier(model, n_k, t) @ F.conj().T / n_k**2
    assert np.abs(wd.rho - literal).max() <= 1e-14 * np.abs(literal).max()
    i, j = len(wd.sites) - 1, 0
    element = wannier_element(model, n_k, t, int(wd.sites[i]), int(wd.sites[j]))
    assert abs(element - wd.rho[i, j]) <= 1e-14 * np.abs(literal).max()


def assert_shared_sites_match_a_copy(model, n_k, t, sites):
    """One site list for both sides reuses the conjugate exponentials; the result is bit for bit."""
    shared = _fourier_congruence(model, n_k, t, sites, sites)
    apart = _fourier_congruence(model, n_k, t, sites, sites.copy())
    assert np.array_equal(shared.view(np.int64), apart.view(np.int64))


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(bulk_cases())
def test_shared_site_list_reuses_the_conjugate_exponentials_bit_for_bit(case):
    model, n_k, window, t = case
    assert_shared_sites_match_a_copy(model, n_k, t, np.arange(window[0], window[1] + 1))


@pytest.mark.parametrize("phi", [0.0, np.pi / 4, np.pi / 2])
def test_shipped_density_times_reuse_the_conjugate_exponentials_bit_for_bit(phi):
    model = make_cosine_model(1, 0, 1, phi)
    for t in (0.3, 1.0, 2.0, 4.0, 6.0, 17.0):
        assert_shared_sites_match_a_copy(model, 512, t, np.arange(-40, 41))
