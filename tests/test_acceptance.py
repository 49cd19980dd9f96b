"""Acceptance suite: one test per release criterion, at the stated tolerances.

Run with `pytest -v tests/test_acceptance.py` (the verbose listing gives one
pass/fail line per criterion; each test also prints its own summary line).
"""

import numpy as np
import pytest

from conftest import assert_multiset_close, block_workers, conjugation_symmetric
from skinlab import (
    DensityMatrix,
    MasterPropagator,
    analytic_commuting_spectrum,
    bidiagonal_stationary_state,
    build_hatano_nelson,
    build_liouvillian,
    build_obc,
    bulk_wannier_density,
    decay_exponents,
    distance_to_curve,
    entropy_trace,
    liouvillian_spectrum,
    make_cosine_model,
    obc_spectrum,
    observables,
    open_chain_modes,
    pbc_loop,
    propagate_master_rk4,
    propagate_semiclassical,
    relaxation_time,
    run_ensemble,
    skin_localization,
    stationary_states,
    vec,
    von_neumann_entropy,
    winding_numbers,
)
from skinlab.lattice_ops import sqrt_psd

PHI_VALUES = (0.0, np.pi / 4, np.pi / 2)


def report(number, text):
    print(f"criterion {number:02d} PASS — {text}")


@pytest.fixture(scope="module")
def skew11():
    ops = build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 11)
    return ops, build_liouvillian(ops)


@pytest.fixture(scope="module")
def psi0_center11():
    psi0 = np.zeros(11, complex)
    psi0[5] = 1.0
    return psi0


@pytest.fixture(scope="module")
def ensemble_5000(skew11, psi0_center11):
    ops, _ = skew11
    return run_ensemble(ops, psi0_center11, 3.0, 0.005, 5000, master_seed=42)


@pytest.fixture(scope="module")
def ensemble_4000(skew11, psi0_center11):
    ops, _ = skew11
    return run_ensemble(ops, psi0_center11, 3.0, 0.005, 4000, master_seed=42)


@pytest.fixture(scope="module")
def ensemble_1000(skew11, psi0_center11):
    ops, _ = skew11
    return run_ensemble(ops, psi0_center11, 3.0, 0.005, 1000, master_seed=42)


def test_criterion_01_boundary_sensitive_spectra():
    locs = {}
    for phi in PHI_VALUES:
        model = make_cosine_model(1, 0, 1, phi)
        obc = obc_spectrum(build_obc(model, 50))
        loop = pbc_loop(model, 2048)
        dist = distance_to_curve(obc.eigenvalues, loop)
        locs[phi] = abs(skin_localization(obc, 50))
        if phi == 0.0:
            assert dist.max() < 0.05
        else:
            assert np.all(winding_numbers(obc.eigenvalues, loop) != 0)
            assert dist.mean() > 0.1
    assert locs[0.0] < 0.05
    assert locs[np.pi / 4] > 0.3 and locs[np.pi / 2] > 0.3
    report(1, f"boundary-condition split and edge localization {locs}")


def test_criterion_02_zero_mode_degeneracy():
    gaps = {}
    for phi, expected in ((0.0, 11), (np.pi / 4, 1), (np.pi / 2, 1)):
        ops = build_obc(make_cosine_model(1, 0, 1, phi), 11)
        rep = stationary_states(ops)
        assert rep.zero_eigenvalue_multiplicity == expected, f"phi={phi}"
        assert rep.gap_ratio >= 1e3
        gaps[phi] = rep.gap_ratio
    report(2, f"kernel dimensions 11/1/1 with gap ratios {gaps}")


def test_criterion_03_closed_form_degenerate_spectrum():
    ops = build_obc(make_cosine_model(1, 0, 1, 0), 5)
    dense = liouvillian_spectrum(build_liouvillian(ops))
    _, _, analytic = analytic_commuting_spectrum(1, 1, 5)
    assert_multiset_close(dense, analytic, 1e-8)
    report(3, "25 closed-form generator eigenvalues match the dense spectrum to 1e-8")


def test_criterion_04_entropy_saturation():
    rho0 = DensityMatrix.site(11, 6)
    for phi in (np.pi / 2, np.pi / 4):
        ops = build_obc(make_cosine_model(1, 0, 1, phi), 11)
        t_long = relaxation_time(ops)
        trace = entropy_trace(ops, rho0, [t_long])
        assert abs(trace.entropies[-1] - np.log(11)) < 1e-3, f"phi={phi}"
    ops = build_obc(make_cosine_model(1, 0, 1, 0.0), 11)
    trace = entropy_trace(ops, rho0, [1.0])
    assert trace.s_infinity < np.log(11) - 0.05
    modes = open_chain_modes(11)
    weights = np.abs(modes[5, :]) ** 2
    analytic = von_neumann_entropy((modes * weights) @ modes.T)
    assert abs(trace.s_infinity - analytic) < 1e-6
    report(4, f"entropy saturates at ln 11 for broken symmetry, at {analytic:.6f} otherwise")


def test_criterion_05_stationary_states():
    builds = [build_obc(make_cosine_model(1, 0, 1, phi), n)
              for phi in PHI_VALUES for n in (5, 11, 21)]
    builds += [build_hatano_nelson(1, 2, n) for n in (5, 11, 21)]
    for ops in builds:
        L = build_liouvillian(ops).L
        assert np.abs(L @ vec(np.eye(ops.n_sites) / ops.n_sites)).max() <= 1e-12
    checked = 0
    for ops in builds:
        symmetric = (np.abs(ops.P.T - ops.P).max() < 1e-12
                     and np.abs(ops.H.T - ops.H).max() < 1e-12)
        if symmetric and ops.n_sites % 2 == 1:
            L = build_liouvillian(ops).L
            rho_sa = bidiagonal_stationary_state(ops.n_sites)
            assert np.abs(L @ vec(rho_sa)).max() <= 1e-8
            checked += 1
    assert checked == 3  # the three symmetric odd sizes
    report(5, "maximally mixed state stationary everywhere; "
              "bidiagonal state stationary under transpose symmetry")


def test_criterion_06_bulk_symmetry_constraints():
    model = make_cosine_model(1, 0, 1, 0.0)
    worst = 0.0
    for t in (1.0, 2.0, 4.0):
        wd = bulk_wannier_density(model, 512, t)
        sites = wd.sites
        keep = [i for i, n in enumerate(sites) if -n in set(sites.tolist())]
        r = wd.rho[np.ix_(keep, keep)]
        worst = max(worst,
                    np.abs(r - r[::-1, :]).max(),
                    np.abs(r - r[:, ::-1]).max(),
                    np.abs(r - r[::-1, ::-1]).max())
    assert worst < 1e-10
    report(6, f"mirror symmetries of the relaxation pattern hold to {worst:.2e}")


def test_criterion_07_decay_ordering():
    times = [1.5, 2, 3, 4, 5, 6, 7, 8]
    skew = make_cosine_model(1, 0, 1, np.pi / 2)
    diag = decay_exponents(skew, times, "diagonal", 2.0)
    assert diag.power_exponent >= -1.0
    assert diag.power_residual < diag.exp_residual
    anti = decay_exponents(skew, times, "antidiagonal", 2.0)
    assert anti.exp_residual < anti.power_residual

    wd = bulk_wannier_density(skew, 512, 4.0, window=(-30, 30))
    diag_profile = np.abs(np.diag(wd.rho))
    n_front = wd.sites[np.argmax(diag_profile)]
    i = np.where(wd.sites == n_front)[0][0]
    j = np.where(wd.sites == -n_front)[0][0]
    front_ratio = abs(wd.rho[i, j]) / diag_profile.max()
    assert front_ratio < 0.2

    sym = make_cosine_model(1, 0, 1, 0.0)
    d0 = decay_exponents(sym, times, "diagonal", 2.0)
    a0 = decay_exponents(sym, times, "antidiagonal", 2.0)
    assert abs(d0.power_exponent - a0.power_exponent) <= \
        2 * (d0.power_stderr + a0.power_stderr) + 1e-9
    report(7, f"population ray decays like t^{diag.power_exponent:.2f}; coherence ray "
              f"is exponential with front suppression {front_ratio:.3f}")


def test_criterion_08_jump_washout_of_unidirectional_flow():
    ops = build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 61)
    state = DensityMatrix.site(61, 31)
    previous = 0.0
    for t in (2.0, 4.0, 6.0, 8.0):
        state = propagate_master_rk4(ops, state, t - previous, dt=0.002)
        previous = t
        fm = observables(state).first_moment
        assert abs(fm - 31) < 0.5, f"t={t}: master first moment {fm}"
    psi0 = np.zeros(61, complex)
    psi0[30] = 1.0
    psi = propagate_semiclassical(ops, psi0, 8.0).psi
    pops = np.abs(psi) ** 2
    pops /= pops.sum()
    fm_semi = float(np.arange(1, 62) @ pops)
    assert abs(fm_semi - 31) > 4
    report(8, f"master first moment pinned at 31, no-jump moment drifts to {fm_semi:.1f}")


def test_criterion_09_trajectory_ensemble_convergence(
    skew11, psi0_center11, ensemble_5000, ensemble_4000, ensemble_1000
):
    ops, _ = skew11
    assert np.abs(ensemble_5000.norms - 1.0).max() < 1e-9

    exact = propagate_semiclassical(ops, psi0_center11, 3.0).psi
    deviation = np.abs(ensemble_5000.psi_mean - exact)
    assert np.all(deviation <= 4 * ensemble_5000.psi_mean_se)

    rho_master = MasterPropagator(ops).propagate(DensityMatrix.site(11, 6), 3.0)
    err = np.linalg.norm(ensemble_4000.rho_estimate - rho_master.rho)
    assert err < 5 * ensemble_4000.standard_error

    se_ratio = ensemble_1000.standard_error / ensemble_4000.standard_error
    assert 1.6 <= se_ratio <= 2.6
    report(9, f"pathwise unitary, mean field to {deviation.max():.1e}, "
              f"density error {err:.3f} < 5 se, se ratio {se_ratio:.2f}")


def test_criterion_10_hatano_nelson_appendix():
    for n_sites in (4, 8, 61):
        ops = build_hatano_nelson(1, 2, n_sites)
        a = np.arange(1, n_sites + 1)
        expect = np.sort(2 * (1 + np.cos(np.pi * a / (n_sites + 1))))
        assert np.abs(np.sort(np.linalg.eigvalsh(ops.P2)) - expect).max() < 1e-10
        n = np.arange(1, n_sites + 1)
        closed = np.zeros((n_sites, n_sites))
        for alpha in range(1, n_sites + 1):
            v = np.sin(np.pi * n * alpha / (n_sites + 1))
            closed = closed + np.sqrt(2 * (1 + np.cos(np.pi * alpha / (n_sites + 1)))) * np.outer(v, v)
        closed = closed * 2 / (n_sites + 1) * np.exp(1j * np.pi * (n[:, None] - n[None, :]) / 2)
        assert np.abs(sqrt_psd(ops.P2) - closed).max() < 1e-10

    ops21 = build_hatano_nelson(1, 2, 21)
    rep = stationary_states(ops21)
    assert rep.zero_eigenvalue_multiplicity == 1
    t_long = relaxation_time(ops21)
    out = MasterPropagator(ops21).propagate(DensityMatrix.site(21, 11), t_long)
    dev = np.abs(out.rho - np.eye(21) / 21).max()
    assert dev < 1e-3
    report(10, f"closed forms match to 1e-10; unique stationary state reached to {dev:.1e}")


def test_criterion_11_structural_properties(skew11, psi0_center11):
    ops, Lm = skew11
    prop = MasterPropagator(ops)
    rho0 = DensityMatrix.site(11, 6)
    for t in (0.5, 2.0, 10.0):
        out = prop.propagate(rho0, t)
        assert np.abs(out.rho - out.rho.conj().T).max() < 1e-10
        assert abs(np.trace(out.rho) - 1) < 1e-10
        assert np.linalg.eigvalsh(out.rho).min() > -1e-8

    split = prop.propagate(prop.propagate(rho0, 0.9), 1.6)
    joint = prop.propagate(rho0, 2.5)
    assert np.abs(split.rho - joint.rho).max() < 1e-9

    w = liouvillian_spectrum(Lm)
    assert np.all(w.real <= 1e-8)
    assert conjugation_symmetric(w, 1e-8)

    runs = []
    for workers in (0, 1, 3):
        with block_workers(workers):
            runs.append(run_ensemble(ops, psi0_center11, 1.0, 0.005, 600, master_seed=7))
    for other in runs[1:]:
        assert np.array_equal(runs[0].rho_estimate, other.rho_estimate)
        assert np.array_equal(runs[0].psi_mean, other.psi_mean)
        assert runs[0].standard_error == other.standard_error
    report(11, "propagation invariants, semigroup, spectrum symmetry and "
               "thread-count reproducibility all hold")
