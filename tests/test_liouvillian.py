import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    SUITE_MODELS,
    assert_multiset_close,
    conjugation_symmetric,
    hermitian_basis,
    jump_eigenbasis_generator,
    master_rhs,
)
from skinlab import (
    BandModel,
    LatticeOperators,
    MasterPropagator,
    ParameterError,
    analytic_commuting_spectrum,
    bidiagonal_stationary_state,
    build_hatano_nelson,
    build_liouvillian,
    build_obc,
    kernel_overlap,
    liouvillian_eigenvalues,
    liouvillian_spectrum,
    make_cosine_model,
    open_chain_modes,
    stationary_states,
    unvec,
    vec,
)
from skinlab.lattice_ops import Construction
from skinlab.liouvillian import (
    SORT_TIE_TOL,
    ZERO_TOL_SCALE,
    LiouvillianMatrix,
    _diagonal_blocks,
    _hermitian_basis_generator,
    _spectrum_order,
    _zero_tolerance,
)


def random_hermitian(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (A + A.conj().T)


@pytest.fixture(scope="module")
def ops_symmetric():
    return build_obc(make_cosine_model(1, 0, 1, 0), 11)


@pytest.fixture(scope="module")
def ops_skewed():
    return build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 11)


def test_superoperator_matches_matrix_form(ops_skewed):
    L = build_liouvillian(ops_skewed).L
    rng = np.random.default_rng(0)
    for _ in range(20):
        rho = random_hermitian(rng, 11)
        lhs = unvec(L @ vec(rho), 11)
        assert np.abs(lhs - master_rhs(ops_skewed, rho)).max() < 1e-12


def test_maximally_mixed_is_stationary(ops_skewed, ops_symmetric):
    for ops in (ops_skewed, ops_symmetric):
        L = build_liouvillian(ops).L
        assert np.abs(L @ vec(np.eye(11) / 11)).max() < 1e-12


def test_unitary_limit_spectrum():
    ops = build_obc(BandModel({1: 1.0, -1: 1.0}, {}), 5)
    w = liouvillian_spectrum(build_liouvillian(ops))
    E = 2 * np.cos(np.pi * np.arange(1, 6) / 6)
    expect = (1j * (E[None, :] - E[:, None])).ravel()
    assert_multiset_close(w, expect, 1e-10)


def test_two_site_dephasing_by_hand():
    # H = 0, P = diag(0, p): coherences decay at p^2/2, populations frozen
    p = 1.7
    P = np.diag([0.0, p]).astype(complex)
    ops = LatticeOperators(2, np.zeros((2, 2), complex), P, P @ P,
                           -0.5j * P @ P, Construction.TRUNCATE_P)
    w = liouvillian_spectrum(build_liouvillian(ops))
    assert_multiset_close(w, [0.0, 0.0, -0.5 * p**2, -0.5 * p**2], 1e-12)


def test_commuting_case_closed_form_n5():
    ops = build_obc(make_cosine_model(1, 0, 1, 0), 5)
    w = liouvillian_spectrum(build_liouvillian(ops))
    _, _, lam = analytic_commuting_spectrum(1, 1, 5)
    assert_multiset_close(w, lam, 1e-8)


def test_analytic_commuting_values():
    alpha, beta, lam = analytic_commuting_spectrum(1, 1, 3)
    assert np.abs(lam[alpha == beta]).max() < 1e-15
    pick = (alpha == 1) & (beta == 3)
    assert abs(lam[pick][0] - (-1 - 2j * np.sqrt(2))) < 1e-12


def test_zero_mode_count(ops_symmetric, ops_skewed):
    w_sym = liouvillian_spectrum(build_liouvillian(ops_symmetric))
    w_skew = liouvillian_spectrum(build_liouvillian(ops_skewed))
    assert int(np.sum(np.abs(w_sym) < 1e-8)) == 11
    assert int(np.sum(np.abs(w_skew) < 1e-8)) == 1


@pytest.mark.parametrize("n_sites", [5, 7, 11])
def test_kernel_dimension_vs_phase(n_sites):
    for phi, expect in ((0.0, n_sites), (np.pi / 4, 1), (np.pi / 2, 1)):
        ops = build_obc(make_cosine_model(1, 0, 1, phi), n_sites)
        report = stationary_states(ops)
        assert report.zero_eigenvalue_multiplicity == expect, f"phi={phi}"


def test_stationary_report_contains_known_states(ops_symmetric):
    report = stationary_states(ops_symmetric)
    assert kernel_overlap(report, np.eye(11) / 11) >= 1 - 1e-8
    assert kernel_overlap(report, bidiagonal_stationary_state(11)) >= 1 - 1e-8
    for rho in report.kernel_basis:
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        L = build_liouvillian(ops_symmetric).L
        assert np.abs(unvec(L @ vec(rho), 11)).max() < 1e-8


def test_hatano_nelson_kernel_is_simple():
    ops = build_hatano_nelson(1, 2, 21)
    report = stationary_states(ops)
    assert report.zero_eigenvalue_multiplicity == 1
    assert not report.ill_conditioned


def test_trace_and_hermiticity_preservation(ops_skewed):
    L = build_liouvillian(ops_skewed).L
    rng = np.random.default_rng(8)
    for _ in range(50):
        rho = random_hermitian(rng, 11)
        out = unvec(L @ vec(rho), 11)
        assert abs(np.trace(out)) < 1e-10
        assert np.abs(out - out.conj().T).max() < 1e-10


def test_spectrum_symmetries(ops_skewed):
    w = liouvillian_spectrum(build_liouvillian(ops_skewed))
    assert np.all(w.real <= 1e-8)
    assert conjugation_symmetric(w, 1e-8)


def test_spectrum_residuals_with_vectors():
    ops = build_obc(make_cosine_model(1, 0, 1, 0.6), 5)
    Lm = build_liouvillian(ops)
    w, V = liouvillian_spectrum(Lm, eigenvectors=True)
    assert np.abs(Lm.L @ V - V * w).max() <= 1e-8 * np.linalg.norm(Lm.L)


def test_spectrum_size_cap():
    ops = build_obc(make_cosine_model(1, 0, 1, 0), 9)
    with pytest.raises(ParameterError):
        liouvillian_spectrum(build_liouvillian(ops), cap=16)


def test_bidiagonal_state_properties():
    rho = bidiagonal_stationary_state(11)
    assert abs(np.trace(rho) - 1) < 1e-14
    assert abs(np.trace(rho @ rho) - 2 / 12) < 1e-14
    # even N: renormalized to unit trace
    rho_even = bidiagonal_stationary_state(6)
    assert abs(np.trace(rho_even) - 1) < 1e-14


def test_bidiagonal_state_stationarity_requires_transpose_symmetry():
    sym = build_obc(make_cosine_model(1, 0, 1, 0), 11)
    assert np.abs(sym.P.T - sym.P).max() < 1e-12
    L = build_liouvillian(sym).L
    assert np.abs(L @ vec(bidiagonal_stationary_state(11))).max() < 1e-8

    skew = build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 11)
    assert np.abs(skew.P.T - skew.P).max() > 1e-12
    L = build_liouvillian(skew).L
    assert np.abs(L @ vec(bidiagonal_stationary_state(11))).max() > 1e-6


def test_open_chain_modes_diagonalize_commuting_pair():
    ops = build_obc(make_cosine_model(1, 0, 1, 0), 7)
    V = open_chain_modes(7)
    assert np.abs(V.T @ V - np.eye(7)).max() < 1e-12
    H_diag = V.T @ ops.H.real @ V
    P_diag = V.T @ ops.P.real @ V
    assert np.abs(H_diag - np.diag(np.diag(H_diag))).max() < 1e-12
    assert np.abs(P_diag - np.diag(np.diag(P_diag))).max() < 1e-12


def real_generator_models(n):
    return [build_obc(make_cosine_model(1, 0.3, 1, np.pi / 2), n),
            build_obc(make_cosine_model(1, 0, 1, 0), n),
            build_hatano_nelson(1, 2, n)]


@pytest.mark.parametrize("n", range(3, 9))
def test_real_generator_is_the_hermitian_basis_change(n):
    U = hermitian_basis(n)
    assert np.abs(U.conj().T @ U - np.eye(n * n)).max() < 1e-14
    for ops in real_generator_models(n):
        M = _hermitian_basis_generator(ops)
        assert M.dtype == np.float64
        assert np.abs(M - jump_eigenbasis_generator(ops)).max() <= 1e-12


@pytest.mark.parametrize("n", [11, 24])
def test_real_eigenvalues_match_the_complex_solve(n):
    for ops in real_generator_models(n):
        w = liouvillian_eigenvalues(ops)
        assert_multiset_close(w, liouvillian_spectrum(build_liouvillian(ops)), 1e-10)
        # sorted by real part, ties within the relative tolerance by imaginary part
        assert np.all(np.diff(w.real) >= -SORT_TIE_TOL * max(1.0, np.abs(w).max()))
        assert np.array_equal(w, w[_spectrum_order(w)])
        # a real matrix has exact conjugate pairs
        assert np.array_equal(np.sort_complex(w), np.sort_complex(w.conj()))


def dephased_levels():
    """Levels 0, 10, 20, 30 with weak hopping, dephased by P = diag(1, 2, 3, 4)."""
    H = np.diag([0.0, 10.0, 20.0, 30.0]) + 0.1 * (np.eye(4, k=1) + np.eye(4, k=-1))
    P = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    return LatticeOperators(4, H.astype(complex), P, P @ P, H - 0.5j * P @ P,
                            Construction.TRUNCATE_P)


@pytest.mark.parametrize("ops", [
    build_obc(make_cosine_model(40, 15, 3, np.pi / 4), 6),     # largest entry from H_tilde
    build_obc(make_cosine_model(0.1, 0, 30, np.pi / 2), 6),    # from D
    dephased_levels(),                                          # from energy differences
    build_hatano_nelson(10, 30, 7),
])
def test_zero_tolerance_is_the_rule_on_the_real_generator(ops):
    scale = np.abs(_hermitian_basis_generator(ops)).max() / ops.n_sites
    assert scale > 1.0          # so the threshold depends on the entry that is read off
    assert _zero_tolerance(ops) == ZERO_TOL_SCALE * scale


def test_real_eigenvalues_cap_fails_before_allocating():
    ops = build_hatano_nelson(1, 2, 65)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError):
            liouvillian_eigenvalues(ops)
        with pytest.raises(ParameterError):
            liouvillian_eigenvalues(build_obc(make_cosine_model(1, 0, 1, 0), 9), cap=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_real_generator_assembly_allocates_little_beyond_its_output():
    # the cosine chain at phi = pi/2 also rotates M to its mirror sectors after assembly
    mirrored = build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 40)
    assert mirrored.mirror is not None
    for ops in (build_hatano_nelson(1, 2, 40), mirrored):
        tracemalloc.start()
        try:
            M = _hermitian_basis_generator(ops)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * M.nbytes


def test_spectrum_order_is_stable_under_round_off_in_tied_real_parts():
    rng = np.random.default_rng(3)
    w = np.concatenate([[0.0, -1.0 + 2.0j, -1.0 - 2.0j, -1.0 + 0.5j, -1.0 - 0.5j],
                        rng.normal(size=11) - 3.0 + 1j * rng.normal(size=11)])
    a, b = w.copy(), w.copy()
    a[1] += 1e-13       # the conjugate pair's real parts differ by round-off,
    b[2] += 1e-13       # once on each side
    b[3] -= 5e-14
    rows = [liouvillian_spectrum(LiouvillianMatrix(4, np.diag(x)), cap=16) for x in (a, b)]
    assert np.abs(rows[0] - rows[1]).max() <= 1e-12
    assert_multiset_close(rows[0], w, 1e-12)


def expected_block_sizes(ops, structure):
    """Block sizes of the real generator: the structure's blocks, each split in two by a mirror.

    A mirror block of dimension d splits into (d + tr S)/2 and (d - tr S)/2,
    tr S the sum of the signs of the coordinates the mirror fixes: |c><c| for
    the centre c of odd N (+1), and S_aa', A_aa' for a' = N-1-a (+kappa and
    -kappa, kappa = s_a s_a' the same for every a).
    """
    n = ops.n_sites
    blocks = {"none": [(n * n, n % 2)],
              "transpose_sector": [(n * (n + 1) // 2, n % 2), (n * (n - 1) // 2, 0)],
              "commuting": [(1, 0)] * n + [(2, 0)] * (n * (n - 1) // 2)}[structure]
    if ops.mirror is None:
        return sorted(d for d, _ in blocks)
    kappa = int(ops.mirror.signs[0] * ops.mirror.signs[-1])
    if structure == "transpose_sector":
        blocks = [(blocks[0][0], n % 2 + kappa * (n // 2)), (blocks[1][0], -kappa * (n // 2))]
    return sorted(size for d, trace in blocks for size in ((d + trace) // 2, (d - trace) // 2))


MIRROR_MODELS = {"cosine_phi_half_pi", "cosine_phi_half_pi_T05"}


@pytest.mark.parametrize("name", SUITE_MODELS)
def test_blocked_factorizations_match_the_complex_generator(name):
    build, structure = SUITE_MODELS[name]
    n = 7
    ops = build(n)
    L = build_liouvillian(ops).L
    blocks = _diagonal_blocks(_hermitian_basis_generator(ops))
    assert (ops.mirror is not None) == (name in MIRROR_MODELS)
    assert sorted(b.size for b in blocks) == expected_block_sizes(ops, structure)
    w = liouvillian_spectrum(LiouvillianMatrix(n, L))
    tol = 1e-10 * max(1.0, np.abs(w).max())
    prop = MasterPropagator(ops)
    for blocked in (liouvillian_eigenvalues(ops), stationary_states(ops).eigenvalues,
                    prop.eigenvalues):
        assert_multiset_close(blocked, w, tol)
    X = np.random.default_rng(3).normal(size=(n, n, 2)) @ np.array([1.0, 1j])
    for t in (0.3, 2.0, 9.0):
        assert np.abs(vec(prop.evolve(X, t)) - scipy.linalg.expm(L * t) @ vec(X)).max() <= 1e-10


def test_commuting_kernel_basis_is_the_jump_eigenprojectors():
    ops = build_obc(make_cosine_model(1, 0, 1, 0.0), 11)
    report = stationary_states(ops)
    assert report.zero_eigenvalue_multiplicity == 11
    for v, rho in zip(ops.V.T, report.kernel_basis):
        assert np.abs(rho - np.outer(v, v.conj())).max() <= 1e-12
