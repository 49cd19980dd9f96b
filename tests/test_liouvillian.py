import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    SUITE_MODELS,
    assert_multiset_close,
    conjugation_symmetric,
    diagonal_blocks,
    hermitian_basis,
    hermitian_basis_generator,
    jump_eigenbasis_generator,
    master_rhs,
)
from test_cli import src_env
from skinlab import (
    BandModel,
    DensityMatrix,
    LatticeOperators,
    MasterPropagator,
    NumericalFailure,
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
from skinlab import _threads, liouvillian
from skinlab.lattice_ops import Construction
from skinlab.liouvillian import (
    SORT_TIE_TOL,
    ZERO_TOL_SCALE,
    LiouvillianMatrix,
    _block_eigenvalues,
    _eigvals_in_place,
    _generator_blocks,
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
        M = hermitian_basis_generator(ops)
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
    scale = np.abs(hermitian_basis_generator(ops)).max() / ops.n_sites
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


def traced_peak(call):
    """The call's result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_real_generator_assembly_allocates_little_beyond_its_output():
    # the cosine chain at phi = pi/2 also rotates its blocks to the mirror sectors
    mirrored = build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 40)
    assert mirrored.mirror is not None
    for ops in (build_hatano_nelson(1, 2, 40), mirrored):
        (_, stacks), peak = traced_peak(lambda: _generator_blocks(ops))
        held = sum(stack.nbytes for _, stack in stacks)
        # the pattern is N^4 booleans; the dense generator alone would be N^4 floats
        assert peak <= 2.5 * held + ops.n_sites**4
        assert peak < 8 * ops.n_sites**4


def test_commuting_blocks_are_assembled_without_an_n4_pattern():
    ops = build_obc(make_cosine_model(1, 0, 1, 0.0), 64)
    assert ops.structure == "commuting"
    (blocks, _), peak = traced_peak(lambda: _generator_blocks(ops))
    assert {b.size for b in blocks} == {1, 2}
    # the blocks take 65 kB; an N^4-boolean pattern alone would take 16.8 MB
    assert peak < ops.n_sites**4 / 4


def with_one_block_split(labels, coords):
    """:func:`liouvillian._labels` with the coordinates ``coords`` given a label of their own."""
    def split(ops):
        label = labels(ops)
        label[coords] = label.max() + 1
        return label
    return split


def with_one_sign_flipped(mirror_pairs):
    """:func:`liouvillian._mirror_pairs` with the sign of |0><0| -> |N-1><N-1| flipped."""
    def flipped(ops):
        sigma, eps = mirror_pairs(ops)
        eps[0] = -eps[0]
        return sigma, eps
    return flipped


WRONG_BLOCKS = {   # name: (lattice, the patch that makes its blocks wrong)
    # |0><0| cut off its block, without a mirror and with one (|0><0| and its image |5><5|)
    "split_block": (lambda: build_hatano_nelson(1, 2, 6),
                    lambda: ("_labels", with_one_block_split(liouvillian._labels, [0]))),
    "split_mirror_block": (lambda: build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 6),
                           lambda: ("_labels", with_one_block_split(liouvillian._labels, [0, 5]))),
    # |0><0| alone: the mirror maps one label onto two
    "unpaired_mirror_block": (lambda: build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 6),
                              lambda: ("_labels", with_one_block_split(liouvillian._labels, [0]))),
    # the rotation mixes the two sectors
    "flipped_sector": (lambda: build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 6),
                       lambda: ("_mirror_pairs", with_one_sign_flipped(liouvillian._mirror_pairs))),
}


@pytest.mark.parametrize("call", [liouvillian_eigenvalues, stationary_states, MasterPropagator],
                         ids=["eigenvalues", "stationary", "propagator"])
@pytest.mark.parametrize("case", WRONG_BLOCKS)
def test_wrong_blocks_raise_before_any_lapack_call(case, call, monkeypatch):
    build, patch = WRONG_BLOCKS[case]
    ops = build()
    monkeypatch.setattr(liouvillian, *patch())

    def lapack(*args, **kwargs):
        raise AssertionError("a LAPACK routine ran on blocks that are not the generator's")

    for name in ("eig", "eigvals", "svd", "inv", "cond", "solve"):
        monkeypatch.setattr(np.linalg, name, lapack)
    monkeypatch.setattr(liouvillian, "_eigvals_in_place", lapack)
    with pytest.raises(NumericalFailure):
        call(ops)


@pytest.mark.parametrize("build,multiple", [
    (lambda: build_hatano_nelson(1, 2, 40), 2),
    (lambda: build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 24), 2),
    (lambda: build_hatano_nelson(1, 2, 40), 4),
    (lambda: build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 24), 4),
], ids=["eigenvalues-hatano_nelson_n40", "eigenvalues-mirror_n24",
        "propagator-hatano_nelson_n40", "propagator-mirror_n24"])
def test_dense_solves_allocate_a_small_multiple_of_the_blocks(build, multiple):
    """Peak traced memory <= multiple * sum(block^2) * 8 bytes + N^4 bytes + 1 MiB.

    A start of full rank reaches every block, so the propagator holds the
    real R and R^-1 (2x the blocks) besides the blocks themselves, and while
    a block is factored, eig's complex eigenvectors (2x that block) until R
    is made from them.
    """
    ops = build()
    n = ops.n_sites
    blocks = 8 * sum(b.size**2 for b in _generator_blocks(ops)[0])
    X = np.random.default_rng(4).normal(size=(n, n, 2)) @ np.array([1.0, 1j])
    rho0 = DensityMatrix(X @ X.conj().T / np.trace(X @ X.conj().T).real)
    call = (lambda: liouvillian_eigenvalues(ops)) if multiple == 2 else \
        (lambda: MasterPropagator(ops, rho0))
    result, peak = traced_peak(call)
    if multiple == 4:
        assert result.factored_blocks == len(result.blocks)
    assert peak <= multiple * blocks + n**4 + 2**20


needs_dgeev = pytest.mark.skipif(_threads.dgeev() is None,
                                 reason="numpy's LAPACK has no dgeev symbol to call")

IN_PLACE_CASES = {
    "hatano_nelson_n12": lambda: build_hatano_nelson(1, 2, 12),
    "mirror_n10": lambda: build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 10),
    "commuting_n7": lambda: build_obc(make_cosine_model(1, 0, 1, 0.0), 7),
}


@needs_dgeev
@pytest.mark.parametrize("case", IN_PLACE_CASES)
def test_in_place_solves_give_the_bits_of_numpy_eigvals(case):
    ops = IN_PLACE_CASES[case]()
    stacks = _generator_blocks(ops)[1]
    assert (ops.mirror is not None) == (case == "mirror_n10")
    dtypes = set()
    for idx, stack in stacks:
        expect = np.linalg.eigvals(stack)
        solved = stack.copy(order="K")
        for got in (_eigvals_in_place(solved), _eigvals_in_place(np.ascontiguousarray(stack))):
            assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()
        dtypes.add(expect.dtype)
        if idx.shape[1] > 2:        # solved where it lies: the Schur form overwrote it
            assert not np.array_equal(solved, stack)
    if case == "mirror_n10":         # sectors of equal size share a stack
        assert max(idx.shape[0] for idx, _ in stacks) > 1
    if case == "commuting_n7":       # 1x1 and 2x2 stacks; the kernel's stack is all real
        assert sorted(idx.shape[1] for idx, _ in stacks) == [1, 2]
        assert dtypes == {np.dtype(float), np.dtype(complex)}


@pytest.mark.parametrize("case", IN_PLACE_CASES)
def test_without_dgeev_the_spectrum_falls_back_to_eigvals_with_the_same_bits(case, monkeypatch):
    ops = IN_PLACE_CASES[case]()
    found = [liouvillian_eigenvalues(ops), stationary_states(ops).eigenvalues]
    monkeypatch.setattr(_threads, "dgeev", lambda: None)
    fallback = [liouvillian_eigenvalues(ops), stationary_states(ops).eigenvalues]
    for a, b in zip(found, fallback):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_propagator_eigenvalues_leave_its_pending_blocks_intact():
    ops = build_hatano_nelson(1, 2, 9)
    site = np.diag(np.eye(9)[4])
    X = np.random.default_rng(6).normal(size=(9, 9, 2)) @ np.array([1.0, 1j])
    full = X @ X.conj().T / np.trace(X @ X.conj().T).real
    read = MasterPropagator(ops, site)
    assert 0 < read.factored_blocks < len(read.blocks)
    read.eigenvalues
    fresh = MasterPropagator(ops, site)
    for t in (0.5, 3.0):
        assert read.evolve(full, t).tobytes() == fresh.evolve(full, t).tobytes()
    assert read.factored_blocks == len(read.blocks)


@pytest.mark.parametrize("in_place", [True, False], ids=["in_place", "fallback"])
def test_a_non_finite_block_raises_numerical_failure(in_place, monkeypatch):
    if not in_place:
        monkeypatch.setattr(_threads, "dgeev", lambda: None)
    elif _threads.dgeev() is None:
        pytest.skip("numpy's LAPACK has no dgeev symbol to call")
    for bad in (np.nan, np.inf, -np.inf):
        stack = np.eye(3)[None].copy(order="K")
        stack[0, 1, 2] = bad
        with pytest.raises(NumericalFailure):
            _block_eigenvalues([(np.arange(3)[None], stack)])
    if in_place:                    # and no pointer to anything but real square matrices
        for wrong in (np.eye(3, dtype=np.float32)[None], np.eye(3) + 0j, np.ones((1, 2, 3))):
            with pytest.raises(ValueError):
                _eigvals_in_place(wrong)


def test_eigenvalue_solves_grow_the_resident_set_by_under_twice_the_blocks():
    """ru_maxrss, unlike tracemalloc, sees LAPACK's buffers: numpy's copy of each block among them."""
    script = """
import resource
import numpy as np
from skinlab import build_hatano_nelson, liouvillian_eigenvalues
from skinlab._threads import pinned
ops = build_hatano_nelson(1, 2, 40)
np.linalg.eigvals(np.eye(2))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with pinned():
    liouvillian_eigenvalues(ops)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
    grown = 1024 * int(subprocess.run([sys.executable, "-c", script], env=src_env(),
                                      capture_output=True, text=True, timeout=300,
                                      check=True).stdout)
    blocks = 8 * sum(b.size**2 for b in _generator_blocks(build_hatano_nelson(1, 2, 40))[0])
    assert grown <= 2 * blocks


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
    kappa = int(ops.mirror[0] * ops.mirror[-1])
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
    blocks = diagonal_blocks(hermitian_basis_generator(ops))
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
