"""The mirror weak symmetry and the sectors it splits the dense generator into.

A model carries the mirror when P's spectrum pairs as p_a + p_(N-1-a) = c and
a phased reversal W of P's eigenbasis commutes with H_tilde; then
S: rho -> W rho W^dagger commutes with L.  The oracles here are the complex
N^2 x N^2 superoperator and scipy's expm and connected components.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from conftest import (
    SUITE_MODELS,
    assert_multiset_close,
    cosine,
    diagonal_blocks,
    generator_basis,
    hermitian_basis_generator,
    mirror_lattices,
)
from skinlab import (
    BandModel,
    DensityMatrix,
    MasterPropagator,
    build_hatano_nelson,
    build_liouvillian,
    build_obc,
    liouvillian_spectrum,
    vec,
)
from skinlab.lattice_ops import Construction, LatticeOperators, _find_mirror
from skinlab.liouvillian import _generator_blocks

MIRROR_MODELS = {"cosine_phi_half_pi", "cosine_phi_half_pi_T05"}
PROFILE = settings(max_examples=8, derandomize=True, deadline=None, database=None)


def site_mirror_operator(ops):
    """W in the site basis, from the mirror's signed reversal of its eigenbasis."""
    n, V = ops.n_sites, ops.V
    W = np.zeros((n, n))
    W[np.arange(n)[::-1], np.arange(n)] = ops.mirror
    return V @ W @ V.conj().T


def superoperator(W):
    """S vec(rho) = vec(W rho W^dagger) for column-stacked vec."""
    return np.kron(W.conj(), W)


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("name", SUITE_MODELS)
def test_mirror_commutes_with_the_generator_and_squares_to_one(name, n):
    ops = SUITE_MODELS[name][0](n)
    assert (ops.mirror is not None) == (name in MIRROR_MODELS)
    if ops.mirror is None:
        return
    W = site_mirror_operator(ops)
    assert np.abs(W @ W.conj().T - np.eye(n)).max() <= 1e-13
    assert np.abs(W @ ops.H @ W.conj().T - ops.H).max() <= 1e-13
    c = ops.p[0] + ops.p[-1]
    assert np.abs(W @ ops.P @ W.conj().T - (c * np.eye(n) - ops.P)).max() <= 1e-13
    # for the cosine chain at phi = pi/2 it is the site mirror, up to a global phase
    J = np.eye(n)[::-1]
    phase = W[0, n - 1]
    assert abs(abs(phase) - 1.0) <= 1e-13 and np.abs(W - phase * J).max() <= 1e-13
    S, L = superoperator(W), build_liouvillian(ops).L
    assert np.abs(L @ S - S @ L).max() <= 1e-13
    assert np.abs(S @ S - np.eye(n * n)).max() <= 1e-13


@pytest.mark.parametrize("n", [7, 8, 11, 24, 61, 64])
@pytest.mark.parametrize("name", sorted(MIRROR_MODELS))
def test_the_lattice_operators_are_exactly_mirror_symmetric(name, n):
    # the one copy of H_tilde and D that every route reads, not to round-off but exactly
    ops = SUITE_MODELS[name][0](n)
    assert np.array_equal(ops.H_tilde[::-1, ::-1], np.outer(ops.mirror, ops.mirror) * ops.H_tilde)
    assert np.array_equal(ops.D[::-1, ::-1], ops.D)


@pytest.mark.parametrize("n", [61, 64, 80])
def test_the_mirror_of_a_long_chain_is_found(n):
    # H_tilde's smallest entries (8e-5 at N = 61) carry angles blurred by round-off;
    # the phases come along the largest ones
    ops = cosine(np.pi / 2, T=0.5)(n)
    assert ops.structure == "none" and ops.mirror is not None
    found = _find_mirror(ops.p, ops.V, ops.H_tilde)
    assert found is not None and np.array_equal(found[0], ops.mirror)
    W = site_mirror_operator(ops)
    assert np.abs(W @ ops.H @ W.conj().T - ops.H).max() <= 1e-12
    c = ops.p[0] + ops.p[-1]
    assert np.abs(W @ ops.P @ W.conj().T - (c * np.eye(n) - ops.P)).max() <= 1e-12


def test_the_mirror_halves_the_n61_generator():
    blocks, stacks = _generator_blocks(cosine(np.pi / 2, T=0.5)(61))
    assert [b.size for b in blocks] == [1861, 1860]
    assert [stack.shape for _, stack in stacks] == [(1, 1861, 1861), (1, 1860, 1860)]


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("name", sorted(MIRROR_MODELS))
def test_sector_spectra_match_the_complex_generator(name, n):
    ops = SUITE_MODELS[name][0](n)
    L = build_liouvillian(ops).L
    B = generator_basis(ops)
    S = (B.conj().T @ superoperator(site_mirror_operator(ops)) @ B).real
    # the generator's basis diagonalizes the mirror: each block lies in one sector
    assert np.abs(S - np.diag(np.diag(S))).max() <= 1e-13
    sign = np.rint(np.diag(S))
    assert np.abs(np.diag(S) - sign).max() <= 1e-13
    M = hermitian_basis_generator(ops)
    by_sector = {1.0: [], -1.0: []}
    for b in diagonal_blocks(M):
        assert np.all(sign[b] == sign[b[0]])
        by_sector[sign[b[0]]].append(np.linalg.eigvals(M[np.ix_(b, b)]))
    for s, parts in by_sector.items():
        # L restricted to the sector's range, from the complex superoperator alone
        w, U = np.linalg.eigh(superoperator(site_mirror_operator(ops)))
        Q = U[:, np.abs(w - s) <= 1e-8]
        expect = liouvillian_spectrum(type(build_liouvillian(ops))(n, Q.conj().T @ L @ Q),
                                      cap=n**4)
        assert_multiset_close(np.concatenate(parts), expect, 1e-10)
    assert_multiset_close(np.concatenate([*by_sector[1.0], *by_sector[-1.0]]),
                          liouvillian_spectrum(build_liouvillian(ops)), 1e-10)


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("name", sorted(MIRROR_MODELS))
def test_sector_propagation_matches_expm_of_the_complex_generator(name, n):
    ops = SUITE_MODELS[name][0](n)
    L = build_liouvillian(ops).L
    X = np.random.default_rng(n).normal(size=(n, n, 2)) @ np.array([1.0, 1j])
    random_start = DensityMatrix((X @ X.conj().T) / np.trace(X @ X.conj().T).real)
    site_start = DensityMatrix.site(n, 2)
    props = [MasterPropagator(ops, rho0) for rho0 in (random_start, site_start)]
    for prop, rho0 in zip(props, (random_start, site_start)):
        for t in (0.3, 2.0, 9.0):
            expect = scipy.linalg.expm(L * t) @ vec(rho0.rho)
            assert np.abs(vec(prop.evolve(rho0, t)) - expect).max() <= 1e-10
    # a random start reaches every sector; a site start only the even and odd sectors
    # of the symmetric block when the transpose gauge is there too
    blocks = len(props[0].blocks)
    assert props[0].factored_blocks == blocks
    assert props[1].factored_blocks == (2 if ops.structure == "transpose_sector" else blocks)


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("build", [
    lambda n: build_hatano_nelson(1.0, 2.0, n),
    cosine(np.pi / 4),
    cosine(0.7, T=0.3),
    cosine(0.0),
    cosine(np.pi / 2, R=0.0),                   # P = 0: fully degenerate
], ids=["hatano_nelson", "phi_quarter_pi", "phi_0.7_T03", "commuting", "no_jumps"])
def test_models_without_the_mirror_are_detected_as_such(build, n):
    ops = build(n)
    assert ops.mirror is None
    assert _find_mirror(ops.p, ops.V, ops.H_tilde) is None


def test_degenerate_jump_spectrum_has_no_mirror():
    H = np.diag([0.0, 1.0, 2.0, 1.0]) + 0.3 * (np.eye(4, k=1) + np.eye(4, k=-1))
    P = np.diag([1.0, 1.0, 2.0, 2.0])       # pairs up as c - p, but degenerately
    ops = LatticeOperators(4, H.astype(complex), P.astype(complex), (P @ P).astype(complex),
                           H - 0.5j * P @ P, Construction.TRUNCATE_P)
    assert ops.mirror is None


@PROFILE
@given(data=st.data(), n=st.integers(3, 8))
def test_random_models_with_the_mirror_split_into_sectors(data, n):
    ops = mirror_lattices(data.draw, n)
    assert ops.mirror is not None
    W = site_mirror_operator(ops)
    S, L = superoperator(W), build_liouvillian(ops).L
    assert np.abs(L @ S - S @ L).max() <= 1e-13
    blocks = diagonal_blocks(hermitian_basis_generator(ops))
    assert len(blocks) >= 2
    prop = MasterPropagator(ops)
    assert_multiset_close(prop.eigenvalues, liouvillian_spectrum(build_liouvillian(ops)), 1e-10)
    rho0 = DensityMatrix.site(n, 1)
    assert np.abs(vec(MasterPropagator(ops, rho0).evolve(rho0, 1.5))
                  - scipy.linalg.expm(1.5 * L) @ vec(rho0.rho)).max() <= 1e-10


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(n=st.integers(1, 40), density=st.floats(0.0, 0.2), seed=st.integers(0, 2**16))
def test_diagonal_blocks_are_the_connected_components(n, density, seed):
    rng = np.random.default_rng(seed)
    M = np.where(rng.random((n, n)) < density, rng.normal(size=(n, n)), 0.0)
    blocks = diagonal_blocks(M)
    count, label = connected_components(M != 0, directed=True, connection="weak")
    assert len(blocks) == count
    assert sorted(np.concatenate(blocks).tolist()) == list(range(n))
    for b in blocks:
        assert np.all(np.diff(b) > 0) and np.all(label[b] == label[b[0]])
    assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
