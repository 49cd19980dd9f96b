import numpy as np
import pytest
import scipy.linalg

from conftest import SUITE_MODELS, assert_multiset_close
from skinlab import (
    BandModel,
    Construction,
    NotPSDError,
    ParameterError,
    build_hatano_nelson,
    build_obc,
    distance_to_curve,
    hatano_nelson_pbc_dispersion,
    make_cosine_model,
    momentum_grid,
    obc_spectrum,
    pbc_loop,
    skin_localization,
    sqrt_psd,
    winding_numbers,
)
from skinlab.lattice_ops import SECTOR_TOL, _forest_phases
from skinlab.serialize import matrix_from_json, matrix_to_json


def closed_form_jump_matrix(J1, J2, N):
    """Independent evaluation of the finite eigenmode sum for the jump matrix."""
    n = np.arange(1, N + 1)
    P = np.zeros((N, N))
    for a in range(1, N + 1):
        E = 2 * (J2 - J1) * (1 + np.cos(np.pi * a / (N + 1)))
        v = np.sin(np.pi * n * a / (N + 1))
        P = P + np.sqrt(E) * np.outer(v, v)
    P *= 2.0 / (N + 1)
    return P * np.exp(1j * np.pi * (n[:, None] - n[None, :]) / 2)


def test_build_obc_truncate_p_phi_zero():
    ops = build_obc(make_cosine_model(1, 0, 1, 0), 5)
    expect = np.eye(5) + 0.5 * (np.eye(5, k=1) + np.eye(5, k=-1))
    assert np.abs(ops.P - expect).max() < 1e-14
    assert np.abs(ops.P2 - ops.P @ ops.P).max() < 1e-14
    assert np.abs(ops.H_eff - (ops.H - 0.5j * ops.P2)).max() < 1e-14


def test_build_obc_truncate_p_phi_half_pi():
    # Fourier coefficients p_{+-1} = (R/2) e^{-+ i phi} under the package
    # convention X_{n,n'} = p_{n-n'}
    ops = build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 5)
    assert abs(ops.P[0, 1] - 0.5j) < 1e-14
    assert abs(ops.P[1, 0] + 0.5j) < 1e-14
    assert np.abs(np.diag(ops.P) - 1.0).max() < 1e-14


def test_build_obc_no_dissipation():
    model = BandModel({1: 1.0, -1: 1.0}, {})
    ops = build_obc(model, 6)
    assert np.abs(ops.P).max() == 0
    assert np.abs(ops.H_eff - ops.H).max() == 0
    w = obc_spectrum(ops).eigenvalues
    assert np.abs(w.imag).max() < 1e-10


def test_build_obc_range_check():
    with pytest.raises(ParameterError):
        build_obc(make_cosine_model(1, 0.5, 1, 0), 2)


def test_truncate_p2_then_sqrt_consistency():
    model = make_cosine_model(1, 0, 1, 0.4)
    ops = build_obc(model, 9, Construction.TRUNCATE_P2_THEN_SQRT)
    assert np.abs(ops.P2 - ops.P @ ops.P).max() < 1e-10
    assert np.linalg.eigvalsh(ops.P).min() > -1e-10


def test_sqrt_psd_basics():
    assert np.abs(sqrt_psd(np.eye(4)) - np.eye(4)).max() < 1e-14
    assert np.abs(sqrt_psd(np.diag([4.0, 9.0])) - np.diag([2.0, 3.0])).max() < 1e-14
    with pytest.raises(ParameterError):
        sqrt_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotPSDError):
        sqrt_psd(np.diag([1.0, -1e-6]))


def test_sqrt_psd_matches_closed_form():
    ops = build_hatano_nelson(1, 2, 8)
    assert np.abs(ops.P - closed_form_jump_matrix(1, 2, 8)).max() < 1e-10


def test_sqrt_psd_idempotent_consistency():
    rng = np.random.default_rng(11)
    for n in (3, 6, 10):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        S = sqrt_psd(A @ A.conj().T)
        assert np.abs(sqrt_psd(S @ S) - S).max() < 1e-9


def test_hatano_nelson_p2_eigenvalues():
    for N in (8, 61):
        ops = build_hatano_nelson(1, 2, N)
        a = np.arange(1, N + 1)
        expect = np.sort(2 * (2 - 1) * (1 + np.cos(np.pi * a / (N + 1))))
        assert np.abs(np.sort(np.linalg.eigvalsh(ops.P2)) - expect).max() < 1e-10


def test_hatano_nelson_effective_hamiltonian_structure():
    ops = build_hatano_nelson(1.0, 2.0, 6)
    assert abs(ops.H_eff[2, 3] - 1.0) < 1e-12   # right hopping J1
    assert abs(ops.H_eff[3, 2] - 2.0) < 1e-12   # left hopping J2
    assert abs(ops.H_eff[3, 3] + 1j) < 1e-12    # on-site loss -i(J2-J1)


def test_hatano_nelson_degenerate_hoppings():
    ops = build_hatano_nelson(1, 1, 7)
    assert np.abs(ops.P2).max() == 0
    assert np.abs(ops.H_eff - ops.H_eff.conj().T).max() < 1e-14


def test_hatano_nelson_parameter_check():
    with pytest.raises(ParameterError):
        build_hatano_nelson(2, 1, 5)


def test_hatano_nelson_pbc_dispersion():
    k = momentum_grid(256)
    E = hatano_nelson_pbc_dispersion(1, 2, k)
    assert np.all(E.imag <= 1e-14)
    assert abs(E[np.argmin(np.abs(k + np.pi / 2))]) < 1e-12


def test_obc_spectrum_open_chain():
    ops = build_obc(BandModel({1: 1.0, -1: 1.0}, {}), 9)
    w = obc_spectrum(ops).eigenvalues
    expect = np.sort(2 * np.cos(np.pi * np.arange(1, 10) / 10))
    assert np.abs(np.sort(w.real) - expect).max() < 1e-10


@pytest.mark.parametrize("phi", [0.0, np.pi / 4, np.pi / 2])
def test_obc_spectrum_matches_scipy_eigvals(phi):
    # at N = 11 every eigenvalue's condition number is at most 50 (at N = 50, phi = pi/2 it
    # is about 2.5e10), so two correct LAPACK builds agree far inside the tolerance
    ops = build_obc(make_cosine_model(1, 0, 1, phi), 11)
    tol = 1e-10 * np.linalg.norm(ops.H_eff, 2)
    assert_multiset_close(obc_spectrum(ops).eigenvalues, scipy.linalg.eigvals(ops.H_eff), tol)


def test_obc_eigenvalues_inside_pbc_loop():
    model = make_cosine_model(1, 0, 1, np.pi / 2)
    report = obc_spectrum(build_obc(model, 50))
    loop = pbc_loop(model, 1024)
    assert np.all(winding_numbers(report.eigenvalues, loop) != 0)


def test_obc_eigenvalues_on_pbc_curve_when_symmetric():
    model = make_cosine_model(1, 0, 1, 0)
    report = obc_spectrum(build_obc(model, 50))
    dist = distance_to_curve(report.eigenvalues, pbc_loop(model, 2048))
    assert dist.max() < 0.05


def test_skin_localization_diagnostic():
    hermitian = build_obc(BandModel({1: 1.0, -1: 1.0}, {}), 11)
    assert abs(skin_localization(obc_spectrum(hermitian), 11)) < 1e-10
    skin = build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 50)
    assert abs(skin_localization(obc_spectrum(skin), 50)) > 0.3
    symmetric = build_obc(make_cosine_model(1, 0, 1, 0), 50)
    assert abs(skin_localization(obc_spectrum(symmetric), 50)) < 0.05


def test_commutator_structure_of_truncations():
    sym = build_obc(make_cosine_model(1, 0, 1, 0), 11)
    comm = sym.H @ sym.P - sym.P @ sym.H
    assert np.abs(comm).max() < 1e-12
    skew = build_obc(make_cosine_model(1, 0, 1, np.pi / 2), 11)
    comm = skew.H @ skew.P - skew.P @ skew.H
    assert np.abs(comm).max() > 0.1


def test_eigenvector_gauge_is_deterministic():
    ops = build_obc(make_cosine_model(1, 0, 1, 0.9), 15)
    v1 = obc_spectrum(ops).right_eigenvectors
    v2 = obc_spectrum(ops).right_eigenvectors
    assert np.array_equal(v1, v2)
    lead = np.argmax(np.abs(v1), axis=0)
    lead_vals = v1[lead, np.arange(v1.shape[1])]
    assert np.abs(lead_vals.imag).max() < 1e-12
    assert np.all(lead_vals.real > 0)


def test_matrix_json_round_trip():
    ops = build_obc(make_cosine_model(1, 0, 1, 0.3), 4)
    back = matrix_from_json(matrix_to_json(ops.H_eff))
    assert np.abs(back - ops.H_eff).max() < 1e-15


@pytest.mark.parametrize("n", [11, 24])
@pytest.mark.parametrize("name", SUITE_MODELS)
def test_jump_eigenbasis_exposes_the_model_structure(name, n):
    build, structure = SUITE_MODELS[name]
    ops = build(n)
    assert ops.structure == structure
    V, H_tilde = ops.V, ops.H_tilde
    assert np.abs(V.conj().T @ V - np.eye(n)).max() <= 1e-13
    assert np.abs((V * ops.p) @ V.conj().T - ops.P).max() <= 1e-13
    assert np.abs(V @ H_tilde @ V.conj().T - ops.H).max() <= 1e-13
    off = H_tilde[~np.eye(n, dtype=bool)]
    energies = H_tilde.diagonal()
    if structure == "commuting":
        assert not off.any() and not energies.imag.any()
    elif structure == "transpose_sector":
        assert not off.real.any() and not energies.imag.any() and np.ptp(energies.real) == 0
    elif ops.mirror is None:   # nothing dropped, however small
        assert np.array_equal(H_tilde, V.conj().T @ ops.H @ V)
    else:   # made mirror-symmetric, W H_tilde W^dagger = H_tilde with W the signed reversal
        h = V.conj().T @ ops.H @ V
        symmetrized = 0.5 * (h + np.outer(ops.mirror, ops.mirror) * h[::-1, ::-1])
        assert np.abs(H_tilde - symmetrized).max() <= SECTOR_TOL * max(1.0, np.abs(h).max())
    if ops.construction is Construction.TRUNCATE_P2_THEN_SQRT:
        assert np.abs(ops.P - sqrt_psd(ops.P2)).max() <= 1e-13


def test_square_root_constructions_diagonalize_once(monkeypatch):
    calls = []

    def counting(name, original):
        def wrapper(a, *args, **kwargs):
            calls.append(name)
            return original(a, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    build_hatano_nelson(1, 2, 40)
    assert calls == ["eigh"]
    calls.clear()
    build_obc(make_cosine_model(1, 0, 1, 0.4), 9, Construction.TRUNCATE_P2_THEN_SQRT)
    assert calls == ["eigh"]


@pytest.mark.parametrize("seed", range(3))
def test_forest_phases_come_along_the_heaviest_links(seed):
    """M = G (R + E) G^dagger: R real symmetric with a row of 1e-6 entries, E round-off.

    E is the size of the noise V^dagger H V leaves, 1e-16 max|R|, and blurs the
    angles of the 1e-6 entries by about 1e-10.  Every index links to index 0,
    the first root, so a breadth-first forest would take every phase from
    those entries; the heaviest links gauge M real to round-off.
    """
    rng = np.random.default_rng(seed)
    n = 12
    R = rng.normal(size=(n, n))
    R += R.T
    R[0, 1:] = R[1:, 0] = 1e-6 * rng.normal(size=n - 1)
    E = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    E = 0.5e-16 * np.abs(R).max() * (E + E.conj().T)
    G = np.exp(2j * np.pi * rng.random(n))
    M = G[:, None] * (R + E) * G.conj()[None, :]
    g = np.exp(1j * _forest_phases(np.abs(M), -np.angle(M)))
    gauged = g.conj()[:, None] * M * g[None, :]
    assert np.abs(gauged.imag).max() <= 1e-14 * np.abs(M).max()
