import json

import numpy as np
import pytest

from skinlab import (
    BandModel,
    ParameterError,
    eval_dispersion,
    is_p_symmetric,
    make_cosine_model,
    momentum_grid,
    pbc_spectrum,
)


def test_cosine_model_pointwise_values():
    m = make_cosine_model(1, 0, 1, 0)
    assert abs(m.p(0.0) - 2.0) < 1e-14
    m2 = make_cosine_model(1, 0, 1, np.pi / 2)
    assert abs(m2.p(0.0) - 1.0) < 1e-14


def test_cosine_model_coefficients_phi_quarter_pi():
    phi = np.pi / 4
    m = make_cosine_model(1, 0, 1, phi)
    assert abs(m.p_coeffs[1] - 0.5 * np.exp(-1j * phi)) < 1e-15
    assert abs(m.p_coeffs[-1] - 0.5 * np.exp(+1j * phi)) < 1e-15
    # oracle: direct pointwise evaluation of R [1 + cos(k + phi)]
    k = momentum_grid(64)
    assert np.abs(m.p(k) - (1 + np.cos(k + phi))).max() < 1e-14


def test_cosine_model_dispersion_formula():
    k = momentum_grid(128)
    m = make_cosine_model(0.7, -0.2, 1.3, 0.3)
    assert np.abs(m.h(k) - (2 * 0.7 * np.cos(k) + 2 * (-0.2) * np.cos(2 * k))).max() < 1e-13
    assert np.abs(m.p(k) - 1.3 * (1 + np.cos(k + 0.3))).max() < 1e-13


def test_cosine_model_rejects_negative_rate():
    with pytest.raises(ParameterError):
        make_cosine_model(1, 0, -0.5, 0)


def test_eval_dispersion_examples():
    m = make_cosine_model(1, 0, 1, 0)
    H, P = eval_dispersion(m, np.pi)
    assert abs(H - (-2)) < 1e-12 and abs(P) < 1e-12
    H, P = eval_dispersion(m, 0.0)
    assert abs(H - 2) < 1e-12 and abs(P - 2) < 1e-12
    m2 = make_cosine_model(1, 0.5, 1, 0)
    H, _ = eval_dispersion(m2, np.pi / 2)
    assert abs(H - (-1)) < 1e-12


def test_dispersion_is_real_for_valid_models():
    rng = np.random.default_rng(3)
    k = momentum_grid(257 - 1)
    for _ in range(20):
        h = {}
        for m_range in (1, 2, 3):
            val = rng.normal()
            h[m_range] = h[-m_range] = val
        # non-negative P: constant term dominating a random cosine series
        amp = rng.uniform(0, 0.4)
        phase = rng.uniform(-np.pi, np.pi)
        p = {0: 1.0, 1: amp * np.exp(-1j * phase), -1: amp * np.exp(1j * phase)}
        model = BandModel(h, p)
        assert np.abs(model.h(k).imag).max() < 1e-12
        assert np.abs(model.p(k).imag).max() < 1e-12


def test_pbc_spectrum_examples():
    m = make_cosine_model(1, 0, 1, 0)
    k, E = pbc_spectrum(m, 8)
    i0 = np.argmin(np.abs(k))
    assert abs(E[i0] - (2 - 2j)) < 1e-12
    m2 = make_cosine_model(1, 0, 1, np.pi / 2)
    _, E2 = pbc_spectrum(m2, 8)
    assert abs(E2[i0] - (2 - 0.5j)) < 1e-12
    assert np.all(E.imag <= 0) and np.all(E2.imag <= 0)
    # dissipation vanishes exactly where P does
    mask = np.abs(m.p(k)) < 1e-13
    assert np.all(np.abs(E.imag[mask]) < 1e-12)


def test_pbc_spectrum_traces_closed_curve():
    m = make_cosine_model(1, 0.3, 1, 0.5)
    gaps = []
    for n_k in (64, 256, 1024):
        _, E = pbc_spectrum(m, n_k)
        gaps.append(abs(E[0] - E[-1]))
    assert gaps[2] < gaps[0]
    assert gaps[2] < 10.0 / 1024


def test_is_p_symmetric():
    assert is_p_symmetric(make_cosine_model(1, 0, 1, 0))
    assert is_p_symmetric(make_cosine_model(1, 0, 1, np.pi))
    assert not is_p_symmetric(make_cosine_model(1, 0, 1, np.pi / 4))
    assert is_p_symmetric(BandModel({1: 1.0, -1: 1.0}, {0: 2.0}))
    for phi in np.linspace(0.1, np.pi - 0.1, 7):
        assert not is_p_symmetric(make_cosine_model(1, 0, 1, phi))


def test_model_invariant_violations_raise():
    with pytest.raises(ParameterError):
        BandModel({1: 1.0}, {})  # missing conjugate partner
    with pytest.raises(ParameterError):
        BandModel({1: 1j, -1: -1j}, {})  # complex hopping breaks time reversal
    with pytest.raises(ParameterError):
        BandModel({}, {0: 1.0, 1: 0.9, -1: 0.9})  # P(k) dips negative


@pytest.mark.parametrize("h", [
    [[1.5, 1.0, 0.0], [-1.5, 1.0, 0.0]],                    # int() would read m = +-1
    [[1, 1.0, 0.0], [-1, 1.0, 0.0], [1.0, 2.0, 0.0]],       # the last row would overwrite m = 1
    [["1", 1.0, 0.0], [-1, 1.0, 0.0]],
], ids=["non_integral", "repeated", "text"])
def test_coefficient_tables_reject_non_integral_and_repeated_indices(h):
    with pytest.raises(ParameterError):
        BandModel.from_json({"h": h, "p": [[0, 1.0, 0.0]]})


def test_integral_float_indices_are_the_integers():
    m = BandModel.from_json({"h": [[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0]], "p": [[0.0, 1.0, 0.0]]})
    assert m.to_json() == BandModel({1: 1.0, -1: 1.0}, {0: 1.0}).to_json()
    assert all(type(k) is int for k in (*m.h_coeffs, *m.p_coeffs))
    with pytest.raises(ParameterError):
        BandModel({0.5: 1.0, -0.5: 1.0}, {0: 1.0})


def test_json_round_trip():
    m = make_cosine_model(1.5, -0.25, 0.8, 0.7)
    obj = m.to_json()
    json.dumps(obj)  # layout must be JSON-clean
    back = BandModel.from_json(obj)
    assert back.h_coeffs == m.h_coeffs
    assert back.p_coeffs == m.p_coeffs
    assert back.label == m.label


def test_momentum_grid_convention():
    k = momentum_grid(8)
    assert k[0] == -np.pi
    assert abs(k[1] - k[0] - np.pi / 4) < 1e-15
    with pytest.raises(ParameterError):
        momentum_grid(1)
