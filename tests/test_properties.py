"""Property-based checks of the propagators on random small band models.

Models have real, even hopping tables and jump tables whose zeroth
coefficient dominates, so P(k) >= 0 holds by construction.  The settings
are derandomized, so every run draws the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_multiset_close
from skinlab import (
    BandModel,
    DensityMatrix,
    MasterPropagator,
    SemiclassicalPropagator,
    build_liouvillian,
    build_obc,
    liouvillian_spectrum,
    propagate_master_rk4,
)

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


def assert_state(rho):
    assert np.abs(rho - rho.conj().T).max() <= 1e-12
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-8


@PROFILE
@given(ops=lattices(), data=st.data(), t=st.floats(0.0, 2.0))
def test_master_routes_keep_state_invariants_and_agree(ops, data, t):
    rho0 = DensityMatrix.site(ops.n_sites, data.draw(st.integers(1, ops.n_sites)))
    spectral = MasterPropagator(build_liouvillian(ops)).propagate(rho0, t).rho
    rk4 = propagate_master_rk4(ops, rho0, t, dt=1e-3).rho
    assert_state(spectral)
    assert_state(rk4)
    assert np.abs(spectral - rk4).max() <= 1e-8


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
