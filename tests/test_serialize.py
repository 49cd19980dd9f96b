"""The column-wise CSV writer and the spliced JSON writer against their plain references.

The writers format each distinct float magnitude once and give a negative
value its magnitude's text with a "-", so the pooled strategies draw values
from a few magnitudes with random signs, the special values among them.
"""

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rowwise_csv
from skinlab.serialize import (
    density_rows,
    frames_to_json,
    matrix_to_json,
    spectrum_rows,
    write_csv,
    write_json,
)

PROFILE = settings(max_examples=60, derandomize=True, deadline=None, database=None)
SPECIAL_FLOATS = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
                  2.2250738585072009e-308, -1e-300, 1e300, 1.7976931348623157e308]

int_column = st.lists(st.integers(-2**63, 2**63 - 1), min_size=1).map(
    lambda xs: np.array(xs, dtype=np.int64))
float_column = st.lists(st.floats() | st.sampled_from(SPECIAL_FLOATS), min_size=1).map(
    lambda xs: np.array(xs, dtype=float))
NEGATIVE_NAN = float(np.copysign(np.nan, -1.0))
POOL_MAGNITUDES = [0.0, NEGATIVE_NAN, float("inf"), 5e-324, 1.7976931348623157e308]


@st.composite
def pooled(draw, shape):
    """Float64 array of the shape whose values are 1-4 magnitudes with random sign bits."""
    pool = draw(st.lists(st.floats(min_value=0.0) | st.sampled_from(POOL_MAGNITUDES),
                         min_size=1, max_size=4))
    size = int(np.prod(shape))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=size, max_size=size))
    return np.copysign(np.array(pool)[picks], signs).reshape(shape)


pooled_column = st.integers(1, 40).flatmap(lambda n: pooled((n,)))
pooled_array = (st.tuples(st.integers(0, 6)) | st.tuples(st.integers(0, 4), st.integers(0, 4))
                ).flatmap(pooled)


@st.composite
def hermitian(draw):
    """Exactly Hermitian complex matrix of pooled real and imaginary parts."""
    n = draw(st.integers(1, 5))
    M = np.empty((n, n), dtype=complex)
    M.real, M.imag = draw(pooled((n, n))), draw(pooled((n, n)))
    lower = np.tril(np.ones((n, n), dtype=bool), -1)
    M[lower] = M.T[lower].conj()
    M.imag[np.diag_indices(n)] = 0.0
    return M


@st.composite
def column_tables(draw):
    """1-6 columns of random int64, float64 or pooled float64 kind, cut to a common length."""
    columns = draw(st.lists(int_column | float_column | pooled_column, min_size=1, max_size=6))
    n = draw(st.integers(0, min(len(c) for c in columns)))
    return [c[:n] for c in columns]


@PROFILE
@given(column_tables())
@example([np.arange(len(SPECIAL_FLOATS)), np.array(SPECIAL_FLOATS)])
@example([np.array([], dtype=np.int64), np.array([])])
@example([np.arange(8), np.array([0.0, -0.0, NEGATIVE_NAN, float("nan"), float("inf"),
                                  -float("inf"), 5e-324, -5e-324])])
def test_write_csv_matches_the_rowwise_writer(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    columns = [f"c{i}" for i in range(len(data))]
    header = ["skinlab test", "columns: " + ",".join(columns)]
    assert write_csv(path, columns, data, header) == path
    assert path.read_text() == rowwise_csv(columns, zip(*data), header)


json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(st.characters(), max_size=8))
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(st.characters(), max_size=6), children, max_size=5),
    max_leaves=40,
)


@PROFILE
@given(json_values)
@example({"é": [], "b": {}, "a": [1, [2.5, None], {"x": True}, "ü"], "c": [[[]], [{}]]})
@example({2: [0.1, -0.0], 10: {"k": [False, "☃"]}})
@example([[1e-21, float("nan"), float("inf")], []])
def test_write_json_matches_indented_json_dumps(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("json") / "obj.json"
    assert write_json(path, obj) == path
    assert path.read_text() == json.dumps(obj, indent=1, sort_keys=True) + "\n"


def assert_json_as_tolist(path, obj):
    """write_json(obj) is json.dumps with every ndarray written as its tolist()."""
    assert write_json(path, obj) == path
    reference = json.dumps(obj, indent=1, sort_keys=True, default=np.ndarray.tolist)
    assert path.read_text() == reference + "\n"


json_with_arrays = st.recursive(
    json_scalars | pooled_array | int_column,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(st.characters(), max_size=6), children, max_size=4),
    max_leaves=12,
)


@PROFILE
@given(json_with_arrays)
@example({"v": np.array([0.0, -0.0, NEGATIVE_NAN, float("inf"), -float("inf"), -5e-324]),
          "m": np.array([[1.5, -1.5], [-0.0, 1.7976931348623157e308]]),
          "empty": [np.zeros(0), np.zeros((0, 3)), np.zeros((2, 0))]})
def test_write_json_writes_arrays_as_their_lists(tmp_path_factory, obj):
    assert_json_as_tolist(tmp_path_factory.mktemp("json") / "obj.json", obj)


@PROFILE
@given(st.lists(hermitian(), min_size=1, max_size=3), st.floats(0.0, 10.0))
def test_hermitian_matrices_frames_and_densities_write_as_their_references(tmp_path_factory, matrices, t):
    path = tmp_path_factory.mktemp("json") / "obj.json"
    for M in matrices:
        assert np.array_equal(M, M.conj().T, equal_nan=True)
    frames = [(t, np.arange(len(M)) - len(M) // 2, M) for M in matrices]
    assert_json_as_tolist(path, {"kernel_basis": [matrix_to_json(M) for M in matrices],
                                 **frames_to_json(frames)})
    columns = ["n", "m", "re", "im", "abs"]
    for _, sites, M in frames:
        with np.errstate(over="ignore"):   # |z| of parts near 1.8e308 is inf
            data = density_rows(sites, M)
        write_csv(path.with_suffix(".csv"), columns, data)
        assert path.with_suffix(".csv").read_text() == rowwise_csv(columns, zip(*data))


def test_density_abs_column_is_the_scalar_abs_bit_for_bit():
    rng = np.random.default_rng(5)
    shape = (300, 300)
    scale = 10.0 ** rng.uniform(-300, 300, size=shape)
    rho = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    rho[0, :4] = [0.0, -0.0j, 1e-320 + 1e-320j, 3.0 - 4.0j]
    sites = np.arange(-150, 150)
    _, _, re, im, mag = density_rows(sites, rho)
    scalar = np.array([abs(z) for z in rho.ravel()])
    assert np.array_equal(mag.view(np.int64), scalar.view(np.int64))
    assert np.array_equal(re + 1j * im, rho.ravel())


def test_row_helpers_write_the_rowwise_layout(tmp_path):
    rng = np.random.default_rng(6)
    rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    sites = np.arange(-2, 2)
    w = np.array([1 + 2j, -0.5j, 1e-300 - 3e300j])
    pos = np.array([1.5, 2.0, 3.25])
    cases = [
        (density_rows(sites, rho),
         [(n, m, rho[i, j].real, rho[i, j].imag, abs(rho[i, j]))
          for i, n in enumerate(sites) for j, m in enumerate(sites)]),
        (spectrum_rows(w), [(i, E.real, E.imag) for i, E in enumerate(w)]),
        (spectrum_rows(w, pos), [(i, E.real, E.imag, pos[i]) for i, E in enumerate(w)]),
    ]
    for data, rows in cases:
        columns = [f"c{i}" for i in range(len(data))]
        write_csv(tmp_path / "t.csv", columns, data)
        assert (tmp_path / "t.csv").read_text() == rowwise_csv(columns, rows)
