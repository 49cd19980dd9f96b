"""The column-wise CSV writer and the spliced JSON writer against their plain references."""

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rowwise_csv
from skinlab.serialize import density_rows, spectrum_rows, write_csv, write_json

PROFILE = settings(max_examples=60, derandomize=True, deadline=None, database=None)
SPECIAL_FLOATS = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
                  2.2250738585072009e-308, -1e-300, 1e300, 1.7976931348623157e308]

int_column = st.lists(st.integers(-2**63, 2**63 - 1), min_size=1).map(
    lambda xs: np.array(xs, dtype=np.int64))
float_column = st.lists(st.floats() | st.sampled_from(SPECIAL_FLOATS), min_size=1).map(
    lambda xs: np.array(xs, dtype=float))


@st.composite
def column_tables(draw):
    """1-6 columns of random int64 or float64 kind, cut to a common length."""
    columns = draw(st.lists(int_column | float_column, min_size=1, max_size=6))
    n = draw(st.integers(0, min(len(c) for c in columns)))
    return [c[:n] for c in columns]


@PROFILE
@given(column_tables())
@example([np.arange(len(SPECIAL_FLOATS)), np.array(SPECIAL_FLOATS)])
@example([np.array([], dtype=np.int64), np.array([])])
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
