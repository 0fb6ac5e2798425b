import csv
import io as stdio
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sftbounds import io
from sftbounds.cli import main
from sftbounds.errors import InputError
from sftbounds.io import json_text, write_csv


def finite(x):
    """x with every non-finite float, at any nesting depth, replaced by None."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [finite(v) for v in x]
    return x


def oracle(x) -> str:
    return json.dumps(finite(x), indent=2, sort_keys=True, allow_nan=False)


floats = st.floats() | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-320, 1e300])
texts = st.text() | st.sampled_from(['a"b', "back\\slash", "tab\there", "line\nbreak", "é∂😀", "100%", "%s"])
scalars = st.none() | st.booleans() | st.integers() | floats | texts


payloads = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(texts, inner, max_size=4),
    max_leaves=30,
)


@given(st.dictionaries(texts, payloads, max_size=5))
@example({"rows": [{"100%": 1.5, "w": "0", "c": -0.0}, {"100%": math.inf, "w": "1", "c": math.nan}],
          "empty": [], "none": {}, "nested": [[], {"b": [1, (math.inf, -math.inf)]}],
          "zeros": [0.0, -0.0, 0.0, -0.0], "f64": np.float64(math.nan)})
def test_json_text_equals_json_dumps(payload):
    assert json_text(payload) == oracle(payload)


def test_json_text_converts_keys_like_json_dumps():
    payload = {"k": {3: "int", 1.5: "float", True: "bool"}, "n": {None: 0}}
    assert json_text(payload) == oracle(payload)
    with pytest.raises(ValueError):
        json_text({math.inf: 1})
    with pytest.raises(TypeError):
        json_text({(1, 2): 1})


@pytest.mark.parametrize("value", [np.int64(1), np.bool_(True)])
def test_json_text_refuses_numpy_scalars(value):
    for payload in ({"a": value}, {"a": [value]}, {"t": {"c": (value,)}}):
        with pytest.raises(TypeError):
            json.dumps(payload)
        with pytest.raises(TypeError):
            json_text(payload)


def fmt(x) -> str:
    """Per-cell rendering of a CSV body: bools in lower case, floats as the
    shortest round-trip repr, numpy integers as ints, anything else as str."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


csv_texts = st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")) \
    | st.sampled_from(["a,b", 'say "hi"', "two\nlines", "cr\r", " lead", ""])
csv_cells = st.booleans() | st.integers() | floats | csv_texts \
    | st.integers(-2**31, 2**31 - 1).map(np.int32) | st.booleans().map(np.bool_) | floats.map(np.float64)


@st.composite
def csv_tables(draw):
    n = draw(st.integers(0, 6))
    column = st.one_of(
        st.lists(floats, min_size=n, max_size=n),
        st.lists(st.integers(), min_size=n, max_size=n),
        st.lists(csv_texts, min_size=n, max_size=n),
        st.lists(st.booleans().map(np.bool_), min_size=n, max_size=n),
        st.lists(csv_cells, min_size=n, max_size=n),
        st.lists(floats, min_size=n, max_size=n).map(np.array),
        st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
        st.lists(csv_texts, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=str)),
    )
    columns = draw(st.lists(column, min_size=1, max_size=5))
    header = draw(st.lists(csv_texts, min_size=len(columns), max_size=len(columns)))
    return header, columns


@given(csv_tables())
@example((["zeros", "mixed"], [np.array([0.0, -0.0, math.nan, -0.0]), [np.int32(1), 1.0, True, "1"]]))
def test_write_csv_equals_per_cell_writer(tmp_path_factory, table):
    header, columns = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, header, columns)
    expected = stdio.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([fmt(x) for x in row])
    assert path.read_bytes() == expected.getvalue().encode()


def test_write_csv_refuses_columns_of_unequal_length(tmp_path):
    for columns in ([[1, 2], np.array([1.0])], [np.arange(3), ["x"] * 3, []]):
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(tmp_path / "t.csv", ["a", "b", "c"][:len(columns)], columns)
        assert not (tmp_path / "t.csv").exists()


def test_records_columns_of_unequal_length_are_refused(tmp_path):
    # A table of records whose list columns differ in length is refused
    # before any file is written.
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [1]])
    assert not (tmp_path / "t.csv").exists()


def test_io_helpers_are_private():
    # bench/tracer.py wraps every public function; a public per-cell helper
    # would be wrapped and skew traced runs.
    public = [name for name, obj in vars(io).items()
              if callable(obj) and not name.startswith("_") and getattr(obj, "__module__", None) == io.__name__]
    assert sorted(public) == ["json_text", "load_matrix", "load_model", "write_csv", "write_json"]


@pytest.mark.parametrize("circle", ['"false"', '"true"', "0", "1", "null"])
def test_load_model_refuses_a_circle_that_is_not_a_boolean(capsys, tmp_path, circle):
    # "false" read as truthy made the doubling branches a circle map: bound
    # 0.93091 on 7 outer cells at x0 = 0.01, delta = 0.05, against 0.96191 on 4
    branches = ('[{"domain": [0.0, 0.5], "slope": 2.0, "intercept": 0.0},'
                ' {"domain": [0.5, 1.0], "slope": 2.0, "intercept": -1.0}]')
    path = tmp_path / "model.json"
    path.write_text(f'{{"branches": {branches}, "circle": {circle}}}')
    with pytest.raises(InputError, match=f"^{path}: 'circle' must be true or false, got {circle}$"):
        io.load_model(path)
    assert main(["model-dim", "--model", str(path), "--x0", "0.01", "--delta", "0.05"]) == 2
    assert capsys.readouterr().err.startswith("input error: ")
    for flag in ("false", "true"):
        path.write_text(f'{{"branches": {branches}, "circle": {flag}}}')
        assert io.load_model(path).circle is (flag == "true")
