"""File formats: matrices and models as JSON; CSV detail tables with
deterministic float rendering; strict JSON summaries.

Tables travel as columns. `write_csv` takes a header and its columns, and a
`Records` value in a JSON payload is a table of named columns written as the
list of its rows. Each column is rendered in one pass, with one formatter
when its values share a type, so no per-row record is built on the way out.
`json_text` is the one JSON encoder: its bytes are those of
json.dumps(x, indent=2, sort_keys=True, allow_nan=False) once non-finite
floats are replaced by null (CPython skips its C encoder whenever `indent`
is set, so json.dumps renders every scalar in Python)."""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import InputError
from .models import PRESETS, ExpandingModel, build_model, model_preset
from .sft import TransitionMatrix, transition_matrix


def _load_json(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object at top level")
    return data


@contextmanager
def _parsing(path):
    """Report a ValueError or TypeError raised on a file's contents as an InputError."""
    try:
        yield
    except InputError:
        raise
    except (ValueError, TypeError) as exc:
        raise InputError(f"{path}: malformed contents ({exc})") from exc


def load_matrix(path: str | Path) -> TransitionMatrix:
    """Read {"size": s, "rows": [[0/1, ...], ...]}."""
    data = _load_json(path)
    if "rows" not in data:
        raise InputError(f"{path}: missing 'rows'")
    rows = data["rows"]
    with _parsing(path):
        if "size" in data and len(rows) != int(data["size"]):
            raise InputError(f"{path}: 'size' is {data['size']} but {len(rows)} rows given")
        return transition_matrix(rows)


def load_model(path_or_preset: str | Path) -> ExpandingModel:
    """A preset name, or a path to {"branches": [{"domain": [a, b], "slope": s,
    "intercept": c}, ...], "circle": bool?}."""
    name = str(path_or_preset)
    if name in PRESETS:
        return model_preset(name)
    data = _load_json(path_or_preset)
    if "branches" not in data:
        raise InputError(f"{path_or_preset}: missing 'branches'")
    with _parsing(path_or_preset):
        return build_model(data["branches"], circle=bool(data.get("circle", False)))


def _fmt(x) -> str:
    """One CSV cell: bools in lower case, floats as their shortest round-trip
    repr, numpy integers as ints, anything else as str."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _texts(column, text_of: dict, fallback) -> list[str]:
    """The text of each value of a column (a sequence or 1-d array): one
    formatter for the whole column when its values share an exact type in
    `text_of`, else `fallback` on each value. A numeric array has each
    distinct value rendered once (distinct bits: -0.0 is not 0.0): a hole
    table's depth, radius and measure columns hold one value per depth, so
    about a fifth of its numeric cells are distinct."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        bits, inverse = np.unique(column.view(f"i{column.itemsize}"), return_inverse=True)
        distinct = _texts(bits.view(column.dtype).tolist(), text_of, fallback)
        return np.array(distinct, dtype=object)[inverse].tolist()
    values = list(column)
    kinds = set(map(type, values))
    text = text_of.get(kinds.pop()) if len(kinds) == 1 else None
    return list(map(text or fallback, values))


def _rows(texts: list[list[str]]):
    if len(set(map(len, texts))) > 1:
        raise ValueError(f"columns differ in length: {[len(t) for t in texts]}")
    return zip(*texts)


_CSV_TEXT = {float: float.__repr__, int: int.__repr__, str: str, bool: _bool}


def write_csv(path: str | Path, header: list[str], columns: list) -> None:
    """A CSV table from its header and its columns (sequences or 1-d arrays
    of one length), rendered a column at a time."""
    rows = _rows([_texts(c, _CSV_TEXT, _fmt) for c in columns])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


class Records:
    """A table held as named columns (sequences or 1-d arrays of one length).
    In a JSON payload it is written as the list of its rows, each an object
    keyed by column name."""

    __slots__ = ("columns",)

    def __init__(self, columns: dict):
        self.columns = columns


_string = json.encoder.encode_basestring_ascii


def _key(k) -> str:
    """A dict key as json.dumps converts it."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k, allow_nan=False)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _encode(x, level: int) -> str:
    """x as json.dumps(x, indent=2, sort_keys=True) writes it at nesting
    depth `level`, with non-finite floats as null."""
    if isinstance(x, str):
        return _string(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return float.__repr__(x) if math.isfinite(x) else "null"
    if isinstance(x, Records):
        return _encode_records(x.columns, level)
    item = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        return "[" + item + ("," + item).join(_encode(v, level + 1) for v in x) + close + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        fields = (f"{_string(_key(k))}: {_encode(v, level + 1)}" for k, v in sorted(x.items()))
        return "{" + item + ("," + item).join(fields) + close + "}"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


_JSON_TEXT = {float: float.__repr__, int: int.__repr__, str: _string, bool: _bool}
# float.__repr__ writes a non-finite float as one of these, texts that no
# other JSON value has; they are written as null.
_NULL = {"inf": "null", "-inf": "null", "nan": "null"}


def _encode_records(columns: dict, level: int) -> str:
    """A Records table at nesting depth `level`: each column's values are
    rendered once, then every row fills one template."""
    keys = sorted(columns)
    texts = [_texts(columns[k], _JSON_TEXT, lambda v: _encode(v, level + 2)) for k in keys]
    rows = list(_rows([list(map(_NULL.get, t, t)) for t in texts]))
    if not rows:
        return "[]"
    item = "\n" + "  " * (level + 1)
    field = "\n" + "  " * (level + 2)
    names = (_string(k).replace("%", "%%") for k in keys)
    template = "{" + ",".join(f"{field}{name}: %s" for name in names) + item + "}"
    return "[" + item + ("," + item).join(template % row for row in rows) + "\n" + "  " * level + "]"


def json_text(payload: dict) -> str:
    """Strict JSON, the bytes of json.dumps(payload, indent=2, sort_keys=True,
    allow_nan=False) once every non-finite float is replaced by null; a
    Records value is written as the list of its rows."""
    return _encode(payload, 0)


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json_text(payload) + "\n")
