"""File formats: matrices and models as JSON; CSV detail tables with
deterministic float rendering; strict JSON summaries.

Tables travel as columns and are written once, as CSV: `write_csv` takes a
header and its columns and renders each column in one pass, with one
formatter when its values share a type, so no per-row record is built on
the way out. A JSON summary holds scalars and short lists only; `json_text`
writes it with json.dumps (sorted keys, indent 2), non-finite floats as
null."""

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
    """Report a ValueError, TypeError or KeyError (a missing field) raised on a
    file's contents as an InputError."""
    try:
        yield
    except InputError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
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
    "intercept": c}, ...], "circle": bool?}; a circle that is not a JSON
    boolean is refused."""
    name = str(path_or_preset)
    if name in PRESETS:
        return model_preset(name)
    data = _load_json(path_or_preset)
    if "branches" not in data:
        raise InputError(f"{path_or_preset}: missing 'branches'")
    circle = data.get("circle", False)
    if not isinstance(circle, bool):
        raise InputError(f"{path_or_preset}: 'circle' must be true or false, got {json.dumps(circle)}")
    with _parsing(path_or_preset):
        return build_model(data["branches"], circle=circle)


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


_CSV_TEXT = {float: float.__repr__, int: int.__repr__, str: str, bool: _bool}


def _texts(column) -> list[str]:
    """The CSV text of each value of a column (a sequence or 1-d array): one
    formatter for the whole column when its values share an exact type in
    `_CSV_TEXT`, else `_fmt` on each value. A numeric array has each distinct
    value rendered once (distinct bits: -0.0 is not 0.0): a hole table's
    depth, radius and measure columns hold one value per depth, so about a
    fifth of its numeric cells are distinct."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        bits, inverse = np.unique(column.view(f"i{column.itemsize}"), return_inverse=True)
        distinct = _texts(bits.view(column.dtype).tolist())
        return np.array(distinct, dtype=object)[inverse].tolist()
    values = list(column)
    kinds = set(map(type, values))
    text = _CSV_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
    return list(map(text or _fmt, values))


def write_csv(path: str | Path, header: list[str], columns: list) -> None:
    """A CSV table from its header and its columns (sequences or 1-d arrays
    of one length), rendered a column at a time."""
    texts = [_texts(c) for c in columns]
    if len(set(map(len, texts))) > 1:
        raise ValueError(f"columns differ in length: {[len(t) for t in texts]}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*texts))


def _nulled(x):
    """x with every non-finite float, at any nesting depth, replaced by None;
    dict keys are left as they are."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _nulled(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_nulled(v) for v in x]
    return x


def json_text(payload: dict) -> str:
    """Strict JSON with sorted keys and an indent of 2; every non-finite
    float is written as null."""
    return json.dumps(_nulled(payload), indent=2, sort_keys=True, allow_nan=False)


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json_text(payload) + "\n")
