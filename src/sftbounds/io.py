"""File formats: matrices, measures, locally constant functions, and models as
JSON; CSV detail tables with deterministic float rendering."""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import InputError
from .measures import (
    LocallyConstantFunction,
    MarkovMeasure,
    function_from_dict,
    markov_measure,
)
from .models import ExpandingModel, build_model, model_preset
from .sft import TransitionMatrix, transition_matrix

MODEL_PRESETS = ("doubling", "triadic", "golden")


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


def save_matrix(path: str | Path, A: TransitionMatrix) -> None:
    write_json(path, {"size": A.size, "rows": [list(row) for row in A.rows]})


def load_measure(path: str | Path, A: TransitionMatrix) -> MarkovMeasure:
    """Read {"stationary": [...], "transition": [[...], ...]} over the matrix A."""
    data = _load_json(path)
    for key in ("stationary", "transition"):
        if key not in data:
            raise InputError(f"{path}: missing '{key}'")
    return markov_measure(data["stationary"], data["transition"], A)


def load_function(path: str | Path, A: TransitionMatrix) -> LocallyConstantFunction:
    """Read {"depth": d, "values": {"word": x, ...}}; every admissible word required."""
    data = _load_json(path)
    for key in ("depth", "values"):
        if key not in data:
            raise InputError(f"{path}: missing '{key}'")
    return function_from_dict(A, int(data["depth"]), data["values"])


def load_model(path_or_preset: str | Path) -> ExpandingModel:
    """A preset name, or a path to {"branches": [{"domain": [a, b], "slope": s,
    "intercept": c}, ...], "circle": bool?}."""
    name = str(path_or_preset)
    if name in MODEL_PRESETS:
        return model_preset(name)
    data = _load_json(path_or_preset)
    if "branches" not in data:
        raise InputError(f"{path_or_preset}: missing 'branches'")
    with _parsing(path_or_preset):
        return build_model(data["branches"], circle=bool(data.get("circle", False)))


def fmt(x) -> str:
    """Deterministic scalar rendering for CSV bodies (shortest round-trip floats)."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(x) for x in row])


def write_json(path: str | Path, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")
