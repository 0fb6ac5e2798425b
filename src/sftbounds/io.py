"""File formats: matrices and models as JSON; CSV detail tables with
deterministic float rendering; strict JSON summaries."""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import InputError
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


def _finite(x):
    """x with every non-finite float, at any nesting depth, replaced by None."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(v) for v in x]
    return x


def json_text(payload: dict) -> str:
    """Strict JSON with sorted keys: non-finite floats are written as null."""
    return json.dumps(_finite(payload), indent=2, sort_keys=True, allow_nan=False)


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json_text(payload) + "\n")
