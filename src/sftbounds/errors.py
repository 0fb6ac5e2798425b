"""Exception types shared across the library and mapped to CLI exit codes, and
the row-by-row check of a stack."""

import numpy as np


class InputError(ValueError):
    """Malformed or out-of-contract input: bad matrices, inadmissible words, bad parameters."""


class CeilingError(InputError):
    """A resource guard tripped (word-space size, stack size, state count)."""


class NotPrimitiveError(InputError):
    """The operation needs a primitive transition matrix."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class VerificationError(RuntimeError):
    """A certified inequality or identity failed beyond numerical slack."""


def first_failure(checks) -> tuple[int, str] | None:
    """The first row of a stack that fails one of `checks`, with the message of
    the first check it fails, or None: what a loop over the rows, testing each
    in turn, would stop at. Each check pairs a boolean mask over the rows with
    a function from a row index to its message."""
    failed = np.array([mask for mask, _ in checks])
    rows = np.flatnonzero(failed.any(axis=0))
    if not rows.size:
        return None
    i = int(rows[0])
    return i, checks[int(failed[:, i].argmax())][1](i)
