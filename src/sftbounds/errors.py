"""Exception types shared across the library and mapped to CLI exit codes."""


class InputError(ValueError):
    """Malformed or out-of-contract input: bad matrices, inadmissible words, bad parameters."""


class CeilingError(InputError):
    """A resource guard tripped (word-space size, eigensolver dimension, state count)."""


class NotPrimitiveError(InputError):
    """The operation needs a primitive transition matrix."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class VerificationError(RuntimeError):
    """A certified inequality or identity failed beyond numerical slack."""
