"""Exception types shared across curvekit."""


class CurveKitError(Exception):
    """Base class for all curvekit errors."""


class ValidationError(CurveKitError, ValueError):
    """Input data violates a documented invariant."""


class ParseError(CurveKitError):
    """A snapshot file could not be parsed."""


class NoSolutionError(CurveKitError):
    """A root solve has no solution inside its bracket."""


class FitFailureError(CurveKitError):
    """An estimator failed to converge."""


class SingularSystemError(CurveKitError):
    """A linear system stayed singular after jitter escalation."""


class DivergenceError(CurveKitError):
    """Network training produced a non-finite loss or a curve that left the yield bracket."""

    def __init__(self, message: str, epoch: int, bond_index: int):
        super().__init__(message)
        self.epoch = epoch
        self.bond_index = bond_index

    def __reduce__(self):  # pickled from a worker process: ``args`` holds the message alone
        return type(self), (str(self), self.epoch, self.bond_index)


class InvalidDiscountError(CurveKitError):
    """A fitted discount factor is zero or negative where a yield was requested."""
