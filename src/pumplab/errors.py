"""Exception types shared across the package."""


class PumpLabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(PumpLabError):
    pass


class NonBinaryVector(PumpLabError):
    pass


class InvalidInstance(PumpLabError):
    pass


class InstanceInfeasible(PumpLabError):
    """The LP relaxation of the instance has no feasible point."""


class SolverFailure(PumpLabError):
    """Simplex gave up: pivot limit hit or numerics broke down."""


class NoFixpoint(PumpLabError):
    """Repeated alternating projection did not reach a fixpoint within the cap."""


class NotACertificate(PumpLabError):
    """No projected certificate exists for the queried point."""


class EmptyCertificateSupport(PumpLabError):
    """A certificate row combination with no binary support cannot drive flips."""


class FormatError(PumpLabError):
    """Malformed instance text (native or MPS)."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no
