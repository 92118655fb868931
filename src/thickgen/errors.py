"""Exception hierarchy.

ParseError is the only class the CLI maps to exit code 1; every
EngineError subclass maps to exit code 2.
"""


class EngineError(Exception):
    """Base for all errors raised by the algebra engine."""


class RingMismatchError(EngineError):
    """Operands belong to different rings."""


class TierError(EngineError):
    """Operation not available for this ring kind."""


class NotDivisibleError(EngineError):
    """Exact division requested but the quotient does not exist."""


class NoSolutionError(EngineError):
    """Linear system has no exact solution over the ring."""


class StepBudgetExceededError(EngineError):
    """A step-budgeted computation ran past its limit."""

    def __init__(self, label, limit):
        super().__init__(f"step budget exceeded in {label} (limit {limit})")
        self.label = label
        self.limit = limit


class ExponentLimitError(EngineError):
    """A monomial exponent past polys.EXP_LIMIT."""


class RadicalBoundExceededError(EngineError):
    """Radical membership undecided within the configured power bound."""


class LevelBoundExceededError(EngineError):
    """Level search passed its safety cap without an answer."""


class PowersStabilizedError(EngineError):
    """Ideal powers stabilized below the requested exponent, so the
    requested obstruction certificate does not exist."""

    def __init__(self, index, message=None):
        super().__init__(message or f"ideal powers stabilize at exponent {index}")
        self.index = index


class DisconnectedSpectrumError(EngineError):
    """The ring has a nontrivial idempotent; carries one as witness."""

    def __init__(self, witness, message=None):
        super().__init__(message or f"spectrum is disconnected: idempotent {witness} found")
        self.witness = witness


class ConnectednessUnknownError(EngineError):
    """Connectedness could not be decided (incomplete factorization)."""


class FactorizationIncompleteError(EngineError):
    """Factorization routine could not fully split the input."""


class WitnessValidationError(EngineError):
    """A build witness failed re-validation; carries the node path."""

    def __init__(self, path, reason):
        super().__init__(f"witness invalid at {path}: {reason}")
        self.path = path
        self.reason = reason


class ComplexFormatError(EngineError):
    """Complex or chain-map data fails a structural check (shape
    mismatch, d composed with d nonzero, non-commuting square)."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


class ParseError(Exception):
    """Script syntax or structural error, with 1-based position."""

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{loc}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col
