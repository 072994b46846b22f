"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: usage problems exit 1,
falsification of a verified property exits 2, numeric failures exit 3.
"""


class ParameterError(ValueError):
    """Invalid construction parameters (bad n, k out of range, ...)."""


class EmptyGraphError(ParameterError):
    """A generator was asked for a graph on zero vertices."""


class DisconnectedError(ValueError):
    """An operation that requires a connected graph got a disconnected one."""


class ParseError(ValueError):
    """A text input file failed to parse; carries a line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ContractViolation(ValueError):
    """An input violated a documented precondition (e.g. non-Hermitian matrix)."""


class InternalConsistencyError(RuntimeError):
    """Two routes that must agree exactly disagreed; signals a bug, not bad input."""


class NumericError(RuntimeError):
    """A numeric eigensolve failed: LAPACK did not converge, or the input had
    a non-finite entry."""


class BudgetError(ValueError):
    """An exhaustive enumeration would exceed the stated budget; refused."""


class FalsificationError(RuntimeError):
    """A machine-checked theorem property failed on a concrete witness.

    Carries the witness gain graph, which the CLI writes as a reproducer file.
    Any instance of this is an implementation bug until proven otherwise.
    """

    def __init__(self, theorem, detail, gain):
        super().__init__(f"{theorem}: {detail}")
        self.theorem = theorem
        self.detail = detail
        self.gain = gain
