"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands disagree on bit length or matrix shape."""


class BudgetExceeded(RuntimeError):
    """Point-domain enumeration would exceed the configured budget, or one gate
    would build more columns than the construction cap ``sets.MAX_COLUMNS``.

    ``partial`` is what was built before the failure, when the raiser has it:
    ``reach`` passes the ``ReachResult`` of the steps before the failing one."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class NetParseError(ValueError):
    """Malformed network description; carries a 1-based line/column when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", col {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class UndeclaredVariable(NetParseError):
    """Expression references a variable that is not declared or not bound."""


class WidthMismatch(NetParseError):
    """Variables of different widths mixed in one expression."""


class DuplicateUpdate(NetParseError):
    """More than one update rule given for the same state variable."""
