"""Exception types shared across the package."""


class MolsNetError(Exception):
    """Base class for domain errors raised by this package."""


class ConstructionError(MolsNetError):
    """No square or family can be built for the requested parameters."""


class NotOrthogonalError(MolsNetError):
    """A tuple array failed the distinctness check required to build a graph.

    Carries the orthogonality report so callers can show the colliding cells.
    """

    def __init__(self, report):
        self.report = report
        a, b = report.first_collision
        super().__init__(
            f"array is not orthogonal: cells {a} and {b} hold the same tuple "
            f"({report.distinct_count} distinct tuples)"
        )


class InputError(MolsNetError, ValueError):
    """A parameter a caller passed, such as a subset size or a square index, is out of range."""


class NotLatinError(MolsNetError, ValueError):
    """Square `position` (1-based) of a set is not Latin; `violation` is its first fault."""

    def __init__(self, position: int, violation):
        self.position, self.violation = position, violation
        super().__init__(f"square {position} is not Latin: {violation.describe()}")


class SquareFileError(MolsNetError):
    """Square file cannot be parsed; line is 1-based, column counts tokens."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        prefix = ""
        if line is not None:
            prefix = f"line {line}"
            if column is not None:
                prefix += f", column {column}"
            prefix += ": "
        super().__init__(prefix + message)
