"""Exception types shared across the package, and the integer rule that
every integer input follows.

Everything raised on bad input or refused work derives from QtlabError so the
CLI can map validation failures to exit code 2 and size-cap refusals to 3.
"""

import operator


def as_int(value) -> int:
    """An int or a string of one, as integer `--params` and the `lm fit`
    sample directions take them; a bool or a float is a TypeError and an
    unreadable string a ValueError."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value) if isinstance(value, str) else operator.index(value)


class QtlabError(Exception):
    """Base class for all qtlab errors."""


class EmptyGraph(QtlabError):
    pass


class DisconnectedGraph(QtlabError):
    """Raised when a graph expected to be connected is not.

    Carries two vertex ids from distinct components.
    """

    def __init__(self, u, v):
        self.u = u
        self.v = v
        super().__init__(f"graph is disconnected: no path between {u!r} and {v!r}")


class SizeLimitExceeded(QtlabError):
    """An operation refused to run because the input exceeds its vertex cap."""

    def __init__(self, n, cap, op=""):
        self.n = n
        self.cap = cap
        self.op = op
        super().__init__(f"{op or 'operation'}: {n} vertices exceeds cap {cap}")


class VertexNotFound(QtlabError):
    pass


class FormatError(QtlabError):
    """Malformed graph/action file."""


class OutOfTruncation(QtlabError):
    """A partial map was applied outside its domain.

    letter_index is the position (0-based) of the first failing letter in the
    word being evaluated; vertex is where the evaluation stood at that point.
    """

    def __init__(self, letter_index, vertex, letter=""):
        self.letter_index = letter_index
        self.vertex = vertex
        self.letter = letter
        super().__init__(
            f"letter {letter or letter_index} undefined at vertex {vertex!r} "
            f"(position {letter_index})"
        )


class NotATree(QtlabError):
    pass


class NotAQuasitree(QtlabError):
    pass


class EndNotInvariant(QtlabError):
    pass


class CenterNotFound(QtlabError):
    pass


class RadiusTooLarge(QtlabError):
    """The ball around the center swallows every boundary vertex."""


class InvalidChain(QtlabError):
    pass


class UnknownFamily(QtlabError):
    pass


class UnknownFixture(QtlabError):
    pass


class NegativeExponent(QtlabError):
    """A negative matrix power was requested for a non-invertible matrix."""


class DimensionMismatch(QtlabError):
    pass


class NormMismatch(QtlabError):
    pass


class FactorMismatch(QtlabError):
    pass


class DegenerateSamples(QtlabError):
    pass
