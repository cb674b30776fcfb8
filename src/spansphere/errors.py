"""Typed errors shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; anything else is a plain ValueError.
"""

from __future__ import annotations


class SphereError(Exception):
    """Base class for all package errors."""


class InvalidVertex(SphereError):
    """A vertex index lies outside the host's vertex range."""


class BadArity(SphereError):
    """A set size parameter is out of its legal range."""


class NotTightlyConnected(SphereError):
    """Operation requires a tightly connected hypergraph."""


class PreconditionFailed(SphereError):
    """A documented degree/structure precondition does not hold."""


class PartTooSmall(SphereError):
    """A blow-up part cannot supply the vertices an operation needs."""

    def __init__(self, base_vertex: int, needed: int, available: int):
        self.base_vertex = base_vertex
        self.needed = needed
        self.available = available
        super().__init__(
            f"part of base vertex {base_vertex} needs {needed} vertices, has {available}"
        )


class EmptyComplex(SphereError):
    """Operation requires a nonempty simplicial complex."""


class BadOverlap(SphereError):
    """Two complexes overlap in more than the gluing facet."""


class MissingFacet(SphereError):
    """A named facet is not present in the complex."""


class DimMismatch(SphereError):
    """Dimensions of the operands do not line up."""


class WrongDim(SphereError):
    """Operation only defined for a specific dimension."""


class BadParams(SphereError):
    """Construction parameters outside their legal range."""


class HallFailure(SphereError):
    """Bipartite matching cannot saturate the left side."""

    def __init__(self, violator: tuple):
        self.violator = violator
        super().__init__(f"Hall violator of size {len(violator)}: {violator}")


class ParityFixImpossible(SphereError):
    """No edge is available to absorb the odd leftover vertex."""


class NoPerfectMatchingError(SphereError):
    """The leftover graph has no perfect matching."""


class SingletonUnresolvable(SphereError):
    """No edge/vertex choice can absorb the singleton part."""


class ReducedDegreeFailure(SphereError):
    """Degree condition broke after removing the singleton's base vertex."""


class BudgetExceeded(SphereError):
    """Exhaustive enumeration would exceed the configured budget."""


class HypothesisFailed(SphereError):
    """An input transversal induces no member of the property family."""


class ParseError(SphereError):
    """Malformed input file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ChainInvalid(SphereError):
    """Chain certificate failed verification."""


class ChainSolveError(SphereError):
    """Allocation failed while assembling a chain."""

    def __init__(self, link: int, cause: Exception):
        self.link = link
        self.cause = cause
        super().__init__(f"link {link}: {cause}")
