"""Domain errors raised by the outersplit package.

Every error that reflects bad input or an impossible request derives from
OutersplitError so callers (and the CLI) can catch one base class.  Parse
errors carry a line number because they point at a concrete spot in a file.
"""


class OutersplitError(Exception):
    """Base class for all domain errors in this package."""


# -- plane graph construction ------------------------------------------------

class AsymmetricRotation(OutersplitError):
    """A vertex lists a neighbor that does not list it back."""


class SelfLoop(OutersplitError):
    """A vertex lists itself as a neighbor."""


class ParallelEdge(OutersplitError):
    """A vertex lists the same neighbor twice; neighbor-list rotations
    cannot express parallel edges unambiguously.  vertex names it."""

    def __init__(self, message: str, vertex=None):
        self.vertex = vertex
        super().__init__(message)


class Disconnected(OutersplitError):
    """The rotation system describes a disconnected graph."""


class NotPlanar(OutersplitError):
    """The rotation system is consistent but does not embed in the sphere
    (V - E + F != 2), or has no edges and so no face."""


class OuterFaceUnset(OutersplitError):
    """An operation needs a designated outer face and none is set."""


# -- vertex splitting --------------------------------------------------------

class NotIncident(OutersplitError):
    """The vertex is not on the boundary of the given face."""


class SameFace(OutersplitError):
    """A split needs two distinct faces."""


class DanglingVertex(OutersplitError):
    """The vertex has degree below two and cannot be split."""


class InvalidCover(OutersplitError):
    """The face set is not a connected face cover of the graph."""


class ReplayFailure(OutersplitError):
    """A recorded split sequence does not replay on the given graph."""


class NotOuterplane(OutersplitError):
    """The replayed graph has no face incident to every vertex."""


# -- solving -----------------------------------------------------------------

class SelfLoopPresent(OutersplitError):
    """The dual graph has a self-loop, so no feedback vertex set exists
    that leaves it loop-free at that node."""


class UnknownNode(OutersplitError):
    """A dual graph has an edge with an end that is not one of its
    nodes."""


class CertificateFailure(OutersplitError):
    """A feedback vertex set failed to induce a connected face cover;
    this signals an implementation bug, not bad input."""


class NotBiconnected(OutersplitError):
    """The operation requires a biconnected graph."""


class CapExceeded(OutersplitError):
    """The instance is larger than a configured cap: a generator's size
    cap, a brute-force oracle's, or the elimination width cap of the
    exact feedback vertex set solver."""


# -- reductions --------------------------------------------------------------

class NotCubic(OutersplitError):
    """The vertex cover instance must be 3-regular."""


class NotACover(OutersplitError):
    """The mapped vertex set fails to cover every edge; this signals an
    implementation bug in the correspondence, not bad input."""


class NotAVertexCover(OutersplitError):
    """The given vertex set is not a vertex cover of the instance."""


# -- generators --------------------------------------------------------------

class UnknownFamily(OutersplitError):
    """No generator is registered under the requested family name."""


class InfeasibleParameters(OutersplitError):
    """The requested parameters are outside the feasible range for the
    family, or no sample satisfied them within the retry budget."""


# -- bounds ------------------------------------------------------------------

class NotMaximalPlanar(OutersplitError):
    """The bound formula applies only to maximal planar (all faces
    triangles) graphs."""


# -- file formats and drawing ------------------------------------------------

class ParseError(OutersplitError):
    """A text input failed to parse; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnwritableName(OutersplitError):
    """A vertex name that the text formats cannot carry: empty, holding
    whitespace, or holding '#', which starts a comment."""


class LayoutFailure(OutersplitError):
    """No usable straight-line layout was found for the drawing."""


class WriteFailure(OutersplitError):
    """An output file could not be written."""
