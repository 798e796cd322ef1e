"""Exception types shared across the package."""


class MeshError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MeshError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message, path=None, line=None):
        where = str(path) if path is not None else "<input>"
        if line is not None:
            where = f"{where}:{line}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line


class FaceIndexError(MeshError):
    """A face references a vertex index outside the vertex array, or repeats one."""


class UnsupportedFormat(MeshError):
    """File format not recognized or not supported (e.g. binary PLY)."""


class FormatCapabilityError(MeshError):
    """Requested an export feature the chosen format cannot carry."""


class EmptyMeshError(MeshError):
    """Operation requires a mesh with at least one face."""


class ConnectivityMismatch(MeshError):
    """Two meshes differ in face count or face indices."""


class CountMismatch(MeshError):
    """Two meshes differ in vertex count."""


class EdgeMismatch(MeshError):
    """Histograms were built on different bin edges."""


class EmptyFieldError(MeshError):
    """Curvature field has no usable samples."""


class TraceTooShort(MeshError):
    """Energy trace has too few entries for a convergence slope."""


class BadResolution(MeshError, ValueError):
    """A mesh generator's count is not an integer of at least its floor."""


class NonFiniteError(MeshError):
    """A vertex coordinate is NaN or infinite."""


class DegenerateMeshError(MeshError):
    """The edge scale is 0 or not finite, or a length or area overflows."""
