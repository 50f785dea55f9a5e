"""Exception hierarchy shared by all modules."""


class IcfLabError(Exception):
    """Base class for all errors raised by this package."""


class GridMismatchError(IcfLabError):
    """Two fields (or a field and a grid) live on different grids."""


class DegenerateSurfaceError(IcfLabError):
    """Graph function dropped to or below the positivity floor."""


class ResolutionError(IcfLabError):
    """Grid cannot resolve the surface (non-finite derivatives or
    ill-conditioned first fundamental form)."""


class MeanConvexityError(IcfLabError):
    """Mean curvature is not strictly positive where required."""


class CurvatureConeError(IcfLabError):
    """Principal curvatures left the admissible cone of the speed function."""

    def __init__(self, message, node=None, kappa=None):
        super().__init__(message)
        self.node = node
        self.kappa = kappa


class ConvexityClassError(IcfLabError):
    """A curvature integral that must be positive is not."""


class NotStarShapedError(IcfLabError):
    """Mapped surface is no longer a radial graph over the origin."""


class FlowBlowUpError(IcfLabError):
    """Trajectory of an ambient vector field escaped to infinity."""


class GenerationError(IcfLabError):
    """Surface generation produced an inadmissible graph function."""


class AuditError(IcfLabError):
    """An audit failed its tolerance: a cross-check that must hold by
    construction, or the `invariance` verdict against `--tol`."""
