import numpy as np
import pytest

from icflab.radial_graph import StarShapedHypersurface
from icflab.sphere_grid import GridSpec, ScalarField, make_grid
from icflab.surfaces import harmonic_surface, sphere_surface, spheroid_surface

SPEC16 = GridSpec(16, 32)
SPEC32 = GridSpec(32, 64)
SPEC48 = GridSpec(48, 96)
SPEC64 = GridSpec(64, 128)

# the seeded harmonic test surface: asymmetric (odd modes) so transport
# rates and centers of mass are generically nonzero
HARMONIC_TERMS = [(2, 2, 0.1), (3, 1, 0.05)]


@pytest.fixture(scope="session")
def sphere64():
    return sphere_surface(1.0, SPEC64)


@pytest.fixture(scope="session")
def spheroid64():
    return spheroid_surface(1.0, 0.6, SPEC64)


@pytest.fixture(scope="session")
def harmonic64():
    return harmonic_surface(1.0, HARMONIC_TERMS, SPEC64)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def scaled(surface, c):
    """The surface dilated by c about the origin: graph function c f."""
    return StarShapedHypersurface(ScalarField(surface.spec, c * surface.values))


def nodes(spec):
    grid = make_grid(spec)
    return np.meshgrid(np.arccos(grid.cos_theta), grid.phi, indexing="ij")
