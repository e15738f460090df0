import numpy as np
import pytest

from fermicrystal import (
    TorusSpec,
    box_density,
    build_ground_state,
    enumerate_basis,
    ground_occupations,
    perturbed_box_density,
)


@pytest.fixture(scope="session")
def spec1d():
    return TorusSpec(1, 2, 16)


@pytest.fixture(scope="session")
def sigma1d(spec1d):
    return box_density(spec1d, 1)


@pytest.fixture(scope="session")
def basis1d(spec1d):
    return enumerate_basis(spec1d, 8.0 * np.pi**2)


@pytest.fixture(scope="session")
def gs1d(basis1d, sigma1d):
    return build_ground_state(basis1d, sigma1d)


@pytest.fixture(scope="session")
def spec2d():
    return TorusSpec(2, 2, 8)


@pytest.fixture(scope="session")
def sigma2d_box(spec2d):
    return box_density(spec2d, 1)


@pytest.fixture(scope="session")
def sigma2d_perturbed(spec2d):
    return perturbed_box_density(spec2d, k=2, amplitude=0.5, decay=2.0)


@pytest.fixture(scope="session")
def basis2d(spec2d):
    return enumerate_basis(spec2d, 3.0 * np.pi**2 + 1e-9)


@pytest.fixture(scope="session")
def gs3d():
    """d = 3 perturbed box, basis at 2 omega0 + pi^2: B = 416, n = 880."""
    spec = TorusSpec(3, 2, 8)
    _, omega0 = ground_occupations(spec)
    sigma = perturbed_box_density(spec, k=2, amplitude=0.5, decay=2.0)
    return build_ground_state(enumerate_basis(spec, 2.0 * omega0 + np.pi**2), sigma)
