"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.shapes import hexagon, line, random_connected, ring, spiral, staircase


@pytest.fixture
def single_particle() -> ParticleConfiguration:
    return ParticleConfiguration([(0, 0)])


@pytest.fixture
def triangle() -> ParticleConfiguration:
    return ParticleConfiguration([(0, 0), (1, 0), (0, 1)])


@pytest.fixture
def line10() -> ParticleConfiguration:
    return line(10)


@pytest.fixture
def flower() -> ParticleConfiguration:
    """The seven-particle filled hexagon."""
    return hexagon(1)


@pytest.fixture
def hex_ring() -> ParticleConfiguration:
    """A six-particle ring enclosing one hole."""
    return ring(1)


@pytest.fixture
def spiral30() -> ParticleConfiguration:
    return spiral(30)


@pytest.fixture
def random_configs() -> list[ParticleConfiguration]:
    """A deterministic batch of random connected configurations of varied shapes."""
    return [
        random_connected(12, seed=1),
        random_connected(20, seed=2),
        random_connected(30, seed=3, compactness=0.7),
        random_connected(25, seed=4),
    ]


def pytest_addoption(parser):
    parser.addoption(
        "--native-library",
        default=None,
        help=(
            "path to a build of repro/core/_native/chain_loops.c (for example "
            "a sanitizer build) that tests/core/test_native_loops.py runs "
            "against instead of the cached build"
        ),
    )
