"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.core import _native
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


@pytest.fixture
def python_loops():
    """A context manager: engines built inside it run the Python loops.

    It patches :func:`repro.core._native.load_library` to report no
    library, as a machine without a C compiler would; engines built
    outside it run the compiled loops.  ``python_loops(False)`` patches
    nothing, for tests parametrized over both builds.
    """

    @contextmanager
    def patched(active=True):
        with pytest.MonkeyPatch.context() as patch:
            if active:
                patch.setattr(_native, "load_library", lambda: None)
            yield

    return patched


@pytest.fixture
def build_engine(python_loops):
    """``build_engine(factory, *args, engine=key, **kwargs)`` builds a chain.

    It calls ``factory(*args, engine=key, **kwargs)``, except that the
    extra key ``"python"`` builds ``engine="fast"`` running its Python
    loops, so that engine-parametrized suites cover both builds of the
    fast engine.
    """

    def build(factory, *args, engine, **kwargs):
        with python_loops(engine == "python"):
            return factory(
                *args, engine="fast" if engine == "python" else engine, **kwargs
            )

    return build


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
