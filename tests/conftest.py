"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.core import _native
from repro.io.trace_store import TraceStoreReader
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


@pytest.fixture
def native_build(request, monkeypatch):
    """The compiled build under test: ``--native-library`` if given, else the cache.

    Its value is the ``--native-library`` path, or None for the cached build."""
    path = request.config.getoption("--native-library")
    if path is not None:
        library = _native.open_library(path)
        monkeypatch.setattr(_native, "load_library", lambda: library)
    return path


@pytest.fixture
def rewrite_as_v1():
    """``rewrite_as_v1(directory)`` turns a committed trace store into its
    format-version-1 layout, the one stores written before version 2 have
    on disk: one ``seg-NNNNN.<column>.npy`` file per column of each
    segment, and a manifest saying ``format_version: 1``.
    """

    def rewrite(directory):
        directory = Path(directory)
        reader = TraceStoreReader(directory)
        for index in range(reader.num_segments):
            for name, column in reader.segment(index).items():
                np.save(directory / f"seg-{index:05d}.{name}.npy", column, allow_pickle=False)
            (directory / f"seg-{index:05d}.npy").unlink()
        manifest = dict(reader.manifest, format_version=1)
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
        return directory

    return rewrite


def pytest_addoption(parser):
    parser.addoption(
        "--native-library",
        default=None,
        help=(
            "path to a build of repro/core/_native/chain_loops.c (for example "
            "a sanitizer build) that the suites using the native_build fixture "
            "run against instead of the cached build: the native differential "
            "fuzz, the plane-invariant, tape, generator-position, deferred-lane, "
            "sampled-trace and exact-stationary suites, and the engine contract "
            "suite (tests/core/test_engine_contract.py)"
        ),
    )
