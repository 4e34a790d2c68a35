"""The start invariants read off the occupancy plane, against the set-based spec.

Before its first iteration an engine needs three facts about its start:
the edge count ``e``, whether the start is connected, and whether it has
holes.  :func:`repro.core.fast_chain.start_invariants` reads them off the
grid that :func:`repro.core.fast_chain.occupy` builds: ``e`` as three
shifted-plane ANDs, connectivity and holes as two floods of the compiled
``flood`` helper in ``chain_loops.c``.  The set-based
:class:`~repro.lattice.configuration.ParticleConfiguration` properties are
the specification, and the fallback when no compiler is available.

Every test here runs twice: on the compiled helper (``--native-library``
if given, so a sanitizer build can be tested) and on the no-compiler
fallback, reached by patching :func:`repro.core._native.find_compiler`
as a machine without a compiler would.
"""

import functools

import numpy as np
import pytest

from repro.amoebot.fast_system import FastAmoebotSystem
from repro.core import _native
from repro.core.fast_chain import FastCompressionChain, occupy, start_invariants
from repro.errors import ConfigurationError
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.shapes import hexagon, line, random_connected, ring, spiral, staircase

SIZES = (2, 3, 4, 7, 12, 30, 100, 300, 1000, 3000)
SEEDS = (0, 1, 2)


@pytest.fixture(params=["compiled", "fallback"])
def build(request, monkeypatch):
    """Which build computes the invariants: the C floods or the set-based spec."""
    if request.param == "compiled":
        request.getfixturevalue("native_build")
        if _native.load_library() is None:
            pytest.skip("chain_loops.c did not build: the fallback case covers this")
        yield request.param
        return
    _native.load_library.cache_clear()
    monkeypatch.setattr(_native, "find_compiler", lambda: None)
    yield request.param
    _native.load_library.cache_clear()


@functools.lru_cache(maxsize=None)
def holey(n, seed):
    return random_connected(n, seed=seed, compactness=0.0)


def spec(configuration):
    return (
        configuration.edge_count,
        configuration.is_connected,
        configuration.is_hole_free,
    )


def plane(configuration):
    grid, pos = occupy(configuration)
    return start_invariants(configuration, grid, pos)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_random_holey_starts_match_the_spec(build, n, seed):
    configuration = holey(n, seed)
    assert plane(configuration) == spec(configuration)


def test_the_random_starts_include_holes():
    """Guards the suite above against testing only hole-free starts."""
    assert sum(not holey(n, seed).is_hole_free for n in SIZES for seed in SEEDS) >= 12


SHAPES = {
    "single": line(1),
    "line": line(50),
    "line_nw": line(40, direction=2),
    "staircase": staircase(60),
    "flower": hexagon(1),
    "hexagon": hexagon(6),
    "spiral": spiral(97),
    "ring": ring(1),
    "wide_ring": ring(5),
    "two_holes": ParticleConfiguration(ring(1).nodes | ring(1).translate((2, 0)).nodes),
}


@pytest.mark.parametrize("configuration", SHAPES.values(), ids=SHAPES.keys())
def test_shapes_match_the_spec(build, configuration):
    assert plane(configuration) == spec(configuration)


@pytest.mark.parametrize(
    "nodes",
    [
        [(0, 0), (2, 0)],
        [(0, 0), (1, 0), (5, 5)],
        # A ring with a particle inside its hole: connected to nothing.
        list(ring(2).nodes | {(0, 0)}),
    ],
)
def test_disconnected_starts_are_rejected(build, nodes):
    configuration = ParticleConfiguration(nodes)
    edges, connected, hole_free = plane(configuration)
    assert (edges, connected) == (configuration.edge_count, False)
    assert hole_free == configuration.is_hole_free
    for engine in (FastCompressionChain, FastAmoebotSystem):
        with pytest.raises(ConfigurationError, match="must be connected"):
            engine(configuration, lam=4.0, seed=0)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", (1, 2, 30, 1000))
def test_positions_decode_to_sorted_nodes(build, n, seed):
    configuration = holey(n, seed) if n > 1 else line(1)
    grid, pos = occupy(configuration)
    assert [grid.node_at(int(flat)) for flat in pos] == sorted(configuration.nodes)
    chain = FastCompressionChain(configuration, lam=4.0, seed=seed)
    assert [chain.grid.node_at(flat) for flat in chain._pos] == sorted(configuration.nodes)
    amoebot = FastAmoebotSystem(configuration, lam=4.0, seed=seed)
    assert amoebot.tails() == sorted(configuration.nodes)


@pytest.mark.parametrize(
    "configuration", [ring(3), holey(300, 1), hexagon(3)], ids=["ring", "holey", "hexagon"]
)
def test_engines_start_from_the_spec(build, configuration):
    """The engines' starting edge count, perimeter and hole count are the spec's."""
    for engine in (
        FastCompressionChain(configuration, lam=4.0, seed=0),
        FastAmoebotSystem(configuration, lam=4.0, seed=0),
    ):
        assert engine._edge_count == configuration.edge_count
        assert engine._hole_free == configuration.is_hole_free
        assert engine.perimeter() == configuration.perimeter


def test_flood_counts_the_component_it_starts_in(native_build):
    """``flood`` on a hand-made 5 x 5 window, border cells included."""
    library = _native.load_library()
    if library is None:
        pytest.skip("chain_loops.c did not build")
    # Row y lists x = 0..4: a six-particle ring around (2, 2), which is a
    # hole, and a lone particle in the corner (4, 4).
    rows = [
        ".....",
        "..##.",
        ".#.#.",
        ".##..",
        "....#",
    ]
    width, height = len(rows[0]), len(rows)
    cells = np.array([[c == "#" for c in row] for row in rows], dtype=np.int8).reshape(-1)
    seen = np.zeros(cells.size, dtype=np.uint8)
    queue = np.empty(cells.size, dtype=np.int64)

    def flood(x, y, want):
        return library.flood(
            cells.ctypes.data, width, height, y * width + x, want,
            seen.ctypes.data, queue.ctypes.data,
        )

    assert flood(2, 2, 1) == 0, "a start of the other kind reaches nothing"
    assert flood(2, 1, 1) == 6
    assert flood(3, 2, 1) == 0, "a seen cell is not entered again"
    assert flood(4, 4, 1) == 1
    assert flood(0, 0, 0) == cells.size - 7 - 1  # every empty cell but the hole
    assert flood(2, 2, 0) == 1
    assert seen.sum() == cells.size
