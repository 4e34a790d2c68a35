"""The engine contract: one Algorithm M trajectory per seed, on every engine, under every kernel.

Seeded alike (same seed, same draw block), every engine of
:data:`repro.core.ENGINES` (the reference
:class:`~repro.core.markov_chain.CompressionMarkovChain`, the fast
:class:`~repro.core.fast_chain.FastCompressionChain` on its compiled
loops, and its alias key ``"vector"``) and the fast engine on its Python
loops (``"python"``, the no-compiler build, made by the ``build_engine``
fixture) must make the same proposal every iteration and resolve it the
same way: the same move, rejection reason and edge delta, the same
counters, and the same kernel state.  That holds under each weight
kernel: compression (``edge``), shortcut bridging [2] (``edge_site``,
with its incrementally kept gap occupancy) and separation [9]
(``edge_color``, with its color plane and swaps).  Each check runs once
per (kernel, case) x engine:

* against the reference: lockstep ``step()``, ``run(k)`` chunks that
  straddle draw blocks and refills, mixed ``step()``/``run()`` schedules,
  and long unbiased drifts through many guard-band reallocations;
* ``step()`` through a reallocation, on the in-place and the resize path;
* the committed golden trace of each kernel, stepped and ``run()``;
* randomized invariants: connectivity (Lemma 3.1), no new holes in a
  hole-free start (Lemma 3.2), and every incrementally kept counter
  against a recomputation from scratch.

``step()`` is one pass of the build's own loop (``run_chain`` or
``_run_python``), so the lockstep checks test each loop proposal by
proposal.  ``pytest --native-library PATH`` runs the suite against
another build of ``chain_loops.c`` (a sanitizer build, say).
"""

import json
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from repro.algorithms.separation import ColoredConfiguration, SeparationMarkovChain
from repro.algorithms.shortcut_bridging import (
    BridgingMarkovChain,
    Terrain,
    initial_bridge_configuration,
    v_shaped_terrain,
)
from repro.core import ENGINES, KERNEL_MODES
from repro.core.markov_chain import CompressionMarkovChain
from repro.lattice.shapes import line, random_connected, random_hole_free, ring, spiral

from test_native_loops import KERNELS as KERNEL_OF_START
from test_native_loops import NEAR_BAND, move_to_window, record_reallocations

pytestmark = pytest.mark.usefixtures("native_build")

TESTS = Path(__file__).parents[1]

#: Every engine under contract: the keys of ENGINES, and the fast engine
#: on its Python loops.
ENGINE_KEYS = (*sorted(ENGINES), "python")
#: The engines held to the reference's trajectory.
CANDIDATES = tuple(key for key in ENGINE_KEYS if key != "reference")


# --------------------------------------------------------------------- #
# The kernels: builders, cases, golden fixtures and extra observables
# --------------------------------------------------------------------- #
def compression(initial, lam, *, engine, **options):
    return ENGINES[engine](initial, lam, **options)


def separation(colored, lam, gamma, swap_probability, **options):
    return SeparationMarkovChain(colored, lam, gamma, swap_probability, **options).chain


def bridging(terrain, initial, lam, gamma, **options):
    return BridgingMarkovChain(initial, terrain, lam, gamma, **options).chain


#: name -> (start configuration, lambda, lockstep iterations)
COMPRESSION_CASES = {
    "line20_compressing": (line(20), 4.0, 2500),
    "line35_strong_bias": (line(35), 6.0, 2500),
    "spiral25_compressing": (spiral(25), 4.0, 2000),
    "spiral40_expanding": (spiral(40), 1.5, 2000),
    "random24_with_holes": (random_connected(24, seed=11), 4.0, 2000),
    "random30_compact": (random_connected(30, seed=23, compactness=0.6), 2.0, 2000),
    "ring2_hole_elimination": (ring(2), 4.0, 2000),
    "unbiased_random_walk": (line(15), 1.0, 2000),
}

#: name -> (colored start, lam, gamma, swap_probability, lockstep iterations)
SEPARATION_CASES = {
    "halves_segregating": (
        ColoredConfiguration.halves(spiral(30)), 4.0, 3.0, 0.5, 4000,
    ),
    "random_integrating": (
        ColoredConfiguration.random_colors(spiral(24), seed=3), 4.0, 0.5, 0.5, 4000,
    ),
    "three_colors": (
        ColoredConfiguration.random_colors(random_connected(26, seed=8), num_colors=3, seed=4),
        2.0, 2.0, 0.4, 4000,
    ),
    "movement_only": (
        ColoredConfiguration.halves(line(20)), 4.0, 2.0, 0.0, 3000,
    ),
    "swap_only": (
        ColoredConfiguration.random_colors(spiral(20), seed=5), 4.0, 2.0, 1.0, 3000,
    ),
    "unbiased_drift": (
        ColoredConfiguration.random_colors(line(15), seed=6), 1.0, 1.0, 0.5, 3000,
    ),
}


def _v_case(arm_length, n, lam, gamma, iterations):
    terrain = v_shaped_terrain(arm_length)
    return terrain, initial_bridge_configuration(terrain, n), lam, gamma, iterations


#: name -> (terrain, start configuration, lam, gamma, lockstep iterations)
BRIDGING_CASES = {
    "v5_compressing": _v_case(5, 25, 4.0, 2.0, 4000),
    "v6_gap_tolerant": _v_case(6, 40, 4.0, 1.0, 4000),
    "v5_strongly_averse": _v_case(5, 30, 4.0, 6.0, 4000),
    # gamma < 1 rewards hanging over the gap: exercises site_delta = +1
    # acceptances as the common case.
    "v4_rewarding_gap": _v_case(4, 20, 2.0, 0.5, 4000),
    # A start mostly *over* the gap, unbiased lambda: heavy drift forces
    # grid re-centers, which rebuild the fast engine's terrain plane.
    "line_on_gap_drift": (v_shaped_terrain(4), line(18), 1.0, 1.2, 4000),
}


def separation_golden_params(golden):
    colored = ColoredConfiguration({(x, y): c for x, y, c in golden["initial_colors"]})
    # The fixture records how the start was built; rebuilding it from the
    # generator recipe must agree with the embedded colors.
    assert golden["start"] == "spiral24_random_colors_seed1"
    rebuilt = ColoredConfiguration.random_colors(spiral(24), num_colors=2, seed=1)
    assert rebuilt.colors == colored.colors
    return colored, golden["lam"], golden["gamma"], golden["swap_probability"]


def bridging_golden_params(golden):
    terrain = v_shaped_terrain(golden["arm_length"], opening=golden["opening"])
    initial = initial_bridge_configuration(terrain, golden["n"])
    return terrain, initial, golden["lam"], golden["gamma"]


def color_observables(chain):
    colors = chain.color_map()
    return {
        "colors": sorted([x, y, color] for (x, y), color in colors.items()),
        "accepted_swaps": chain.accepted_swaps,
        "homogeneous_edges": ColoredConfiguration(colors).homogeneous_edges(),
    }


def separation_sweep(start, lam, seed):
    colored = ColoredConfiguration.random_colors(start, num_colors=2 + seed % 2, seed=seed)
    return colored, lam, 2.0, 0.4


def bridging_sweep(start, lam, seed):
    # Every other occupied node is land; everything else is gap.
    land = frozenset(node for i, node in enumerate(sorted(start.nodes)) if i % 2)
    return Terrain(land=land, anchors=(min(land), max(land))), start, lam, 1.5


def colors_conserved(chain, colored, *_):
    colors = chain.color_map()
    assert ColoredConfiguration(colors).color_counts() == colored.color_counts(), "colors"
    assert colors.keys() == chain.occupied, "colors off the particles"


def sites_recounted(chain, terrain, *_):
    assert chain.site_count == terrain.gap_occupancy(chain.configuration), "gap occupancy"


#: lambdas cycled across the randomized runs: expanding, neutral and
#: compressing regimes.
LAMBDAS = (1.0, 2.0, 4.0, 6.0)

#: (seed, n, lambda, hole-free start?) for the randomized sweep -- 52 runs.
RUN_MATRIX = [
    (seed, 12 + (seed % 5) * 5, LAMBDAS[seed % len(LAMBDAS)], seed % 2 == 0)
    for seed in range(52)
]

#: The seeded sweep of the extension kernels.
EXTENSION_MATRIX = RUN_MATRIX[1::4]


class Kernel(NamedTuple):
    build: Callable  # (*params, engine=, seed=, draw_block=) -> the engine
    cases: dict  # name -> (*params, lockstep iterations)
    drift: tuple  # an unbiased start that re-centers the grid many times
    golden: str  # the golden fixture, relative to tests/
    golden_params: Callable  # golden document -> params
    outcomes: frozenset  # the step reasons the golden trajectory shows
    observables: Callable  # chain -> the kernel's own state
    sweep: Callable  # (start, lambda, seed) -> params of a randomized run
    invariants: Callable  # (chain, *params): the kernel's own invariants
    matrix: list  # the randomized runs (seed, n, lambda, hole-free start?)


MOVEMENT_OUTCOMES = {"moved", "target_occupied", "property_failed", "metropolis_rejected"}

KERNELS = {
    "edge": Kernel(
        compression,
        COMPRESSION_CASES,
        (line(30), 1.0, 150_000),
        "core/golden/line20_lam4_seed0.json",
        lambda golden: (line(golden["n"]), golden["lam"]),
        frozenset(MOVEMENT_OUTCOMES),
        lambda chain: {},
        lambda start, lam, seed: (start, lam),
        lambda chain, *params: None,
        RUN_MATRIX,
    ),
    "edge_color": Kernel(
        separation,
        SEPARATION_CASES,
        (ColoredConfiguration.random_colors(line(25), seed=2), 1.0, 1.2, 0.5, 150_000),
        "algorithms/golden/separation_spiral24_lam2_gam1.5_seed0.json",
        separation_golden_params,
        frozenset(MOVEMENT_OUTCOMES)
        | {"five_neighbors", "swapped", "swap_target_empty", "swap_same_color", "swap_rejected"},
        color_observables,
        separation_sweep,
        colors_conserved,
        EXTENSION_MATRIX,
    ),
    "edge_site": Kernel(
        bridging,
        BRIDGING_CASES,
        # The guard-band re-center also rebuilds the terrain plane the
        # compiled loop reads.
        (v_shaped_terrain(4), line(22), 1.0, 1.1, 150_000),
        "algorithms/golden/bridging_arm5_n25_lam4_gam2_seed0.json",
        bridging_golden_params,
        frozenset(MOVEMENT_OUTCOMES | {"five_neighbors"}),
        lambda chain: {"gap_occupancy": chain.site_count},
        bridging_sweep,
        sites_recounted,
        EXTENSION_MATRIX,
    ),
}


def observe(kernel, chain):
    """Everything the engines must agree on, named as the golden fixtures name it."""
    return {
        "edge_count": chain.edge_count,
        "perimeter": chain.perimeter(),
        "holes": chain.hole_count(),
        "accepted_moves": chain.accepted_moves,
        "rejection_counts": chain.rejection_counts,
        "occupied": sorted([x, y] for x, y in chain.occupied),
        **KERNELS[kernel].observables(chain),
    }


# --------------------------------------------------------------------- #
# Against the reference
# --------------------------------------------------------------------- #
#: schedule -> (seed, iterations -> actions)
SCHEDULES = {
    "step": (7, lambda iterations: [("step", iterations)]),
    # Uneven chunks straddle draw blocks and multi-block refills.
    "run_chunks": (
        19,
        lambda iterations: [("run", k) for k in (1, 37, 700, 1024, 2500, iterations)],
    ),
    # step() and run() share one tape.
    "step_run_mix": (
        21,
        lambda _: [
            ("step", 40), ("run", 700), ("step", 5), ("run", 1), ("step", 1), ("run", 2048),
            ("step", 3), ("run", 333), ("run", 900), ("run", 200), ("step", 40),
        ],
    ),
    # An unbiased start drifts far enough to force many grid re-centers.
    "long_run": (13, lambda iterations: [("run", iterations)]),
}

#: (kernel, case, schedule); the mixed schedules also run in the fast lane.
GRID = [
    pytest.param(
        kernel, case, schedule, marks=() if schedule == "step_run_mix" else pytest.mark.slow
    )
    for kernel, spec in KERNELS.items()
    for case in sorted(spec.cases)
    for schedule in ("step", "run_chunks", "step_run_mix")
] + [pytest.param(kernel, "drift", "long_run", marks=pytest.mark.slow) for kernel in KERNELS]


def case_params(kernel, case):
    spec = KERNELS[kernel]
    return spec.drift if case == "drift" else spec.cases[case]


def play(kernel, chain, actions):
    """Drive ``chain`` through ``actions``: what it shows at each step (its
    result, edge count and every 250th perimeter) and after each action."""
    record = []
    for action, amount in actions:
        if action == "run":
            chain.run(amount)
        else:
            for i in range(amount):
                result = chain.step()
                perimeter = chain.perimeter() if i % 250 == 0 else None
                record.append((result, chain.edge_count, perimeter))
        record.append(observe(kernel, chain))
    return record


@pytest.fixture(scope="module")
def reference_records():
    """(kernel, case, schedule) -> the reference's record, played once per module."""
    return {}


@pytest.mark.parametrize("engine", CANDIDATES)
@pytest.mark.parametrize("kernel, case, schedule", GRID)
def test_engine_matches_reference(
    kernel, case, schedule, engine, build_engine, reference_records
):
    *params, iterations = case_params(kernel, case)
    seed, actions = SCHEDULES[schedule]
    build = KERNELS[kernel].build
    key = kernel, case, schedule
    if key not in reference_records:
        reference = build(*params, engine="reference", seed=seed)
        reference_records[key] = play(kernel, reference, actions(iterations))
    chain = build_engine(build, *params, engine=engine, seed=seed)
    assert play(kernel, chain, actions(iterations)) == reference_records[key]
    assert_invariants(kernel, chain, params)


@pytest.mark.parametrize("engine", CANDIDATES)
@pytest.mark.parametrize("path", sorted(NEAR_BAND))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_step_through_a_reallocation_matches_reference(kernel, path, engine, build_engine):
    """An accepted move into the guard band re-centers the grid inside the
    pass, so the step that triggers a reallocation must report its move
    through the new window.  From starts one cell outside the band, on
    either path of ``_reallocate``, every step through the first
    reallocation and on past it equals the reference's."""
    initial = random_connected(12, seed=2)
    weights = KERNEL_OF_START[kernel](initial)
    reference = CompressionMarkovChain(initial, seed=2, kernel=weights)
    chain = build_engine(compression, initial, None, engine=engine, seed=2, kernel=weights)
    if engine != "python" and chain._library is None:
        pytest.skip("no compiled loop to step: chain_loops.c did not build")
    move_to_window(chain, initial, NEAR_BAND[path])
    paths = record_reallocations(chain)
    step = 0
    while not paths and step < 5000:
        assert chain.step() == reference.step(), f"step {step}"
        step += 1
    assert paths, "the start must force a reallocation"
    assert paths[0] == path, paths
    for step in range(step, step + 300):
        assert chain.step() == reference.step(), f"step {step}"
    assert observe(kernel, chain) == observe(kernel, reference)


# --------------------------------------------------------------------- #
# Golden traces
# --------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def golden(kernel):
    with (TESTS / KERNELS[kernel].golden).open() as fh:
        return json.load(fh)


def golden_chain(kernel, engine, build_engine):
    document = golden(kernel)
    spec = KERNELS[kernel]
    return build_engine(
        spec.build,
        *spec.golden_params(document),
        engine=engine,
        seed=document["seed"],
        draw_block=document["draw_block"],
    )


def assert_golden_final(kernel, chain):
    final = golden(kernel)["final"]
    state = observe(kernel, chain)
    assert {key: state[key] for key in final} == final


@pytest.mark.parametrize("engine", ENGINE_KEYS)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_golden_step_trace(kernel, engine, build_engine):
    """The committed trajectory, step by step, so that a reordered draw, a
    perturbed acceptance probability or an off-by-one in the move tables
    fails here rather than skewing experiment results unnoticed."""
    chain = golden_chain(kernel, engine, build_engine)
    for iteration, expected in enumerate(golden(kernel)["trajectory"]):
        result = chain.step()
        actual = [*result.move.source, *result.move.target, result.edge_delta, result.reason]
        assert actual == expected, f"diverged at iteration {iteration}"
    assert_golden_final(kernel, chain)


@pytest.mark.parametrize("engine", ENGINE_KEYS)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_golden_run_final_state(kernel, engine, build_engine):
    """The batched run() paths land on the committed final state too."""
    chain = golden_chain(kernel, engine, build_engine)
    chain.run(golden(kernel)["steps"])
    assert_golden_final(kernel, chain)


@pytest.mark.parametrize("kernel, steps", [("edge", 200), ("edge_color", 250), ("edge_site", 200)])
def test_golden_fixture_is_self_consistent(kernel, steps):
    document = golden(kernel)
    reasons = [entry[5] for entry in document["trajectory"]]
    assert document["steps"] == len(reasons) == steps
    assert reasons.count("moved") == document["final"]["accepted_moves"]
    assert reasons.count("swapped") == document["final"].get("accepted_swaps", 0)
    assert set(reasons) == KERNELS[kernel].outcomes


# --------------------------------------------------------------------- #
# Randomized invariants
# --------------------------------------------------------------------- #
def assert_invariants(kernel, chain, params, hole_free_start=False, context=""):
    """What the paper proves of every reachable configuration, and each
    incrementally kept counter against a recomputation from scratch."""
    configuration = chain.configuration
    assert configuration.is_connected, context  # Lemma 3.1
    if hole_free_start:
        assert configuration.is_hole_free, context  # Lemma 3.2
    assert chain.edge_count == configuration.edge_count, context
    assert chain.perimeter() == configuration.perimeter, context
    assert chain.hole_count() == len(configuration.holes), context
    assert configuration.n == chain.n, context
    KERNELS[kernel].invariants(chain, *params)


def random_start(n, seed, hole_free):
    if hole_free:
        return random_hole_free(n, seed=seed)
    return random_connected(n, seed=seed, compactness=0.3 * (seed % 3))


@pytest.mark.slow
@pytest.mark.parametrize("engine", ENGINE_KEYS)
@pytest.mark.parametrize(
    "kernel, seed, n, lam, hole_free",
    [(kernel, *row) for kernel, spec in KERNELS.items() for row in spec.matrix],
)
def test_randomized_invariants(kernel, seed, n, lam, hole_free, engine, build_engine):
    start = random_start(n, seed, hole_free)
    hole_free_start = start.is_hole_free  # random_connected may be hole-free by luck
    spec = KERNELS[kernel]
    params = spec.sweep(start, lam, seed)
    chain = build_engine(spec.build, *params, engine=engine, seed=seed)
    for block in range(5):
        if block:
            chain.run(400)
        assert_invariants(kernel, chain, params, hole_free_start, f"block {block}")


# --------------------------------------------------------------------- #
# The contract's own coverage
# --------------------------------------------------------------------- #
def kernel_engine_pairs(test):
    """The (kernel, engine) pairs that a test's parametrize marks produce."""
    axes = {}
    for mark in test.pytestmark:
        if mark.name != "parametrize":
            continue
        names = [name.strip() for name in mark.args[0].split(",")]
        for values in mark.args[1]:
            values = getattr(values, "values", values)  # a pytest.param
            for name, value in zip(names, values if len(names) > 1 else (values,)):
                axes.setdefault(name, set()).add(value)
    return set(product(axes["kernel"], axes["engine"]))


def test_every_kernel_and_engine_is_under_contract():
    """A new kernel mode or engine key cannot skip the contract."""
    everything = set(product(KERNEL_MODES, (*ENGINES, "python")))
    against_reference = {pair for pair in everything if pair[1] != "reference"}
    for test in (test_golden_step_trace, test_golden_run_final_state, test_randomized_invariants):
        assert kernel_engine_pairs(test) == everything, test.__name__
    for test in test_engine_matches_reference, test_step_through_a_reallocation_matches_reference:
        assert kernel_engine_pairs(test) == against_reference, test.__name__
    chain_goldens = {*TESTS.glob("core/golden/*.json"), *TESTS.glob("algorithms/golden/*.json")}
    assert {TESTS / spec.golden for spec in KERNELS.values()} == chain_goldens
