"""Differential harness + invariants + golden trace for the bridging chain.

The shortcut-bridging chain of [2] runs on the shared engine stack via
:class:`repro.core.kernels.BridgingKernel`; this file holds it to the
same contract as the compression engines: lockstep bit-identity of the
reference engine and the fast engine, on its compiled loops (run against
the terrain byte plane) and on its Python loops (``"python"``, built by
the ``build_engine`` fixture); block-run and mixed ``step()``/``run()``
agreement of the two builds at every chunk boundary; randomized
invariants (connectivity; the incrementally maintained gap occupancy
``g(sigma)`` against the from-scratch terrain recomputation); and a
committed golden trace pinned on all three.

``pytest --native-library PATH`` runs it against another build of
``chain_loops.c`` (a sanitizer build, say): ``step()`` enters and leaves
the compiled loop once per proposal.
"""

import json
from pathlib import Path

import pytest

from repro.algorithms.shortcut_bridging import (
    BridgingMarkovChain,
    Terrain,
    initial_bridge_configuration,
    v_shaped_terrain,
)
from repro.errors import ConfigurationError
from repro.lattice.shapes import line, random_connected

pytestmark = pytest.mark.usefixtures("native_build")

FIXTURE_PATH = Path(__file__).parent / "golden" / "bridging_arm5_n25_lam4_gam2_seed0.json"


def _v_case(arm_length, n, lam, gamma, iterations):
    terrain = v_shaped_terrain(arm_length)
    return terrain, initial_bridge_configuration(terrain, n), lam, gamma, iterations


def _case(name):
    if name == "v5_compressing":
        return _v_case(5, 25, 4.0, 2.0, 4000)
    if name == "v6_gap_tolerant":
        return _v_case(6, 40, 4.0, 1.0, 4000)
    if name == "v5_strongly_averse":
        return _v_case(5, 30, 4.0, 6.0, 4000)
    if name == "v4_rewarding_gap":
        # gamma < 1 rewards hanging over the gap: exercises site_delta = +1
        # acceptances as the common case.
        return _v_case(4, 20, 2.0, 0.5, 4000)
    if name == "line_on_gap_drift":
        # A start mostly *over* the gap, unbiased lambda: heavy drift forces
        # grid re-centers, which rebuild the fast engine's terrain plane.
        terrain = v_shaped_terrain(4)
        return terrain, line(18), 1.0, 1.2, 4000
    raise KeyError(name)


LOCKSTEP_CASES = (
    "v5_compressing",
    "v6_gap_tolerant",
    "v5_strongly_averse",
    "v4_rewarding_gap",
    "line_on_gap_drift",
)


def engine_trio(build, terrain, initial, lam, gamma, seed):
    """Reference, compiled fast and Python-loop fast chains, seeded alike."""
    kwargs = dict(lam=lam, gamma=gamma, seed=seed)
    return tuple(
        build(BridgingMarkovChain, initial, terrain, engine=engine, **kwargs)
        for engine in ("reference", "fast", "python")
    )


def assert_same_final_state(fast, reference, context=""):
    assert fast.chain.occupied == reference.chain.occupied, context
    assert fast.chain.edge_count == reference.chain.edge_count, context
    assert fast.accepted_moves == reference.accepted_moves, context
    assert fast.chain.rejection_counts == reference.chain.rejection_counts, context
    assert fast.chain.perimeter() == reference.chain.perimeter(), context
    assert fast.gap_occupancy() == reference.gap_occupancy(), context


@pytest.mark.slow
@pytest.mark.parametrize("name", LOCKSTEP_CASES)
def test_lockstep_trajectories_are_identical(name, build_engine):
    terrain, initial, lam, gamma, iterations = _case(name)
    reference, fast, python = engine_trio(
        build_engine, terrain, initial, lam, gamma, seed=7
    )
    for iteration in range(iterations):
        expected = reference.chain.step()
        for label, chain in (("fast", fast), ("python", python)):
            actual = chain.chain.step()
            assert actual == expected, (
                f"{name}: trajectories diverged at iteration {iteration}: "
                f"reference={expected}, {label}={actual}"
            )
    assert_same_final_state(fast, reference, name)
    assert_same_final_state(python, reference, name)


@pytest.mark.slow
@pytest.mark.parametrize("name", LOCKSTEP_CASES)
def test_block_runs_match_lockstep_runs(name, build_engine):
    """run(k) must consume the tape exactly like k step() calls — the
    compiled ``edge_site`` loop is checked against the Python loops' gap
    occupancy at every chunk boundary."""
    terrain, initial, lam, gamma, iterations = _case(name)
    reference, fast, python = engine_trio(
        build_engine, terrain, initial, lam, gamma, seed=19
    )
    for chunk in (1, 37, 700, 1024, iterations):
        reference.run(chunk)
        fast.run(chunk)
        python.run(chunk)
        assert fast.chain.edge_count == reference.chain.edge_count, f"{name}@{chunk}"
        assert python.chain.edge_count == reference.chain.edge_count, f"{name}@{chunk}"
        assert fast.gap_occupancy() == python.gap_occupancy(), f"{name}@{chunk}"
    assert_same_final_state(fast, reference, name)
    assert_same_final_state(python, reference, name)


@pytest.mark.slow
def test_mixed_step_and_run_interleavings_match_python_loops(build_engine):
    """step() (scalar path) and run() (compiled loop) share one tape; any
    interleaving must stay bit-identical to the Python loops."""
    terrain = v_shaped_terrain(5)
    initial = initial_bridge_configuration(terrain, 30)
    kwargs = dict(lam=4.0, gamma=2.0, seed=21)
    python = build_engine(
        BridgingMarkovChain, initial, terrain, engine="python", **kwargs
    )
    fast = BridgingMarkovChain(initial, terrain, engine="fast", **kwargs)
    schedule = [
        ("run", 700), ("step", 5), ("run", 1), ("step", 1),
        ("run", 2048), ("step", 3), ("run", 333),
    ]
    for action, amount in schedule:
        if action == "run":
            python.run(amount)
            fast.run(amount)
        else:
            for _ in range(amount):
                assert fast.chain.step() == python.chain.step()
        assert fast.gap_occupancy() == python.gap_occupancy(), (action, amount)
    assert_same_final_state(fast, python)


@pytest.mark.slow
def test_long_run_with_grid_reallocation_matches_reference(build_engine):
    """Unbiased drift forces several re-centers (terrain plane rebuilds;
    the guard-band re-center also rebuilds the aux plane the compiled
    loop reads)."""
    terrain = v_shaped_terrain(4)
    reference, fast, python = engine_trio(
        build_engine, terrain, line(22), 1.0, 1.1, seed=13
    )
    reference.run(150_000)
    fast.run(150_000)
    python.run(150_000)
    assert_same_final_state(fast, reference)
    assert_same_final_state(python, reference)


@pytest.mark.parametrize("engine", ["reference", "fast", "python"])
class TestInvariants:
    def test_gap_occupancy_matches_terrain_recomputation(self, engine, build_engine):
        """The engines' incremental g(sigma) against the from-scratch count,
        on random configurations over random terrains."""
        for seed in range(4):
            configuration = random_connected(20, seed=seed + 40)
            # A random half of the occupied region (plus its surroundings)
            # is land; everything else is gap.
            land = frozenset(
                node for i, node in enumerate(sorted(configuration.nodes)) if i % 2
            )
            terrain = Terrain(land=land, anchors=(min(land), max(land)))
            chain = build_engine(
                BridgingMarkovChain, configuration, terrain,
                lam=2.0, gamma=1.5, seed=seed, engine=engine,
            )
            assert chain.gap_occupancy() == terrain.gap_occupancy(configuration)
            for _ in range(4):
                chain.run(1500)
                assert chain.gap_occupancy() == terrain.gap_occupancy(
                    chain.configuration
                ), f"seed {seed}"
                assert chain.g_sigma() == chain.gap_occupancy()

    def test_connectivity_and_metrics_preserved(self, engine, build_engine):
        terrain = v_shaped_terrain(5)
        initial = initial_bridge_configuration(terrain, 25)
        chain = build_engine(
            BridgingMarkovChain, initial, terrain, lam=4.0, gamma=3.0, seed=9,
            engine=engine,
        )
        for _ in range(5):
            chain.run(2000)
            configuration = chain.configuration
            assert configuration.is_connected
            assert configuration.n == 25
            assert chain.chain.edge_count == configuration.edge_count
            assert chain.chain.perimeter() == configuration.perimeter


class TestWrapper:
    def test_engine_selection_and_unknown_engine(self):
        terrain = v_shaped_terrain(4)
        initial = initial_bridge_configuration(terrain, 15)
        chain = BridgingMarkovChain(initial, terrain, 4.0, 2.0, engine="fast")
        assert chain.engine == "fast"
        assert chain.step() in (True, False)
        vectorized = BridgingMarkovChain(initial, terrain, 4.0, 2.0, engine="vector")
        assert vectorized.engine == "vector"
        for engine in ("warp", "sharded"):
            with pytest.raises(
                ConfigurationError, match=r"expected one of \['fast', 'reference', 'vector'\]"
            ):
                BridgingMarkovChain(initial, terrain, 4.0, 2.0, engine=engine)

    def test_fast_engine_reproduces_gap_aversion_tradeoff(self):
        """The headline behaviour of [2] on the production engine."""
        terrain = v_shaped_terrain(5)
        initial = initial_bridge_configuration(terrain, 25)
        tolerant = BridgingMarkovChain(
            initial, terrain, lam=4.0, gamma=1.0, seed=5, engine="fast"
        )
        averse = BridgingMarkovChain(
            initial, terrain, lam=4.0, gamma=6.0, seed=5, engine="fast"
        )
        tolerant.run(20_000)
        averse.run(20_000)
        assert averse.gap_occupancy() <= tolerant.gap_occupancy()
        assert averse.configuration.is_connected
        assert tolerant.configuration.is_connected


class TestGoldenTrace:
    @pytest.fixture(scope="class")
    def golden(self):
        with FIXTURE_PATH.open() as fh:
            return json.load(fh)

    @pytest.fixture(scope="class")
    def setup(self, golden):
        terrain = v_shaped_terrain(golden["arm_length"], opening=golden["opening"])
        return terrain, initial_bridge_configuration(terrain, golden["n"])

    @pytest.mark.parametrize("engine", ["reference", "fast", "python"])
    def test_engine_reproduces_golden_trace(self, golden, setup, engine, build_engine):
        terrain, initial = setup
        chain = build_engine(
            BridgingMarkovChain,
            initial,
            terrain,
            lam=golden["lam"],
            gamma=golden["gamma"],
            seed=golden["seed"],
            engine=engine,
            draw_block=golden["draw_block"],
        )
        for iteration, expected in enumerate(golden["trajectory"]):
            result = chain.chain.step()
            actual = [
                result.move.source[0],
                result.move.source[1],
                result.move.target[0],
                result.move.target[1],
                result.edge_delta,
                result.reason,
            ]
            assert actual == expected, (
                f"{engine} engine diverged from the golden trace at iteration "
                f"{iteration}: got {actual}, expected {expected}"
            )
        final = golden["final"]
        assert chain.chain.edge_count == final["edge_count"]
        assert chain.chain.perimeter() == final["perimeter"]
        assert chain.accepted_moves == final["accepted_moves"]
        assert chain.gap_occupancy() == final["gap_occupancy"]
        assert chain.chain.rejection_counts == final["rejection_counts"]
        assert sorted(list(node) for node in chain.chain.occupied) == final["occupied"]

    @pytest.mark.parametrize("engine", ["reference", "fast", "python"])
    def test_engine_run_reproduces_golden_final_state(
        self, golden, setup, engine, build_engine
    ):
        terrain, initial = setup
        chain = build_engine(
            BridgingMarkovChain,
            initial,
            terrain,
            lam=golden["lam"],
            gamma=golden["gamma"],
            seed=golden["seed"],
            engine=engine,
            draw_block=golden["draw_block"],
        )
        chain.run(golden["steps"])
        final = golden["final"]
        assert chain.chain.edge_count == final["edge_count"]
        assert chain.accepted_moves == final["accepted_moves"]
        assert chain.gap_occupancy() == final["gap_occupancy"]
        assert chain.chain.rejection_counts == final["rejection_counts"]
        assert sorted(list(node) for node in chain.chain.occupied) == final["occupied"]

    def test_golden_fixture_is_self_consistent(self, golden):
        assert golden["steps"] == len(golden["trajectory"]) == 200
        moved = sum(1 for entry in golden["trajectory"] if entry[5] == "moved")
        assert moved == golden["final"]["accepted_moves"]
        reasons = {entry[5] for entry in golden["trajectory"]}
        assert reasons <= {
            "moved",
            "target_occupied",
            "five_neighbors",
            "property_failed",
            "metropolis_rejected",
        }
