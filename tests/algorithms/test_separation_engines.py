"""Differential harness + invariants + golden trace for the separation chain.

The separation chain of [9] runs on the shared engine stack via
:class:`repro.core.kernels.SeparationKernel`; this file holds it to the
same contract as the compression engines:

* **Lockstep differential:** seeded identically, the reference
  (hash-map) engine and the fast engine (grid + color byte plane), on
  its compiled loops and on its Python loops (``"python"``, built by the
  ``build_engine`` fixture), must produce bit-identical trajectories —
  the same proposal each iteration, resolved the same way, movements
  and color swaps alike.
* **Block-run differential:** the fast engine's ``run()`` hands whole
  tape spans to the compiled loop; it must land on the Python loops'
  exact state (occupancy *and* colors) at every chunk boundary,
  including chunks that straddle draw blocks and refills, and across
  mixed ``step()``/``run()`` interleavings.
* **Randomized invariants:** per-color particle counts are conserved
  across swaps, connectivity is preserved, and the incrementally
  maintained edge count matches a from-scratch recomputation.
* **Golden trace:** a committed fixture pins the exact trajectory of a
  standard start, so silent protocol changes fail loudly — on both
  engines and on the fast engine's Python loops.
"""

import json
from pathlib import Path

import pytest

from repro.algorithms.separation import ColoredConfiguration, SeparationMarkovChain
from repro.errors import ConfigurationError
from repro.lattice.shapes import line, random_connected, spiral

FIXTURE_PATH = Path(__file__).parent / "golden" / "separation_spiral24_lam2_gam1.5_seed0.json"

#: name -> (colored start, lam, gamma, swap_probability, lockstep iterations)
LOCKSTEP_CASES = {
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


def engine_trio(build, colored, lam, gamma, swap_probability, seed):
    """Reference, compiled fast and Python-loop fast chains, seeded alike."""
    kwargs = dict(lam=lam, gamma=gamma, swap_probability=swap_probability, seed=seed)
    return tuple(
        build(SeparationMarkovChain, colored, engine=engine, **kwargs)
        for engine in ("reference", "fast", "python")
    )


def assert_same_final_state(fast, reference, context=""):
    assert fast.chain.occupied == reference.chain.occupied, context
    assert fast.chain.edge_count == reference.chain.edge_count, context
    assert fast.accepted_moves == reference.accepted_moves, context
    assert fast.accepted_swaps == reference.accepted_swaps, context
    assert fast.chain.rejection_counts == reference.chain.rejection_counts, context
    assert fast.chain.perimeter() == reference.chain.perimeter(), context
    assert fast.state.colors == reference.state.colors, context


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(LOCKSTEP_CASES))
def test_lockstep_trajectories_are_identical(name, build_engine):
    colored, lam, gamma, swap_probability, iterations = LOCKSTEP_CASES[name]
    reference, fast, python = engine_trio(
        build_engine, colored, lam, gamma, swap_probability, seed=7
    )
    for iteration in range(iterations):
        expected = reference.step()
        for label, chain in (("fast", fast), ("python", python)):
            actual = chain.step()
            assert actual == expected, (
                f"{name}: trajectories diverged at iteration {iteration}: "
                f"reference={expected}, {label}={actual}"
            )
    assert_same_final_state(fast, reference, name)
    assert_same_final_state(python, reference, name)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(LOCKSTEP_CASES))
def test_block_runs_match_lockstep_runs(name, build_engine):
    """run(k) must consume the two-lane tape exactly like k step() calls —
    the compiled ``edge_color`` loop is checked against the Python
    loops' colors at every chunk boundary."""
    colored, lam, gamma, swap_probability, iterations = LOCKSTEP_CASES[name]
    reference, fast, python = engine_trio(
        build_engine, colored, lam, gamma, swap_probability, seed=19
    )
    for chunk in (1, 37, 700, 1024, iterations):  # straddles draw blocks
        reference.run(chunk)
        fast.run(chunk)
        python.run(chunk)
        assert fast.chain.edge_count == reference.chain.edge_count, f"{name}@{chunk}"
        assert python.chain.edge_count == reference.chain.edge_count, f"{name}@{chunk}"
        assert fast.state.colors == python.state.colors, f"{name}@{chunk}"
    assert_same_final_state(fast, reference, name)
    assert_same_final_state(python, reference, name)


@pytest.mark.slow
def test_mixed_step_and_run_interleavings_match_python_loops(build_engine):
    """step() (scalar path) and run() (compiled loop) share one tape; any
    interleaving must stay bit-identical to the Python loops."""
    colored = ColoredConfiguration.random_colors(spiral(24), seed=9)
    kwargs = dict(lam=3.0, gamma=1.5, swap_probability=0.5, seed=21)
    python = build_engine(SeparationMarkovChain, colored, engine="python", **kwargs)
    fast = SeparationMarkovChain(colored, engine="fast", **kwargs)
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
                assert fast.step() == python.step()
        assert fast.chain.edge_count == python.chain.edge_count, (action, amount)
    assert_same_final_state(fast, python)


@pytest.mark.slow
def test_long_run_with_grid_reallocation_matches_reference(build_engine):
    """An unbiased colored blob drifts far enough to force grid re-centers,
    which carry the colors across the re-centered grid."""
    colored = ColoredConfiguration.random_colors(line(25), seed=2)
    reference, fast, python = engine_trio(build_engine, colored, 1.0, 1.2, 0.5, seed=13)
    reference.run(150_000)
    fast.run(150_000)
    python.run(150_000)
    assert_same_final_state(fast, reference)
    assert_same_final_state(python, reference)


@pytest.mark.parametrize("engine", ["reference", "fast", "python"])
class TestInvariants:
    def test_color_counts_conserved_and_connectivity_preserved(self, engine, build_engine):
        for seed in range(4):
            colored = ColoredConfiguration.random_colors(
                random_connected(22, seed=seed + 30), num_colors=2 + seed % 2, seed=seed
            )
            chain = build_engine(
                SeparationMarkovChain, colored, lam=3.0, gamma=2.0,
                swap_probability=0.5, seed=seed, engine=engine,
            )
            chain.run(5000)
            state = chain.state
            assert state.color_counts() == colored.color_counts(), f"seed {seed}"
            assert state.configuration.is_connected, f"seed {seed}"

    def test_incremental_metrics_match_recomputation(self, engine, build_engine):
        colored = ColoredConfiguration.halves(spiral(26))
        chain = build_engine(
            SeparationMarkovChain, colored, lam=4.0, gamma=1.5, seed=11, engine=engine
        )
        for _ in range(6):
            chain.run(1500)
            configuration = chain.state.configuration
            assert chain.chain.edge_count == configuration.edge_count
            assert chain.chain.perimeter() == configuration.perimeter


class TestWrapper:
    def test_engine_selection_and_unknown_engine(self):
        colored = ColoredConfiguration.halves(line(8))
        assert SeparationMarkovChain(colored, 4.0, 2.0, engine="fast").engine == "fast"
        assert SeparationMarkovChain(colored, 4.0, 2.0, engine="vector").engine == "vector"
        for engine in ("warp", "sharded"):
            with pytest.raises(
                ConfigurationError, match=r"expected one of \['fast', 'reference', 'vector'\]"
            ):
                SeparationMarkovChain(colored, 4.0, 2.0, engine=engine)

    def test_fast_engine_segregates_like_reference_did(self):
        """The headline behaviour of [9] on the production engine."""
        colored = ColoredConfiguration.random_colors(spiral(36), seed=2)
        chain = SeparationMarkovChain(colored, lam=4.0, gamma=4.0, seed=3, engine="fast")
        start = chain.state.homogeneous_edges()
        chain.run(25_000)
        assert chain.state.homogeneous_edges() > start
        assert chain.state.configuration.is_connected


class TestGoldenTrace:
    @pytest.fixture(scope="class")
    def golden(self):
        with FIXTURE_PATH.open() as fh:
            return json.load(fh)

    @pytest.fixture(scope="class")
    def start(self, golden):
        colored = ColoredConfiguration(
            {(x, y): c for x, y, c in golden["initial_colors"]}
        )
        # The fixture records how the start was built; rebuilding it from
        # the generator recipe must agree with the embedded colors.
        assert golden["start"] == "spiral24_random_colors_seed1"
        rebuilt = ColoredConfiguration.random_colors(spiral(24), num_colors=2, seed=1)
        assert rebuilt.colors == colored.colors
        return colored

    @pytest.mark.parametrize("engine", ["reference", "fast", "python"])
    def test_engine_reproduces_golden_trace(self, golden, start, engine, build_engine):
        chain = build_engine(
            SeparationMarkovChain,
            start,
            lam=golden["lam"],
            gamma=golden["gamma"],
            swap_probability=golden["swap_probability"],
            seed=golden["seed"],
            engine=engine,
            draw_block=golden["draw_block"],
        )
        for iteration, expected in enumerate(golden["trajectory"]):
            result = chain.step()
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
        assert chain.accepted_swaps == final["accepted_swaps"]
        assert chain.chain.rejection_counts == final["rejection_counts"]
        assert chain.state.homogeneous_edges() == final["homogeneous_edges"]
        assert sorted(
            [x, y, c] for (x, y), c in chain.state.colors.items()
        ) == final["colors"]

    @pytest.mark.parametrize("engine", ["reference", "fast", "python"])
    def test_engine_run_reproduces_golden_final_state(
        self, golden, start, engine, build_engine
    ):
        """The batched run() paths land on the committed final state too."""
        chain = build_engine(
            SeparationMarkovChain,
            start,
            lam=golden["lam"],
            gamma=golden["gamma"],
            swap_probability=golden["swap_probability"],
            seed=golden["seed"],
            engine=engine,
            draw_block=golden["draw_block"],
        )
        chain.run(golden["steps"])
        final = golden["final"]
        assert chain.chain.edge_count == final["edge_count"]
        assert chain.accepted_moves == final["accepted_moves"]
        assert chain.accepted_swaps == final["accepted_swaps"]
        assert chain.chain.rejection_counts == final["rejection_counts"]

    def test_golden_fixture_is_self_consistent(self, golden):
        assert golden["steps"] == len(golden["trajectory"]) == 250
        moved = sum(1 for entry in golden["trajectory"] if entry[5] == "moved")
        swapped = sum(1 for entry in golden["trajectory"] if entry[5] == "swapped")
        assert moved == golden["final"]["accepted_moves"]
        assert swapped == golden["final"]["accepted_swaps"]
        # The fixture exercises every outcome the chain can produce.
        reasons = {entry[5] for entry in golden["trajectory"]}
        assert reasons == {
            "moved",
            "swapped",
            "target_occupied",
            "five_neighbors",
            "property_failed",
            "metropolis_rejected",
            "swap_target_empty",
            "swap_same_color",
            "swap_rejected",
        }
