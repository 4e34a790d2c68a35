"""Differential-testing harness for the two distributed amoebot engines.

The contract mirrors the chain engines': given equal seeds (and equal
``draw_block``), the object simulator (:class:`AmoebotSystem`) and the
table-driven engine (:class:`FastAmoebotSystem`) must deliver the same
activation sequence, choose the same actions, and traverse bit-identical
system states — uniform and non-uniform rates, crash and Byzantine faults
included.  The harness checks lockstep per-activation agreement, the
batched ``run()`` path against both stepping and the other engine, mixed
``run``/``step``/``run_rounds`` interleavings, and a committed golden
trace (``tests/amoebot/golden/``) that pins the shared protocol itself.
"""

import json
from pathlib import Path

import pytest

from repro.amoebot import AMOEBOT_ENGINES, AmoebotSystem, FastAmoebotSystem, create_system
from repro.amoebot.local_algorithm import ContractBack, ContractForward, Expand, Idle
from repro.errors import ConfigurationError
from repro.lattice.shapes import line, random_connected, spiral
from repro.rng import make_rng

GOLDEN_PATH = Path(__file__).parent / "golden" / "amoebot_line30_lam4_seed0.json"


def state_signature(system):
    """Everything that must agree between engines, as one comparable tuple."""
    return (
        system.tails(),
        system.heads(),
        system.flags(),
        system.stats,
        system.scheduler.time,
        system.scheduler.activations,
        system.scheduler.rounds_completed,
        system.perimeter(),
        system.occupied_nodes(),
    )


def action_tag(action):
    """A compact comparable/serializable encoding of an Action."""
    if isinstance(action, Expand):
        return ["expand", action.target[0], action.target[1]]
    if isinstance(action, ContractForward):
        return ["forward", None, None]
    if isinstance(action, ContractBack):
        return ["back", None, None]
    assert isinstance(action, Idle)
    return ["idle", None, None]


def make_pair(initial, lam, seed, rates=None):
    return (
        AmoebotSystem(initial, lam=lam, seed=seed, rates=rates),
        FastAmoebotSystem(initial, lam=lam, seed=seed, rates=rates),
    )


class TestLockstep:
    def test_lockstep_actions_and_states_line(self):
        reference, fast = make_pair(line(30), lam=4.0, seed=0)
        for activation in range(20_000):
            a = reference.step()
            b = fast.step()
            assert action_tag(a) == action_tag(b), f"diverged at activation {activation}"
            if activation % 500 == 0:
                assert state_signature(reference) == state_signature(fast)
        assert state_signature(reference) == state_signature(fast)

    def test_lockstep_with_non_uniform_rates(self):
        rates = {i: (5.0 if i % 4 == 0 else 0.5) for i in range(24)}
        reference, fast = make_pair(line(24), lam=3.0, seed=7, rates=rates)
        for _ in range(15_000):
            assert action_tag(reference.step()) == action_tag(fast.step())
        assert state_signature(reference) == state_signature(fast)

    def test_lockstep_spiral_start(self):
        reference, fast = make_pair(spiral(36), lam=6.0, seed=13)
        for _ in range(15_000):
            reference.step()
            fast.step()
        assert state_signature(reference) == state_signature(fast)


class TestBatchedRunPath:
    """run() takes a different code path (span loop) than step(); both must agree."""

    def test_fast_run_equals_fast_step(self):
        stepped = FastAmoebotSystem(line(25), lam=4.0, seed=3)
        batched = FastAmoebotSystem(line(25), lam=4.0, seed=3)
        for _ in range(40_000):
            stepped.step()
        batched.run(40_000)
        assert state_signature(stepped) == state_signature(batched)

    def test_fast_run_equals_reference_run(self):
        reference, fast = make_pair(line(25), lam=4.0, seed=3)
        reference.run(40_000)
        fast.run(40_000)
        assert state_signature(reference) == state_signature(fast)

    def test_mixed_run_step_run_rounds_interleaving(self):
        reference, fast = make_pair(line(20), lam=4.0, seed=21)
        for system in (reference, fast):
            system.run(1_234)
            for _ in range(77):
                system.step()
            system.run_rounds(5)
            system.run(4_000)
            system.run_rounds(2)
        assert state_signature(reference) == state_signature(fast)

    def test_run_rounds_stops_on_same_activation(self):
        reference, fast = make_pair(line(15), lam=4.0, seed=4)
        reference.run_rounds(8)
        fast.run_rounds(8)
        assert reference.stats.activations == fast.stats.activations
        assert reference.scheduler.rounds_completed == fast.scheduler.rounds_completed == 8
        assert state_signature(reference) == state_signature(fast)


class TestGridReallocation:
    """A small unbiased blob random-walks into the guard band, so these are
    the tests that actually exercise ``_reallocate`` and the hot loop's
    local-rebinding block (the compressing scenarios above never drift)."""

    def test_drifting_blob_reallocates_and_run_equals_step(self):
        batched = FastAmoebotSystem(line(4), lam=1.0, seed=6)
        origin = (batched.grid.origin_x, batched.grid.origin_y)
        stepped = FastAmoebotSystem(line(4), lam=1.0, seed=6)
        batched.run(400_000)
        for _ in range(400_000):
            stepped.step()
        # The walk must actually have forced at least one reallocation,
        # otherwise this test is vacuous.
        assert (batched.grid.origin_x, batched.grid.origin_y) != origin
        assert (stepped.grid.origin_x, stepped.grid.origin_y) != origin
        assert state_signature(batched) == state_signature(stepped)

    @pytest.mark.slow
    def test_drifting_blob_matches_reference_across_reallocations(self):
        reference, fast = make_pair(line(4), lam=1.0, seed=6)
        origin = (fast.grid.origin_x, fast.grid.origin_y)
        reference.run(300_000)
        fast.run(300_000)
        assert (fast.grid.origin_x, fast.grid.origin_y) != origin
        assert state_signature(reference) == state_signature(fast)


class TestFaultEquivalence:
    def test_crashes_mid_run(self):
        reference, fast = make_pair(spiral(40), lam=5.0, seed=11)
        for system in (reference, fast):
            system.run(5_000)
            system.crash(3)
            system.crash(15)
            system.run(20_000)
        assert state_signature(reference) == state_signature(fast)
        assert fast.is_crashed(3) and fast.is_crashed(15)

    def test_byzantine_mid_run(self):
        reference, fast = make_pair(line(30), lam=4.0, seed=17)
        for system in (reference, fast):
            system.run(4_000)
            system.mark_byzantine(7)
            system.mark_byzantine(21)
            system.run(20_000)
        assert state_signature(reference) == state_signature(fast)
        assert fast.is_byzantine(7) and fast.is_byzantine(21)

    def test_crash_of_expanded_particle_contracts_back_identically(self):
        reference, fast = make_pair(line(12), lam=4.0, seed=2)
        for system in (reference, fast):
            # Step until some particle is expanded, then crash it.
            while not system.expanded_particles():
                system.step()
            victim = system.expanded_particles()[0]
            system.crash(victim)
            system.run(5_000)
        assert state_signature(reference) == state_signature(fast)


class TestRandomizedInvariants:
    """Randomized sweep: the fast engine preserves the simulator's invariants."""

    @pytest.mark.parametrize("trial", range(12))
    def test_invariants_random_starts(self, trial):
        rng = make_rng(1000 + trial)
        n = int(rng.integers(10, 45))
        lam = float(rng.uniform(1.5, 6.0))
        seed = int(rng.integers(0, 2**31))
        initial = random_connected(n, seed=seed)
        system = FastAmoebotSystem(initial, lam=lam, seed=seed)
        system.run(int(rng.integers(3_000, 12_000)))
        configuration = system.configuration
        assert configuration.n == n
        assert configuration.is_connected
        tails = system.tails()
        heads = [node for node in system.heads() if node is not None]
        assert len(set(tails)) == n
        assert set(tails).isdisjoint(heads)
        assert system.occupied_nodes() == set(tails) | set(heads)
        assert system.stats.expansions == (
            system.stats.completed_moves
            + system.stats.aborted_moves
            + len(system.expanded_particles())
        )

    @pytest.mark.parametrize("trial", range(6))
    def test_randomized_cross_engine_runs(self, trial):
        rng = make_rng(2000 + trial)
        n = int(rng.integers(10, 35))
        lam = float(rng.uniform(2.0, 6.0))
        seed = int(rng.integers(0, 2**31))
        activations = int(rng.integers(2_000, 9_000))
        reference, fast = make_pair(line(n), lam=lam, seed=seed)
        reference.run(activations)
        fast.run(activations)
        assert state_signature(reference) == state_signature(fast)

    def test_byte_planes_stay_consistent_with_particle_state(self):
        system = FastAmoebotSystem(line(30), lam=4.0, seed=5)
        system.run(25_000)
        grid = system.grid
        tails = {grid.flat_index(node) for node in system.tails()}
        heads = {
            grid.flat_index(node) for node in system.heads() if node is not None
        }
        expanded_tails = {
            grid.flat_index(system.tails()[i]) for i in system.expanded_particles()
        }
        size = grid.width * grid.height
        for flat in range(size):
            occupied = flat in tails or flat in heads
            assert bool(grid.cells[flat]) == occupied
            assert bool(system._eff[flat]) == (flat in tails)
            assert bool(system._expn[flat]) == (
                flat in heads or flat in expanded_tails
            )


class TestFactory:
    def test_create_system_selects_engines(self):
        assert isinstance(
            create_system(line(5), lam=4.0, seed=0, engine="reference"), AmoebotSystem
        )
        assert isinstance(
            create_system(line(5), lam=4.0, seed=0, engine="fast"), FastAmoebotSystem
        )
        assert set(AMOEBOT_ENGINES) == {"reference", "fast"}

    def test_create_system_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            create_system(line(5), lam=4.0, engine="warp")

    @pytest.mark.parametrize("engine", sorted(AMOEBOT_ENGINES))
    def test_engines_validate_alike(self, engine):
        """Both engines refuse the same inputs with the same error type, so
        a job's ``error_type`` does not depend on its engine."""
        from repro.lattice.configuration import ParticleConfiguration

        system = AMOEBOT_ENGINES[engine]
        with pytest.raises(ConfigurationError):
            system(ParticleConfiguration([(0, 0), (5, 5)]), lam=4.0)
        for lam in (0.0, -1.0):
            with pytest.raises(ConfigurationError, match="lambda must be positive"):
                system(line(5), lam=lam)
        with pytest.raises(ConfigurationError):
            system(line(5), lam=4.0).run(-1)
        with pytest.raises(ConfigurationError):
            system(line(5), lam=4.0).run_rounds(-1)


class TestGoldenTrace:
    """The committed fixture pins the shared activation protocol itself."""

    @pytest.fixture(scope="class")
    def golden(self):
        with GOLDEN_PATH.open() as fh:
            return json.load(fh)

    @pytest.mark.parametrize("engine_name", sorted(AMOEBOT_ENGINES))
    def test_engine_reproduces_golden_trajectory(self, golden, engine_name):
        system = create_system(
            line(golden["n"]),
            lam=golden["lam"],
            seed=golden["seed"],
            engine=engine_name,
            draw_block=golden["draw_block"],
        )
        for index, expected in enumerate(golden["trajectory"]):
            particle_id, round_index, kind, tx, ty = expected
            before = system.scheduler.activations
            action = system.step()
            assert action_tag(action) == [kind, tx, ty], (
                f"{engine_name} diverged from the golden trace at activation "
                f"{index}: got {action_tag(action)}, expected {[kind, tx, ty]}"
            )
            assert system.scheduler.activations == before + 1
        assert system.scheduler.rounds_completed == golden["rounds_after_trajectory"]

    @pytest.mark.parametrize("engine_name", sorted(AMOEBOT_ENGINES))
    def test_engine_run_reproduces_golden_final_state(self, golden, engine_name):
        system = create_system(
            line(golden["n"]),
            lam=golden["lam"],
            seed=golden["seed"],
            engine=engine_name,
            draw_block=golden["draw_block"],
        )
        system.run(golden["activations"])
        final = golden["final"]
        assert system.tails() == [tuple(node) for node in final["tails"]]
        assert [
            None if node is None else tuple(node) for node in final["heads"]
        ] == system.heads()
        assert system.flags() == final["flags"]
        assert system.perimeter() == final["perimeter"]
        assert system.scheduler.time == final["time"]
        assert system.scheduler.rounds_completed == final["rounds_completed"]
        stats = system.stats
        assert [
            stats.activations,
            stats.expansions,
            stats.completed_moves,
            stats.aborted_moves,
            stats.idle_activations,
        ] == final["stats"]
