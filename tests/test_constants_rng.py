"""Tests for the paper constants and the RNG helpers."""

import math

import numpy as np
import pytest

from repro.constants import (
    COMPRESSION_THRESHOLD,
    EXPANSION_THRESHOLD,
    FIXED_POLYHEX_COUNTS,
    FORBIDDEN_NEIGHBOR_COUNT,
    HEXAGONAL_CONNECTIVE_CONSTANT,
    MAX_NEIGHBORS,
    N50,
    pmax,
    pmin_lower_bound,
    pmin_upper_bound,
)
from repro.rng import BatchedMoveDraws, make_rng, spawn_seeds


class TestConstants:
    def test_threshold_relationships(self):
        assert HEXAGONAL_CONNECTIVE_CONSTANT ** 2 == pytest.approx(COMPRESSION_THRESHOLD)
        assert math.isclose(EXPANSION_THRESHOLD, (2 * N50) ** 0.01, rel_tol=1e-12)
        assert MAX_NEIGHBORS == 6
        assert FORBIDDEN_NEIGHBOR_COUNT == 5

    def test_n50_magnitude(self):
        assert len(str(N50)) == 34  # the 34-digit constant of Lemma 5.5

    def test_polyhex_series_is_increasing(self):
        assert all(a < b for a, b in zip(FIXED_POLYHEX_COUNTS, FIXED_POLYHEX_COUNTS[1:]))

    def test_perimeter_bound_helpers(self):
        assert pmax(1) == 0
        assert pmax(10) == 18
        assert pmin_lower_bound(1) == 0.0
        assert pmin_lower_bound(16) == 4.0
        assert pmin_upper_bound(16) == 16.0
        with pytest.raises(ValueError):
            pmax(0)
        with pytest.raises(ValueError):
            pmin_lower_bound(0)
        with pytest.raises(ValueError):
            pmin_upper_bound(-3)


class TestRng:
    def test_make_rng_accepts_all_seed_forms(self):
        assert isinstance(make_rng(None), np.random.Generator)
        assert isinstance(make_rng(7), np.random.Generator)
        generator = np.random.default_rng(1)
        assert make_rng(generator) is generator

    def test_integer_seeds_are_reproducible(self):
        assert make_rng(5).integers(0, 1000, 10).tolist() == make_rng(5).integers(0, 1000, 10).tolist()

    def test_spawned_seeds_give_distinct_but_reproducible_streams(self):
        first = [make_rng(seed) for seed in spawn_seeds(3, 4)]
        second = [make_rng(seed) for seed in spawn_seeds(3, 4)]
        draws_first = [rng.integers(0, 10**9) for rng in first]
        draws_second = [rng.integers(0, 10**9) for rng in second]
        assert draws_first == draws_second
        assert len(set(draws_first)) == 4

    def test_spawn_from_generator(self):
        children = spawn_seeds(np.random.default_rng(0), 3)
        assert len(children) == 3 and all(type(seed) is int for seed in children)
        assert children == spawn_seeds(np.random.default_rng(0), 3)

    def test_spawn_validation(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestBatchedMoveDrawLanes:
    """The optional second uniform lane of the batched draw tape.

    The critical contract (pinned here and — at the engine level — by the
    committed compression golden traces): ``lanes=1`` invokes the
    generator exactly as before the lane existed, so every single-lane
    consumer's seeded trajectory is unchanged.
    """

    def test_single_lane_stream_matches_manual_generator_calls(self):
        """lanes=1 draws exactly (indices, directions, uniforms) per block."""
        tape = BatchedMoveDraws(np.random.default_rng(42), n=10, block=8)
        twin = np.random.default_rng(42)
        for _ in range(3):  # three refills worth of draws
            expected = list(
                zip(
                    twin.integers(0, 10, size=8).tolist(),
                    twin.integers(0, 6, size=8).tolist(),
                    twin.random(8).tolist(),
                )
            )
            assert [tape.draw() for _ in range(8)] == expected

    def test_default_is_single_lane(self):
        assert BatchedMoveDraws(np.random.default_rng(0), n=4).lanes == 1

    def test_second_lane_is_drawn_after_the_triple_blocks(self):
        """Canonical per-block order: indices, directions, uniforms, uniforms2."""
        tape = BatchedMoveDraws(np.random.default_rng(7), n=5, block=6, lanes=2)
        twin = np.random.default_rng(7)
        for _ in range(3):
            indices = twin.integers(0, 5, size=6).tolist()
            directions = twin.integers(0, 6, size=6).tolist()
            uniforms = twin.random(6).tolist()
            uniforms2 = twin.random(6).tolist()
            expected = list(zip(indices, directions, uniforms, uniforms2))
            assert [tape.draw2() for _ in range(6)] == expected

    def test_first_block_triples_agree_across_lane_counts(self):
        """Within one block the extra lane cannot perturb the triples."""
        single = BatchedMoveDraws(np.random.default_rng(3), n=8, block=16)
        double = BatchedMoveDraws(np.random.default_rng(3), n=8, block=16, lanes=2)
        for _ in range(16):
            assert double.draw2()[:3] == single.draw()

    def test_refill_discards_the_unread_remainder(self):
        """A refill after a partial read starts the next block on the
        generator's stream; the rest of the current block is never read."""
        tape = BatchedMoveDraws(np.random.default_rng(9), n=6, block=4, lanes=2)
        twin = np.random.default_rng(9)
        blocks = []
        for _ in range(2):
            indices = twin.integers(0, 6, size=4).tolist()
            directions = twin.integers(0, 6, size=4).tolist()
            uniforms = twin.random(4).tolist()
            uniforms2 = twin.random(4).tolist()
            blocks.append(list(zip(indices, directions, uniforms, uniforms2)))
        assert tape.draw2() == blocks[0][0]
        tape.refill()
        assert tape.cursor == 0 and tape.size == 4
        assert [tape.draw2() for _ in range(4)] == blocks[1]
        assert tape._rng.bit_generator.state == twin.bit_generator.state

    def test_refills_stay_within_one_block_of_memory(self):
        """Refills write into the lanes allocated at construction: many
        refills in a row never hold more than one block's payload."""
        import tracemalloc

        block = 512
        tape = BatchedMoveDraws(np.random.default_rng(3), n=100, block=block, lanes=2)
        payload = 4 * block * 8  # four int64/float64 lanes of one block
        tracemalloc.start()
        for _ in range(128):
            tape.refill()
            tape.uniforms  # draws a deferred lane, if any
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # numpy, on the fallback, draws one lane of a block at a time.
        assert peak < payload

    def test_draw2_requires_two_lanes(self):
        with pytest.raises(ValueError):
            BatchedMoveDraws(np.random.default_rng(0), n=4).draw2()

    def test_lists2_requires_two_lanes(self):
        """A single-lane tape must refuse lists2() rather than hand a block
        consumer an empty lane it would silently run off the end of."""
        tape = BatchedMoveDraws(np.random.default_rng(0), n=4)
        tape.refill()
        with pytest.raises(ValueError, match="lanes=2"):
            tape.lists2()

    def test_lists2_matches_the_lane_array(self):
        tape = BatchedMoveDraws(np.random.default_rng(1), n=4, block=8, lanes=2)
        tape.refill()
        assert tape.lists2() == tape.uniforms2.tolist()

    def test_lane_count_validation(self):
        with pytest.raises(ValueError):
            BatchedMoveDraws(np.random.default_rng(0), n=4, lanes=3)
