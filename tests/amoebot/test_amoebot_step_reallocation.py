"""Lockstep ``FastAmoebotSystem.step()`` through a guard-band reallocation.

``step()`` is one pass of ``_run_core`` with ``budget=1``, and an
expansion's target is read off the grid after that pass.  An expansion
into the guard band re-centers the grid inside the pass, so the step that
triggers a reallocation must report its ``Expand`` target through the new
window.  A blob windowed one cell outside the band, on every side,
reallocates on its first outward expansion; every action must equal the
object simulator's through that step and on past it.
"""

import numpy as np

from repro.amoebot import AmoebotSystem, FastAmoebotSystem
from repro.core.fast_chain import GUARD_BAND, OccupancyGrid
from repro.lattice.shapes import line

#: Activations after the first reallocation that are still compared.
AFTER = 2000
#: A start one cell outside the band reallocates well within this many.
LIMIT = 5000


def tighten_window(system):
    """Re-window a fresh (all contracted) system so that its guard band lies
    one cell beyond the start's bounding box."""
    tails = np.array(system._tail, dtype=np.int64)
    xs, ys = system.grid.coordinates(tails)
    system.grid = OccupancyGrid.from_coordinates(xs, ys, margin=GUARD_BAND + 1)
    system._tail = system.grid.flat_indices(xs, ys).tolist()
    system._eff = bytearray(system.grid.cells)
    system._expn = bytearray(len(system.grid.cells))


def test_every_action_through_a_reallocation_matches_the_reference():
    reference = AmoebotSystem(line(4), lam=1.0, seed=6)
    fast = FastAmoebotSystem(line(4), lam=1.0, seed=6)
    tighten_window(fast)
    windows = []
    original = fast._reallocate

    def spy():
        original()
        windows.append((fast.grid.origin_x, fast.grid.origin_y, fast.grid.width))

    fast._reallocate = spy
    activation = 0
    while not windows and activation < LIMIT:
        assert fast.step() == reference.step(), f"activation {activation}"
        activation += 1
    assert windows, "the start must force a reallocation"
    for activation in range(activation, activation + AFTER):
        assert fast.step() == reference.step(), f"activation {activation}"
    assert fast.tails() == reference.tails()
    assert fast.heads() == reference.heads()
    assert fast.stats == reference.stats
