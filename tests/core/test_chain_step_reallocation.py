"""Lockstep ``step()`` through a guard-band reallocation.

``FastCompressionChain.step()`` is one pass of the engine's own run
loop, and its :class:`~repro.core.markov_chain.StepResult` is read off
the grid after that pass.  An accepted move into the guard band
re-centers the grid inside the pass, so the step that triggers a
reallocation must report its move through the new window, not the one
the step started from.  From starts one cell outside the band (both the
in-place and the resize path of ``_reallocate``), every kernel mode's
``step()`` must equal the reference engine's on every step through the
first reallocation and on past it, on the compiled build and on the
Python loops.

``pytest --native-library PATH`` runs it against another build of
``chain_loops.c``.
"""

import pytest

from repro.core.fast_chain import FastCompressionChain
from repro.core.markov_chain import CompressionMarkovChain
from repro.lattice.shapes import random_connected

from test_native_loops import KERNELS, NEAR_BAND, move_to_window, record_reallocations

pytestmark = pytest.mark.usefixtures("native_build")

#: Steps after the first reallocation that are still compared.
AFTER = 300
#: A start one cell outside the band reallocates well within this many steps.
LIMIT = 5000


@pytest.mark.parametrize("build", ["compiled", "python"])
@pytest.mark.parametrize("path", sorted(NEAR_BAND))
@pytest.mark.parametrize("mode", sorted(KERNELS))
def test_every_step_through_a_reallocation_matches_the_reference(
    mode, path, build, python_loops
):
    initial = random_connected(12, seed=2)
    kernel = KERNELS[mode](initial)
    reference = CompressionMarkovChain(initial, seed=2, kernel=kernel)
    with python_loops(build == "python"):
        engine = FastCompressionChain(initial, seed=2, kernel=kernel)
    if build == "compiled" and engine._library is None:
        pytest.skip("no compiled loop to step: chain_loops.c did not build")
    move_to_window(engine, initial, NEAR_BAND[path])
    paths = record_reallocations(engine)
    step = 0
    while not paths and step < LIMIT:
        assert engine.step() == reference.step(), f"{mode} {path} {build} step {step}"
        step += 1
    assert paths, "the start must force a reallocation"
    assert paths[0] == path, paths
    for step in range(step, step + AFTER):
        assert engine.step() == reference.step(), f"{mode} {path} {build} step {step}"
    assert engine.occupied == reference.occupied
    assert engine.rejection_counts == reference.rejection_counts
