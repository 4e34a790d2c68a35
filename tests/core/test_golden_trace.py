"""Golden-trace regression test for the chain engines.

``tests/core/golden/line20_lam4_seed0.json`` pins the first 200
:class:`~repro.core.markov_chain.StepResult` values (and the resulting
final state) of Algorithm M from the paper's standard ``line(20)`` start
at ``lambda = 4`` with seed 0 under the batched-draw protocol.  Both
engines, and the fast engine's Python loops, must reproduce the
committed trajectory bit-for-bit, so any
future optimization that silently changes chain behaviour — a reordered
draw, a perturbed acceptance probability, an off-by-one in the move
tables — fails here rather than skewing experiment results unnoticed.

If a change *intentionally* alters the protocol (and the ROADMAP agrees),
regenerate the fixture with both engines in agreement and say so loudly
in the commit message.

``pytest --native-library PATH`` runs it against another build of
``chain_loops.c`` (a sanitizer build, say): ``step()`` enters and leaves
the compiled loop once per proposal.
"""

import json
from pathlib import Path

import pytest

from repro.core.fast_chain import FastCompressionChain
from repro.core.markov_chain import CompressionMarkovChain
from repro.lattice.shapes import line

pytestmark = pytest.mark.usefixtures("native_build")

FIXTURE_PATH = Path(__file__).parent / "golden" / "line20_lam4_seed0.json"

#: name -> engine class; "python" is the fast engine built with its
#: Python loops (the no-compiler fallback).
ENGINES_UNDER_TEST = {
    "reference": CompressionMarkovChain,
    "fast": FastCompressionChain,
    "python": FastCompressionChain,
}


def build(engine_name, python_loops, golden):
    with python_loops(engine_name == "python"):
        return ENGINES_UNDER_TEST[engine_name](
            line(golden["n"]),
            lam=golden["lam"],
            seed=golden["seed"],
            draw_block=golden["draw_block"],
        )


@pytest.fixture(scope="module")
def golden():
    with FIXTURE_PATH.open() as fh:
        return json.load(fh)


@pytest.mark.parametrize("engine_name", sorted(ENGINES_UNDER_TEST))
def test_engine_reproduces_golden_trace(golden, engine_name, python_loops):
    chain = build(engine_name, python_loops, golden)
    for iteration, expected in enumerate(golden["trajectory"]):
        source_x, source_y, target_x, target_y, edge_delta, reason = expected
        result = chain.step()
        actual = [
            result.move.source[0],
            result.move.source[1],
            result.move.target[0],
            result.move.target[1],
            result.edge_delta,
            result.reason,
        ]
        assert actual == [source_x, source_y, target_x, target_y, edge_delta, reason], (
            f"{engine_name} engine diverged from the golden trace at iteration "
            f"{iteration}: got {actual}, expected {expected}"
        )
    final = golden["final"]
    assert chain.edge_count == final["edge_count"]
    assert chain.perimeter() == final["perimeter"]
    assert chain.accepted_moves == final["accepted_moves"]
    assert chain.rejection_counts == final["rejection_counts"]
    assert sorted(chain.occupied) == [tuple(node) for node in final["occupied"]]


@pytest.mark.parametrize("engine_name", sorted(ENGINES_UNDER_TEST))
def test_engine_run_reproduces_golden_final_state(golden, engine_name, python_loops):
    """The batched run() paths (the fast engine's compiled loop and its
    Python loops) land on the committed final state, not just per-step
    step()."""
    chain = build(engine_name, python_loops, golden)
    chain.run(golden["steps"])
    final = golden["final"]
    assert chain.edge_count == final["edge_count"]
    assert chain.perimeter() == final["perimeter"]
    assert chain.accepted_moves == final["accepted_moves"]
    assert chain.rejection_counts == final["rejection_counts"]
    assert sorted(chain.occupied) == [tuple(node) for node in final["occupied"]]


def test_golden_fixture_is_self_consistent(golden):
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
