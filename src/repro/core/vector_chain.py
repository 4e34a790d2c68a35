"""The ``"vector"`` name of the compiled engine, kept for existing callers.

``engine="vector"`` once selected a separate engine that ran the fast
engine's loops in C.  Since
:class:`~repro.core.fast_chain.FastCompressionChain` runs those compiled
loops itself, ``repro.core.ENGINES["vector"]`` is ``FastCompressionChain``:
stored job documents and checkpoint fingerprints that name ``"vector"``
keep loading and produce the same trajectories.

:class:`VectorCompressionChain` stays importable as a subclass with no
behaviour of its own.  It binds the engine's ``__init__`` and ``run`` as
its own attributes, so a wrapper installed on both class names (as the
benchmark tracer does) wraps each function once instead of nesting one
inside the other.
"""

from __future__ import annotations

from repro.core.fast_chain import FastCompressionChain


class VectorCompressionChain(FastCompressionChain):
    """:class:`~repro.core.fast_chain.FastCompressionChain` under its old name."""

    __init__ = FastCompressionChain.__init__
    run = FastCompressionChain.run
