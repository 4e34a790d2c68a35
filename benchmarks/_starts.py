"""O(n) compact starting configurations for large-n benchmarks.

``repro.lattice.shapes.spiral`` builds the exact Harary-Harborth
minimum-perimeter configuration greedily, in O(n log n) with a frontier
heap.  The large-n benches only need *a* compact, connected start of
exactly ``n`` particles, and their ledger rows were recorded on this
one, so this function stays: it takes the largest filled hexagon that
fits and tops it up from the next ring: every ring node is adjacent to
the filled interior, so any subset of the ring keeps the configuration
connected, and the result is within one ring of minimum perimeter.
Construction is O(n).
"""

from __future__ import annotations

from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.shapes import hexagon, ring


def compact_disc(n: int) -> ParticleConfiguration:
    """A near-minimum-perimeter connected configuration of exactly ``n``
    particles: the largest filled hexagon with at most ``n`` particles,
    plus the first ``n - (1 + 3r(r+1))`` nodes of the next ring in a
    fixed sweep order."""
    radius = 0
    while 1 + 3 * (radius + 1) * (radius + 2) <= n:
        radius += 1
    nodes = list(hexagon(radius).nodes)
    if len(nodes) < n:
        nodes.extend(sorted(ring(radius + 1).nodes)[: n - len(nodes)])
    return ParticleConfiguration(nodes)
