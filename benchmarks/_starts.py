"""O(n) compact starting configurations for large-n benchmarks.

``repro.lattice.shapes.spiral`` builds the exact Harary-Harborth
minimum-perimeter configuration greedily, in O(n log n) with a frontier
heap.  The large-n benches only need *a* compact, connected start of
exactly ``n`` particles, and their ledger rows were recorded on this
one, so this function stays: it takes the largest filled hexagon that
fits and tops it up from the next ring: every ring node is adjacent to
the filled interior, so any subset of the ring keeps the configuration
connected, and the result is within one ring of minimum perimeter.
Construction is O(n).  The hexagon is listed in coordinate order (x, then
y), as ``perfbench``'s ``disc_nodes`` lists it, not in the hash order of
a node set.
"""

from __future__ import annotations

from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.shapes import ring


def compact_disc(n: int) -> ParticleConfiguration:
    """A near-minimum-perimeter connected configuration of exactly ``n``
    particles: the largest filled hexagon with at most ``n`` particles,
    in coordinate order, plus the first ``n - (1 + 3r(r+1))`` nodes of
    the next ring in a fixed sweep order."""
    radius = 0
    while 1 + 3 * (radius + 1) * (radius + 2) <= n:
        radius += 1
    nodes = [
        (x, y)
        for x in range(-radius, radius + 1)
        for y in range(max(-radius, -x - radius), min(radius, radius - x) + 1)
    ]
    if len(nodes) < n:
        nodes.extend(sorted(ring(radius + 1).nodes)[: n - len(nodes)])
    return ParticleConfiguration(nodes)
