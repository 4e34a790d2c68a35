"""Geometric identities relating perimeter, edges and triangles.

These implement the identities of Section 2.3 of the paper, valid for
connected hole-free configurations of ``n`` particles:

* Lemma 2.3:  ``e(sigma) = 3n - p(sigma) - 3``
* Lemma 2.4:  ``t(sigma) = 2n - p(sigma) - 2``
* ``pmax(n) = 2n - 2`` (spanning tree without triangles)
* Lemma 2.1:  ``p(sigma) >= sqrt(n)``; also ``pmin(n) <= 4 sqrt(n)``
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.constants import pmax as _pmax
from repro.constants import pmin_lower_bound, pmin_upper_bound
from repro.errors import ConfigurationError


def perimeter_from_edges(n: int, edges: int) -> int:
    """Return ``p(sigma)`` given ``n`` and ``e(sigma)`` (Lemma 2.3)."""
    _validate_n(n)
    perimeter = 3 * n - edges - 3
    if n == 1:
        # A single particle has zero edges and zero perimeter; the lemma's
        # formula targets n >= 2, so special-case it.
        return 0
    return perimeter


def edges_from_perimeter(n: int, perimeter: int) -> int:
    """Return ``e(sigma)`` given ``n`` and ``p(sigma)`` (Lemma 2.3 inverted)."""
    _validate_n(n)
    if n == 1:
        return 0
    return 3 * n - perimeter - 3


def perimeter_from_triangles(n: int, triangles: int) -> int:
    """Return ``p(sigma)`` given ``n`` and ``t(sigma)`` (Lemma 2.4)."""
    _validate_n(n)
    if n == 1:
        return 0
    return 2 * n - triangles - 2


def triangles_from_perimeter(n: int, perimeter: int) -> int:
    """Return ``t(sigma)`` given ``n`` and ``p(sigma)`` (Lemma 2.4 inverted)."""
    _validate_n(n)
    if n == 1:
        return 0
    return 2 * n - perimeter - 2


def max_perimeter(n: int) -> int:
    """Maximum perimeter ``pmax(n) = 2n - 2`` of a connected hole-free configuration."""
    return _pmax(n)


def min_perimeter_bounds(n: int) -> Tuple[float, float]:
    """Return ``(sqrt(n), 4 sqrt(n))``, the paper's bounds sandwiching ``pmin(n)``."""
    return (pmin_lower_bound(n), pmin_upper_bound(n))


def min_perimeter(n: int) -> int:
    """Exact minimum perimeter ``pmin(n)`` of a connected configuration of ``n`` particles.

    By the duality with hexagonal animals (Lemma 4.3), minimizing the
    configuration perimeter is equivalent to minimizing the boundary of a
    polyhex with ``n`` cells, whose exact minimum is the Harary-Harborth
    value ``2 * ceil(sqrt(12 n - 3))`` hexagon edges.  Converting back via
    ``boundary = 2 p + 6`` gives ``pmin(n) = ceil(sqrt(12 n - 3)) - 3``.

    The paper only uses the bounds ``sqrt(n) <= pmin(n) <= 4 sqrt(n)``; the
    exact value makes the alpha-compression metrics sharper.  The test
    suite verifies this formula against exhaustive enumeration for small
    ``n`` and against the greedy spiral construction for larger ``n``.
    """
    _validate_n(n)
    if n == 1:
        return 0
    radicand = 12 * n - 3
    root = math.isqrt(radicand)
    ceil_sqrt = root if root * root == radicand else root + 1
    return ceil_sqrt - 3


def min_perimeter_hexagon(n: int) -> int:
    """Perimeter of the greedy spiral of ``n`` particles, built and measured.

    The minimum-perimeter configuration of ``n`` particles on the
    triangular lattice is a "spiral hexagon": a filled hexagon possibly
    with a partial outer layer.  This function builds it with
    :func:`repro.lattice.shapes.spiral` and returns the configuration's
    traced perimeter, so it is a constructive witness rather than a
    formula; the closed form is :func:`min_perimeter`, and the test suite
    checks that the two agree.
    """
    _validate_n(n)
    if n == 1:
        return 0
    from repro.lattice.shapes import spiral

    return spiral(n).perimeter


def alpha_compression_threshold(n: int, alpha: float) -> float:
    """Return the perimeter threshold ``alpha * pmin(n)`` used by Definition 2.2.

    ``pmin(n)`` is the exact closed form :func:`min_perimeter`.
    """
    if alpha <= 1:
        raise ConfigurationError(f"alpha must exceed 1, got {alpha}")
    return alpha * min_perimeter(n)


def beta_expansion_threshold(n: int, beta: float) -> float:
    """Return the perimeter threshold ``beta * pmax(n)`` used by Section 5."""
    if not 0 < beta < 1:
        raise ConfigurationError(f"beta must lie in (0, 1), got {beta}")
    return beta * max_perimeter(n)


def _validate_n(n: int) -> None:
    if n < 1:
        raise ConfigurationError(f"need at least one particle, got n={n}")
