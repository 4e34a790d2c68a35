"""The triangular-lattice substrate ``G_Delta`` used by the amoebot model.

This subpackage provides coordinates and adjacency on the infinite
triangular lattice, particle configurations together with their derived
quantities (edges, triangles, perimeter, holes), configuration generators,
exhaustive enumeration of small configurations, and the hexagonal dual
lattice with its self-avoiding walks used in the paper's Peierls argument.
"""

from repro.lattice.triangular import (
    DIRECTIONS,
    NUM_DIRECTIONS,
    Node,
    add,
    are_adjacent,
    common_neighbors,
    direction_between,
    direction_index,
    hex_distance,
    neighborhood,
    neighbors,
    opposite_direction,
    rotate_ccw,
    rotate_cw,
    scale,
    subtract,
    to_cartesian,
)
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.boundary import (
    BoundaryWalk,
    external_boundary_walk,
    hole_boundary_walks,
    total_perimeter,
)
from repro.lattice.holes import find_holes, has_holes
from repro.lattice.geometry import (
    edges_from_perimeter,
    max_perimeter,
    min_perimeter,
    min_perimeter_bounds,
    perimeter_from_edges,
    perimeter_from_triangles,
    triangles_from_perimeter,
)
from repro.lattice.shapes import (
    hexagon,
    line,
    parallelogram,
    property2_witness,
    random_connected,
    random_hole_free,
    ring,
    spiral,
    staircase,
)
from repro.lattice.enumeration import (
    count_configurations,
    count_configurations_by_perimeter,
    enumerate_configurations,
)
from repro.lattice.hex_dual import (
    HEX_DIRECTIONS,
    configuration_to_dual_faces,
    dual_boundary_length,
    dual_face_edges,
)
from repro.lattice.saw import (
    count_self_avoiding_polygons,
    count_self_avoiding_walks,
    estimate_connective_constant,
)

__all__ = [
    "DIRECTIONS",
    "NUM_DIRECTIONS",
    "Node",
    "add",
    "are_adjacent",
    "common_neighbors",
    "direction_between",
    "direction_index",
    "hex_distance",
    "neighborhood",
    "neighbors",
    "opposite_direction",
    "rotate_ccw",
    "rotate_cw",
    "scale",
    "subtract",
    "to_cartesian",
    "ParticleConfiguration",
    "BoundaryWalk",
    "external_boundary_walk",
    "hole_boundary_walks",
    "total_perimeter",
    "find_holes",
    "has_holes",
    "edges_from_perimeter",
    "max_perimeter",
    "min_perimeter",
    "min_perimeter_bounds",
    "perimeter_from_edges",
    "perimeter_from_triangles",
    "triangles_from_perimeter",
    "hexagon",
    "line",
    "parallelogram",
    "property2_witness",
    "random_connected",
    "random_hole_free",
    "ring",
    "spiral",
    "staircase",
    "count_configurations",
    "count_configurations_by_perimeter",
    "enumerate_configurations",
    "HEX_DIRECTIONS",
    "configuration_to_dual_faces",
    "dual_boundary_length",
    "dual_face_edges",
    "count_self_avoiding_polygons",
    "count_self_avoiding_walks",
    "estimate_connective_constant",
]
