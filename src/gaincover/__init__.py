"""Gain graphs over finite groups, covering-graph lifts, two-eigenvalue
classification, and combinatorial regularity certificates."""

__version__ = "0.1.0"

from .gains import (CoverGraph, GainGraph, GroupSpec, gain_row,
                    identity_gains, is_balanced, lift, normalize,
                    parse_gain_file, write_gain_file)
from .graphs import (DistanceTable, Graph, complete_bipartite, complete_graph,
                     cycle, distances, folded_cube, girth, hypercube,
                     is_connected, johnson, kneser, line_graph, octahedron,
                     parse_edge_list, petersen, write_edge_list)
from .intpoly import IntPoly
from .regularity import (ColumnCountCertificate, IntersectionArray,
                         RegularityCertificate, SrgParams, is_antipodal,
                         is_distance_regular, is_walk_regular,
                         lemma_column_counts, regularity_certificate,
                         srg_parameters)
from .spectral import (Spectrum, TwoEvCertificate, char_poly,
                       character_block_check, classify_two_ev,
                       hermitian_spectrum, rep_matrix)

__all__ = [
    "__version__",
    "ColumnCountCertificate", "CoverGraph", "DistanceTable", "GainGraph",
    "Graph", "GroupSpec", "IntPoly", "IntersectionArray",
    "RegularityCertificate", "Spectrum", "SrgParams", "TwoEvCertificate",
    "char_poly", "character_block_check", "classify_two_ev", "complete_bipartite",
    "complete_graph", "cycle",
    "distances", "folded_cube", "gain_row", "girth", "hermitian_spectrum", "hypercube",
    "identity_gains", "is_antipodal", "is_balanced", "is_connected",
    "is_distance_regular", "is_walk_regular", "johnson", "kneser",
    "lemma_column_counts", "lift", "line_graph", "normalize", "octahedron",
    "parse_edge_list", "parse_gain_file", "petersen", "regularity_certificate",
    "rep_matrix", "srg_parameters", "write_edge_list", "write_gain_file",
]
