"""Mutually t-orthogonal Latin square families and their channel graphs.

Construction: prime-based square families (make_mols_family).
Verification: superimposition and exhaustive t-subset checks.
Graphs: multipartite channel graphs, complete multipartite and Turan
graphs, with brute-force oracles cross-checking every computed quantity.
"""

from .errors import (ConstructionError, InputError, MolsNetError, NotLatinError,
                     NotOrthogonalError, SquareFileError)
from .export import FORMATS, GraphExport, export_graph
from .files import parse_square_file, serialize_square_file
from .graphs import (CHAIN, MULTIPARTITE, BipartitenessReport, ChannelChain, GraphStats,
                     MultiplicityReport, PartiteGraph, build_partite_graph, channels_through,
                     edge_multiplicity, graph_stats, is_bipartite, make_complete_multipartite,
                     make_turan_graph, parse_part_label, part_label, turan_edge_count,
                     vertex_name)
from .oracle import (SearchResult, brute_force_distinctness, brute_force_multiplicity,
                     count_edges_brute, enumerate_latin_squares, enumerate_set_orthogonality,
                     exhaustive_mols_search)
from .orthogonality import (OrthogonalityReport, SetOrthogonalityReport, SubsetVerdict,
                            TupleArray, is_t_orthogonal, superimpose, verify_set_orthogonality)
from .squares import (LatinSquare, LatinViolation, MolsSet, ValidationReport, apply_row_shift,
                      is_prime, make_additive_square, make_mols_family,
                      make_multiplicative_square, validate_latin)

__all__ = [
    "CHAIN",
    "FORMATS",
    "MULTIPARTITE",
    "BipartitenessReport",
    "ChannelChain",
    "ConstructionError",
    "GraphExport",
    "GraphStats",
    "InputError",
    "LatinSquare",
    "LatinViolation",
    "MolsNetError",
    "MolsSet",
    "MultiplicityReport",
    "NotLatinError",
    "NotOrthogonalError",
    "OrthogonalityReport",
    "PartiteGraph",
    "SearchResult",
    "SetOrthogonalityReport",
    "SquareFileError",
    "SubsetVerdict",
    "TupleArray",
    "ValidationReport",
    "apply_row_shift",
    "brute_force_distinctness",
    "brute_force_multiplicity",
    "build_partite_graph",
    "channels_through",
    "count_edges_brute",
    "edge_multiplicity",
    "enumerate_latin_squares",
    "enumerate_set_orthogonality",
    "exhaustive_mols_search",
    "export_graph",
    "graph_stats",
    "is_bipartite",
    "is_prime",
    "is_t_orthogonal",
    "make_additive_square",
    "make_complete_multipartite",
    "make_mols_family",
    "make_multiplicative_square",
    "make_turan_graph",
    "parse_part_label",
    "parse_square_file",
    "part_label",
    "serialize_square_file",
    "superimpose",
    "turan_edge_count",
    "validate_latin",
    "verify_set_orthogonality",
    "vertex_name",
]
