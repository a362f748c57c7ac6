"""Constructing m-Cayley digraphs over finite groups and certifying
oriented m-semiregular representations (OmSR) of valency two."""

from .automorphisms import PermutationGroup, automorphisms, is_omsr, stabilizer, verify_table
from .constructions import (abelian_connection_table, circulant_table, construct_omsr,
                            cyclic_connection_table, nonabelian_connection_table,
                            recipe_table, rigid_trivial_table, spanning_tree_lift_table)
from .digraphs import (ConnectionTable, Digraph, MCayleyDigraph, build_mcayley,
                       is_connected, is_k_regular, is_oriented, parse_connection_table,
                       right_translation)
from .groups import (GeneratingPair, Group, GroupElement, catalog_group,
                     element_order, generates, group_from_cayley_table,
                     group_from_permutation_generators, is_abelian,
                     normalize_generating_pair, parse_group_spec)
from .reports import VerificationReport
from .sweep import SweepResult, exhaustive_sweep, find_witness

__all__ = [
    "PermutationGroup", "automorphisms", "is_omsr", "stabilizer", "verify_table",
    "abelian_connection_table", "circulant_table", "construct_omsr",
    "cyclic_connection_table", "nonabelian_connection_table", "recipe_table",
    "rigid_trivial_table", "spanning_tree_lift_table",
    "ConnectionTable", "Digraph", "MCayleyDigraph", "build_mcayley", "is_connected",
    "is_k_regular", "is_oriented", "parse_connection_table", "right_translation",
    "GeneratingPair", "Group", "GroupElement", "catalog_group", "element_order",
    "generates", "group_from_cayley_table", "group_from_permutation_generators",
    "is_abelian", "normalize_generating_pair", "parse_group_spec",
    "VerificationReport",
    "SweepResult", "exhaustive_sweep", "find_witness",
]
