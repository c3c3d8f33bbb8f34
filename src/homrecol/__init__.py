"""Recolouring of graph homomorphisms into triangle-free reflexive hosts.

Decides whether one homomorphism can be walked into another by single-vertex
moves, emitting a replayable move list or a machine-checkable obstruction.
"""

from .graphs import Graph, HostReport, is_homomorphism, validate_host
from .oracle import Answer, hom_graph_bfs
from .solver import (
    Instance,
    Obstruction,
    Verdict,
    preprocess_girth5,
    recheck_obstruction,
    solve,
    verify_witness,
)
from .walks import free_decomposition, reduce_walk

__all__ = [
    "Answer",
    "Graph",
    "HostReport",
    "Instance",
    "Obstruction",
    "Verdict",
    "free_decomposition",
    "hom_graph_bfs",
    "is_homomorphism",
    "preprocess_girth5",
    "recheck_obstruction",
    "reduce_walk",
    "solve",
    "validate_host",
    "verify_witness",
]

__version__ = "0.1.0"
