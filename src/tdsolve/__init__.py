"""Exact treedepth: elimination forests through polynomial-space counting.

Given a graph and a depth budget d, either construct an elimination forest
of depth at most d or report that the treedepth exceeds d — deterministically
via an exact counting root scan, or with a randomized linear-time pipeline
(modular counting, color-coding root recovery).  Both are guided by the
centroid forest, or by the reduction descent when that forest is more than
d+1 deep, and split a disconnected graph into its components inside the
shared construction driver.
"""

from .construct import construct_elim_forest, solve_deterministic
from .counting import count_elim_forests, count_elim_trees, eval_h
from .forest import RootedForest, validate_elimination_forest
from .graph import Graph
from .linear import LinearConfig, construct_linear, solve_randomized

__all__ = [
    "Graph",
    "RootedForest",
    "LinearConfig",
    "construct_elim_forest",
    "construct_linear",
    "count_elim_forests",
    "count_elim_trees",
    "eval_h",
    "solve_deterministic",
    "solve_randomized",
    "validate_elimination_forest",
]
