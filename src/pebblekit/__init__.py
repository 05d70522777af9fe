"""Exact graph pebbling: solvers, pebbling numbers, graph families, and a
verification harness for the bundled claim registry."""

from .engine import Configuration, Distribution, MODES, PebblingError, \
    Solution, SolveOutcome, Solver, apply_move, is_solvable, \
    min_cost_solution, replay, stats, weight
from .families import FamilyError, FanSpec, RootedTree, TwoPath, \
    enumerate_fan_specs, is_spinal_root, kneser, max_path_partition, \
    random_tree, spinal_tree, two_path
from .formulas import FormulaError, KneserParams, build_C_t1, build_C_t2, \
    build_J_r, kneser_p, spinal_pi, tree_pi, two_path_pi_t
from .graph import Graph, GraphError, Metrics, automorphisms, build_graph, \
    graph_from_json, graph_to_json, metrics, pair_orbits, shortest_path, \
    simplicial_vertices, stabilizer, vertex_connectivity
from .harness import CampaignConfig, ExperimentReport, HarnessError, \
    REGISTRY, load_graph, run_campaign
from .numbers import BudgetExceededError, DEFAULT_BUDGET, WitnessResult, \
    demands_of_size, find_unsolvable_witness, num_configs, pi_D, pi_t, \
    tree_dust_witness, two_path_lower_candidates, unrank_config, \
    verify_target_conjecture
from .version import VERSION

__version__ = VERSION

__all__ = [
    "VERSION",
    # graph
    "Graph", "GraphError", "Metrics", "build_graph", "metrics",
    "shortest_path", "vertex_connectivity",
    "simplicial_vertices", "automorphisms", "stabilizer", "pair_orbits",
    "graph_to_json", "graph_from_json",
    # families
    "FamilyError", "FanSpec", "TwoPath", "RootedTree", "kneser", "two_path",
    "enumerate_fan_specs", "is_spinal_root", "spinal_tree",
    "max_path_partition", "random_tree",
    # engine
    "MODES", "PebblingError", "Configuration", "Distribution", "Solution",
    "SolveOutcome", "Solver", "apply_move", "replay", "stats", "weight",
    "is_solvable", "min_cost_solution",
    # formulas
    "FormulaError", "KneserParams", "tree_pi", "two_path_pi_t", "spinal_pi",
    "kneser_p", "build_C_t1", "build_C_t2", "build_J_r",
    # numbers
    "BudgetExceededError", "DEFAULT_BUDGET", "WitnessResult", "num_configs",
    "unrank_config", "find_unsolvable_witness", "pi_D",
    "pi_t", "tree_dust_witness", "two_path_lower_candidates",
    "demands_of_size", "verify_target_conjecture",
    # harness
    "HarnessError", "CampaignConfig", "ExperimentReport", "REGISTRY",
    "run_campaign", "load_graph",
]
