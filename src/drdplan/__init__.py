"""Active edge evaluation for feasible-path identification.

Identify a collision-free path from a candidate library with as little
edge-evaluation cost as possible: an offline-compiled greedy policy over a
sampled world database narrows the posterior, and a closed-form
independent-Bernoulli policy completes episodes the database cannot
resolve.
"""

from .model import (
    Dataset,
    ExplicitGraph,
    Library,
    Path,
    compute_membership,
    split_dataset,
    validate_dataset,
)
from .io import dataset_hash, load_dataset, save_dataset
from .scenarios import ScenarioSpec, build_grid_graph, build_path_library, generate_dataset
from .ec2 import DrdProblem, VersionSpace, direct_policy, problem_from_dataset
from .trees import DecisionTree, compile_from_dataset, compile_tree, execute_tree, load_tree, save_tree
from .bernoulli import BernoulliBelief, bisect_policy
from .bench import normalized_cost, run_policy, sweep_training_size
from .traces import AllRegionsDead, Infeasible, RunTrace, Solved

__all__ = [
    "AllRegionsDead",
    "BernoulliBelief",
    "Dataset",
    "DecisionTree",
    "DrdProblem",
    "ExplicitGraph",
    "Infeasible",
    "Library",
    "Path",
    "RunTrace",
    "ScenarioSpec",
    "Solved",
    "VersionSpace",
    "bisect_policy",
    "build_grid_graph",
    "build_path_library",
    "compile_from_dataset",
    "compile_tree",
    "compute_membership",
    "dataset_hash",
    "direct_policy",
    "execute_tree",
    "generate_dataset",
    "load_dataset",
    "load_tree",
    "normalized_cost",
    "problem_from_dataset",
    "run_policy",
    "save_dataset",
    "save_tree",
    "split_dataset",
    "sweep_training_size",
    "validate_dataset",
]

__version__ = "0.1.0"
