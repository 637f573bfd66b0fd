"""Joint edge/triangle topology learning for simplicial complexes.

Selection vectors over the complete candidate complex, linear smoothness
costs, an exact branch-and-bound solver for the coupled selection
problem, hierarchical and greedy baselines, a seeded synthetic pipeline,
and an evaluation harness.
"""

from .blp import (
    BlpInstance,
    BlpSolution,
    build_joint_instance,
    lp_bound,
    oracle_enumerate,
    read_instance,
    solve,
    write_instance,
)
from .complexes import (
    CandidateComplex,
    Selection,
    build_candidate_complex,
    feasible_triangles,
    laplacian_node,
    laplacian_upper_edge,
    similarity_laplacian,
    validate_inclusion,
)
from .datagen import (
    SignalBundle,
    SynthConfig,
    filtered_signals,
    load_bundle,
    make_bundle,
    sample_er_selection,
    sample_triangle_truth,
    save_bundle,
)
from .datasets import (
    RealDataset,
    load_real_dataset,
    load_selection,
    make_coauthorship_fixture,
    save_real_dataset,
    save_selection,
    subsample_dataset,
)
from .experiment import EvalReport, ExperimentConfig, run_experiment, write_report
from .learners import (
    LearnerOutput,
    default_gamma,
    learn_greedy,
    learn_hierarchical,
    learn_joint,
)
from .metrics import ScoreReport, edge_signals_from_nodes, f1_scores
from .smoothness import (
    CostVectors,
    compute_costs,
    face_similarity_costs,
    h1_node_smoothness,
    h2_curl,
    h2_similarity,
    quadratic_form,
)

__version__ = "0.1.0"
