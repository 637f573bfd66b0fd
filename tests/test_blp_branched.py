"""Branched trees above the oracle's reach, checked against HiGHS.

The oracle enumerates only up to ``n0 = 7``, and noise-free synthetic
realizations are decided at the root.  Noise makes trees: these are the
realizations of ``n0`` 10/15/20, noise 0.5/1, both priors and seeds 0-9
whose ``solve`` branches (3 to 11 nodes), with only one of the six at
``n0 = 20``, where HiGHS takes 0.3-0.5 s each, to keep the test near 2 s.
Each objective is checked against scipy's HiGHS ``milp`` on the full row
set, a solver that shares no code with ``solve``.
"""

import numpy as np
import pytest

from sctopo.blp import build_joint_instance, solve
from sctopo.complexes import build_candidate_complex, validate_inclusion
from sctopo.datagen import SynthConfig, make_bundle
from sctopo.experiment import PRIOR_TO_KIND
from sctopo.smoothness import compute_costs

# (n0, noise sigma, prior, seed)
BRANCHED = (
    (10, 0.5, "similarity", 0), (10, 1.0, "low_curl", 1),
    (10, 1.0, "similarity", 4), (10, 1.0, "similarity", 6),
    (15, 0.5, "low_curl", 8), (15, 0.5, "similarity", 1),
    (15, 0.5, "similarity", 2), (15, 0.5, "similarity", 4),
    (15, 0.5, "similarity", 6), (15, 1.0, "low_curl", 2),
    (15, 1.0, "low_curl", 3), (15, 1.0, "low_curl", 4),
    (15, 1.0, "low_curl", 8), (15, 1.0, "similarity", 5),
    (15, 1.0, "similarity", 7), (15, 1.0, "similarity", 9),
    (20, 0.5, "similarity", 8),
)


def _highs_objective(inst):
    """The joint optimum from HiGHS, every inclusion row given up front."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    n1, n2 = inst.n_edges, inst.n_triangles
    k = np.arange(3 * n2)
    inclusion = coo_matrix(
        (np.tile([1.0, -1.0], 3 * n2),
         (np.repeat(k, 2), np.column_stack([n1 + k // 3,
                                            inst.triangle_edges.ravel()]).ravel())),
        shape=(3 * n2, n1 + n2))
    floors = np.zeros((2, n1 + n2))
    floors[0, :n1] = 1.0
    floors[1, n1:] = 1.0
    res = milp(np.concatenate([inst.h1, inst.h2]),
               constraints=[LinearConstraint(inclusion, -np.inf, 0.0),
                            LinearConstraint(floors, [inst.c1, inst.c2],
                                             np.inf)],
               integrality=np.ones(n1 + n2), bounds=Bounds(0.0, 1.0),
               options={"mip_rel_gap": 1e-12})
    assert res.success, res.message
    return float(res.fun)


def test_branched_trees_match_highs():
    branched = 0
    for n0, sigma, prior, seed in BRANCHED:
        cx = build_candidate_complex(n0)
        bundle = make_bundle(SynthConfig(n0=n0, seed=seed, edge_prior=prior,
                                         noise_sigma=sigma))
        costs = compute_costs(cx, bundle.x0, bundle.x1bar, PRIOR_TO_KIND[prior])
        inst = build_joint_instance(cx, costs, bundle.truth.n_selected_edges,
                                    bundle.truth.n_selected_triangles)
        got = solve(inst)
        where = f"n0={n0} sigma={sigma} {prior} seed={seed}"
        assert got.status == "optimal", where
        assert got.objective == pytest.approx(_highs_objective(inst),
                                              rel=1e-9), where
        assert got.lower_bound <= got.objective, where
        sel = got.selection
        assert sel.s1.sum() >= inst.c1 and sel.s2.sum() >= inst.c2, where
        assert validate_inclusion(cx, sel) == [], where
        branched += got.nodes_explored > 1
    # the point of these realizations: most of them keep branching
    assert branched >= 0.75 * len(BRANCHED)
