# Seeded synthetic data, step by step: planted topology, low-pass
# signals, independent noise streams, and the on-disk bundle format.

import tempfile
from pathlib import Path

import numpy as np

from sctopo import SynthConfig, load_bundle, make_bundle, save_bundle
from sctopo.complexes import build_candidate_complex, laplacian_node
from sctopo.datagen import (
    filtered_signals,
    sample_er_selection,
    sample_triangle_truth,
    stage_rng,
)

cfg = SynthConfig(n0=10, er_p=0.6, triangle_fraction=0.5, seed=11,
                  edge_prior="low_curl")
cx = build_candidate_complex(cfg.n0)

# stage-tagged rng streams: each pipeline stage draws from its own
# stream, so changing, say, the noise level never moves the topology
s1 = sample_er_selection(cfg.n0, cfg.er_p, stage_rng(cfg.seed, 0))
s2 = sample_triangle_truth(cx, s1, cfg.triangle_fraction, stage_rng(cfg.seed, 1))
print(f"planted: {int(s1.sum())} edges, {int(s2.sum())} triangles "
      f"(half of the {int(s1.sum())}-edge graph's triangles, rounded down)")

# node signals are white vectors pushed through g(L) = (I + L)^-1:
# energy concentrates on the planted graph's smooth eigenvectors
L0 = laplacian_node(cx, s1)
x0 = filtered_signals(L0, 100, 0.0, stage_rng(cfg.seed, 2))
white = stage_rng(cfg.seed, 2).normal(size=(cfg.n0, 100))
print(f"filtered node-signal energy {np.sum(x0 ** 2):.1f} vs white {np.sum(white ** 2):.1f}")

# make_bundle wraps all of the above; same seed, same bundle
bundle = make_bundle(cfg)
again = make_bundle(cfg)
print("repeatable:", np.array_equal(bundle.x0, again.x0),
      np.array_equal(bundle.x1bar, again.x1bar))

# noise rides on an independent stream, so the planted truth is shared
noisy = make_bundle(SynthConfig(n0=10, er_p=0.6, triangle_fraction=0.5,
                                seed=11, edge_prior="low_curl",
                                noise_sigma=0.5))
print("same truth under noise:",
      np.array_equal(noisy.truth.s1, bundle.truth.s1))

# bundles round-trip through a directory of csv files plus meta.json
with tempfile.TemporaryDirectory() as tmp:
    out = save_bundle(bundle, Path(tmp) / "bundle")
    back = load_bundle(out)
    print("disk round-trip exact:", np.array_equal(back.x0, bundle.x0))
    print("wrote", sorted(p.name for p in out.iterdir()))
