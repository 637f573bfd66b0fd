"""Seeded synthetic ground truth and low-pass filtered signals.

Pipeline: an Erdos-Renyi edge truth, a uniform subsample of the
triangles it supports, then Gaussian signals filtered through the
matching Laplacian so the smoothness costs align with the planted
structure.  Edge signals live on the full candidate edge set; the
filtering operator (upper edge Laplacian or similarity Laplacian) is
what differentiates the two priors.

Every random draw flows through ``numpy.random.default_rng`` seeded by
``SeedSequence([seed, stage])``, one fixed stage tag per pipeline step,
so ground truth is unchanged by, say, a different feature count, and
bundles are reproducible bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from math import floor, isfinite
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .complexes import (
    Selection,
    build_candidate_complex,
    check_count,
    feasible_triangles,
    laplacian_node,
    laplacian_upper_edge,
    similarity_laplacian,
    validate_inclusion,
)

# stream tags; order is part of the on-disk reproducibility contract
STAGE_EDGES = 0
STAGE_TRIANGLES = 1
STAGE_NODE_SIGNALS = 2
STAGE_EDGE_SIGNALS = 3

EDGE_PRIORS = ("low_curl", "similarity")


@dataclass(frozen=True)
class SynthConfig:
    n0: int
    er_p: float = 0.6
    triangle_fraction: float = 0.5
    f0: int = 100
    f1: int = 100
    filter_kind: str = "inv_one_plus_lambda"
    noise_sigma: float = 0.0
    seed: int = 0
    edge_prior: str = "low_curl"

    def __post_init__(self):
        # plain ints: a float or bool seed would draw another seed's truth
        for key in ("n0", "f0", "f1", "seed"):
            object.__setattr__(self, key, check_count(getattr(self, key), key))
        if self.n0 < 3:
            raise ValueError("n0 must be at least 3")
        if not 0.0 < self.er_p <= 1.0:
            raise ValueError("er_p must lie in (0, 1]")
        if not 0.0 <= self.triangle_fraction <= 1.0:
            raise ValueError("triangle_fraction must lie in [0, 1]")
        if self.f0 < 1 or self.f1 < 1:
            raise ValueError(f"feature counts must be positive; got f0 "
                             f"{self.f0}, f1 {self.f1}")
        if self.filter_kind != "inv_one_plus_lambda":
            raise ValueError(f"unknown filter_kind {self.filter_kind!r}")
        if not (isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and nonnegative; "
                             f"got {self.noise_sigma}")
        if self.edge_prior not in EDGE_PRIORS:
            raise ValueError(f"edge_prior must be one of {EDGE_PRIORS}")


@dataclass
class SignalBundle:
    x0: np.ndarray  # (n0, f0)
    x1bar: np.ndarray  # (C(n0,2), f1), full candidate edge set
    truth: Selection
    config: SynthConfig


def stage_rng(seed, stage):
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stage)]))


def sample_er_selection(n0, p, rng):
    """Each candidate edge kept independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    n_edges = n0 * (n0 - 1) // 2
    return (rng.random(n_edges) < p).astype(np.int8)


def sample_triangle_truth(cx, s1, fraction, rng):
    """Uniform sample of floor(fraction * |feasible|) supported triangles."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    feas = feasible_triangles(cx, s1)
    k = floor(fraction * feas.size)
    s2 = np.zeros(cx.n_triangles, dtype=np.int8)
    if k:
        s2[rng.choice(feas, size=k, replace=False)] = 1
    return s2


def filtered_signals(L, f, noise_sigma, rng):
    """X = (I + L)^-1 W + sigma E, the low-pass filter g(lam) = 1/(1 + lam).

    For ``L = U diag(lam) U^T`` the filter is ``U diag(g(lam)) U^T``; one
    linear solve with ``I + L`` applies it without the eigendecomposition.
    ``L`` is a Laplacian, so ``I + L`` is symmetric positive definite.
    W and E are drawn from ``rng`` in that order regardless of sigma, so
    the same seed yields the same smooth component at any noise level.
    A ``noise_sigma`` so large that the signals overflow raises
    ``ValueError``.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError("L must be square")
    if not np.array_equal(L, L.T):
        raise ValueError("L must be symmetric")
    n = L.shape[0]
    W = rng.standard_normal((n, f))
    E = rng.standard_normal((n, f))
    with np.errstate(over="ignore"):  # an overflow is reported below
        X = np.linalg.solve(np.eye(n) + L, W) + noise_sigma * E
    if not np.isfinite(X).all():
        raise ValueError(f"noise_sigma {noise_sigma} makes the signals "
                         f"non-finite")
    return X


def make_bundle(config):
    cx = build_candidate_complex(config.n0)
    s1 = sample_er_selection(config.n0, config.er_p,
                             stage_rng(config.seed, STAGE_EDGES))
    s2 = sample_triangle_truth(cx, s1, config.triangle_fraction,
                               stage_rng(config.seed, STAGE_TRIANGLES))
    x0 = filtered_signals(laplacian_node(cx, s1), config.f0,
                          config.noise_sigma,
                          stage_rng(config.seed, STAGE_NODE_SIGNALS))
    if config.edge_prior == "low_curl":
        l_prior = laplacian_upper_edge(cx, s2)
    else:
        l_prior = similarity_laplacian(cx, s2)
    x1bar = filtered_signals(l_prior, config.f1, config.noise_sigma,
                             stage_rng(config.seed, STAGE_EDGE_SIGNALS))
    return SignalBundle(x0=x0, x1bar=x1bar, truth=Selection(s1=s1, s2=s2),
                        config=config)


def save_bundle(bundle, out_dir):
    """meta.json plus x0.csv / x1bar.csv in candidate-lexicographic row order."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "config": asdict(bundle.config),
        "truth_edges": [int(e) for e in bundle.truth.edge_indices],
        "truth_triangles": [int(t) for t in bundle.truth.triangle_indices],
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    np.savetxt(out / "x0.csv", bundle.x0, delimiter=",", fmt="%.17g")
    np.savetxt(out / "x1bar.csv", bundle.x1bar, delimiter=",", fmt="%.17g")
    return out


def load_bundle(in_dir):
    """The bundle ``save_bundle`` wrote; a defect raises ``ValueError``."""
    try:
        return _read_bundle(Path(in_dir))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"cannot read bundle {in_dir}: {exc}") from None


def _read_bundle(src):
    meta = json.loads((src / "meta.json").read_text())
    config = SynthConfig(**fields_from_json(SynthConfig, meta["config"]))
    cx = build_candidate_complex(config.n0)
    truth = Selection.from_indices(cx.n_edges, cx.n_triangles,
                                   meta["truth_edges"], meta["truth_triangles"])
    if validate_inclusion(cx, truth):
        raise ValueError("stored truth violates simplicial inclusion")
    x0 = np.loadtxt(src / "x0.csv", delimiter=",", ndmin=2)
    x1bar = np.loadtxt(src / "x1bar.csv", delimiter=",", ndmin=2)
    if x0.shape != (config.n0, config.f0):
        raise ValueError(f"x0 has shape {x0.shape}, config says "
                         f"{(config.n0, config.f0)}")
    if x1bar.shape != (cx.n_edges, config.f1):
        raise ValueError(f"x1bar has shape {x1bar.shape}, config says "
                         f"{(cx.n_edges, config.f1)}")
    if not (np.isfinite(x0).all() and np.isfinite(x1bar).all()):
        raise ValueError("signals have non-finite cells")
    return SignalBundle(x0=x0, x1bar=x1bar, truth=truth, config=config)


def fields_from_json(cls, raw):
    """A parsed JSON object checked as fields of the dataclass ``cls``.

    Each value must have the JSON type of its field's annotation:
    ``tuple[X, ...]`` takes a list of ``X``, made a tuple; ``X | None``
    also takes null; a float also takes an integer.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object; got {raw!r}")
    kinds = get_type_hints(cls)
    unknown = set(raw) - set(kinds)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    fields = {}
    for key, value in raw.items():
        kind = kinds[key]
        if get_origin(kind) is tuple:
            item = get_args(kind)[0]
            if not (isinstance(value, list)
                    and all(json_is(v, item) for v in value)):
                raise ValueError(f"config key {key!r} must be a list of "
                                 f"{item.__name__}")
            value = tuple(value)
        elif not any(json_is(value, k) for k in get_args(kind) or (kind,)):
            raise ValueError(f"config key {key!r} has the wrong type: "
                             f"{value!r}")
        fields[key] = value
    return fields


def json_is(value, kind):
    """Whether a parsed JSON value has the type ``kind`` (NoneType: null)."""
    if isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float)) and isfinite(value)
    return isinstance(value, kind)
