"""Dataset directory formats, the co-authorship fixture, subsampling."""

import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from sctopo.cli import main
from sctopo.complexes import Selection, build_candidate_complex, validate_inclusion
from sctopo.datagen import stage_rng
from sctopo.datasets import (
    DatasetFormatError,
    DatasetInclusionError,
    DatasetIndexError,
    load_real_dataset,
    load_selection,
    make_coauthorship_fixture,
    save_real_dataset,
    save_selection,
    subsample_dataset,
)


def _write_dataset(path, features, edges, triangles):
    path.mkdir(parents=True, exist_ok=True)
    rows = [",".join([str(i)] + [repr(float(v)) for v in row])
            for i, row in enumerate(features)]
    (path / "node_features.csv").write_text("\n".join(rows) + "\n")
    (path / "topology.json").write_text(
        json.dumps({"edges": edges, "triangles": triangles}))


def test_load_small_dataset(tmp_path):
    feats = np.arange(8.0).reshape(4, 2)
    _write_dataset(tmp_path / "d", feats,
                   edges=[[0, 1], [0, 2], [1, 2], [2, 3]],
                   triangles=[[0, 1, 2]])
    ds = load_real_dataset(tmp_path / "d")
    assert ds.n0 == 4
    assert ds.c1 == 4 and ds.c2 == 1
    cx = build_candidate_complex(4)
    truth = ds.truth_selection(cx)
    assert validate_inclusion(cx, truth) == []
    assert ds.ground_truth_triangles == [cx.triangle_id(0, 1, 2)]
    assert np.array_equal(ds.node_features, feats)


def test_error_classes_are_distinct(tmp_path):
    feats = np.ones((4, 2))

    _write_dataset(tmp_path / "fmt", feats, edges=[[0, 1]], triangles=[])
    (tmp_path / "fmt" / "topology.json").write_text("{not json")
    with pytest.raises(DatasetFormatError):
        load_real_dataset(tmp_path / "fmt")

    _write_dataset(tmp_path / "idx", feats, edges=[[0, 9]], triangles=[])
    with pytest.raises(DatasetIndexError):
        load_real_dataset(tmp_path / "idx")

    # triangle present, one of its edges missing from the edge truth
    _write_dataset(tmp_path / "inc", feats,
                   edges=[[0, 1], [0, 2]], triangles=[[0, 1, 2]])
    with pytest.raises(DatasetInclusionError):
        load_real_dataset(tmp_path / "inc")

    # all three are ValueErrors, so one generic handler still works
    for exc in (DatasetFormatError, DatasetIndexError, DatasetInclusionError):
        assert issubclass(exc, ValueError)


def test_more_format_rejections(tmp_path):
    _write_dataset(tmp_path / "a", np.ones((2, 2)), edges=[[0, 1]], triangles=[])
    with pytest.raises(DatasetFormatError, match="3 nodes"):
        load_real_dataset(tmp_path / "a")

    _write_dataset(tmp_path / "b", np.ones((4, 2)),
                   edges=[[0, 1], [0, 1]], triangles=[])
    with pytest.raises(DatasetFormatError, match="duplicate"):
        load_real_dataset(tmp_path / "b")

    _write_dataset(tmp_path / "c", np.ones((4, 2)),
                   edges=[[1, 0]], triangles=[])
    with pytest.raises(DatasetIndexError):
        load_real_dataset(tmp_path / "c")

    (tmp_path / "e").mkdir()
    (tmp_path / "e" / "node_features.csv").write_text("0\n1\n2\n")
    with pytest.raises(DatasetFormatError, match="id plus features"):
        load_real_dataset(tmp_path / "e")

    with pytest.raises(DatasetFormatError):
        load_real_dataset(tmp_path / "nowhere")


def test_run_rejects_every_single_line_corruption(tmp_path, capsys):
    good = tmp_path / "good"
    save_real_dataset(make_coauthorship_fixture(6, 5, 6, seed=1), good)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "real", "dataset_path": str(good),
                               "n0_values": [6], "seeds": [0]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    variants = {}
    for name in ("node_features.csv", "topology.json"):
        lines = (good / name).read_text().splitlines(keepends=True)
        for i in range(len(lines)):
            variants[f"{name} delete {i}"] = (name, lines[:i] + lines[i + 1:])
            variants[f"{name} duplicate {i}"] = (name, lines[:i + 1] + lines[i:])
            variants[f"{name} cut before {i}"] = (name, lines[:i])
    assert len(variants) == 162
    bad = tmp_path / "bad"
    cfg.write_text(json.dumps({"mode": "real", "dataset_path": str(bad),
                               "n0_values": [6], "seeds": [0]}))
    for label, (name, lines) in variants.items():
        shutil.copytree(good, bad, dirs_exist_ok=True)
        (bad / name).write_text("".join(lines))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o2")])
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and err.startswith("error:"), label
        assert not (tmp_path / "o2").exists(), label


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_run_rejects_non_finite_features(tmp_path, capsys, cell):
    # one bad cell in node 0's row: rejected whichever nodes a seed samples
    data = tmp_path / "d"
    save_real_dataset(make_coauthorship_fixture(12, 15, 6, seed=1), data)
    feats = data / "node_features.csv"
    lines = feats.read_text().splitlines(keepends=True)
    row = lines[0].split(",")
    row[1] = cell
    feats.write_text(",".join(row) + "".join(lines[1:]))
    cfg = tmp_path / "cfg.json"
    for seed in range(4):
        cfg.write_text(json.dumps({"mode": "real", "dataset_path": str(data),
                                   "n0_values": [8], "seeds": [seed]}))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and "non-finite" in err, seed
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, simplex", [
    ("edges", [0, 3.5]), ("edges", [0, "3"]), ("edges", [True, 3]),
    ("edges", [0.0, 3]), ("triangles", [0, 1, 2.0]), ("triangles", "012"),
], ids=json.dumps)
def test_run_rejects_non_integer_vertices(tmp_path, capsys, key, simplex):
    # none may be cast: int() would read [0, 3.5] as the edge (0, 3)
    topo = {"edges": [[0, 1], [0, 2], [1, 2]], "triangles": [[0, 1, 2]]}
    topo[key] = topo[key] + [simplex]
    _write_dataset(tmp_path / "d", np.ones((4, 2)), **topo)
    with pytest.raises(DatasetFormatError, match="not a list of integers"):
        load_real_dataset(tmp_path / "d")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "real", "dataset_path": str(tmp_path / "d"),
                               "n0_values": [4], "seeds": [0]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "not a list of integers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_save_load_round_trip(tmp_path):
    ds = make_coauthorship_fixture(n_authors=10, n_papers=12, keyword_dim=6,
                                   seed=3)
    save_real_dataset(ds, tmp_path / "rt")
    back = load_real_dataset(tmp_path / "rt")
    assert back.n0 == ds.n0
    assert back.ground_truth_edges == ds.ground_truth_edges
    assert back.ground_truth_triangles == ds.ground_truth_triangles
    assert np.array_equal(back.node_features, ds.node_features)


def test_coauthorship_fixture_shape_and_inclusion():
    ds = make_coauthorship_fixture()
    assert ds.n0 == 20
    assert ds.node_features.shape == (20, 40)
    assert np.all(ds.node_features >= 0)  # mean keyword profiles
    assert ds.c2 >= 1  # 30 papers at 60% three-author rate
    cx = build_candidate_complex(ds.n0)
    assert validate_inclusion(cx, ds.truth_selection(cx)) == []
    # deterministic per seed, different across seeds
    again = make_coauthorship_fixture()
    assert np.array_equal(again.node_features, ds.node_features)
    assert again.ground_truth_edges == ds.ground_truth_edges
    other = make_coauthorship_fixture(seed=1)
    assert other.ground_truth_edges != ds.ground_truth_edges


def test_coauthors_are_similar_in_feature_space():
    ds = make_coauthorship_fixture(n_authors=15, n_papers=40, seed=2)
    cx = build_candidate_complex(ds.n0)
    feats = ds.node_features.astype(float)
    d = np.square(feats[:, None, :] - feats[None, :, :]).sum(axis=2)
    linked = np.zeros((ds.n0, ds.n0), dtype=bool)
    for e in ds.ground_truth_edges:
        i, j = cx.edges[e]
        linked[i, j] = linked[j, i] = True
    iu = np.triu_indices(ds.n0, k=1)
    on = d[iu][linked[iu]]
    off = d[iu][~linked[iu]]
    assert on.mean() < off.mean()


def test_subsample_relabels_and_restricts():
    ds = make_coauthorship_fixture(n_authors=12, n_papers=25, seed=5)
    cx_full = build_candidate_complex(ds.n0)
    rng = np.random.default_rng(9)
    sub = subsample_dataset(ds, 7, rng)
    assert sub.n0 == 7
    cx_sub = build_candidate_complex(7)
    assert validate_inclusion(cx_sub, sub.truth_selection(cx_sub)) == []
    # node features preserved under the relabeling (ascending originals)
    rng2 = np.random.default_rng(9)
    keep = np.sort(rng2.choice(ds.n0, size=7, replace=False))
    assert np.array_equal(sub.node_features, ds.node_features[keep])
    # every kept edge maps back to a truth edge of the full network
    full_pairs = {cx_full.edges[e] for e in ds.ground_truth_edges}
    for e in sub.ground_truth_edges:
        i, j = cx_sub.edges[e]
        assert (int(keep[i]), int(keep[j])) in full_pairs
    with pytest.raises(ValueError):
        subsample_dataset(ds, 2, rng)
    with pytest.raises(ValueError):
        subsample_dataset(ds, ds.n0 + 1, rng)


def _subsample_truth_by_builders(ds, n_sub, rng):
    """The builder-based index mapping that subsample_dataset replaced."""
    keep = np.sort(rng.choice(ds.n0, size=n_sub, replace=False))
    relabel = {int(v): r for r, v in enumerate(keep)}
    cx_full = build_candidate_complex(ds.n0)
    cx_sub = build_candidate_complex(n_sub)
    e_idx = [cx_sub.edge_id(relabel[i], relabel[j])
             for i, j in (cx_full.edges[e] for e in ds.ground_truth_edges)
             if i in relabel and j in relabel]
    t_idx = [cx_sub.triangle_id(relabel[i], relabel[j], relabel[k])
             for i, j, k in (cx_full.triangles[t]
                             for t in ds.ground_truth_triangles)
             if i in relabel and j in relabel and k in relabel]
    return sorted(e_idx), sorted(t_idx)


@pytest.mark.parametrize("seed", range(10))
def test_subsample_matches_builder_mapping(seed):
    ds = make_coauthorship_fixture(60, 90, 40, seed=0)
    for n_sub in (3, 20, 60):
        sub = subsample_dataset(ds, n_sub, stage_rng(seed, 4))
        edges, triangles = _subsample_truth_by_builders(
            ds, n_sub, stage_rng(seed, 4))
        assert sub.ground_truth_edges == edges
        assert sub.ground_truth_triangles == triangles
        assert all(type(v) is int for v in
                   sub.ground_truth_edges + sub.ground_truth_triangles)


def test_subsample_rejects_out_of_range_truth():
    ds = make_coauthorship_fixture(n_authors=8, n_papers=10, seed=1)
    for bad in ({"ground_truth_edges": [-1]}, {"ground_truth_edges": [28]},
                {"ground_truth_triangles": [56]}):
        with pytest.raises(ValueError):
            subsample_dataset(replace(ds, **bad), 5, np.random.default_rng(0))


def test_selection_json_round_trip(tmp_path):
    sel = Selection.from_indices(15, 20, [0, 4, 14], [3, 19])
    path = tmp_path / "sel.json"
    save_selection(sel, path)
    back = load_selection(path)
    assert back.same_as(sel)
    payload = json.loads(path.read_text())
    assert payload["n_edges"] == 15 and payload["edges"] == [0, 4, 14]

    path.write_text(json.dumps({"edges": [0]}))
    with pytest.raises(ValueError):
        load_selection(path)
    with pytest.raises(ValueError):
        load_selection(tmp_path / "missing.json")
