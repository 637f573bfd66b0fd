"""End-to-end runs of every subcommand, plus the exit-code contract."""

import json
import subprocess
import sys
from math import comb

import numpy as np
import pytest

from sctopo.blp import build_joint_instance, solve, write_instance
from sctopo.cli import build_parser, main
from sctopo.complexes import Selection, build_candidate_complex
from sctopo.datagen import load_bundle
from sctopo.datasets import (
    make_coauthorship_fixture,
    save_real_dataset,
    save_selection,
)
from sctopo.smoothness import CostVectors


def test_synth_writes_a_loadable_bundle(tmp_path, capsys):
    out = tmp_path / "bundle"
    rc = main(["synth", "--n0", "8", "--p", "0.6", "--seed", "3",
               "--prior", "similarity", "--out", str(out)])
    assert rc == 0
    info = json.loads(capsys.readouterr().out)
    assert info["n0"] == 8 and info["seed"] == 3
    bundle = load_bundle(out)
    assert bundle.config.n0 == 8
    assert bundle.config.edge_prior == "similarity"
    assert bundle.x0.shape[0] == 8
    assert bundle.x1bar.shape[0] == 28  # full candidate edge space


def test_synth_rejects_bad_arguments(tmp_path, capsys):
    rc = main(["synth", "--n0", "2", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert main(["synth"]) == 1  # missing required --n0/--out
    assert main(["frobnicate"]) == 1
    capsys.readouterr()  # swallow argparse chatter


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "synth" in capsys.readouterr().out


def test_run_and_eval_round_trip(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n0_values": [8], "seeds": [0, 1],
                               "priors": ["low_curl"]}))
    out = tmp_path / "exp"
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    info = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert info["node_limited_methods"] == []
    assert (out / "results.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert info["records"] == len(report["records"]) == 2 * 3

    # identical reruns produce the identical aggregate table
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "exp2")])
    capsys.readouterr()
    assert rc == 0
    assert (out / "results.csv").read_bytes() == \
        (tmp_path / "exp2" / "results.csv").read_bytes()

    # score one persisted record against its own truth via eval
    rec = report["records"][0]
    cx = build_candidate_complex(8)
    est = tmp_path / "est.json"
    tru = tmp_path / "tru.json"
    save_selection(Selection.from_indices(cx.n_edges, cx.n_triangles,
                                          rec["selection"]["edges"],
                                          rec["selection"]["triangles"]), est)
    save_selection(Selection.from_indices(cx.n_edges, cx.n_triangles,
                                          rec["truth"]["edges"],
                                          rec["truth"]["triangles"]), tru)
    rc = main(["eval", "--estimate", str(est), "--truth", str(tru)])
    scores = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert scores["f1_edges"] == pytest.approx(rec["f1_edges"])
    assert scores["f1_triangles"] == pytest.approx(rec["f1_triangles"])


def test_run_exits_two_when_node_limited(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n0_values": [8], "seeds": [0],
                               "priors": ["low_curl"], "node_limit": 0}))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "exp")])
    info = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert info["node_limited_methods"] == ["joint"]


def test_run_rejects_broken_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n0_values": [8], "wat": 1}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "wat" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 1e308])
def test_run_rejects_noise_sigma_that_is_not_finite_or_overflows(
        tmp_path, capsys, sigma):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n0_values": [6], "seeds": [0],
                               "noise_sigma": sigma}))
    out_dir = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 1
    out, err = capsys.readouterr()
    # a non-finite value is refused when the config is read, a finite one
    # that overflows when the signals are drawn; both name the key
    assert out == "" and err.startswith("error:") and "noise_sigma" in err
    assert not out_dir.exists()


def test_eval_missing_file_exits_one(tmp_path, capsys):
    sel = tmp_path / "a.json"
    save_selection(Selection.from_indices(3, 1, [0], []), sel)
    assert main(["eval", "--estimate", str(sel),
                 "--truth", str(tmp_path / "nope.json")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("index", [-1, 3, 1.5])
def test_eval_rejects_bad_indices(tmp_path, capsys, index):
    truth = tmp_path / "truth.json"
    save_selection(Selection.from_indices(3, 1, [0], []), truth)
    est = tmp_path / "est.json"
    est.write_text(json.dumps({"n_edges": 3, "n_triangles": 1,
                               "edges": [index], "triangles": []}))
    assert main(["eval", "--estimate", str(est), "--truth", str(truth)]) == 1
    assert "edge indices" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["edges", "triangles"])
def test_eval_rejects_repeated_indices(tmp_path, capsys, key):
    truth = tmp_path / "truth.json"
    save_selection(Selection.from_indices(3, 1, [0], []), truth)
    est = tmp_path / "est.json"
    payload = {"n_edges": 3, "n_triangles": 1, "edges": [], "triangles": []}
    payload[key] = [0, 0]
    est.write_text(json.dumps(payload))
    for a, b in ((est, truth), (truth, est)):
        assert main(["eval", "--estimate", str(a), "--truth", str(b)]) == 1
        assert "must not repeat" in capsys.readouterr().err


@pytest.mark.parametrize("value", [{}, ""], ids=json.dumps)
@pytest.mark.parametrize("key", ["edges", "triangles"])
def test_eval_rejects_index_lists_that_are_not_lists(tmp_path, capsys, key,
                                                     value):
    truth = tmp_path / "truth.json"
    save_selection(Selection.from_indices(3, 1, [0], []), truth)
    est = tmp_path / "est.json"
    payload = {"n_edges": 3, "n_triangles": 1, "edges": [], "triangles": []}
    payload[key] = value
    est.write_text(json.dumps(payload))
    for a, b in ((est, truth), (truth, est)):
        assert main(["eval", "--estimate", str(a), "--truth", str(b)]) == 1
        assert "must be a JSON list" in capsys.readouterr().err


@pytest.mark.parametrize("n_edges, n_triangles, key", [
    (7, 35, "n_edges"),  # not n0 (n0 - 1) / 2 for any n0
    (10**13, 1, "n_edges"),  # must be rejected before a 10 TB allocation
    (1, 0, "n_edges"),  # n0 = 2 has no triangles
    (-3, 1, "n_edges"),
    (True, 1, "n_edges"),
    (3.0, 1, "n_edges"),
    ("3", 1, "n_edges"),
    (3, 2, "n_triangles"),  # n0 = 3 has one triangle
    (15, 19, "n_triangles"),
    (3, True, "n_triangles"),
    (3, None, "n_triangles"),
], ids=str)
def test_eval_rejects_sizes_of_no_candidate_complex(tmp_path, capsys, n_edges,
                                                    n_triangles, key):
    truth = tmp_path / "truth.json"
    save_selection(Selection.from_indices(3, 1, [0], []), truth)
    est = tmp_path / "est.json"
    est.write_text(json.dumps({"n_edges": n_edges, "n_triangles": n_triangles,
                               "edges": [], "triangles": []}))
    for a, b in ((est, truth), (truth, est)):
        assert main(["eval", "--estimate", str(a), "--truth", str(b)]) == 1
        assert key in capsys.readouterr().err


def _dump_instance(tmp_path, c1, c2, seed=4):
    rng = np.random.default_rng(seed)
    cx = build_candidate_complex(6)
    costs = CostVectors(h1=1.0 + 0.001 * rng.random(cx.n_edges),
                        h2=0.1 + 0.001 * rng.random(cx.n_triangles),
                        h2_kind="curl")
    inst = build_joint_instance(cx, costs, c1, c2)
    path = tmp_path / "inst.txt"
    write_instance(inst, path)
    return inst, path


def test_solve_subcommand_matches_library(tmp_path, capsys):
    inst, path = _dump_instance(tmp_path, 6, 3)
    rc = main(["solve", "--instance", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    ref = solve(inst)
    assert payload["status"] == "optimal"
    assert payload["objective"] == pytest.approx(ref.objective, rel=1e-12)
    assert payload["edges"] == [int(e) for e in ref.selection.edge_indices]
    assert payload["triangles"] == [int(t) for t in
                                    ref.selection.triangle_indices]
    assert payload["separations"] == ref.separations >= 1
    assert payload["pool_rows"] == ref.pool_rows > 2


def test_solve_exit_codes(tmp_path, capsys):
    _, path = _dump_instance(tmp_path, 6, 3)
    assert main(["solve", "--instance", str(path), "--node-limit", "0"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "node_limit"
    assert payload["objective"] is None  # no incumbent yet, still valid JSON

    _, bad = _dump_instance(tmp_path, 16, 3)  # floors exceed the candidates
    assert main(["solve", "--instance", str(bad)]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "infeasible"

    notafile = tmp_path / "missing.txt"
    assert main(["solve", "--instance", str(notafile)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("extra", [
    "h1 -1 5.0",  # would overwrite the last edge cost
    "tri -1 0 1 3",  # faces follow from n_edges; no file lists them
    "h2 20 1.0",  # 20 triangles on 6 nodes: indices 0..19
    "tri 0 1",
    "h1 0 1.0 2.0",  # one value too many
    "h1 0 9.0",  # a second line for an index would override the first
    "tri 0 0 1 3",
])
def test_solve_rejects_bad_instance_lines(tmp_path, capsys, extra):
    _, path = _dump_instance(tmp_path, 6, 3)
    path.write_text(path.read_text() + extra + "\n")
    assert main(["solve", "--instance", str(path)]) == 1
    assert extra in capsys.readouterr().err


@pytest.mark.parametrize("line", ["c1", "n_edges six", "h1 x 1.0", "h1 0 abc"])
def test_solve_rejects_unparsable_lines_quoting_them(tmp_path, capsys, line):
    # the line replaces the first one with the same tag
    _, path = _dump_instance(tmp_path, 6, 3)
    lines = path.read_text().splitlines()
    first = next(i for i, ln in enumerate(lines)
                 if ln.split()[0] == line.split()[0])
    lines[first] = line
    path.write_text("\n".join(lines) + "\n")
    assert main(["solve", "--instance", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and repr(line) in err


@pytest.mark.parametrize("line", ["c1 0", "n_edges 2", "c3 1"])
def test_solve_rejects_repeated_or_unknown_scalar_lines(tmp_path, capsys, line):
    _, path = _dump_instance(tmp_path, 6, 3)
    magic, rest = path.read_text().split("\n", 1)
    path.write_text(f"{magic}\n{line}\n{rest}")
    assert main(["solve", "--instance", str(path)]) == 1
    err = capsys.readouterr().err
    assert "unknown or repeated line" in err and line.split()[0] in err


@pytest.mark.parametrize("line", ["h1 0 nan", "h2 3 inf", "h1 1 -inf"])
def test_solve_rejects_non_finite_instance_values(tmp_path, capsys, line):
    _, path = _dump_instance(tmp_path, 6, 3)
    tag = " ".join(line.split()[:-1]) + " "
    text = "".join(line + "\n" if ln.startswith(tag) else ln
                   for ln in path.read_text().splitlines(keepends=True))
    assert line in text
    path.write_text(text)
    assert main(["solve", "--instance", str(path)]) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["c1 -2", "c2 -1",
                                  "n_edges 14", "n_edges 16",
                                  "n_triangles 19", "n_triangles 21"])
def test_solve_rejects_out_of_range_scalars(tmp_path, capsys, line):
    # n0 = 6: 15 edges, 20 triangles
    _, path = _dump_instance(tmp_path, 6, 3)
    key = line.split()[0]
    text = "".join(line + "\n" if ln.split()[0] == key else ln
                   for ln in path.read_text().splitlines(keepends=True))
    assert line in text
    path.write_text(text)
    assert main(["solve", "--instance", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert key in err


@pytest.mark.parametrize("line", ["alpha 0.25", "alpha 5.0", "alpha 0.0",
                                  "alpha -0.25", "alpha 0.2500001",
                                  "alpha nan"])
def test_solve_rejects_version_one_lines(tmp_path, capsys, line):
    # version 1 stored alpha after the floors; no solve ever read it
    _, path = _dump_instance(tmp_path, 6, 3)
    text = path.read_text()
    path.write_text(text.replace("c2 3\n", f"c2 3\n{line}\n", 1))
    assert main(["solve", "--instance", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "unknown or repeated line" in err and line in err


def test_solve_rejects_a_huge_claimed_size_before_allocating(tmp_path, capsys):
    # n0 = 18172 would need 7.28 TiB of triangle costs; six lines hold one
    n0 = 18172
    path = tmp_path / "huge.txt"
    path.write_text(f"sctopo-blp 2\nn_edges {comb(n0, 2)}\n"
                    f"n_triangles {comb(n0, 3)}\nc1 0\nc2 0\nh1 0 1.0\n")
    assert main(["solve", "--instance", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "missing entries" in err


# Each request is far beyond any 64-bit address space (about 1.2 PiB of
# triangle ranks, and 57 PiB of node signals), so numpy refuses it before
# touching memory.
@pytest.mark.parametrize("command", [
    ["synth", "--n0", "100000"],
    ["run", "--config", "{cfg}"],
], ids=["synth", "run"])
def test_a_request_too_large_to_allocate_exits_one(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n0_values": [8], "seeds": [0], "f0": 10**15}))
    out_dir = tmp_path / "o"
    argv = [a.format(cfg=cfg) for a in command] + ["--out", str(out_dir)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "allocate" in err
    assert not out_dir.exists()


def test_solve_rejects_every_single_line_corruption(tmp_path, capsys):
    rng = np.random.default_rng(5)
    cx = build_candidate_complex(5)
    costs = CostVectors(h1=rng.random(cx.n_edges), h2=rng.random(cx.n_triangles),
                        h2_kind="curl")
    good = tmp_path / "good.txt"
    write_instance(build_joint_instance(cx, costs, 4, 2), good)
    lines = good.read_text().splitlines(keepends=True)
    swap = {"h1": "h2", "h2": "h1"}
    variants = {}
    for i, ln in enumerate(lines):
        variants[f"delete {i}"] = lines[:i] + lines[i + 1:]
        variants[f"duplicate {i}"] = lines[:i + 1] + lines[i:]
        tag = ln.split()[0]
        if tag in swap:
            variants[f"swap {i}"] = (lines[:i] + [swap[tag] + ln[2:]]
                                     + lines[i + 1:])
        if i + 1 < len(lines):
            variants[f"cut after {i}"] = lines[:i + 1]
    assert len(variants) == 4 * len(lines) - 1 - 5  # 5 lines have no h tag
    path = tmp_path / "bad.txt"
    for name, bad in variants.items():
        path.write_text("".join(bad))
        assert main(["solve", "--instance", str(path)]) == 1, name
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:"), name


def test_negative_node_limit_is_rejected(tmp_path, capsys):
    _, path = _dump_instance(tmp_path, 6, 3)
    assert main(["solve", "--instance", str(path), "--node-limit", "-3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "node_limit" in err

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n0_values": [6], "seeds": [0],
                               "methods": ["joint"], "node_limit": -3}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "node_limit" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [("node_limit", -3), ("gamma", -0.5),
                                        ("greedy_init", "zeros"),
                                        ("n0_values", [20, 2]),
                                        ("seeds", [3, -1])])
def test_run_rejects_bad_solver_settings_before_any_data(tmp_path, capsys,
                                                         monkeypatch, key,
                                                         value):
    def no_data(*args, **kwargs):
        raise AssertionError("a realization started")

    monkeypatch.setattr("sctopo.experiment.make_bundle", no_data)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n0_values": [6], "seeds": [0], key: value}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and key in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [("seeds", [0, 0]),
                                        ("n0_values", [6, 7, 6]),
                                        ("priors", ["similarity", "similarity"]),
                                        ("methods", ["joint", "greedy", "joint"]),
                                        ("methods", [])])
def test_run_rejects_repeated_or_empty_lists(tmp_path, capsys, monkeypatch,
                                             key, value):
    # a repeated seed would report the std of copies of one realization,
    # and an empty method list would run to zero records
    def no_data(*args, **kwargs):
        raise AssertionError("a realization started")

    monkeypatch.setattr("sctopo.experiment.make_bundle", no_data)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n0_values": [6], "seeds": [0], key: value}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and key in err
    assert not (tmp_path / "o").exists()


def test_run_rejects_sizes_beyond_the_dataset_before_any_solve(
        tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a realization started")

    monkeypatch.setattr("sctopo.experiment.subsample_dataset", no_solve)
    monkeypatch.setattr("sctopo.experiment.compute_costs", no_solve)
    root = save_real_dataset(make_coauthorship_fixture(12, 15, 6, seed=1),
                             tmp_path / "fixture")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "real", "dataset_path": str(root),
                               "n0_values": [8, 40], "seeds": [0]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "[40]" in err and "12 nodes" in err
    assert not (tmp_path / "o").exists()


def test_main_keeps_no_state_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()  # built once per process
    _, path = _dump_instance(tmp_path, 6, 3)
    assert main(["solve", "--instance", str(path), "--node-limit", "0"]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "node_limit"
    assert main(["synth", "--n0", "5", "--seed", "7", "--prior", "similarity",
                 "--out", str(tmp_path / "a")]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 7
    assert main(["solve", "--node-limit", "0"]) == 1  # lacks --instance
    assert main(["--help"]) == 0
    capsys.readouterr()

    # options given to earlier calls do not become the new defaults
    assert main(["solve", "--instance", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "optimal"
    assert main(["synth", "--n0", "5", "--out", str(tmp_path / "b")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["seed"], out["prior"]) == (0, "low_curl")
    assert main(["eval", "--estimate", str(tmp_path / "missing.json"),
                 "--truth", str(tmp_path / "missing.json")]) == 1
    assert main(["solve", "--instance", str(path), "--node-limit", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("config", [
    [], None, 3,
    {"n0_values": [8], "er_p": "high"},
    {"n0_values": [8], "f0": 1.5},
    {"n0_values": [8], "mode": 3},
    {"n0_values": [8], "gamma": True},
    {"n0_values": [8], "noise_sigma": float("nan")},
    {"n0_values": ["8"]},
    {"n0_values": [8], "priors": [["low_curl"]]},
    {"n0_values": [8], "dataset_path": 1},
], ids=json.dumps)
def test_run_rejects_wrongly_typed_config(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_rejects_scalar_for_list_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n0_values": 10}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "n0_values" in capsys.readouterr().err


def test_console_entry_point_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sctopo", "synth", "--n0", "6",
         "--out", str(tmp_path / "b")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n0"] == 6
