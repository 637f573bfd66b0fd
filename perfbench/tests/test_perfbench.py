"""Tests of the benchmark itself: tracing arithmetic, statistics and the gate.

Run from the root of the checkout with ``python3 -m pytest perfbench/tests``.
"""

import io
import json
import signal
import time
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from sctopo.complexes import Selection
from tracing import Span, Tracer, layer_metrics, self_times
from workloads import Branch, Trend


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_the_time_child_spans_cover():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    inner = tracer.wrap(leaf, "inner")

    def body():
        clock.now += 1.0
        inner()
        clock.now += 0.5
        inner()
        clock.now += 0.25

    tracer.wrap(body, "outer")()
    outer, first, second = tracer.spans
    assert outer.duration == 5.75
    assert first.parent == second.parent == outer.id
    assert self_times(tracer.spans) == [1.75, 2.0, 2.0]
    assert sum(self_times(tracer.spans)) == outer.duration


def test_layer_counts_cold_restarts_and_generated_rows():
    def lp(i, rows, warm, infeasible):
        return Span(i, "simplex_lp.solve_lp", 0, None, float(i), i + 0.5,
                    {"pivots": 3, "rows": rows, "cols": 10, "warm": warm,
                     "infeasible": infeasible})

    spans = [Span(0, "blp.solve", None, None, 0.0, 10.0, {"nodes": 4}),
             lp(1, 2, False, False), lp(2, 5, True, True),
             lp(3, 5, False, False), lp(4, 7, True, False)]
    m = layer_metrics(spans, self_times(spans))
    assert m["simplex_lp.cold_restarts"] == 1
    assert m["simplex_lp.pivots"] == 12
    assert m["simplex_lp.infeasible_calls"] == 1
    assert m["blp.rows_generated"] == 5
    assert m["simplex_lp.pool_mb"] == 7 * 10 * 8 / 1e6
    assert m["blp.self_s"] == pytest.approx(10.0 - 4 * 0.5)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(range(1, 20)) is None
    assert run.tail_percentile(range(1, 21)) == (50.0, 10, 10)
    assert run.tail_percentile(range(1, 61)) == (75.0, 45, 15)
    assert run.tail_percentile(range(1, 257)) == (95.0, 244, 12)


def test_speed_probe_samples_during_a_section_and_scales_it():
    before = signal.getsignal(signal.SIGALRM)
    with run.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * run.PROBE_INTERVAL_S:
            pass
    assert len(probe.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    probe.samples = [run.REFERENCE_S, 2 * run.REFERENCE_S,
                     3 * run.REFERENCE_S]
    assert probe.scaled(4.0) == pytest.approx(2.0)


def _passes(workload, tmp_path, count=2):
    workload.setup(tmp_path)
    return [workload.run_pass(i) for i in range(count)]


def _small_trend():
    return Trend(1, n0_values=(6,), priors=("low_curl",), n_seeds=2)


def test_gate_accepts_honest_passes(tmp_path):
    verdict = _small_trend().check(_passes(_small_trend(), tmp_path))
    # per pass: results.csv, record count, 2 joint solves, 4 other records
    assert (verdict.attempted, verdict.failed) == (2 * 8, 0), verdict.problems


def test_gate_rejects_a_wrong_joint_objective(tmp_path, monkeypatch):
    honest = workloads.sctopo.experiment.learn_joint

    def off_by_one(*args, **kwargs):
        out = honest(*args, **kwargs)
        return replace(out, objective=out.objective + 1.0)

    monkeypatch.setattr(workloads.sctopo.experiment, "learn_joint", off_by_one)
    trend = _small_trend()
    verdict = trend.check(_passes(trend, tmp_path))
    assert verdict.failed == 2 * 2, verdict.problems


def test_gate_rejects_a_feasible_but_suboptimal_selection(tmp_path,
                                                         monkeypatch):
    """Only the HiGHS reference can tell this answer from the optimum."""
    honest = workloads.sctopo.experiment.learn_joint

    def one_edge_too_many(cx, costs, c1, c2, **kwargs):
        out = honest(cx, costs, c1, c2, **kwargs)
        s1 = out.selection.s1.copy()
        spare = np.flatnonzero(s1 == 0)
        s1[spare[np.argmax(costs.h1[spare])]] = 1  # adding an edge keeps inclusion
        selection = Selection(s1, out.selection.s2)
        objective = float(costs.h1 @ s1 + costs.h2 @ selection.s2)
        return replace(out, selection=selection, objective=objective)

    monkeypatch.setattr(workloads.sctopo.experiment, "learn_joint",
                        one_edge_too_many)
    trend = _small_trend()
    verdict = trend.check(_passes(trend, tmp_path))
    assert verdict.failed == 2 * 2, verdict.problems


def test_gate_rejects_a_pass_that_raises(tmp_path):
    trend = _small_trend()
    passes = _passes(trend, tmp_path) + [None]
    assert trend.check(passes).failed == 8


def test_gate_rejects_a_wrong_cli_answer(tmp_path, monkeypatch):
    honest = workloads.cli_main

    def shifted(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = honest(argv)
        payload = json.loads(buf.getvalue())
        payload["objective"] += 1e-3
        print(json.dumps(payload))
        return code

    branch = Branch(1, count=3)
    branch.setup(tmp_path)
    monkeypatch.setattr(workloads, "cli_main", shifted)
    verdict = branch.check([branch.run_pass(0)])
    assert (verdict.attempted, verdict.failed) == (3, 3)


def test_seed_changes_inputs_but_not_structure(tmp_path):
    a, b, again = Branch(1, count=4), Branch(2, count=4), Branch(1, count=4)
    for name, w in (("a", a), ("b", b), ("again", again)):
        w.setup(tmp_path / name)
    assert len(a.paths) == len(b.paths)
    for x, y, z in zip(a.costs, b.costs, again.costs):
        assert x.h1.shape == y.h1.shape and x.h2.shape == y.h2.shape
        assert not np.array_equal(x.h1, y.h1)
        assert np.array_equal(x.h1, z.h1) and np.array_equal(x.h2, z.h2)

    ta, tb = Trend(1).config(), Trend(2).config()
    assert (ta.n0_values, ta.priors, len(ta.seeds)) == \
        (tb.n0_values, tb.priors, len(tb.seeds))
    assert not set(ta.seeds) & set(tb.seeds)


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.layer_names()
