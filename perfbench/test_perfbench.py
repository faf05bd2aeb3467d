"""Tests of the benchmark itself.

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from morita.semigroups import chain_semilattice

import tracer
import worker
import workloads

HERE = Path(__file__).resolve().parent


def _wrong_expectation(seed, inputs):
    """chain2 and chain3 are not Morita equivalent; expect the opposite."""
    a = inputs.write("chain2", chain_semilattice(2))
    b = inputs.write("chain3", chain_semilattice(3))
    return [workloads.morita_item(a, a, True), workloads.morita_item(a, b, True)]


def test_wrong_verdict_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "wrong", _wrong_expectation)
    out = tmp_path / "result.json"
    rc = worker.main(["--workload", "wrong", "--seed", "1", "--seconds", "0",
                      "--workdir", str(tmp_path / "w"), "--out", str(out)])
    result = json.loads(out.read_text())
    assert rc != 0
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert [w["item"] for w in result["report"]["wrong"]] == [
        "morita chain2.smg chain3.smg"]


def _one_timed_one_untimed(seed, inputs):
    a = inputs.write("chain2", chain_semilattice(2))
    return [workloads.morita_item(a, a, True), workloads.morita_item(a, a, True, timed=False)]


def test_untimed_items_run_only_in_the_traced_run(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "two", _one_timed_one_untimed)
    for trace, runs in ((0, 1), (1, 4)):  # traced: each item untraced and traced
        out = tmp_path / f"result{trace}.json"
        rc = worker.main(["--workload", "two", "--seed", "1", "--seconds", "0",
                          "--trace", str(trace), "--workdir", str(tmp_path / "w"),
                          "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["attempted"] == runs


def test_each_run_is_scaled_by_the_reference_runs_near_it():
    speed = worker.Speed()
    speed.runs = [(1.0, 0.004), (2.0, 0.008), (10.0, 0.002)]  # (end time, seconds)
    ref = worker.REFERENCE_MS
    assert speed.scale(1.9, 2.1) == pytest.approx(ref / 8)  # only the run at 2.0 is near
    assert speed.scale(0.8, 2.0) == pytest.approx(ref / 4)  # the fastest near run
    assert speed.scale() == pytest.approx(ref / 2)  # no interval: all runs


def test_tracer_replaces_imported_bindings_and_restores_them():
    from morita import bisets, categories

    original = categories.C_of
    assert bisets.C_of is original  # bound by `from .categories import C_of`
    tr = tracer.Tracer()
    tr.install()
    try:
        assert bisets.C_of is categories.C_of is not original
        bisets.morita_equivalent(chain_semilattice(2), chain_semilattice(2))
    finally:
        tr.uninstall()
    assert bisets.C_of is categories.C_of is original
    m = tr.metrics()
    assert m["categories.C_of.calls"] == 2
    assert m["categories.C_of.morphisms"] == 10  # C(chain2) has 5 morphisms
    assert m["categories.FiniteCategory.hom.calls"] > 0
    assert set(m) == set(tracer.metric_units()) - {"trace.overhead_frac"}
    assert not tr.notes


def test_missing_function_reports_zero_and_a_note(monkeypatch):
    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + [
        ("categories", "no_such_function", "span"), ("no_such_module", "f", "span")])
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    m = tr.metrics()
    assert m["categories.no_such_function.calls"] == 0
    assert len(tr.notes) == 2


def test_relabel_is_an_isomorphic_copy():
    import random

    S = chain_semilattice(3)
    R = workloads.relabel(S, random.Random(5))
    pos = {nm: i for i, nm in enumerate(R.names)}
    for i in range(len(S)):
        for j in range(len(S)):
            k = int(S.table[i, j])
            assert R.names[R.table[pos[S.names[i]], pos[S.names[j]]]] == S.names[k]


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

