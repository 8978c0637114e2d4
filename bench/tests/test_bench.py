"""Tests of the benchmark itself (not of parahn).

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import io
import json
import shutil
import subprocess
import sys
from array import array
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import parahn.cli
import parahn.hn
import parahn.sheaves
from oracles import gaussian_binomial, line_subbundle_count
from spans import Tracer, aggregate, self_times
import workloads

BENCH = Path(__file__).resolve().parents[1]


# -- span arithmetic -------------------------------------------------------------


def spans(rows):
    """rows: (name, parent, start, end) -> the arrays the tracer records."""
    names = sorted({r[0] for r in rows})
    nid = {n: i for i, n in enumerate(names)}
    return (
        names,
        array("i", [nid[r[0]] for r in rows]),
        array("i", [r[1] for r in rows]),
        array("d", [r[2] for r in rows]),
        array("d", [r[3] for r in rows]),
    )


def test_self_time_subtracts_children():
    # root [0,10] -> a [1,4] -> b [2,3];  root -> c [5,6]
    _, _, parent, start, end = spans([
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("b", 1, 2.0, 3.0),
        ("c", 0, 5.0, 6.0),
    ])
    assert self_times(parent, start, end) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    _, _, parent, start, end = spans([
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 5.0),
        ("b", 0, 3.0, 12.0),  # overlaps a and runs past the parent
    ])
    assert self_times(parent, start, end)[0] == pytest.approx(1.0)


def test_aggregate_totals_and_contexts():
    rows = [
        ("sheaves.canonical_key", -1, 0.0, 4.0),
        ("linalg.rref", 0, 1.0, 2.0),
        ("hn.hn_filtration", -1, 10.0, 20.0),
        ("sheaves.enumerate_subbundles", 2, 11.0, 13.0),
        ("parabolic.induced_quot_datum", 2, 14.0, 16.0),
        ("linalg.intersect_dim", 4, 14.5, 15.5),
        ("linalg.rref", 5, 14.6, 15.0),
        ("sheaves.poly_det", -1, 30.0, 40.0),
        ("sheaves.poly_det", 7, 31.0, 35.0),
    ]
    agg = aggregate(*spans(rows))
    f = agg["functions"]
    assert f["linalg.rref"]["calls"] == 2
    assert f["sheaves.poly_det"] == {"calls": 2, "self_s": 10.0, "total_s": 10.0}
    assert f["hn.hn_filtration"]["self_s"] == pytest.approx(6.0)
    ctx = agg["contexts"]
    assert ctx["linalg.rref.in_canonical_key.self_s"] == pytest.approx(1.0)
    assert ctx["linalg.rref.in_induced_quot_datum.self_s"] == pytest.approx(0.4)
    assert ctx["hn.windows"] == 1
    assert ctx["hn.certify_s"] == pytest.approx(4.0)


# -- closed forms ----------------------------------------------------------------


def test_gaussian_binomials_by_hand():
    assert gaussian_binomial(3, 2, 3) == 13
    assert gaussian_binomial(4, 2, 2) == 35  # (15 * 7) / (3 * 1)
    assert gaussian_binomial(3, 2, 5) == 31
    assert gaussian_binomial(5, 0, 7) == 1
    assert gaussian_binomial(2, 3, 2) == 0


def test_line_counts_by_hand():
    assert line_subbundle_count((0, 0, 0), 3, 0) == 13  # lines of F_3^3
    assert line_subbundle_count((0, 0, 0), 3, -1) == 312
    assert line_subbundle_count((0, 0, 0), 3, -2) == 8424
    # O(1) + O over F_2: O(1) itself, and the four maps (s, 1) in degree 0
    assert line_subbundle_count((1, 0), 2, 1) == 1
    assert line_subbundle_count((1, 0), 2, 0) == 4


# -- tracing changes nothing ---------------------------------------------------------


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = parahn.cli.main(argv)
    report = json.loads(buf.getvalue())
    report.pop("timing_ms")
    return code, json.dumps(report, sort_keys=True)


def test_tracing_keeps_every_output_byte(tmp_path):
    doc = workloads.rung_doc(workloads.DEFAULT_SEED, "r3_twisted_f3", 0)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    argv = ["hn", "--input", str(path)]
    parahn.hn._FILT_CACHE.clear()
    plain = _run_cli(argv)
    tracer = Tracer().install()
    try:
        assert parahn.hn.enumerate_subbundles is not parahn.sheaves.enumerate_subbundles.__wrapped__
        parahn.hn._FILT_CACHE.clear()
        traced = _run_cli(argv)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.summary()["functions"]["cli.main"]["calls"] == 1
    assert parahn.hn.enumerate_subbundles is parahn.sheaves.enumerate_subbundles
    assert not hasattr(parahn.hn.enumerate_subbundles, "__wrapped__")


def test_wrapped_function_returns_the_same_object():
    tracer = Tracer().install()
    try:
        from parahn.gf import field_make
        from parahn.sheaves import SplitBundle

        E = SplitBundle(field_make(2, 1), (0, 0))
        wrapped = parahn.sheaves.enumerate_subbundles
        original = wrapped.__wrapped__
        assert wrapped(E, 1, 0, 0) == original(E, 1, 0, 0)
        sentinel = object()
        assert tracer.wrap("x.identity", lambda v: v)(sentinel) is sentinel
    finally:
        tracer.uninstall()
    assert tracer.summary()["counters"]["sheaves.subbundles"] == 3


# -- checks catch wrong answers ----------------------------------------------------


def test_report_check_rejects_a_wrong_count():
    report = {"command": "enum-sub", "result": {"count": 312}, "timing_ms": 1.0}
    problem, _ = workloads.check_report(("count", 313), json.dumps(report))
    assert problem is not None
    problem, _ = workloads.check_report(("count", 312), json.dumps(report))
    assert problem is None


def test_report_check_rejects_a_bad_datum():
    result = {
        "datum": ["1/1", "1/1"],
        "parabolic_degree": "3/1",
        "filtration": [{"subbundle": {"rank": 2}, "relative_slope": "1/1"}],
    }
    problem, _ = workloads.check_report(("hn",), json.dumps({"result": result}))
    assert "parabolic degree" in problem


def test_stratify_check_catches_asymmetry():
    data = {(i, j): ["1/1"] for i in range(2) for j in range(2)}
    data[(0, 1)] = ["2/1"]
    problems = workloads.check_stratify(data)
    assert any("symmetry" in p for p in problems)


def test_inputs_follow_the_seed():
    assert workloads.rung_doc(3, "r3_f4", 0) == workloads.rung_doc(3, "r3_f4", 0)
    assert workloads.cli_items(3) == workloads.cli_items(3)
    assert workloads.stratify_order(3) != workloads.stratify_order(4)
    assert len(workloads.full_flags_f2_3()) == 21


# -- the harness refuses a tree without the program -----------------------------------


def test_harness_fails_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
