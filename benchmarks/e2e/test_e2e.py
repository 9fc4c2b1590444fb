"""Tests of the benchmark itself. Not collected by tier-1 (``testpaths = tests``):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py

(``PYTHONPATH`` only because ``benchmarks/conftest.py`` imports the program.)
"""

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for entry in (str(HERE.parents[1] / "src"), str(HERE)):
    sys.path.insert(0, entry)

import compare  # noqa: E402
from trace import Span, SpanRecorder  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS, manifest  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_workloads_and_contract():
    document = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert document == manifest(), "regenerate with run.py --write-manifest"
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert document["paths"] == ["benchmarks/e2e"]
    assert len(document["workloads"]) == 4
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in document[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in document["end_to_end"])


def test_smoke_reports_every_metric_for_every_workload(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    runs = {run["workload"]: run for run in json.loads(out.read_text())["runs"]}
    assert set(runs) == {w.name for w in WORKLOADS}
    for run in runs.values():
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert set(run["end_to_end"]) == {name for name, *_ in END_TO_END}
        assert set(run["per_layer"]) == {name for name, *_ in PER_LAYER}
        assert all(m["value"] > 0 for m in run["end_to_end"].values())


def test_span_self_time_is_duration_minus_children():
    recorder = SpanRecorder()
    recorder.spans = [
        Span("epoch", 0.0, 10.0, -1, -1),
        Span("batch", 1.0, 9.0, 0, 0),
        Span("sample", 1.0, 4.0, 1, 0),
        Span("compute", 4.5, 8.5, 1, 0),
        Span("forward", 5.0, 6.0, 3, 0),
        Span("forward", 6.0, 8.0, 3, 0),
    ]
    assert recorder.self_times() == [2.0, 1.0, 3.0, 1.0, 1.0, 2.0]
    assert recorder.self_time_by_name() == {
        "epoch": 2.0, "batch": 1.0, "sample": 3.0, "compute": 1.0, "forward": 3.0
    }
    # self times partition the root span: nothing is counted twice
    assert sum(recorder.self_times()) == recorder.spans[0].duration


def test_span_recorder_nests_by_call_order():
    recorder = SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner", batch=3):
            pass
        with recorder.span("inner", batch=4):
            pass
    assert [(s.name, s.parent, s.batch) for s in recorder.spans] == [
        ("outer", -1, -1), ("inner", 0, 3), ("inner", 0, 4)
    ]
    assert recorder.count("inner") == 2
    assert len(recorder.to_chrome_trace()["traceEvents"]) == 3


def test_epochs_to_target_interpolates_within_the_crossing_round():
    from measure import epochs_to_target  # imports the program, so not at module level

    accs = [0.2, 0.4, 0.8]
    # crossed in round 3, a quarter of the way from 0.4 to 0.8: warm-up + 2 + 0.25 epochs
    assert epochs_to_target(accs, 0.5) == (1 + 2 + 0.25, 3)
    # reached exactly at the end of round 2
    assert epochs_to_target(accs, 0.4) == (1 + 2, 2)
    # round 1 has no accuracy before it: it counts whole
    assert epochs_to_target(accs, 0.1) == (1 + 1, 1)
    # never reached: every round, round 0
    assert epochs_to_target(accs, 0.9) == (1 + 3, 0)


def _document(scale=None):
    """One synthetic set: every workload x end-to-end metric = 100 units."""
    scale = scale or {}
    return {
        "runs": [
            {
                "workload": w.name,
                "end_to_end": {
                    name: {"value": 100.0 * scale.get(name, 1.0), "unit": unit}
                    for name, unit, *_ in END_TO_END
                },
            }
            for w in WORKLOADS
        ]
    }


def test_compare_passes_a_self_compare():
    rows = compare.compare(_document(), _document())
    assert len(rows) == len(WORKLOADS) * len(END_TO_END)
    assert {r["verdict"] for r in rows} == {"ok"}
    assert {r["ratio"] for r in rows} == {1.0}


def test_compare_flags_a_regression_past_the_bound_in_either_direction():
    bound = {name: b for name, _, _, b in END_TO_END}
    past, inside = bound["epoch_s"] + 0.05, bound["epoch_s"] - 0.05
    slower = compare.compare(_document(), _document({"epoch_s": 1 + past}))
    assert {r["metric"] for r in slower if r["verdict"] == "worse"} == {"epoch_s"}
    tolerated = compare.compare(_document(), _document({"epoch_s": 1 + inside}))
    assert {r["verdict"] for r in tolerated} == {"ok"}
    # higher-is-better: losing throughput is worse, gaining it is not
    past = bound["infer_nodes_per_s"] + 0.05
    lost = compare.compare(_document(), _document({"infer_nodes_per_s": 1 - past}))
    assert {r["metric"] for r in lost if r["verdict"] == "worse"} == {"infer_nodes_per_s"}
    gained = compare.compare(_document(), _document({"infer_nodes_per_s": 1 + past}))
    assert {r["verdict"] for r in gained} == {"ok"}


def test_compare_reports_unresolved_when_spread_exceeds_the_bound():
    noisy = copy.deepcopy(_document())
    for run in noisy["runs"]:
        run["end_to_end"]["epoch_s"].update(q1=80.0, q3=120.0)  # 40% > any bound
    rows = compare.compare(noisy, _document())
    assert {r["metric"] for r in rows if r["verdict"] == "unresolved"} == {"epoch_s"}
