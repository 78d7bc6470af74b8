"""Self-tests of the end-to-end benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import workloads
from tracing import Span, Tracer, layer_totals, self_times

HERE = Path(__file__).absolute().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = ROOT / "tests" / "experiments" / "golden_manifest.json"

#: Scaled-down sizes: the same code paths in well under a second each.
SMALL = {
    "exhibits": {"names": ("table2", "figure3", "population-fault-treatments")},
    "fault-sweep": {"replicates": 2, "chunk_size": 4},
    "landscape-pool": {"replicates": 2, "chunk_size": 10},
    "admission": {"systems": 6, "overload": 2},
}


def _span(id: int, start: int, end: int, parent: int = 0, name: str = "x") -> Span:
    s = Span(id, name, start, parent, 1)
    s.end = end
    return s


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span(1, 0, 100, name="root"),
        _span(2, 10, 40, parent=1, name="a"),
        _span(3, 30, 60, parent=1, name="b"),  # overlaps a: union is 10..60
        _span(4, 15, 20, parent=2, name="c"),
        _span(5, 90, 120, parent=1, name="d"),  # clipped to the parent's end
    ]
    assert self_times(spans) == {1: 100 - 50 - 10, 2: 25, 3: 30, 4: 5, 5: 30}


def test_layer_totals_count_a_recursive_layer_once():
    spans = [
        _span(1, 0, 100, name="root"),
        _span(2, 0, 80, parent=1, name="f"),
        _span(3, 10, 50, parent=2, name="f"),
    ]
    f = layer_totals(spans)["f"]
    assert f["calls"] == 2
    assert f["incl_ns"] == 80
    assert f["self_ns"] == 80


def test_request_ids_group_spans():
    tracer = Tracer()
    with tracer.span("pass"):
        with tracer.span("chunk", request=True):
            with tracer.span("step"):
                pass
        req = tracer.new_request()
        with tracer.span("analyze", req):
            pass
        with tracer.span("admit", req):
            pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["step"].request == by_name["chunk"].request != by_name["pass"].request
    assert by_name["analyze"].request == by_name["admit"].request == req
    assert by_name["step"].parent == by_name["chunk"].id


@pytest.mark.parametrize(
    "n, expected",
    [(2000, (99, 1980)), (1000, (99, 990)), (999, (95, 950)), (25, (50, 13)), (5, (0, 5))],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    level, value = workloads.tail_percentile([float(i) for i in range(1, n + 1)])
    assert (level, value) == expected
    if level:
        assert sum(1 for i in range(1, n + 1) if i > value) >= 10


def test_wrappers_restored_after_a_traced_pass(tmp_path):
    originals = {}
    for owner_path, attr, *_ in workloads.TARGETS:
        module, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        originals[(owner_path, attr)] = (owner, getattr(owner, attr))
    wl = workloads.FaultSweep(1, tmp_path, GOLDEN, **SMALL["fault-sweep"])
    result = workloads.measure(wl, 0, trace=True)
    assert result["metrics"]["exec.chunk.calls"]["value"] > 0
    for (owner_path, attr), (owner, original) in originals.items():
        assert getattr(owner, attr) is original, f"{owner_path}.{attr} left wrapped"


def test_a_missing_wrap_target_fails_the_traced_run(tmp_path, monkeypatch):
    """A renamed public name must not read as a layer that costs 0 s;
    the wrappers installed before it are still restored."""
    sweep = importlib.import_module("repro.exec.sweep")
    original = sweep.simulate_batch
    monkeypatch.setattr(workloads, "TARGETS", workloads.TARGETS + (("repro.sim.batch", "renamed_away", "x", False, None),))
    wl = workloads.FaultSweep(1, tmp_path, GOLDEN, **SMALL["fault-sweep"])
    with pytest.raises(AttributeError, match="renamed_away"):
        workloads.measure(wl, 0, trace=True)
    assert sweep.simulate_batch is original


def test_peak_rss_is_read_before_the_checks(tmp_path, monkeypatch):
    """fault-sweep's check reruns replicates on the exact engine, which
    the workload never does; its memory must not count."""
    wl = workloads.FaultSweep(1, tmp_path, GOLDEN, **SMALL["fault-sweep"])
    calls = []
    getrusage = workloads.resource.getrusage
    monkeypatch.setattr(workloads.resource, "getrusage", lambda who: calls.append("rss") or getrusage(who))
    for name in ("check", "final_checks"):
        method = getattr(wl, name)
        monkeypatch.setattr(wl, name, lambda *a, _m=method, _n=name: calls.append(_n) or _m(*a))
    result = workloads.measure(wl, 0, trace=False)
    assert result["failed"] == 0, result["failures"]
    assert calls == ["rss", "rss", "check", "final_checks"]


def test_planted_wrong_fingerprint_is_a_failure(tmp_path):
    wl = workloads.FaultSweep(1, tmp_path, GOLDEN, **SMALL["fault-sweep"])
    good = wl.run_pass(None)
    bad = workloads.Pass(pass_s=good.pass_s, items_s=good.items_s, out=("0" * 64, good.out[1]))
    assert wl.check([good, good]) == []
    assert len(wl.check([good, bad])) == 1


def test_planted_golden_entry_fails_the_run(tmp_path):
    """A checkout whose golden manifest disagrees with the code: the
    run still prints its result line, with failures, and exits 1."""
    golden = json.loads(GOLDEN.read_text())
    golden["exhibits"][0]["artifact_sha256"] = "0" * 64
    (tmp_path / "tests" / "experiments").mkdir(parents=True)
    (tmp_path / "tests" / "experiments" / "golden_manifest.json").write_text(json.dumps(golden))
    (tmp_path / "src").symlink_to(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "exhibits", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0 and result["failed"] / result["attempted"] > 0
    assert "manifest differs" in proc.stdout
    assert not (tmp_path / ".e2e-bench" / "exhibits-0").exists()


def test_outside_a_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "admission", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    per_layer = [(m["name"], m["unit"]) for m in BENCH["per_layer"]]
    assert per_layer == [(k, "s") for k in run.IMPORT_LAYERS.values()] + list(workloads.PER_LAYER)
    assert BENCH["paths"] == ["benchmarks/e2e"]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_scaled_down_run_prints_every_metric(tmp_path, name, trace):
    wl = workloads.WORKLOADS[name](1, tmp_path, GOLDEN, **SMALL[name])
    result = workloads.measure(wl, 0, trace, tmp_path / "trace.json" if trace else None)
    assert result["failed"] == 0, result["failures"]
    target = run.SETUP_TARGET[name]
    if trace:
        extra = {k: {"value": v, "unit": "s"} for k, v in run.import_breakdown(ROOT, target).items()}
        expected = BENCH["per_layer"]
        events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
        assert events and all(e["ph"] == "X" and "parent" in e["args"] for e in events)
    else:
        setup = run.measure_setup(ROOT, target, runs=1)
        extra = {"setup_s": {"value": setup[0], "unit": "s"}}
        expected = BENCH["end_to_end"]
    result.update(seed=1, trace=int(trace), metrics={**extra, **result["metrics"]})
    text = "\n".join(run.describe(result))
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f"  {metric['name']} " in text
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_parse_importtime_sums_self_time_per_package():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   numpy.core",
            "import time:        50 |        150 | numpy",
            "import time:      2000 |       2000 | networkx",
            "import time:        30 |       2180 | repro.core",
            "import time:         5 |          5 | json",
        ]
    )
    assert run.parse_importtime(text) == {
        "import.repro_s": 30e-6,
        "import.networkx_s": 2000e-6,
        "import.numpy_s": 150e-6,
    }


@pytest.mark.parametrize(
    "parent, change, better, claimed, verdict",
    [
        ([10.0] * 9 + [10.2], [9.0] * 10, "lower", True, "gain"),
        ([10.0] * 9 + [10.2], [9.0] * 8 + [11.0] * 2, "lower", True, "claim not met"),
        ([10.0, 10.1] * 5, [10.5, 10.6] * 5, "lower", False, "within bound"),
        ([10.0, 10.1] * 5, [12.0, 12.1] * 5, "lower", False, "regression"),
        ([10.0, 10.1] * 5, [8.5, 8.4] * 5, "higher", False, "regression"),
        ([8.0, 12.0] * 5, [9.0, 13.0] * 5, "lower", False, "unresolved"),
        ([8.0, 12.0] * 5, [5.0, 6.0] * 5, "lower", False, "within bound"),
    ],
)
def test_compare_verdicts(parent, change, better, claimed, verdict):
    assert compare.judge(parent, change, better, 0.1, claimed)[0] == verdict
