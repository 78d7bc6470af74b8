"""Compare a parent checkout and a change with identical benchmark code.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR \\
        [--workload W ...] [--claim W:METRIC ...]

For each workload it runs ten pairs of this directory's ``run.py`` in
the two checkouts, alternating which side runs first, each pair on its
own seed and each run for ``BENCHMARK.json``'s ``run_seconds``.  Then,
one row per workload x end-to-end metric of ``BENCHMARK.json``:

* a *claimed* metric (``--claim fault-sweep:items_per_s``) is a gain
  only when the change wins at least 9 in 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's own
  quartile spread; otherwise the claim is not met;
* every other metric passes when the change's median is no worse than
  the parent's by more than the metric's bound, and is *unresolved*
  when the run-to-run spread of either side is wider than the bound,
  unless every change run beats every parent run.

Every ratio is printed with its base (the parent's median).  The raw
results of every run are written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).absolute().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"
PAIRS = 10
#: Seeds FIRST_SEED .. FIRST_SEED + PAIRS - 1, none of which the
#: committed baseline runs use.
FIRST_SEED = 1000


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )  # fmt: skip
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{checkout}: {workload} seed {seed} printed no result:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def judge(parent: list[float], change: list[float], better: str, bound: float, claimed: bool) -> tuple[str, int]:
    """``(verdict, wins)`` for one workload x metric; *parent* and
    *change* are paired run values."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if claimed:
        gain = wins >= 0.9 * len(parent) and sign * (mc - mp) > q3 - q1
        return ("gain" if gain else "claim not met"), wins
    spread = max(_rel_spread(parent), _rel_spread(change))
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if spread > bound and not all_better:
        return "unresolved", wins
    worse_by = sign * (mp - mc) / mp
    return ("regression" if worse_by > bound else "within bound"), wins


def _rel_spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def _quartiles(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def report(runs: dict, bench: dict, claims: set[tuple[str, str]]) -> list[str]:
    """One row per workload x metric from ``runs[workload][side]`` lists
    of result objects (paired by index)."""
    lines = [
        f"{'workload':15s} {'metric':12s} {'parent median [q1, q3]':28s} "
        f"{'change median [q1, q3]':28s} {'ratio (base: parent median)':34s} {'wins':>6s}  verdict"
    ]
    for workload, sides in runs.items():
        for side in ("parent", "change"):
            failed = sum(r["failed"] for r in sides[side])
            attempted = sum(r["attempted"] for r in sides[side])
            lines.append(f"{workload:15s} {side}: {failed} failed of {attempted} attempted")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in sides["parent"]]
            change = [r["metrics"][name]["value"] for r in sides["change"]]
            claimed = (workload, name) in claims
            verdict, wins = judge(parent, change, metric["better"], metric["bound"], claimed)
            failed_more = sum(r["failed"] for r in sides["change"]) > sum(r["failed"] for r in sides["parent"])
            if claimed and verdict == "gain" and failed_more:
                verdict = "claim not met (more failures than the parent)"
            mp = statistics.median(parent)
            unit = sides["parent"][0]["metrics"][name]["unit"]
            ratio = f"x{statistics.median(change) / mp:.3f} of {mp:.4g} {unit}"
            lines.append(
                f"{workload:15s} {name:12s} {_quartiles(parent):28s} {_quartiles(change):28s} "
                f"{ratio:34s} {wins:>3d}/{len(parent):<2d}  {verdict}"
                + (f" (bound {metric['bound']:.0%})" if not claimed else " (claimed)")
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    bench = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", choices=names, help="default: every workload")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    parser.add_argument("--out", type=Path, default=Path(".e2e-bench/compare.json"))
    args = parser.parse_args(argv)
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict = {}
    for workload in args.workload or names:
        runs[workload] = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[workload][side].append(run_once(sides[side], workload, FIRST_SEED + i, bench["run_seconds"]))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"sides": {k: str(v) for k, v in sides.items()}, "runs": runs}, indent=1))
    print("\n".join(report(runs, bench, claims)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
