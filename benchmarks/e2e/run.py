"""End-to-end benchmark: the paper's exhibits, two population sweeps and
the analysis API, timed from outside the program.

Run from the root of a checkout (no ``PYTHONPATH`` needed)::

    python3 benchmarks/e2e/run.py --workload fault-sweep --seed 3 --trace 0
    python3 benchmarks/e2e/run.py --seed 3 --trace --out results.json   # every workload

Each run measures for ``--seconds``, by default ``BENCHMARK.json``'s
``run_seconds``.  Each workload runs in its own child process
(``workloads.py``).  The
set-up time is the median over five fresh interpreters of importing
the workload's entry module.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  Every metric is printed by
name and unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when every correctness check passed, 1 when one failed, 2 when the
current directory is not a checkout with ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).absolute().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"

WORKLOADS = ("exhibits", "fault-sweep", "landscape-pool", "admission")

#: The module a user of each workload imports first.
SETUP_TARGET = {
    "exhibits": "repro.experiments.cli",
    "fault-sweep": "repro.experiments.cli",
    "landscape-pool": "repro.experiments.cli",
    "admission": "repro.core",
}
SETUP_RUNS = 5

#: Top-level package -> per-layer import metric.
IMPORT_LAYERS = {"repro": "import.repro_s", "networkx": "import.networkx_s", "numpy": "import.numpy_s"}

#: Every run, including its set-up, must end within this many seconds.
RUN_LIMIT_S = 175


def _env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def measure_setup(root: Path, target: str, runs: int = SETUP_RUNS) -> list[float]:
    """Seconds to import *target* in each of *runs* fresh interpreters."""
    code = f"import time; t = time.perf_counter(); import {target}; print(time.perf_counter() - t)"
    out = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=root, env=_env(root), capture_output=True, text=True, timeout=60, check=True,
        )
        out.append(float(proc.stdout))
    return out


def import_breakdown(root: Path, target: str) -> dict[str, float]:
    """Import self time summed per top-level package, from one
    ``python -X importtime`` run (seconds)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {target}"],
        cwd=root, env=_env(root), capture_output=True, text=True, timeout=60, check=True,
    )
    return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> dict[str, float]:
    micros = dict.fromkeys(IMPORT_LAYERS, 0)
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        package = fields[2].strip().split(".")[0]
        if package in micros:
            micros[package] += int(fields[0])
    return {IMPORT_LAYERS[p]: us / 1e6 for p, us in micros.items()}  # noqa: RT001 - host import time, reported in seconds


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload: set-up (or the import breakdown when
    tracing) here, the passes in a child process."""
    started = time.perf_counter()  # noqa: RT002 - host-side benchmark timing, not simulated time
    target = SETUP_TARGET[workload]
    if trace:
        metrics = {k: {"value": v, "unit": "s"} for k, v in import_breakdown(root, target).items()}
    else:
        setup = measure_setup(root, target)
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]  # fmt: skip
    proc = subprocess.run(
        cmd, cwd=root, env=_env(root), capture_output=True, text=True,
        timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - started)),  # noqa: RT002 - host-side deadline
    )  # fmt: skip
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics.update(result["metrics"])
    result["metrics"] = metrics
    result["seed"] = seed
    result["trace"] = int(trace)
    if not trace:
        result["samples"]["setup_s"] = setup
    return result


def describe(result: dict) -> list[str]:
    """Human-readable lines for one workload's result."""
    lines = [
        f"{result['workload']} seed={result['seed']} trace={result['trace']}: "
        f"{result['passes']} timed pass(es), {result['traced_passes']} traced, "
        f"{result['attempted']} items attempted, {result['failed']} failed"
    ]
    lines += [f"  FAILED: {msg}" for msg in result["failures"]]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    if result.get("table"):
        lines.append("  layer self time in a traced pass:")
        lines += result["table"]
    return lines


def host_facts(root: Path) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_rev": rev,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured time per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1 (or bare --trace): report the per-layer metrics of a traced run",
    )  # fmt: skip
    parser.add_argument("--out", type=Path, help="also write every result, with host facts, to this JSON file")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(f"error: {root} is not a checkout (no src/repro); run from the repository root", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for workload in workloads:
        try:
            result = run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.SubprocessError, ValueError, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        results.append(result)
        print("\n".join(describe(result)), flush=True)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        payload = {"host": host_facts(root), "args": vars(args) | {"out": str(args.out)}, "runs": results}
        args.out.write_text(json.dumps(payload, indent=1) + "\n")
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
