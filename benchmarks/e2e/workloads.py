"""The end-to-end benchmark's four workloads, run in a child process.

``run.py`` starts this file once per workload, from the root of a
checkout, with ``PYTHONPATH=src``::

    python3 benchmarks/e2e/workloads.py --workload fault-sweep --seed 3 --seconds 14 --trace 0

and reads the one JSON object it prints.  Every workload is a closed
loop: one client issues the next item only after the previous one
completes.  A run does one small untimed warm-up, then identical timed
passes until ``--seconds`` have elapsed, and reports medians over the
passes.  Outputs are checked for correctness after the timed region.

With ``--trace 1`` the passes alternate between untraced and traced
(public names wrapped by :class:`tracing.Tracer`); the traced passes
give the per-layer numbers and the untraced ones the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, ContextManager

from repro.core.admission import AdmissionController
from repro.core.allowance import equitable_allowance, system_allowance
from repro.core.context import AnalysisContext
from repro.core.feasibility import wc_response_time, weakly_hard_response_time
from repro.core.treatments import TreatmentKind
from repro.core.weakly_hard import MKConstraint
from repro.rng import derive_rng
from repro.units import ms
from repro.workloads.generator import GeneratorConfig, random_taskset

from tracing import Span, Tracer, chrome_trace, layer_totals

#: The registry's exhibits, in order (one ``experiments.<name>.s`` each).
EXHIBITS = (
    "table1", "figure1", "table2", "table3", "figure3", "figure4", "figure5",
    "figure6", "figure7", "ablation-treatments", "ablation-rounding",
    "ablation-allowance", "ablation-overhead", "ablation-blocking",
    "ablation-servers", "fault_mk_tolerance", "mp_partition_heuristics",
    "mp_fault_migration", "population-landscape", "population-fault-treatments",
)  # fmt: skip

#: Layers reported as ``<layer>.calls`` and ``<layer>.self_s``.
COUNTED_LAYERS = (
    "workloads.generate", "core.plan_treatment", "core.is_feasible",
    "core.analyze", "core.weakly_hard", "core.allowance", "core.admission",
    "core.weakly_hard_overload", "sim.exact", "sim.batch.step", "faults.draw",
    "rng.fingerprint", "exec.chunk", "exec.cache.get", "exec.cache.put",
)  # fmt: skip

#: Layers reported as ``<layer>.self_s`` only.
SELF_LAYERS = (
    "sim.batch.classify", "exec.manifest",
    "experiments.build", "experiments.render", "experiments.claims",
)  # fmt: skip

#: Every per-layer metric this process reports, with its unit.  run.py
#: adds the ``import.*`` metrics, which come from ``-X importtime``.
PER_LAYER = (
    [(f"{layer}.calls", "count") for layer in COUNTED_LAYERS]
    + [(f"{layer}.self_s", "s") for layer in COUNTED_LAYERS + SELF_LAYERS]
    + [
        ("sim.exact.events", "count"),
        ("sim.exact.events_per_s", "1/s"),
        ("sim.batch.step.systems", "count"),
        ("sim.batch.eligible_ratio", "ratio"),
        ("exec.cache.hit_ratio", "ratio"),
        ("exec.cache.put.bytes", "bytes"),
        ("exec.resume_s", "s"),
        ("exec.pool.busy_s", "s"),
        ("exec.pool.queue_wait_s", "s"),
        ("exec.pool.idle_s", "s"),
        ("exec.pool.utilization", "ratio"),
        ("core.admission.p50_ms", "ms"),
        ("core.admission.p99_ms", "ms"),
        ("trace.overhead", "ratio"),
        ("trace.unattributed_share", "ratio"),
    ]
    + [(f"experiments.{name}.s", "s") for name in EXHIBITS]
)


# -- tracing targets --------------------------------------------------------
def _events(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    sim = result[0] if isinstance(result, tuple) else result
    return {"events": int(getattr(sim, "events_processed", 0))}


def _systems(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    return {"systems": len(args[0])}


def _eligible(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    return {"eligible": int(result is None)}


def _hit(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    return {"hits": int(result is not None)}


def _bytes(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    cache, spec = args[0], args[1]
    return {"bytes": cache.path(spec).stat().st_size}


#: (module, attribute, layer, starts a request, counter) — each public
#: name is wrapped where its caller looks it up.
TARGETS = (
    ("repro.exec.sweep", "generate_population", "workloads.generate", False, None),
    ("repro.exec.sweep", "plan_treatment", "core.plan_treatment", False, None),
    ("repro.exec.sweep", "is_feasible", "core.is_feasible", False, None),
    ("repro.experiments.ablations", "is_feasible", "core.is_feasible", False, None),
    ("repro.experiments.paper", "analyze", "core.analyze", False, None),
    ("repro.experiments.paper", "wc_response_time", "core.analyze", False, None),
    ("repro.experiments.ablations", "analyze", "core.analyze", False, None),
    ("repro.experiments.ablations", "is_weakly_hard_feasible", "core.weakly_hard", False, None),
    ("repro.experiments.paper", "equitable_allowance", "core.allowance", False, None),
    ("repro.experiments.ablations", "equitable_allowance", "core.allowance", False, None),
    ("repro.experiments.ablations", "system_allowance", "core.allowance", False, None),
    ("repro.exec.sim", "simulate", "sim.exact", False, _events),
    ("repro.exec.sim", "simulate_partitioned", "sim.exact", False, _events),
    ("repro.experiments.ablations", "simulate_with_server", "sim.exact", False, _events),
    ("repro.exec.sweep", "classify", "sim.batch.classify", False, _eligible),
    ("repro.exec.sweep", "simulate_batch", "sim.batch.step", False, _systems),
    ("repro.sim.batch", "job_seeds", "faults.draw", False, None),
    ("repro.sim.batch", "uniform_extras", "faults.draw", False, None),
    ("repro.exec.sweep", "stable_hash", "rng.fingerprint", False, None),
    ("repro.exec.sweep", "build_chunk", "exec.chunk", True, None),
    ("repro.exec.sweep", "build_manifest", "exec.manifest", False, None),
    ("repro.exec.cache:ResultCache", "get", "exec.cache.get", False, _hit),
    ("repro.exec.cache:ResultCache", "put", "exec.cache.put", False, _bytes),
)


def install(tracer: Tracer) -> None:
    """Wrap every :data:`TARGETS` name (restore with ``tracer.restore``).
    A target that no longer exists raises."""
    for owner_path, attr, layer, request, counts in TARGETS:
        module_name, _, cls = owner_path.partition(":")
        owner: Any = importlib.import_module(module_name)
        if cls:
            owner = getattr(owner, cls)
        tracer.wrap(owner, attr, layer, request=request, counts=counts)


def _span(tracer: Tracer | None, name: str, request: bool | int = False) -> ContextManager:
    return tracer.span(name, request) if tracer is not None else nullcontext()


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """``(level, value)`` for the highest of p99, p95, p90, p75 and p50
    with at least ten samples strictly beyond it (nearest-rank);
    ``(0, max)`` when even the median has fewer than ten beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for level in (99, 95, 90, 75, 50):
        rank = -(-level * n // 100)  # ceil(level/100 * n), 1-based
        if rank >= 1 and n - rank >= 10:
            return level, ordered[rank - 1]
    return 0, ordered[-1] if ordered else 0.0


@dataclass
class Pass:
    """One timed pass: wall times plus the outputs checked afterwards."""

    pass_s: float
    #: The phase ``items_per_s`` divides by (the cold compute phase).
    items_s: float
    resume_s: float = 0.0
    #: Admission only: each ``request_add`` latency in seconds.
    latencies: list[float] = field(default_factory=list)
    out: Any = None


def _now() -> float:
    return time.perf_counter()  # noqa: RT002 - host-side benchmark timing, not simulated time


# -- workloads --------------------------------------------------------------
# Each workload imports the modules it drives when it runs, so the
# admission child loads only what an analysis-API user loads and its
# peak RSS is that user's.
class Workload:
    """One workload: ``items`` work items per timed pass."""

    name = ""
    items = 0

    def prepare(self, trace: bool) -> None:
        """Called once, before the warm-up, with the run's mode."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer: Tracer | None) -> Pass:
        raise NotImplementedError

    def check(self, passes: list[Pass]) -> list[str]:
        """Failure messages for the timed passes' outputs."""
        raise NotImplementedError

    def final_checks(self, passes: list[Pass], trace: bool) -> tuple[list[str], dict[str, float]]:
        """Checks that need more work than the timed passes, plus any
        per-layer metrics that work measures."""
        return [], {}


class Exhibits(Workload):
    """``experiments all``: cold build of the 20 exhibits into a fresh
    cache, render, claims, manifest and fingerprint, then a warm rerun
    on the same cache.  Fixed inputs: the seed does not apply."""

    name = "exhibits"

    def __init__(self, seed: int, scratch: Path, golden: Path, names: tuple[str, ...] = EXHIBITS):
        from repro.experiments.registry import all_specs

        self.scratch = scratch
        self.golden = golden
        self.specs = [s for s in all_specs() if s.name in names]
        self.items = len(self.specs)
        #: Exhibit name -> build time in each traced pass.
        self.durations: dict[str, list[float]] = {}

    def warm_up(self) -> None:
        from repro.exec.executor import LocalExecutor
        from repro.experiments.registry import build_exhibit

        small = [s for s in self.specs if s.name in ("table2", "figure3", "population-fault-treatments")]
        LocalExecutor().run(small, build_exhibit)

    def _builder(self, tracer: Tracer | None):
        from repro.experiments.registry import build_exhibit

        if tracer is None:
            return build_exhibit

        def traced_build(spec):
            span = tracer.begin("experiments.build", request=True)
            span.label = spec.name
            try:
                return build_exhibit(spec)
            finally:
                tracer.end(span)
                self.durations.setdefault(spec.name, []).append(span.dur / 1e9)

        return traced_build

    def run_pass(self, tracer: Tracer | None) -> Pass:
        from repro.exec.cache import ResultCache
        from repro.exec.executor import LocalExecutor
        from repro.exec.manifest import build_manifest, manifest_fingerprint

        cache_dir = _fresh_dir(self.scratch, "exhibits-cache")
        build = self._builder(tracer)
        t0 = _now()
        executor = LocalExecutor(ResultCache(cache_dir))
        runs = executor.run(self.specs, build)
        with _span(tracer, "experiments.render"):
            for run in runs:
                run.value.render()
        with _span(tracer, "experiments.claims"):
            claims = [
                (run.spec.name, c.description, bool(c.holds))
                for run in runs
                for c in run.value.claims()
            ]
        with _span(tracer, "exec.manifest"):
            manifest, _ = build_manifest(runs, executor=executor)
            fingerprint = manifest_fingerprint(manifest)
        t1 = _now()
        warm = LocalExecutor(ResultCache(cache_dir))
        warm_runs = warm.run(self.specs, build)
        with _span(tracer, "exec.manifest"):
            warm_manifest, _ = build_manifest(warm_runs, executor=warm)
            warm_fingerprint = manifest_fingerprint(warm_manifest)
        t2 = _now()
        shutil.rmtree(cache_dir, ignore_errors=True)
        return Pass(
            pass_s=t2 - t0,
            items_s=t1 - t0,
            resume_s=t2 - t1,
            out=(claims, manifest, fingerprint, warm_fingerprint, len(warm_runs) - warm.stats.cache_hits),
        )

    def check(self, passes: list[Pass]) -> list[str]:
        from repro.exec.manifest import strip_volatile

        golden = json.loads(self.golden.read_text())
        wanted = {s.name for s in self.specs}
        golden = {**golden, "exhibits": [e for e in golden["exhibits"] if e["name"] in wanted]}
        failures = []
        for k, p in enumerate(passes):
            claims, manifest, fingerprint, warm_fingerprint, recomputed = p.out
            failures += [f"pass {k}: {name}: claim fails: {desc}" for name, desc, ok in claims if not ok]
            if strip_volatile(manifest) != golden:
                failures.append(f"pass {k}: manifest differs from {self.golden.name}")
            if warm_fingerprint != fingerprint:
                failures.append(f"pass {k}: warm rerun fingerprint differs from the cold pass")
            if recomputed:
                failures.append(f"pass {k}: warm rerun recomputed {recomputed} exhibit(s)")
        return failures


class FaultSweep(Workload):
    """The ``fault-treatments`` named sweep, serial, with ``base_seed``
    offset by the seed: fault draws, treatment planning and batched
    stepping on every system (all are stepper-eligible)."""

    name = "fault-sweep"

    def __init__(self, seed: int, scratch: Path, golden: Path, replicates: int = 200, chunk_size: int = 400):
        from repro.experiments.population import sweep_by_name

        base = sweep_by_name("fault-treatments")
        self.sweep = replace(
            base, replicates=replicates, chunk_size=chunk_size, base_seed=base.base_seed + seed
        )
        self.items = self.sweep.total_points

    def warm_up(self) -> None:
        from repro.exec.executor import LocalExecutor
        from repro.exec.sweep import run_sweep

        run_sweep(replace(self.sweep, replicates=2), executor=LocalExecutor())

    def run_pass(self, tracer: Tracer | None) -> Pass:
        from repro.exec.executor import LocalExecutor
        from repro.exec.sweep import run_sweep

        t0 = _now()
        result = run_sweep(self.sweep, executor=LocalExecutor())
        fingerprint = result.fingerprint()
        t1 = _now()
        return Pass(pass_s=t1 - t0, items_s=t1 - t0, out=(fingerprint, result.points))

    def check(self, passes: list[Pass]) -> list[str]:
        failures = []
        first = passes[0].out[0]
        for k, p in enumerate(passes):
            fingerprint, points = p.out
            if fingerprint != first:
                failures.append(f"pass {k}: sweep fingerprint {fingerprint[:12]} != pass 0's {first[:12]}")
            ineligible = sum(1 for pt in points if not pt.eligible)
            if ineligible:
                failures.append(f"pass {k}: {ineligible} system(s) not stepper-eligible")
        return failures

    def final_checks(self, passes: list[Pass], trace: bool) -> tuple[list[str], dict[str, float]]:
        """The first 25 replicates of each cell, rerun on the exact
        engine, must give the batched run's per-system fingerprints."""
        from repro.exec.executor import LocalExecutor
        from repro.exec.sweep import run_sweep

        prefix = replace(self.sweep, replicates=min(25, self.sweep.replicates))
        exact = run_sweep(prefix, executor=LocalExecutor(), stepper="exact").points
        batched = {(p.cell, p.index): p.fingerprint for p in passes[-1].out[1]}
        bad = sum(1 for p in exact if batched.get((p.cell, p.index)) != p.fingerprint)
        return ([f"{bad} of {len(exact)} exact-engine fingerprints differ"] if bad else []), {}


class LandscapePool(Workload):
    """The ``landscape`` named sweep on ``PoolExecutor(2)`` into a fresh
    cache, then a rerun against the warm cache.  No fault draws, no
    treatment planning: the twin that should not move when those do."""

    name = "landscape-pool"
    #: Pool workers: the two cores the benchmark was sized on.
    JOBS = 2

    def __init__(self, seed: int, scratch: Path, golden: Path, replicates: int = 60, chunk_size: int = 60):
        from repro.experiments.population import sweep_by_name

        base = sweep_by_name("landscape")
        self.sweep = replace(
            base, replicates=replicates, chunk_size=chunk_size, base_seed=base.base_seed + seed
        )
        self.scratch = scratch
        self.items = self.sweep.total_points
        self.pass_jobs = self.JOBS

    def prepare(self, trace: bool) -> None:
        # The traced run needs in-process spans inside each chunk, so
        # its passes (traced and untraced alike) run serially.
        self.pass_jobs = 1 if trace else self.JOBS

    def warm_up(self) -> None:
        from repro.exec.executor import LocalExecutor
        from repro.exec.sweep import run_sweep

        run_sweep(replace(self.sweep, replicates=2), executor=LocalExecutor())

    def run_pass(self, tracer: Tracer | None, jobs: int | None = None) -> Pass:
        from repro.exec.cache import ResultCache
        from repro.exec.executor import make_executor
        from repro.exec.sweep import run_sweep

        jobs = self.pass_jobs if jobs is None else jobs
        cache_dir = _fresh_dir(self.scratch, "landscape-cache")
        t0 = _now()
        cold = run_sweep(self.sweep, executor=make_executor(jobs, ResultCache(cache_dir)))
        cold_fp = cold.fingerprint()
        t1 = _now()
        warm_executor = make_executor(jobs, ResultCache(cache_dir))
        warm = run_sweep(self.sweep, executor=warm_executor)
        warm_fp = warm.fingerprint()
        t2 = _now()
        shutil.rmtree(cache_dir, ignore_errors=True)
        missed = sum(1 for p in cold.points if p.analysis_feasible and p.misses > 0)
        return Pass(
            pass_s=t2 - t0,
            items_s=t1 - t0,
            resume_s=t2 - t1,
            out=(cold_fp, warm_fp, missed, warm_executor.stats.computed, cold.results),
        )

    def check(self, passes: list[Pass]) -> list[str]:
        failures = []
        first = passes[0].out[0]
        for k, p in enumerate(passes):
            cold_fp, warm_fp, missed, recomputed, _ = p.out
            if cold_fp != first:
                failures.append(f"pass {k}: fingerprint {cold_fp[:12]} != pass 0's {first[:12]}")
            if warm_fp != cold_fp:
                failures.append(f"pass {k}: resumed fingerprint differs from the cold run")
            if recomputed:
                failures.append(f"pass {k}: resume recomputed {recomputed} chunk(s)")
            if missed:
                failures.append(f"pass {k}: {missed} analysis-feasible system(s) missed a deadline")
        return failures

    def final_checks(self, passes: list[Pass], trace: bool) -> tuple[list[str], dict[str, float]]:
        """Serial and pool runs must agree.  The untraced run adds one
        serial pass; the traced run (whose passes are serial) adds one
        pool pass and reads the pool's busy and idle time from it."""
        other_jobs = self.JOBS if trace else 1
        p = self.run_pass(None, jobs=other_jobs)
        reference = passes[0].out[0]
        failures = self.check([p]) if p.out[0] == reference else [
            f"jobs={other_jobs} fingerprint {p.out[0][:12]} != jobs={self.pass_jobs} {reference[:12]}"
        ]
        if not trace:
            return failures, {}
        results = p.out[4]
        wall = p.items_s
        busy = sum(r.ended_ns - r.started_ns for r in results) / 1e9
        capacity = self.JOBS * wall
        return failures, {
            "exec.pool.busy_s": busy,
            "exec.pool.queue_wait_s": sum(r.queue_wait_ns for r in results) / 1e9,
            "exec.pool.idle_s": max(0.0, capacity - busy),
            "exec.pool.utilization": busy / capacity if capacity else 0.0,
        }


#: The overload stratum is one fixed draw, not a seeded one: whether a
#: draw's busy period never closes (so that the analysis runs to its
#: 50,000-job cap, for seconds) varies so much between draws that a
#: seeded stratum's time would swing severalfold from seed to seed.
#: Stream 24 gives 12 systems, 3 of which run to the cap.
OVERLOAD_STREAM = 24


def in_capacity_system(seed: int, i: int):
    """System *i* of the in-capacity stratum: n in [2, 8], U in
    [0.5, 1], periods 10 ms to 1 s, (m, K) with K <= 5 on every task.

    n and U, which set most of a system's analysis cost, are stratified
    rather than drawn: n cycles through 2..8 and U through ten equal
    bands of [0.5, 1], drawn uniformly within its band.  Every seed then
    brings the same mix of sizes and loads, so the seed changes the
    systems without changing how much work a pass is."""
    rng = derive_rng(seed, "e2e-admission", i)
    n = 2 + i % 7
    band = (i // 7) % 10
    u = (500_000 + 50_000 * band + rng.randint(0, 50_000)) / 1_000_000
    ts = random_taskset(GeneratorConfig(n=n, utilization=u), rng=rng)
    constraints = {}
    for task in ts:
        k = rng.randint(1, 5)
        constraints[task.name] = MKConstraint(rng.randint(0, k), k)
    return ts.with_mk(constraints)


def overload_system(i: int):
    """System *i* of the overload stratum: the (m, K) oracle's draw
    distribution (periods 10-40 ms in 5 ms steps, K <= 4) with n = 2
    and U in (1, 1.4]."""
    rng = derive_rng(OVERLOAD_STREAM, "overload", i)
    u = rng.randint(1_000_001, 1_400_000) / 1_000_000
    config = GeneratorConfig(
        n=2,
        utilization=u,
        period_lo=ms(10),
        period_hi=ms(40),
        period_granularity=ms(5),
        deadline_factor=rng.choice([0.9, 1.0]),
    )
    ts = random_taskset(config, rng=rng)
    constraints = {}
    for task in ts:
        k = rng.randint(1, 4)
        constraints[task.name] = MKConstraint(rng.randint(0, k), k)
    return ts.with_mk(constraints)


class Admission(Workload):
    """The analysis API with no simulation: per system, hard and
    weakly-hard analysis, equitable and system allowances, then one
    ``request_add`` per task; then the overload stratum's weakly-hard
    verdicts."""

    name = "admission"

    def __init__(self, seed: int, scratch: Path, golden: Path, systems: int = 300, overload: int = 12):
        self.systems = [in_capacity_system(seed, i) for i in range(systems)]
        self.overload = [overload_system(i) for i in range(overload)]
        self.items = len(self.systems)

    def warm_up(self) -> None:
        self._in_capacity(self.systems[:8], None, [])

    def _in_capacity(self, systems, tracer: Tracer | None, latencies: list[float]) -> list:
        verdicts = []
        for ts in systems:
            request = tracer.new_request() if tracer is not None else False
            with _span(tracer, "core.analyze", request):
                ctx = AnalysisContext(ts)
                hard = ctx.analyze_set(ts)
            with _span(tracer, "core.weakly_hard", request):
                weak = ctx.weakly_hard_analyze_set(ts)
            with _span(tracer, "core.allowance", request):
                allowance = equitable_allowance(ts, context=ctx) if hard.feasible else None
                grants = system_allowance(ts, context=ctx)
            controller = AdmissionController(TreatmentKind.EQUITABLE_ALLOWANCE)
            decisions = []
            for task in ts:
                with _span(tracer, "core.admission", request):
                    t0 = _now()
                    result = controller.request_add(task)
                    latencies.append(_now() - t0)
                decisions.append(result.decision.value)
            verdicts.append(
                (
                    hard.feasible,
                    weak.feasible,
                    tuple(r.wcrt for r in hard.per_task.values()),
                    tuple(r.wcrt for r in weak.per_task.values()),
                    allowance,
                    tuple(sorted(grants.items())),
                    tuple(decisions),
                )
            )
        return verdicts

    def run_pass(self, tracer: Tracer | None) -> Pass:
        latencies: list[float] = []
        t0 = _now()
        verdicts = self._in_capacity(self.systems, tracer, latencies)
        t1 = _now()
        overload = []
        for ts in self.overload:
            with _span(tracer, "core.weakly_hard_overload", True):
                report = AnalysisContext(ts).weakly_hard_analyze_set(ts)
            overload.append((report.feasible, tuple(r.wcrt for r in report.per_task.values())))
        t2 = _now()
        return Pass(pass_s=t2 - t0, items_s=t1 - t0, latencies=latencies, out=(verdicts, overload))

    def check(self, passes: list[Pass]) -> list[str]:
        failures = []
        first = passes[0].out
        for k, p in enumerate(passes):
            if p.out != first:
                failures.append(f"pass {k}: verdicts differ from pass 0's")
        for i, verdict in enumerate(first[0]):
            hard_ok, weak_ok, hard_wcrts, weak_wcrts = verdict[:4]
            if hard_ok and not weak_ok:
                failures.append(f"system {i}: hard-feasible but not weakly-hard feasible")
            if i % 4 == 0:
                ts = self.systems[i]
                if hard_wcrts != tuple(wc_response_time(t, ts) for t in ts):
                    failures.append(f"system {i}: context WCRTs differ from cold wc_response_time")
                if weak_wcrts != tuple(weakly_hard_response_time(t, ts) for t in ts):
                    failures.append(f"system {i}: context WCRTs differ from cold weakly_hard_response_time")
        return failures


WORKLOADS = {w.name: w for w in (Exhibits, FaultSweep, LandscapePool, Admission)}


def _fresh_dir(scratch: Path, stem: str) -> Path:
    path = scratch / stem
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- measurement --------------------------------------------------------------
def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _layer_metrics(per_pass: list[dict], workload: Workload, untraced: list[Pass], traced: list[Pass]) -> dict[str, float]:
    """Per-layer metrics: the median over traced passes of each
    layer's totals."""

    def med(layer: str, key: str) -> float:
        return _median(t.get(layer, {}).get(key, 0) for t in per_pass)

    m: dict[str, float] = {}
    for layer in COUNTED_LAYERS:
        m[f"{layer}.calls"] = med(layer, "calls")
    for layer in COUNTED_LAYERS + SELF_LAYERS:
        m[f"{layer}.self_s"] = med(layer, "self_ns") / 1e9
    exact_s = med("sim.exact", "self_ns") / 1e9
    m["sim.exact.events"] = med("sim.exact", "events")
    m["sim.exact.events_per_s"] = m["sim.exact.events"] / exact_s if exact_s else 0.0
    m["sim.batch.step.systems"] = med("sim.batch.step", "systems")
    classified = med("sim.batch.classify", "calls")
    m["sim.batch.eligible_ratio"] = med("sim.batch.classify", "eligible") / classified if classified else 0.0
    lookups = med("exec.cache.get", "calls")
    m["exec.cache.hit_ratio"] = med("exec.cache.get", "hits") / lookups if lookups else 0.0
    m["exec.cache.put.bytes"] = med("exec.cache.put", "bytes")
    m["exec.resume_s"] = _median(p.resume_s for p in untraced)
    for key in ("busy_s", "queue_wait_s", "idle_s", "utilization"):
        m[f"exec.pool.{key}"] = 0.0
    # Request latency from the untraced passes: tracing off, as for an
    # end-to-end number.
    timed = [p.latencies for p in untraced if p.latencies]
    m["core.admission.p50_ms"] = _median(statistics.median(x) for x in timed) * 1e3
    m["core.admission.p99_ms"] = _median(tail_percentile(x)[1] for x in timed) * 1e3
    # Each traced pass runs right after an untraced one; comparing the
    # two within a pair cancels the host's slower drift in speed.
    m["trace.overhead"] = _median(t.pass_s / u.pass_s - 1 for u, t in zip(untraced, traced))
    m["trace.unattributed_share"] = _median(
        t["pass"]["self_ns"] / t["pass"]["incl_ns"] for t in per_pass
    )
    durations = getattr(workload, "durations", {})
    for name in EXHIBITS:
        m[f"experiments.{name}.s"] = _median(durations.get(name, ()))
    return m


def measure(workload: Workload, seconds: float, trace: bool, trace_path: Path | None = None) -> dict:
    """Warm up, run timed passes for *seconds* (alternating untraced and
    traced passes when *trace*), then check every pass's outputs."""
    workload.prepare(trace)
    workload.warm_up()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    per_pass: list[dict] = []
    last_spans: list[Span] = []
    start = _now()
    while True:
        gc.collect()
        if trace and len(traced) < len(untraced):
            tracer = Tracer()
            try:
                install(tracer)
                root = tracer.begin("pass")
                traced.append(workload.run_pass(tracer))
                tracer.end(root)
            finally:
                tracer.restore()
            per_pass.append(layer_totals(tracer.spans))
            last_spans = tracer.spans
        else:
            untraced.append(workload.run_pass(None))
        if _now() - start >= seconds and (traced or not trace):
            break
    # Peak memory of the passes alone: the checks below do work (an
    # exact-engine rerun, a serial pass) that the workload does not.
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    passes = untraced + traced
    failures = workload.check(passes)
    more, extra = workload.final_checks(passes, trace)
    failures += more
    result: dict = {
        "workload": workload.name,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "attempted": workload.items * len(passes),
        "failed": len(failures),
        "failures": failures[:20],
        "samples": {
            "pass_s": [p.pass_s for p in untraced],
            "items_s": [p.items_s for p in untraced],
        },
    }
    if trace:
        values = _layer_metrics(per_pass, workload, untraced, traced)
        values.update(extra)
        units = dict(PER_LAYER)
        result["table"] = _layer_table(values, _median(p.pass_s for p in traced))
        if trace_path is not None:
            chrome_trace(last_spans, trace_path)
            result["chrome_trace"] = str(trace_path)
    else:
        values = {
            "peak_rss_mb": rss_kb / 1024,
            "pass_s": _median(result["samples"]["pass_s"]),
            "items_per_s": workload.items / _median(result["samples"]["items_s"]),
        }
        units = {"peak_rss_mb": "MB", "pass_s": "s", "items_per_s": "1/s"}
    result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return result


def _layer_table(values: dict[str, float], pass_s: float) -> list[str]:
    """Self time per layer in a traced pass, largest first."""
    rows = []
    for layer in COUNTED_LAYERS + SELF_LAYERS:
        self_s = values[f"{layer}.self_s"]
        if self_s > 0:
            calls = values.get(f"{layer}.calls")
            rows.append((self_s, layer, "-" if calls is None else f"{calls:.0f}"))
    lines = [f"  {'layer':28s} {'calls':>8s} {'self_s':>9s} {'share':>6s}"]
    for self_s, layer, calls in sorted(rows, reverse=True):
        share = self_s / pass_s if pass_s else 0.0
        lines.append(f"  {layer:28s} {calls:>8s} {self_s:9.4f} {share:6.1%}")
    unattributed = values["trace.unattributed_share"]
    lines.append(f"  {'(unattributed)':28s} {'':>8s} {unattributed * pass_s:9.4f} {unattributed:6.1%}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Paths are relative: the current directory is the checkout's root.
    scratch = Path(".e2e-bench") / f"{args.workload}-{args.seed}"
    golden = Path("tests") / "experiments" / "golden_manifest.json"
    workload = WORKLOADS[args.workload](args.seed, scratch, golden)
    trace_path = Path(".e2e-bench") / f"{args.workload}.trace.json" if args.trace else None
    try:
        result = measure(workload, args.seconds, bool(args.trace), trace_path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
