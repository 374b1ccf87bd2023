"""Pinned perf workloads and the committed-baseline gate (``repro bench``).

HybridFlow's headline claim is throughput (§6: 1.5–20× over baselines), so
the reproduction keeps a *measured* perf trajectory instead of an asserted
one: ``repro bench`` runs the pinned workloads below, writes a
``BENCH_perf.json`` record, and CI compares every run against the committed
baseline — a regression beyond tolerance fails the build.

Comparison policy (the part that makes the gate portable):

* ``exact`` metrics are **structure-derived** integers/booleans — token
  counts with EOS disabled, schedule steps, dispatch-call counts, metered
  collective bytes (a function of array shapes), cache hit counts.  They
  must match the baseline bit-for-bit on any platform; none of them depends
  on float arithmetic or the sampled token stream, so they are stable
  across Python/numpy versions.
* ``wall`` metrics are host wall-clock seconds.  CI machines are shared and
  slow, so a run only *fails* when it exceeds ``baseline * WALL_FACTOR +
  WALL_FLOOR`` — the gate catches order-of-magnitude rot (an accidental
  O(n²), a dropped cache), not scheduler jitter.  Being faster never fails.
* ``min`` metrics carry their own absolute floor (speedup ratios measured
  A/B in the same process, where machine speed divides out).  The floor is
  part of the pinned record: the vectorized sampler must stay measurably
  faster than the per-row loop it replaced, on every run, forever.
* ``info`` metrics are recorded for the trajectory but never compared.

Workload *pins* (model sizes, batch shapes, seeds) are compared exactly;
changing a pin requires an explicit re-baseline (``repro bench --update``),
so the committed numbers always describe the committed workloads.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

SCHEMA = 1
SUITE = "repro.perf.bench"

#: A wall metric regresses only beyond ``baseline * WALL_FACTOR +
#: WALL_FLOOR`` — loose on purpose; see the module docstring.
WALL_FACTOR = 4.0
WALL_FLOOR = 0.05


def _now() -> float:
    """Host wall-clock for *measuring the harness itself*.

    The simulation never reads wall time (rule ``RL302``); the bench
    harness is the one sanctioned exception, since its entire job is to
    measure how fast the host executes the simulation.
    """
    return time.perf_counter()  # repro-lint: ignore[RL302]


def _time_best(fn: Callable[[], Any], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` — the standard noise filter."""
    best = math.inf
    for _ in range(repeats):
        t0 = _now()
        fn()
        best = min(best, _now() - t0)
    return best


def _metric(kind: str, value: Any, **extra: Any) -> Dict[str, Any]:
    if kind not in ("exact", "wall", "min", "info"):
        raise ValueError(f"unknown metric kind {kind!r}")
    return {"kind": kind, "value": value, **extra}


# -- workloads -----------------------------------------------------------------------


def bench_sequential_generate() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Auto-regressive ``generate`` plus the sampler A/B microbenchmark."""
    from repro.models.sampler import (
        generate,
        sample_tokens,
        sample_tokens_reference,
    )
    from repro.models.tinylm import TinyLM, TinyLMConfig

    pins = {
        "n_layers": 2,
        "hidden_size": 32,
        "n_heads": 4,
        "ffn_hidden_size": 48,
        "vocab_size": 32,
        "max_seq_len": 64,
        "batch": 8,
        "prompt_length": 4,
        "max_new_tokens": 16,
        "seed": 0,
        "sampler_rows": 256,
        "sampler_vocab": 64,
        "sampler_iters": 20,
    }
    cfg = TinyLMConfig(
        n_layers=pins["n_layers"],
        hidden_size=pins["hidden_size"],
        n_heads=pins["n_heads"],
        ffn_hidden_size=pins["ffn_hidden_size"],
        vocab_size=pins["vocab_size"],
        max_seq_len=pins["max_seq_len"],
    )
    model = TinyLM(cfg, seed=pins["seed"])
    prompt_rng = np.random.default_rng(pins["seed"])
    prompts = prompt_rng.integers(
        0, cfg.vocab_size, size=(pins["batch"], pins["prompt_length"])
    )

    def run() -> None:
        generate(
            model,
            prompts,
            max_new_tokens=pins["max_new_tokens"],
            rng=np.random.default_rng(pins["seed"]),
        )

    wall = _time_best(run)
    tokens = pins["batch"] * pins["max_new_tokens"]  # no EOS: every slot fills

    # sampler A/B: identical logits, identically-seeded rngs, so the only
    # difference is the per-row loop vs the batched inverse-CDF pass
    logits = np.random.default_rng(1).normal(
        size=(pins["sampler_rows"], pins["sampler_vocab"])
    )
    rng_ref = np.random.default_rng(2)
    rng_vec = np.random.default_rng(2)
    t0 = _now()
    for _ in range(pins["sampler_iters"]):
        ref_tokens = sample_tokens_reference(logits, rng_ref)
    ref_time = _now() - t0
    t0 = _now()
    for _ in range(pins["sampler_iters"]):
        vec_tokens = sample_tokens(logits, rng_vec)
    vec_time = _now() - t0
    bit_exact = bool(np.array_equal(ref_tokens, vec_tokens))

    metrics = {
        "tokens": _metric("exact", tokens),
        "sampler_bit_exact": _metric("exact", bit_exact),
        "wall_seconds": _metric("wall", wall),
        "tokens_per_second": _metric("info", tokens / max(wall, 1e-9)),
        "sampler_speedup": _metric(
            "min", ref_time / max(vec_time, 1e-9), floor=1.2
        ),
    }
    return pins, metrics


def bench_serving_drain() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Continuous-batching drain, batched decode A/B'd against per-slot."""
    from repro.models.tinylm import TinyLM, TinyLMConfig
    from repro.serving import RolloutServer, ServingConfig

    pins = {
        "n_layers": 2,
        "hidden_size": 32,
        "n_heads": 4,
        "ffn_hidden_size": 48,
        "vocab_size": 32,
        "max_seq_len": 64,
        "n_requests": 12,
        "prompt_length": 4,
        "max_new_tokens": 16,
        "max_slots": 4,
        "seed": 0,
    }
    cfg = TinyLMConfig(
        n_layers=pins["n_layers"],
        hidden_size=pins["hidden_size"],
        n_heads=pins["n_heads"],
        ffn_hidden_size=pins["ffn_hidden_size"],
        vocab_size=pins["vocab_size"],
        max_seq_len=pins["max_seq_len"],
    )
    model = TinyLM(cfg, seed=pins["seed"])
    prompt_rng = np.random.default_rng(pins["seed"])
    prompts = prompt_rng.integers(
        0, cfg.vocab_size, size=(pins["n_requests"], pins["prompt_length"])
    )

    def drain(batched: bool):
        server = RolloutServer(
            model,
            ServingConfig(
                max_slots=pins["max_slots"],
                seed=pins["seed"],
                batched_decode=batched,
            ),
        )
        for i in range(pins["n_requests"]):
            server.submit(prompts[i], max_new_tokens=pins["max_new_tokens"])
        return server.drain()

    # equal prompt lengths, no EOS: every step's runners share one KV
    # length, so the batched forward carries no padding at all
    batched_wall = _time_best(lambda: drain(batched=True))
    per_slot_wall = _time_best(lambda: drain(batched=False))
    report = drain(batched=True)
    baseline = drain(batched=False)
    outputs_equal = all(
        np.array_equal(a.response, b.response)
        for a, b in zip(report.completed, baseline.completed)
    )

    metrics = {
        "n_steps": _metric("exact", report.n_steps),
        "total_tokens": _metric("exact", report.total_tokens),
        "n_preemptions": _metric("exact", report.n_preemptions),
        "batched_equals_per_slot": _metric("exact", outputs_equal),
        "wall_seconds": _metric("wall", batched_wall),
        "tokens_per_second": _metric(
            "info", report.total_tokens / max(batched_wall, 1e-9)
        ),
        "decode_speedup": _metric(
            "min", per_slot_wall / max(batched_wall, 1e-9), floor=1.1
        ),
    }
    return pins, metrics


def bench_serving_drain_ragged() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Production-shaped drain: ragged prompts, one decode forward per step.

    Hundreds of requests with prompts of different lengths keep the slots'
    KV lengths ragged on every step, so the batched engine's one forward
    spans padded rows.  Greedy output must equal the per-slot oracle token
    for token; the log-prob gap the padding's reordered sums leave is
    recorded, not compared.
    """
    from repro.models.tinylm import TinyLM, TinyLMConfig
    from repro.serving import RolloutServer, ServingConfig

    pins = {
        "n_layers": 2,
        "hidden_size": 32,
        "n_heads": 4,
        "ffn_hidden_size": 48,
        "vocab_size": 32,
        "max_seq_len": 64,
        "n_requests": 256,
        "min_prompt_length": 2,
        "max_prompt_length": 11,
        "max_new_tokens": 16,
        "max_slots": 64,
        "seed": 0,
    }
    cfg = TinyLMConfig(
        n_layers=pins["n_layers"],
        hidden_size=pins["hidden_size"],
        n_heads=pins["n_heads"],
        ffn_hidden_size=pins["ffn_hidden_size"],
        vocab_size=pins["vocab_size"],
        max_seq_len=pins["max_seq_len"],
    )
    model = TinyLM(cfg, seed=pins["seed"])
    prompt_rng = np.random.default_rng(pins["seed"])
    lengths = prompt_rng.integers(
        pins["min_prompt_length"],
        pins["max_prompt_length"] + 1,
        size=pins["n_requests"],
    )
    prompts = [prompt_rng.integers(0, cfg.vocab_size, size=n) for n in lengths]

    def drain(batched: bool):
        server = RolloutServer(
            model,
            ServingConfig(
                max_slots=pins["max_slots"],
                seed=pins["seed"],
                greedy=True,
                batched_decode=batched,
            ),
        )
        for prompt in prompts:
            server.submit(prompt, max_new_tokens=pins["max_new_tokens"])
        return server.drain()

    batched_wall = _time_best(lambda: drain(batched=True), repeats=2)
    per_slot_wall = _time_best(lambda: drain(batched=False), repeats=2)
    report = drain(batched=True)
    baseline = drain(batched=False)
    pairs = list(zip(report.completed, baseline.completed))
    outputs_equal = all(np.array_equal(a.response, b.response) for a, b in pairs)
    max_logp_gap = max(
        float(np.abs(a.log_probs - b.log_probs).max()) for a, b in pairs
    )

    metrics = {
        "n_steps": _metric("exact", report.n_steps),
        "total_tokens": _metric("exact", report.total_tokens),
        "greedy_equals_per_slot": _metric("exact", outputs_equal),
        "max_abs_logp_gap": _metric("info", max_logp_gap),
        "wall_seconds": _metric("wall", batched_wall),
        "tokens_per_second": _metric(
            "info", report.total_tokens / max(batched_wall, 1e-9)
        ),
        "decode_speedup": _metric(
            "min", per_slot_wall / max(batched_wall, 1e-9), floor=2.0
        ),
    }
    return pins, metrics


def bench_ppo_iteration() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One full PPO iteration through the single-controller dispatch path."""
    from repro.config import ClusterSpec
    from repro.data import PromptDataset
    from repro.runtime.presets import tiny_ppo

    pins = {
        "algo": "ppo",
        "n_iterations": 1,
        "batch_size": 8,
        "max_new_tokens": 6,
        "prompt_length": 4,
        "seed": 7,
    }
    system = tiny_ppo(ClusterSpec(n_machines=1, gpus_per_machine=4))
    dataset = PromptDataset(
        n_prompts=32, prompt_length=pins["prompt_length"], vocab_size=16, seed=1
    )

    t0 = _now()
    system.trainer.train(
        dataset, n_iterations=pins["n_iterations"], batch_size=pins["batch_size"]
    )
    wall = _now() - t0
    dispatch_calls = int(
        system.controller.metrics.total("repro_dispatch_calls_total")
    )

    metrics = {
        # the dataflow's structure: how many remote calls one iteration
        # dispatches is a property of the algorithm graph, not the floats
        "dispatch_calls": _metric("exact", dispatch_calls),
        "iterations": _metric("exact", pins["n_iterations"]),
        "wall_seconds": _metric("wall", wall),
        "simulated_seconds": _metric("info", float(system.controller.clock.now)),
    }
    return pins, metrics


def bench_train_gen_transition() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Two 3D-HybridEngine transition cycles, plan/group caches observed."""
    from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig
    from repro.hybrid_engine import (
        HybridEngine3D,
        clear_plan_cache,
        plan_cache_stats,
        plan_transition,
    )
    from repro.models.tinylm import TinyLMConfig
    from repro.single_controller import SingleController, WorkerGroup
    from repro.workers import ActorWorker

    pins = {
        "n_layers": 4,
        "hidden_size": 32,
        "n_heads": 4,
        "ffn_hidden_size": 48,
        "vocab_size": 16,
        "max_seq_len": 32,
        "pp": 1,
        "tp": 4,
        "dp": 2,
        "gen_tp": 2,
        "gen_pp": 1,
        "cycles": 2,
    }
    cfg = TinyLMConfig(
        n_layers=pins["n_layers"],
        hidden_size=pins["hidden_size"],
        n_heads=pins["n_heads"],
        ffn_hidden_size=pins["ffn_hidden_size"],
        vocab_size=pins["vocab_size"],
        max_seq_len=pins["max_seq_len"],
    )
    parallel = ParallelConfig(pp=pins["pp"], tp=pins["tp"], dp=pins["dp"])
    controller = SingleController(ClusterSpec(n_machines=2))
    pool = controller.create_pool(parallel.world_size)
    group = WorkerGroup(
        ActorWorker,
        pool,
        parallel_config=parallel,
        gen_config=GenParallelConfig.derive(parallel, pins["gen_pp"], pins["gen_tp"]),
        controller=controller,
        name="actor",
        worker_kwargs={"model_config": cfg},
    )
    engine = HybridEngine3D(group)

    clear_plan_cache()
    t0 = _now()
    for _ in range(pins["cycles"]):
        plan_transition(group.gen_topology)
        engine.to_generation()
        engine.to_training()
    wall = _now() - t0
    plan_stats = plan_cache_stats()
    group_stats = group.gen_topology.group_cache.stats()
    comm_bytes = int(controller.meter.total_bytes())

    metrics = {
        # collective bytes are a function of shard shapes — Table 2 algebra,
        # identical on every platform
        "comm_bytes": _metric("exact", comm_bytes),
        "plan_cache_hits": _metric("exact", plan_stats["hits"]),
        "plan_cache_misses": _metric("exact", plan_stats["misses"]),
        "group_cache_hits_min": _metric(
            "min", group_stats["hits"], floor=1
        ),
        "wall_seconds": _metric("wall", wall),
        "group_cache_size": _metric("info", group_stats["size"]),
    }
    return pins, metrics


def bench_async_ppo_overlap() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One-step-off async pipeline vs the synchronous loop, same workload.

    Three runs of the same pinned workload: the synchronous trainer, the
    async driver with ``staleness_window=0`` (must be bit-exact with the
    first — the structural guarantee), and the async driver with
    ``staleness_window=1``.  The overlap win is measured on the modeled
    execution timeline (simulated seconds, deterministic on every host);
    the floor pins the bubble collapse so it can never silently regress.
    """
    from repro.data import PromptDataset
    from repro.pipeline import (
        AsyncPipelineDriver,
        PipelineConfig,
        staleness_zero_check,
    )
    from repro.runtime.presets import disaggregated_ppo
    from repro.runtime.timeline import build_timeline

    pins = {
        "algo": "ppo",
        "n_iterations": 4,
        "batch_size": 4,
        "prompt_length": 4,
        "max_new_tokens": 6,
        "staleness_window": 1,
        "seed": 7,
        "placement": "actor@actor[2gpu,tp2] critic+reference+reward@scorer",
    }

    def dataset() -> PromptDataset:
        return PromptDataset(
            n_prompts=32,
            prompt_length=pins["prompt_length"],
            vocab_size=16,
            seed=1,
        )

    sync_sys, staleness0_bit_exact = staleness_zero_check(
        disaggregated_ppo, dataset, pins["n_iterations"], pins["batch_size"]
    )
    sync_makespan = build_timeline(sync_sys.controller).makespan

    async_sys = disaggregated_ppo()
    driver = AsyncPipelineDriver(
        async_sys.trainer,
        PipelineConfig(staleness_window=pins["staleness_window"]),
    )
    t0 = _now()
    driver.train(
        dataset(),
        n_iterations=pins["n_iterations"],
        batch_size=pins["batch_size"],
    )
    wall = _now() - t0
    async_makespan = build_timeline(async_sys.controller).makespan
    report = driver.report()

    metrics = {
        # schedule structure: staleness tags, buffer pressure, publication
        # bytes are functions of the dataflow and shard shapes, not floats
        "staleness0_bit_exact": _metric("exact", bool(staleness0_bit_exact)),
        "max_staleness": _metric("exact", report["max_staleness_seen"]),
        "buffer_peak_occupancy": _metric(
            "exact", report["buffer_peak_occupancy"]
        ),
        "publications": _metric("exact", report["publications"]),
        "published_bytes": _metric("exact", report["published_bytes"]),
        "overlap_speedup": _metric(
            "min", sync_makespan / max(async_makespan, 1e-9), floor=1.1
        ),
        "wall_seconds": _metric("wall", wall),
        "sync_makespan": _metric("info", float(sync_makespan)),
        "async_makespan": _metric("info", float(async_makespan)),
    }
    return pins, metrics


def bench_shape_check() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The SF7xx symbolic shape pass over every shipped algorithm graph.

    The pass runs in CI (``repro check --shapes``), so its wall time is a
    budget worth watching: the abstract interpretation is pure Python over
    symbolic dims and must stay cheap relative to the real workloads it
    guards.  Zero findings on the shipped graphs is pinned as an exact
    metric — the clean-run guarantee the seeded-mutant tests depend on.
    """
    from repro.analysis import shipped_graph_reports

    pins = {"batch": 8}

    def run() -> int:
        return sum(
            len(report.findings)
            for _name, report in shipped_graph_reports(batch=pins["batch"])
        )

    findings = run()
    wall = _time_best(run)
    reports = shipped_graph_reports(batch=pins["batch"])
    checked = sum(
        sum(report.checked.values()) for _name, report in reports
    )
    metrics = {
        "findings": _metric("exact", findings),
        "graphs": _metric("exact", len(reports)),
        "facts_checked": _metric("exact", checked),
        "wall_seconds": _metric("wall", wall),
        "shape_pass_seconds": _metric("info", wall),
    }
    return pins, metrics


WORKLOADS: Dict[str, Callable[[], Tuple[Dict[str, Any], Dict[str, Any]]]] = {
    "sequential_generate": bench_sequential_generate,
    "serving_drain": bench_serving_drain,
    "serving_drain_ragged": bench_serving_drain_ragged,
    "ppo_iteration": bench_ppo_iteration,
    "train_gen_transition": bench_train_gen_transition,
    "async_ppo_overlap": bench_async_ppo_overlap,
    "shape_check": bench_shape_check,
}


def run_bench(names: Optional[List[str]] = None) -> Dict[str, Any]:
    """Run the pinned workloads; returns the ``BENCH_perf.json`` record."""
    if names is None:
        names = list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise ValueError(
            f"unknown workload(s) {unknown}; have {sorted(WORKLOADS)}"
        )
    record: Dict[str, Any] = {
        "schema": SCHEMA,
        "suite": SUITE,
        "workloads": {},
    }
    for name in names:
        pins, metrics = WORKLOADS[name]()
        record["workloads"][name] = {"pins": pins, "metrics": metrics}
    return record


# -- comparison ----------------------------------------------------------------------


def _check_min_metrics(record: Dict[str, Any]) -> List[str]:
    """Floor violations of a record's own ``min`` metrics (self-contained)."""
    problems = []
    for wname, workload in record.get("workloads", {}).items():
        for mname, metric in workload.get("metrics", {}).items():
            if metric.get("kind") != "min":
                continue
            floor = metric.get("floor")
            value = metric.get("value")
            if floor is None:
                problems.append(f"{wname}.{mname}: min metric has no floor")
            elif value < floor:
                problems.append(
                    f"{wname}.{mname}: {value:.3f} below its pinned floor "
                    f"{floor}"
                )
    return problems


def compare_records(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    wall_factor: float = WALL_FACTOR,
    wall_floor: float = WALL_FLOOR,
) -> List[str]:
    """Regressions of ``current`` against the committed ``baseline``.

    Returns human-readable problem strings; empty means the gate passes.
    Pin or workload-set drift is reported as a problem too — the fix is an
    explicit re-baseline, never a silent one.
    """
    problems: List[str] = []
    if current.get("suite") != baseline.get("suite") or current.get(
        "schema"
    ) != baseline.get("schema"):
        problems.append(
            f"record identity mismatch: current "
            f"({current.get('suite')}, schema {current.get('schema')}) vs "
            f"baseline ({baseline.get('suite')}, schema {baseline.get('schema')})"
        )
        return problems
    cur_wl = current.get("workloads", {})
    base_wl = baseline.get("workloads", {})
    for name in sorted(set(base_wl) - set(cur_wl)):
        problems.append(f"workload {name!r} in baseline but not in this run")
    for name in sorted(set(cur_wl) - set(base_wl)):
        problems.append(
            f"workload {name!r} not in baseline — re-baseline with "
            "'repro bench --update'"
        )
    problems.extend(_check_min_metrics(current))
    for name in sorted(set(cur_wl) & set(base_wl)):
        cur, base = cur_wl[name], base_wl[name]
        if cur.get("pins") != base.get("pins"):
            problems.append(
                f"{name}: workload pins changed — re-baseline with "
                f"'repro bench --update' (current {cur.get('pins')} vs "
                f"baseline {base.get('pins')})"
            )
            continue
        cur_m, base_m = cur.get("metrics", {}), base.get("metrics", {})
        for mname in sorted(set(base_m) | set(cur_m)):
            if mname not in cur_m or mname not in base_m:
                problems.append(
                    f"{name}.{mname}: present in only one record — re-baseline"
                )
                continue
            cm, bm = cur_m[mname], base_m[mname]
            if cm.get("kind") != bm.get("kind"):
                problems.append(
                    f"{name}.{mname}: metric kind changed "
                    f"({bm.get('kind')} -> {cm.get('kind')}) — re-baseline"
                )
                continue
            kind = cm.get("kind")
            if kind == "exact" and cm["value"] != bm["value"]:
                problems.append(
                    f"{name}.{mname}: {cm['value']!r} != baseline "
                    f"{bm['value']!r}"
                )
            elif kind == "wall":
                limit = bm["value"] * wall_factor + wall_floor
                if cm["value"] > limit:
                    problems.append(
                        f"{name}.{mname}: {cm['value']:.3f}s exceeds "
                        f"{limit:.3f}s (baseline {bm['value']:.3f}s x "
                        f"{wall_factor:g} + {wall_floor:g}s)"
                    )
            elif kind == "min" and cm.get("floor") != bm.get("floor"):
                problems.append(
                    f"{name}.{mname}: pinned floor changed "
                    f"({bm.get('floor')} -> {cm.get('floor')}) — re-baseline"
                )
    return problems


def compare_fleet_records(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> List[str]:
    """Trajectory check for ``repro fleet --bench-out`` records.

    The fleet record mixes structural facts (job/cluster shape, kill
    count) with outcome flags; only those are compared — goodput magnitudes
    are host-speed-free but schedule-derived, so they are required positive
    rather than equal.
    """
    problems: List[str] = []
    for field in ("benchmark", "jobs", "cluster_gpus", "devices_killed"):
        if current.get(field) != baseline.get(field):
            problems.append(
                f"{field}: {current.get(field)!r} != baseline "
                f"{baseline.get(field)!r} — re-baseline the fleet record"
            )
    for flag in ("all_completed", "ok"):
        if not current.get(flag):
            problems.append(f"{flag} is false in the current fleet run")
    if not current.get("goodput_mean", 0) > 0:
        problems.append("goodput_mean is not positive in the current fleet run")
    findings = current.get("analysis_findings") or {}
    if any(findings.values()):
        problems.append(f"fleet analysis gate found issues: {findings}")
    return problems


def summary_lines(record: Dict[str, Any]) -> List[str]:
    """Human-readable rendering of a bench record."""
    lines: List[str] = []
    for name, workload in record.get("workloads", {}).items():
        lines.append(f"{name}:")
        for mname, metric in workload.get("metrics", {}).items():
            value = metric["value"]
            if isinstance(value, float):
                shown = f"{value:.4f}"
            else:
                shown = repr(value)
            suffix = ""
            if metric["kind"] == "min":
                suffix = f" (floor {metric.get('floor')})"
            lines.append(f"  {mname:24s} [{metric['kind']}] {shown}{suffix}")
    return lines
