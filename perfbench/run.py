"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload ppo_colocated --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced operations of the same
workload and reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any correctness
check failed.  ``--workload all`` runs every workload in its own fresh
process, one after another.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _environment() -> Dict[str, Any]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def _percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _timed_loop(wl, seconds: float, rec=None, op_name: str = "op") -> list:
    """Closed loop: operations back to back within ``seconds``.

    An operation starts only if one more, at the median cycle time so far,
    still ends within ``seconds``; a run then measures the same span of time
    whatever the operation's length.  With a span recorder, operations
    alternate between untraced and traced (at least one of each), so both
    kinds see the same process and system state.
    """
    from workloads import OpRecord

    records = []
    cycles: List[float] = []
    start = time.perf_counter()
    index = 0
    while len(records) < (1 if rec is None else 2) or (
        time.perf_counter() - start + _median(cycles) <= seconds
    ):
        began = time.perf_counter()
        inputs = wl.prepare(index)
        traced = rec is not None and index % 2 == 1
        if traced:
            rec.op = index
            rec.active = True
            rec.enter(op_name)
        try:
            t0 = time.perf_counter()
            result = wl.run(inputs)
            t1 = time.perf_counter()
        except Exception:  # the operation failed: count it, stop the loop
            traceback.print_exc()
            records.append(OpRecord.failure(wl.requests_per_op))
            break
        finally:
            if traced:
                rec.exit()
                rec.active = False
        record = wl.finish(inputs, result, t0, t1)
        record.traced = traced
        if traced:
            rec.requests.extend((i, t0, end, index) for i, end in record.request_ends)
        for problem in record.problems:
            print(f"[check] {wl.name} op {index}: {problem}", file=sys.stderr)
        records.append(record)
        cycles.append(time.perf_counter() - began)
        index += 1
    return records


def _end_to_end(records: list, setups: List[float]) -> Tuple[Dict[str, float], Dict[str, int]]:
    n = len(records)
    values = {
        "rlhf_tokens_per_s": _median([r.tokens / r.wall for r in records]),
        "iter_s_p50": _median([r.wall for r in records]),
        "gen_tokens_per_s": _median([r.gen_tokens / r.wall for r in records]),
        # per operation first: requests of one operation share its conditions
        "req_latency_s_p50": _median([_percentile(r.latencies, 50) for r in records]),
        "req_latency_s_p95": _median([_percentile(r.latencies, 95) for r in records]),
        "setup_s": _median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {name: n for name in values}
    samples["req_latency_s_p50"] = sum(len(r.latencies) for r in records)
    samples["req_latency_s_p95"] = samples["req_latency_s_p50"]
    samples["setup_s"] = len(setups)
    samples["peak_rss_mb"] = 1
    return values, samples


def _per_layer(
    records: list, untraced: list, rec, op_name: str
) -> Tuple[Dict[str, float], Dict[str, int]]:
    n = len(records)
    own = rec.self_seconds()
    counts = rec.counts
    calls = rec.span_counts()

    def per_op(*prefixes: str) -> float:
        return sum(v for k, v in own.items() if k.startswith(prefixes)) / n

    reports = rec.serving_reports
    steps = counts.get("serving.steps", 0)
    slot_steps = sum(r.n_steps * slots for r, slots in reports)
    op_total = sum(e - s for _id, name, s, e, *_ in rec.spans if name == op_name)
    values = {
        "single_controller.dispatches": _median([r.dispatches for r in records]),
        "single_controller.overhead_s": per_op("single_controller.dispatch"),
        "single_controller.distribute_s": per_op("single_controller.distribute"),
        "single_controller.collect_s": per_op("single_controller.collect"),
        "hybrid_engine.to_generation_s": per_op("hybrid_engine.to_generation"),
        "hybrid_engine.materialize_s": per_op("hybrid_engine.materialize"),
        "hybrid_engine.to_training_s": per_op("hybrid_engine.to_training"),
        "hybrid_engine.transitions": (
            calls.get("hybrid_engine.to_generation", 0)
            + calls.get("hybrid_engine.to_training", 0)
        ) / n,
        "comm.bytes_per_iter": _median([r.comm_bytes for r in records]),
        "workers.generation_s": per_op("workers.generation."),
        "workers.preparation_s": per_op("workers.preparation."),
        "workers.training_s": per_op("workers.training."),
        "models.forward_infer_s": per_op("models.forward_infer"),
        "models.forward_train_s": per_op("models.forward_train"),
        "models.backward_s": per_op("models.backward"),
        "models.adam_s": per_op("models.adam"),
        "models.sample_s": per_op("models.sample"),
        "models.forward_calls": counts.get("models.forward_calls", 0) / n,
        "models.tensors_created": counts.get("models.tensors_created", 0) / n,
        "serving.steps": steps / n,
        "serving.step_s": per_op("serving.step"),
        "serving.schedule_s": per_op("serving.schedule"),
        "serving.forwards_per_step": counts.get("serving.forward_calls", 0) / max(steps, 1),
        "serving.slot_utilisation": sum(
            r.slot_utilisation * r.n_steps * slots for r, slots in reports
        ) / max(slot_steps, 1),
        "serving.preemptions": sum(r.n_preemptions for r, _ in reports) / n,
        "serving.recomputed_tokens": sum(r.recomputed_tokens for r, _ in reports) / n,
        "serving.peak_kv_blocks": max((r.peak_kv_blocks for r, _ in reports), default=0),
        "serving.useful_token_frac": sum(r.total_tokens for r, _ in reports)
        / max(counts.get("serving.forward_positions", 0), 1),
        "rlhf.advantage_s": per_op("rlhf.advantage"),
        "rlhf.response_fill_frac": sum(r.gen_tokens for r in records)
        / sum(r.response_slots for r in records),
        "runtime.sim_iter_s": _median([r.sim_s for r in records]),
        "runtime.sim_idle_frac": _median([r.sim_idle_frac for r in records]),
        "trace.coverage_frac": 1.0 - own.get(op_name, 0.0) / op_total,
        "trace.overhead_frac": _median([r.wall for r in records])
        / _median([r.wall for r in untraced])
        - 1.0,
    }
    samples = {name: n for name in values}
    samples["trace.overhead_frac"] = min(n, len(untraced))
    return values, samples


def _completed(records: list) -> list:
    """The operations that ran to the end; metrics describe only these."""
    done = [r for r in records if not r.raised]
    if not done:
        raise RuntimeError("no operation completed; nothing to measure")
    return done


def _setup(name: str, size: str, seed: int, reward_fn=None):
    from workloads import make_workload

    wl = make_workload(name, size, seed, reward_fn=reward_fn)
    wl.build()
    wl.warm_up()
    return wl


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    reward_fn=None,
) -> Dict[str, Any]:
    """Set up, measure and check one workload in this process.

    Returns the result object (``correct``/``attempted``/``failed``/
    ``metrics``) plus ``samples`` (sample count per metric), ``op_seconds``
    (wall of each timed operation), ``problems`` and, for a traced run, the
    span recorder under ``recorder``.
    """
    spec = _spec()
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    op_name = "drain" if name == "rollout_ragged_drain" else "iteration"
    rec = None
    if not trace:
        setups = []
        wl = None
        for _ in range(SETUP_REPEATS):
            wl = None
            gc.collect()
            t0 = time.perf_counter()
            wl = _setup(name, size, seed, reward_fn)
            setups.append(time.perf_counter() - t0)
        records = _timed_loop(wl, seconds)
        values, samples = _end_to_end(_completed(records), setups)
    else:
        from tracer import Shims, SpanRecorder

        rec = SpanRecorder()
        # shims go in before the system is built, so every worker method
        # binds to its shim; they only record while an operation is traced
        with Shims(rec):
            wl = _setup(name, size, seed, reward_fn)
            records = _timed_loop(wl, seconds, rec, op_name)
        values, samples = _per_layer(
            _completed([r for r in records if r.traced]),
            _completed([r for r in records if not r.traced]),
            rec, op_name,
        )
    extra = wl.final_check()
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json"
        )
    attempted = sum(r.attempted for r in records) + extra[0]
    failed = sum(r.failed for r in records) + extra[1]
    problems = [p for r in records for p in r.problems] + extra[2]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "samples": samples,
        "op_seconds": [r.wall for r in _completed(records)],
        "problems": problems,
        "recorder": rec,
    }


def _run_one(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    import repro

    if not pathlib.Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    env = _environment()
    rec = result.pop("recorder")
    samples = result.pop("samples")
    problems = result.pop("problems")
    op_seconds = result.pop("op_seconds")
    attempted, failed = result["attempted"], result["failed"]
    for name, metric in result["metrics"].items():
        print(
            f"{args.workload:22s} {name:32s} {metric['value']:>16.6g} "
            f"{metric['unit']:10s} n={samples[name]}"
        )
    print(f"{args.workload:22s} {'failed_frac':32s} {failed / attempted:>16.6g} "
          f"{'ratio':10s} n={attempted}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {**result, "samples": samples, "failed_frac": failed / attempted,
             "problems": problems, "environment": env, "op_seconds": op_seconds,
             "seconds": args.seconds, "seed": args.seed},
            fh, indent=1, sort_keys=True,
        )
    if rec is not None:
        rec.write_chrome_trace(str(OUT_DIR / f"{stem}.trace.json"))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh child process, one at a time."""
    results = {}
    status = 0
    for workload in _workload_names():
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[workload] = json.loads(lines[-1]) if lines else None
        status = status or child.returncode or int(not lines)
    print(json.dumps(results))
    return status


def _workload_names() -> List[str]:
    return [w["name"] for w in _spec()["workloads"]]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # before numpy is imported: one BLAS/OpenMP thread per process
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in _workload_names():
        parser.error(f"unknown workload {args.workload!r}")
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
