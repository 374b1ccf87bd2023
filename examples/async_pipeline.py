"""One-step-off RLHF: rollout t+1 overlaps training of t (repro.pipeline).

The synchronous PPO loop serializes generation -> scoring -> update, so the
actor's devices idle while the scorer pool runs and vice versa.  The
:class:`repro.pipeline.AsyncPipelineDriver` relaxes the dataflow by a
bounded staleness window *W*: while the trainer consumes iteration *t*, the
rollout engine already generates *t+1* on the last *published* policy.
Every sequence carries its behaviour policy's version tag, and stale
batches are corrected with truncated importance weights inside the PPO
loss.

Three guarantees, demonstrated end to end below:

1. ``staleness_window=0`` is **bit-exact** with the synchronous trainer —
   the relaxation is opt-in, never silent.
2. ``staleness_window=1`` collapses the generation<->training bubble on the
   modeled timeline (the speedup is printed, and pinned in the
   ``async_ppo_overlap`` bench workload).
3. The overlapped schedule is **provably race-free**: weight publication
   uses double-buffered version snapshots, and the vector-clock race
   detector (RC5xx) passes over the exported trace.

Run:  python examples/async_pipeline.py
      python examples/async_pipeline.py --staleness 2 --trace async.json
"""

import argparse

from repro.data import PromptDataset
from repro.pipeline import (
    AsyncPipelineDriver,
    PipelineConfig,
    staleness_zero_check,
)
from repro.runtime.presets import disaggregated_ppo
from repro.runtime.timeline import build_timeline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--staleness", type=int, default=1, help="staleness window W"
    )
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--batch", type=int, default=4)
    parser.add_argument(
        "--stream",
        action="store_true",
        help="score with the frozen models at rollout time (same numerics)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace and run the RC5xx race detector on it",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write the run's metrics as Prometheus text",
    )
    args = parser.parse_args(argv)

    def dataset() -> PromptDataset:
        return PromptDataset(
            n_prompts=64, prompt_length=4, vocab_size=16, seed=1
        )

    # ---- stages 1+2: the synchronous reference, and W=0 bit for bit --------
    # (actor alone on its pool, critic/reference/reward on a scorer pool)
    print(f"stages 1+2: synchronous PPO vs an EMPTY window (W=0), "
          f"{args.iterations} iterations each")
    sync_sys, bit_exact = staleness_zero_check(
        disaggregated_ppo, dataset, args.iterations, args.batch
    )
    sync_makespan = build_timeline(sync_sys.controller).makespan
    print(f"  synchronous modeled makespan {sync_makespan:.1f}s")
    if not bit_exact:
        print("  BIT-EXACTNESS VIOLATED — the relaxation leaked into W=0")
        return 1
    print("  W=0 is bit-exact with the synchronous trainer (weights + optimizer)")

    # ---- stage 3: the overlapped schedule ----------------------------------
    print(f"stage 3: one-step-off overlap (W={args.staleness})")
    async_sys = disaggregated_ppo()
    driver = AsyncPipelineDriver(
        async_sys.trainer,
        PipelineConfig(
            staleness_window=args.staleness, stream_scoring=args.stream
        ),
    )
    history = driver.train(dataset(), args.iterations, args.batch)
    timeline = build_timeline(async_sys.controller)
    report = driver.report()
    print(
        f"  max staleness seen {report['max_staleness_seen']} "
        f"(window {report['staleness_window']}), buffer peak "
        f"{report['buffer_peak_occupancy']}/{report['buffer_capacity']}"
    )
    print(
        f"  {report['publications']} weight publications, "
        f"{report['published_bytes']} bytes via the train->gen plan"
    )
    if args.staleness > 0:
        stale = [h for h in history if "pipeline/staleness" in h]
        print(
            f"  {len(stale)}/{len(history)} iterations trained on stale "
            "experience (importance-weight corrected)"
        )
    speedup = sync_makespan / max(timeline.makespan, 1e-9)
    print(
        f"  modeled makespan {timeline.makespan:.1f}s "
        f"(speedup {speedup:.3f}x over synchronous)"
    )
    for pool in timeline.pools():
        print(
            f"    pool {pool:8s} idle "
            f"{timeline.idle_fraction(pool) * 100:5.1f}%"
        )

    exit_code = 0
    if args.trace:
        from repro.analysis import RaceDetector, TraceAuditor
        from repro.observability import write_chrome_trace

        out = write_chrome_trace(
            args.trace,
            timeline=timeline,
            spans=async_sys.controller.tracer.spans,
        )
        print(f"  wrote Chrome trace to {out} (load in chrome://tracing)")
        audit = TraceAuditor().audit_system(async_sys)
        RaceDetector().detect_system(async_sys, report=audit)
        for line in audit.summary_lines():
            print(f"  {line}")
        races = [f for f in audit.findings if f.rule.startswith("RC")]
        if races:
            print(f"  RACE DETECTED: {len(races)} RC5xx finding(s)")
            exit_code = 1
        else:
            print("  race detector: the overlapped schedule is clean")
    if args.metrics:
        from repro.observability import collect_system_metrics, write_prometheus

        collect_system_metrics(async_sys.controller)
        out = write_prometheus(args.metrics, async_sys.controller.metrics)
        print(f"  wrote Prometheus metrics to {out}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
