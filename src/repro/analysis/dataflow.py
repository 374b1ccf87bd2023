"""Static pre-execution checks of a composed RLHF dataflow (§4.1, Table 3).

A misconfigured dataflow — a ``@register``-ed method whose transfer protocol
cannot run on its group's topology, a global batch the DP split does not
divide, a placement whose projected memory exceeds device capacity — fails
today deep inside an iteration, at dispatch time.  The
:class:`DataflowChecker` reports the same problems *before* any dispatch, as
findings against the declarative :class:`~repro.single_controller.protocols.
ProtocolRequires` descriptors the runtime dispatch gate itself enforces, so
the static check and the runtime behaviour can never drift.

Rules:

========  ====================================================================
``DF101``  protocol requirements vs the group's parallelism topology
``DF102``  global batch size not divisible by a protocol's split degree
``DF103``  serving / eos / pad configuration inconsistencies
``DF104``  placement's projected persistent memory exceeds device capacity
``DF105``  placement plan structure (missing roles, missing gen config)
``DF106``  plan assigns a model role the algorithm's dataflow never calls
``DF107``  GRPO group sampling misconfigured (``group_size < 2``)
``DF108``  async pipeline misconfigured (negative staleness window, an
           algorithm the off-policy correction cannot support, an actor the
           weight publisher cannot serve)
========  ====================================================================
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import ERROR, WARNING, AnalysisReport
from repro.config import (
    MODEL_SPECS,
    ClusterSpec,
    GenParallelConfig,
    ModelSpec,
    ParallelConfig,
    RlhfWorkload,
)
from repro.single_controller.decorator import registered_protocol
from repro.single_controller.protocols import get_protocol

#: Worker roles holding optimizer state (their *training* footprint is the
#: persistent one); forward-only roles persist parameters alone.
_TRAINABLE_DEFAULT = True


def registered_methods(worker_cls: type) -> List[Tuple[str, str]]:
    """``(method_name, protocol_name)`` for every ``@register``-ed method."""
    out = []
    for name in sorted(dir(worker_cls)):
        if name.startswith("_"):
            continue
        protocol = registered_protocol(getattr(worker_cls, name, None))
        if protocol is not None:
            out.append((name, protocol))
    return out


class _RoleShape:
    """The topology facts the checker needs about one model role."""

    def __init__(
        self,
        role: str,
        worker_cls: type,
        pool: str,
        world_size: int,
        parallel: Any,
        gen_config: Any = None,
        has_gen_topology: Optional[bool] = None,
        use_serving: bool = False,
    ) -> None:
        self.role = role
        self.worker_cls = worker_cls
        self.pool = pool
        self.world_size = world_size
        self.parallel = parallel
        self.gen_config = gen_config
        self.has_gen_topology = (
            has_gen_topology
            if has_gen_topology is not None
            else gen_config is not None
        )
        #: Serving-backed actors take variable-length batches; their batch
        #: divisibility is deferred to the symbolic SF703 check instead of
        #: the static DF102 one (which would be a false positive).
        self.use_serving = use_serving


class DataflowChecker:
    """Pre-execution validation of a built system or a placement plan.

    Args:
        global_batch_size: When given, every batch-splitting protocol's
            degree must divide it (``DF102``).
        model_specs: Role -> :class:`~repro.config.ModelSpec` for the memory
            projection (``DF104``); roles without a spec (tiny functional
            models, function rewards) skip the memory check.
        workload: Sequence shape for activation/KV estimates; defaults to
            :class:`~repro.config.RlhfWorkload` defaults.
        cluster_spec: Device capacity for ``DF104``.
    """

    def __init__(
        self,
        global_batch_size: Optional[int] = None,
        model_specs: Optional[Dict[str, ModelSpec]] = None,
        workload: Optional[RlhfWorkload] = None,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> None:
        self.global_batch_size = global_batch_size
        self.model_specs = model_specs or {}
        self.workload = workload or RlhfWorkload()
        self.cluster_spec = cluster_spec

    # -- entry points ----------------------------------------------------------------

    def check_system(self, system: Any) -> AnalysisReport:
        """Validate a built :class:`~repro.runtime.RlhfSystem` pre-dispatch."""
        report = AnalysisReport("dataflow")
        shapes = []
        for role, group in system.groups.items():
            shapes.append(
                _RoleShape(
                    role=role,
                    worker_cls=group.worker_cls,
                    pool=group.resource_pool.name,
                    world_size=group.world_size,
                    parallel=group.train_topology.config,
                    gen_config=(
                        group.gen_topology.config
                        if group.gen_topology is not None
                        else None
                    ),
                    has_gen_topology=group.gen_topology is not None,
                    use_serving=any(
                        getattr(w, "use_serving", False)
                        for w in group.workers
                    ),
                )
            )
        self._check_shapes(shapes, report)
        for role, group in system.groups.items():
            for worker in group.workers:
                if getattr(worker, "use_serving", False):
                    self._check_serving(role, worker, report)
                    break  # one finding per role, not per rank
        return report

    def check_plan(
        self,
        algo: Any,
        plan: Any,
        function_rewards: Sequence[str] = (),
        group_size: Optional[int] = None,
    ) -> AnalysisReport:
        """Validate an algorithm + placement plan *before* building workers.

        Covers every shipped dataflow variant (PPO, ReMax, GRPO, Safe-RLHF,
        Figure 1): role requirements differ per algorithm, and GRPO carries
        the extra group-sampling constraint.

        Args:
            function_rewards: Roles served by a non-NN
                :class:`~repro.workers.RewardFunctionWorker` (the builder's
                ``reward_fn`` / ``cost_fn`` path), which registers
                ``one_to_one`` methods instead of ``3d_proto``.
            group_size: GRPO responses sampled per prompt
                (``TrainerConfig.group_size``); its learning stage trains on
                ``global_batch_size * group_size`` sequences.  ``None``
                inherits the trainer's default.
        """
        # imported here: repro.runtime.builder imports workers, trainers and
        # the controller — the checker stays importable without that stack
        from repro.rlhf.core import AlgoType
        from repro.runtime.builder import _WORKER_CLASSES, required_models
        from repro.workers import RewardFunctionWorker

        report = AnalysisReport("dataflow")
        algo = AlgoType(algo)
        missing = [
            m for m in required_models(algo) if m not in plan.assignments
        ]
        if missing:
            report.add(
                "DF105",
                ERROR,
                f"{algo.value} needs assignments for {missing}",
                location="plan",
                hint="add the missing roles to PlacementPlan.assignments",
            )
        if (
            "actor" in plan.assignments
            and plan.assignments["actor"].gen_parallel is None
        ):
            report.add(
                "DF105",
                ERROR,
                "the actor assignment has no gen_parallel config",
                location="plan.actor",
                hint="derive one with GenParallelConfig.derive(parallel, ...)",
            )
        needed = set(required_models(algo))
        for role in sorted(plan.assignments):
            report.note_checked("roles")
            if role in _WORKER_CLASSES and role not in needed:
                report.add(
                    "DF106",
                    WARNING,
                    f"plan assigns {role!r}, but the {algo.value} dataflow "
                    "never calls it — the pool's GPUs sit idle",
                    location=f"plan.{role}",
                    hint=f"{algo.value} uses {sorted(needed)}; drop the "
                    "assignment or switch algorithms",
                )
        if algo is AlgoType.GRPO:
            if group_size is None:
                from repro.rlhf.trainers import TrainerConfig

                group_size = TrainerConfig().group_size
            # the learning stage trains on batch * group_size sequences; the
            # split-degree divisibility below already transfers (d | b ⇒
            # d | b·g), so the only extra constraint is the group itself
            report.note_checked("grpo_group_size")
            if group_size < 2:
                report.add(
                    "DF107",
                    ERROR,
                    f"GRPO group_size={group_size}: group-normalised "
                    "advantages need at least 2 samples per prompt (the "
                    "group std of a single sample is zero)",
                    location="plan",
                    hint="set TrainerConfig.group_size >= 2",
                )
        shapes = []
        for role, assignment in plan.assignments.items():
            if role in function_rewards:
                worker_cls: type = RewardFunctionWorker
            else:
                worker_cls = _WORKER_CLASSES.get(role)
            if worker_cls is None:
                continue
            shapes.append(
                _RoleShape(
                    role=role,
                    worker_cls=worker_cls,
                    pool=assignment.pool,
                    world_size=assignment.parallel.world_size,
                    parallel=assignment.parallel,
                    gen_config=assignment.gen_parallel,
                )
            )
        self._check_shapes(shapes, report)
        return report

    def check_pipeline(
        self,
        pipeline_config: Any,
        trainer_config: Any = None,
        algo: Any = None,
        actor: Any = None,
    ) -> AnalysisReport:
        """Validate an async-pipeline configuration *before* any overlap.

        The bounded-staleness loop (:mod:`repro.pipeline`) is sound only
        under specific conditions; each violation is a ``DF108`` finding:

        * a negative ``staleness_window``;
        * an algorithm without an off-policy correction path;
        * ``recompute_log_probs=False`` with a positive window (warning) —
          the anchor collapses onto the behaviour policy and every
          importance weight degenerates to 1;
        * an ``actor`` group without a generation topology — the
          :class:`~repro.hybrid_engine.publication.WeightPublisher` has no
          plan to stage weights into, so the first publish would fail at
          runtime instead of at config time;
        * a serving-backed ``actor`` (``use_serving=True``) — the
          continuous-batching engine owns its own weight lifetime and
          cannot participate in the pipeline's flip-buffer protocol.
        """
        report = AnalysisReport("dataflow")
        report.note_checked("pipeline_configs")
        window = pipeline_config.staleness_window
        location = "pipeline"
        if window < 0:
            report.add(
                "DF108",
                ERROR,
                f"staleness_window must be >= 0, got {window}",
                location=location,
                hint="0 = synchronous loop, 1 = one-step-off overlap",
            )
            return report
        if algo is not None:
            from repro.rlhf.core import AlgoType

            algo = AlgoType(algo)
            if algo not in (AlgoType.PPO, AlgoType.GRPO):
                report.add(
                    "DF108",
                    ERROR,
                    f"{algo.value} has no off-policy correction path in the "
                    "async pipeline (PPO and GRPO are supported)",
                    location=location,
                    hint="run the synchronous trainer for this algorithm",
                )
        if (
            window > 0
            and trainer_config is not None
            and not trainer_config.recompute_log_probs
        ):
            report.add(
                "DF108",
                WARNING,
                "recompute_log_probs=False with a positive staleness window: "
                "the importance-weight anchor equals the behaviour policy, "
                "so every weight degenerates to 1 and stale batches are "
                "effectively uncorrected",
                location=location,
                hint="enable TrainerConfig.recompute_log_probs for async runs",
            )
        if actor is not None:
            if getattr(actor, "gen_topology", None) is None:
                report.add(
                    "DF108",
                    ERROR,
                    "actor group has no generation topology: the weight "
                    "publisher has no plan to stage published weights into",
                    location=location,
                    hint="build the actor with a generation parallel config "
                    "(gen_parallel=...) before wiring the async pipeline",
                )
            elif any(
                getattr(worker, "use_serving", False)
                for worker in getattr(actor, "workers", ())
            ):
                report.add(
                    "DF108",
                    ERROR,
                    "actor generation is serving-backed (use_serving=True): "
                    "the continuous-batching engine owns its weight "
                    "lifetime and cannot follow the pipeline's "
                    "publish/flip protocol",
                    location=location,
                    hint="disable use_serving for async-pipeline runs, or "
                    "drive the serving engine synchronously",
                )
        return report

    def check_shipped(self) -> AnalysisReport:
        """Validate the configurations the repo ships, merged.

        The tiny functional PPO placement every faults/trace/metrics
        subcommand runs (function reward on a 1-GPU pool), a full-scale
        llama-7b colocated placement with the memory projection enabled
        (App. C) — the same shape §8's evaluation clusters use — and the
        shipped async-pipeline config (DF108 soundness of the
        bounded-staleness relaxation).
        """
        from repro.pipeline import PipelineConfig
        from repro.rlhf.core import MODELS_BY_ALGO, AlgoType
        from repro.rlhf.trainers import TrainerConfig
        from repro.runtime import ModelAssignment, PlacementPlan
        from repro.runtime.presets import tiny_plan

        report = self.check_plan(
            AlgoType.PPO, tiny_plan(AlgoType.PPO), function_rewards=("reward",)
        )
        full_par = ParallelConfig(pp=1, tp=8, dp=2)
        full_plan = PlacementPlan(
            pools={"all": 16},
            assignments={
                "actor": ModelAssignment(
                    "all", full_par, GenParallelConfig.derive(full_par, 1, 2)
                ),
                "critic": ModelAssignment("all", full_par),
                "reference": ModelAssignment("all", full_par),
                "reward": ModelAssignment("all", full_par),
            },
        )
        full_scale = DataflowChecker(
            global_batch_size=1024,
            model_specs={
                role: MODEL_SPECS["llama-7b"]
                for role in MODELS_BY_ALGO[AlgoType.PPO]
            },
            cluster_spec=ClusterSpec(n_machines=2),
        )
        report.merge(full_scale.check_plan(AlgoType.PPO, full_plan))
        report.merge(
            self.check_pipeline(
                PipelineConfig(staleness_window=1),
                TrainerConfig(),
                AlgoType.PPO,
            )
        )
        return report

    # -- individual passes -----------------------------------------------------------

    def _check_shapes(
        self, shapes: List[_RoleShape], report: AnalysisReport
    ) -> None:
        for shape in shapes:
            self._check_protocols(shape, report)
        self._check_memory(shapes, report)

    def _check_protocols(
        self, shape: _RoleShape, report: AnalysisReport
    ) -> None:
        # aggregate identical problems across a role's methods into one
        # finding each, so a 4-method worker yields one precise diagnosis
        by_problem: Dict[Tuple[str, str, str, str], List[str]] = {}
        by_split: Dict[Tuple[str, int], List[str]] = {}
        for method, protocol_name in registered_methods(shape.worker_cls):
            protocol = get_protocol(protocol_name)
            report.note_checked("methods")
            for kind, severity, message in protocol.validate_shape(
                shape.world_size, shape.parallel, shape.has_gen_topology
            ):
                key = (protocol_name, kind, severity, message)
                by_problem.setdefault(key, []).append(method)
            degree = protocol.requires.split_degree(
                shape.parallel, shape.gen_config
            )
            if degree is not None and degree > 0:
                by_split.setdefault((protocol_name, degree), []).append(method)
        for (protocol_name, _kind, severity, message), methods in sorted(
            by_problem.items()
        ):
            report.add(
                "DF101",
                severity,
                f"{protocol_name} {message} "
                f"[{shape.role}: {', '.join(methods)}]",
                location=f"{shape.role}@{shape.pool} {shape.parallel}",
                hint=(
                    "pick a protocol matching the topology or reshape the "
                    "group (Table 3)"
                ),
            )
        if self.global_batch_size is not None:
            for (protocol_name, degree), methods in sorted(by_split.items()):
                if getattr(shape, "use_serving", False):
                    # serving-backed actors submit variable-length batches;
                    # a static global batch is not required — divisibility
                    # moves to the symbolic dim (shapeflow rule SF703, with
                    # a pad-up fix hint) instead of a false DF102 here
                    report.note_checked("deferred_batch_splits")
                    continue
                report.note_checked("batch_splits")
                if self.global_batch_size % degree:
                    report.add(
                        "DF102",
                        ERROR,
                        f"global batch {self.global_batch_size} is not "
                        f"divisible by the {protocol_name} split degree "
                        f"{degree} [{shape.role}: {', '.join(methods)}]",
                        location=f"{shape.role}@{shape.pool} {shape.parallel}",
                        hint=(
                            "make the batch a multiple of every DP degree "
                            "it is chunked into"
                        ),
                    )

    def _check_serving(
        self, role: str, worker: Any, report: AnalysisReport
    ) -> None:
        report.note_checked("serving_configs")
        location = f"{role}.serving"
        vocab = getattr(
            getattr(worker, "model_config", None), "vocab_size", None
        )
        eos = getattr(worker, "eos_token_id", None)
        if eos is not None and vocab is not None and not 0 <= eos < vocab:
            report.add(
                "DF103",
                ERROR,
                f"eos_token_id {eos} outside the model vocabulary "
                f"[0, {vocab})",
                location=location,
                hint="the sampler can never emit it; sequences never stop",
            )
        cfg = getattr(worker, "serving_config", None)
        if cfg is None:
            return
        if cfg.max_slots < 1:
            report.add(
                "DF103", ERROR,
                f"serving max_slots must be >= 1, got {cfg.max_slots}",
                location=location, hint="no request could ever be admitted",
            )
        if cfg.block_size < 1:
            report.add(
                "DF103", ERROR,
                f"serving block_size must be >= 1, got {cfg.block_size}",
                location=location, hint="KV pages need at least one token",
            )
        if cfg.n_blocks is not None and cfg.n_blocks < cfg.max_slots:
            report.add(
                "DF103",
                WARNING,
                f"only {cfg.n_blocks} KV blocks for {cfg.max_slots} slots; "
                "the engine will thrash on preempt-and-recompute",
                location=location,
                hint="give each admissible slot at least one block",
            )
        pad = cfg.pad_token_id
        if pad is not None and vocab is not None and not 0 <= pad < vocab:
            report.add(
                "DF103",
                ERROR,
                f"pad_token_id {pad} outside the model vocabulary [0, {vocab})",
                location=location,
                hint="padding must be a real token id",
            )
        if cfg.eos_token_id is not None and cfg.eos_token_id != eos:
            report.add(
                "DF103",
                WARNING,
                f"serving_config.eos_token_id={cfg.eos_token_id} differs from "
                f"the worker's eos_token_id={eos}; the worker's value wins "
                "per call",
                location=location,
                hint="drop the serving-config field or make them agree",
            )

    def _check_memory(
        self, shapes: List[_RoleShape], report: AnalysisReport
    ) -> None:
        """Projected per-GPU persistent memory per pool vs capacity (App. C)."""
        if self.cluster_spec is None or not self.model_specs:
            return
        from repro.perf.memory import USABLE_FRACTION, MemoryModel

        usable = self.cluster_spec.gpu.memory_bytes * USABLE_FRACTION

        by_pool: Dict[str, List[Tuple[str, float, float]]] = {}
        for shape in shapes:
            spec = self.model_specs.get(shape.role)
            if spec is None:
                continue
            model = MemoryModel(spec, self.cluster_spec)
            trainable = getattr(
                shape.worker_cls, "trainable", _TRAINABLE_DEFAULT
            )
            if trainable:
                stage = model.training(shape.parallel, self.workload)
            else:
                stage = model.inference(shape.parallel, self.workload)
            by_pool.setdefault(shape.pool, []).append(
                (shape.role, stage.persistent, stage.total - stage.persistent)
            )
        for pool, entries in sorted(by_pool.items()):
            report.note_checked("pools_projected")
            persistent = sum(p for _, p, _ in entries)
            # colocated models execute sequentially (§2.3): transient memory
            # peaks one model at a time, so the max rides on top
            transient = max(t for _, _, t in entries)
            projected = persistent + transient
            if projected > usable:
                roles = ", ".join(
                    f"{role} {p / 1e9:.1f}GB" for role, p, _ in entries
                )
                report.add(
                    "DF104",
                    ERROR,
                    f"pool {pool!r} projects {projected / 1e9:.1f} GB/GPU "
                    f"(persistent {roles} + transient "
                    f"{transient / 1e9:.1f}GB) but only "
                    f"{usable / 1e9:.1f} GB is usable",
                    location=f"pool {pool}",
                    hint=(
                        "raise the model-parallel degree, split the "
                        "colocation, or use bigger devices (§6)"
                    ),
                )
