"""ShardingVerifier: static proofs of the resharding geometry (rules SH4xx).

The 3D-HybridEngine's correctness rests on interval arithmetic over the
(layer, tensor) unit square (§5.3, Eq. 1–2): training shards must partition
the parameter space, and the train→generation gather plan must cover every
rank's generation shard from exactly the owning ranks.  This pass proves
both properties by an exhaustive *boundary-refinement sweep*: collect every
rectangle boundary, cut the unit square into cells no shard straddles, and
count owners per cell.  The sweep is deliberately independent of the
closed-form fractions in :mod:`repro.parallel.sharding`
(``shard_overlap_fraction`` / ``redundant_fraction`` /
``peak_param_fraction``) so the two derivations cross-check each other.

All arithmetic is exact (:class:`fractions.Fraction`); there are no
tolerances and therefore no false positives from rounding.

Rules:

* ``SH401`` — a DP replica's training shards do not partition the unit
  square (a gap or double-ownership).
* ``SH402`` — a transition plan leaves part of a rank's generation shard
  uncovered, or ships a tile its source rank does not own.
* ``SH403`` — a transition plan gathers redundant bytes under the
  zero-redundancy grouping, or the closed-form overlap/redundancy algebra
  disagrees with the interval sweep.
* ``SH404`` — a collective group family is not a true partition of the
  pool's ranks.
* ``SH405`` — a ZeRO/FSDP config is inconsistent with the device-mapping
  memory projection (wrong DP degree, state that cannot fit, or a drifted
  FSDP↔ZeRO mapping).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.report import ERROR, AnalysisReport
from repro.comm.groups import ProcessGroup, partition_problems
from repro.config import (
    MODEL_SPECS,
    ClusterSpec,
    GenParallelConfig,
    ParallelConfig,
)
from repro.parallel.fsdp import (
    FsdpConfig,
    fsdp_grad_sync_volume,
    fsdp_memory_per_rank,
    fsdp_param_gather_volume,
)
from repro.parallel.sharding import (
    ShardRange,
    WeightShard,
    generation_shard,
    peak_param_fraction,
    redundant_fraction,
    shard_overlap_fraction,
    training_shard,
)
from repro.parallel.topology import GenGroupingMode, GenTopology, ParallelTopology
from repro.parallel.zero import (
    ZeroConfig,
    ZeroStage,
    zero_grad_sync_volume,
    zero_memory_per_rank,
    zero_param_gather_volume,
)

UNIT_SQUARE = WeightShard(
    layers=ShardRange(Fraction(0), Fraction(1)),
    tensor=ShardRange(Fraction(0), Fraction(1)),
)


# -- interval sweep --------------------------------------------------------------------


def sweep_cells(
    shards: Sequence[WeightShard],
) -> Iterator[Tuple[WeightShard, List[int]]]:
    """Cut the unit square along every shard boundary; yield (cell, owners).

    The refinement guarantees no cell straddles a shard edge, so per-cell
    ownership is a plain containment test and the per-cell owner counts are
    exact — the sweep enumerates the whole square, including cells no shard
    covers.
    """
    layer_cuts = sorted(
        {Fraction(0), Fraction(1)}
        | {s.layers.start for s in shards}
        | {s.layers.stop for s in shards}
    )
    tensor_cuts = sorted(
        {Fraction(0), Fraction(1)}
        | {s.tensor.start for s in shards}
        | {s.tensor.stop for s in shards}
    )
    for l0, l1 in zip(layer_cuts, layer_cuts[1:]):
        for t0, t1 in zip(tensor_cuts, tensor_cuts[1:]):
            cell = WeightShard(ShardRange(l0, l1), ShardRange(t0, t1))
            owners = [i for i, s in enumerate(shards) if s.contains(cell)]
            yield cell, owners


def sweep_overlap_fraction(a: WeightShard, b: WeightShard) -> Fraction:
    """Area shared by two rectangles, computed by the sweep (not min/max)."""
    total = Fraction(0)
    for cell, owners in sweep_cells([a, b]):
        if len(owners) == 2:
            total += cell.fraction
    return total


def sweep_difference_fraction(a: WeightShard, b: WeightShard) -> Fraction:
    """Area of ``a`` not covered by ``b``, by the sweep."""
    total = Fraction(0)
    for cell, owners in sweep_cells([a, b]):
        if owners == [0]:
            total += cell.fraction
    return total


def sweep_union_fraction(shards: Sequence[WeightShard]) -> Fraction:
    """Area covered by at least one rectangle, by the sweep."""
    total = Fraction(0)
    for cell, owners in sweep_cells(list(shards)):
        if owners:
            total += cell.fraction
    return total


# -- the verifier ----------------------------------------------------------------------


class ShardingVerifier:
    """Prove (or refute) a topology pair's resharding plan rank by rank."""

    def verify_topology(
        self,
        topology: ParallelTopology,
        report: Optional[AnalysisReport] = None,
        shards: Optional[Dict[int, WeightShard]] = None,
    ) -> AnalysisReport:
        """SH401 + SH404 over a training topology.

        ``shards`` overrides the per-rank training shards (tests seed broken
        ownership maps through it); by default they are derived from the
        topology, per Megatron's ``(pp, tp)`` rectangles.
        """
        if report is None:
            report = AnalysisReport("sharding")
        if shards is None:
            shards = {
                r: training_shard(topology, r) for r in topology.global_ranks
            }
        cfg = topology.config
        for d in range(cfg.dp):
            replica_ranks = [
                topology.global_rank_at(p, t, d)
                for p in range(cfg.pp)
                for t in range(cfg.tp)
            ]
            self._check_replica_partition(
                topology.name, d, replica_ranks, shards, report
            )
            report.note_checked("replicas")
        for family, groups in (
            ("tp", topology.all_tp_groups()),
            ("pp", topology.all_pp_groups()),
            ("dp", topology.all_dp_groups()),
            ("mp", _dedupe(topology.mp_group(r) for r in topology.global_ranks)),
        ):
            self.verify_group_family(
                f"{topology.name}.{family}", groups, topology.global_ranks, report
            )
        return report

    def _check_replica_partition(
        self,
        name: str,
        replica: int,
        ranks: List[int],
        shards: Dict[int, WeightShard],
        report: AnalysisReport,
    ) -> None:
        cover = [shards[r] for r in ranks]
        gap = Fraction(0)
        doubled = Fraction(0)
        example = None
        for cell, owners in sweep_cells(cover):
            report.note_checked("cells")
            if not owners:
                gap += cell.fraction
                example = example or ("no rank owns", cell)
            elif len(owners) > 1:
                doubled += cell.fraction
                owner_ranks = [ranks[i] for i in owners]
                example = example or (f"ranks {owner_ranks} all own", cell)
        if gap or doubled:
            what, cell = example
            report.add(
                "SH401",
                ERROR,
                f"training shards of DP replica {replica} do not partition "
                f"the parameter space: gap fraction {gap}, double-owned "
                f"fraction {doubled}; e.g. {what} layers "
                f"[{cell.layers.start},{cell.layers.stop}) x tensor "
                f"[{cell.tensor.start},{cell.tensor.stop})",
                location=f"{name}.replica[{replica}]",
                hint="each (pp, tp) coordinate must own exactly its "
                "ShardRange.of_partition rectangle",
            )

    def verify_transition(
        self,
        gen: GenTopology,
        plan=None,
        report: Optional[AnalysisReport] = None,
    ) -> AnalysisReport:
        """SH402/SH403 over a transition plan + SH404 over the gen groups.

        ``plan`` is a :class:`repro.hybrid_engine.engine.TransitionPlan`;
        when omitted it is derived from the topology pair (the plan the
        engine itself would execute).
        """
        if report is None:
            report = AnalysisReport("sharding")
        if plan is None:
            from repro.hybrid_engine.engine import plan_transition

            plan = plan_transition(gen)
        train = gen.train
        owner_shards = {r: training_shard(train, r) for r in train.global_ranks}
        for rank in train.global_ranks:
            rank_plan = plan.by_rank.get(rank)
            if rank_plan is None:
                report.add(
                    "SH402",
                    ERROR,
                    f"transition plan has no entry for rank {rank}",
                    location=f"{train.name}.transition[{rank}]",
                    hint="plan_transition must cover every rank of the pool",
                )
                continue
            self._check_rank_plan(
                train.name, rank_plan, plan.mode, owner_shards, report
            )
            self._cross_check_closed_form(train.name, gen, rank, report)
            report.note_checked("ranks")
        for family, groups in (
            (
                "micro_dp",
                gen.all_micro_dp_groups(),
            ),
            ("gen_tp", _dedupe(gen.gen_tp_group(r) for r in train.global_ranks)),
            ("gen_pp", _dedupe(gen.gen_pp_group(r) for r in train.global_ranks)),
        ):
            self.verify_group_family(
                f"{train.name}.{family}", groups, train.global_ranks, report
            )
        return report

    def _check_rank_plan(
        self,
        name: str,
        rank_plan,
        mode: GenGroupingMode,
        owner_shards: Dict[int, WeightShard],
        report: AnalysisReport,
    ) -> None:
        problems: List[str] = []
        cover = [rank_plan.reused] + [tile.shard for tile in rank_plan.tiles]
        # provenance: a tile must come out of its source rank's resting shard
        for tile in rank_plan.tiles:
            report.note_checked("tiles")
            owner = owner_shards.get(tile.source_rank)
            if owner is None or not owner.contains(tile.shard):
                problems.append(
                    f"tile from rank {tile.source_rank} lies outside that "
                    "rank's training shard"
                )
        # coverage + redundancy in one sweep over cover ∪ {target}
        gap = Fraction(0)
        gathered = Fraction(0)  # total area-weighted multiplicity of the cover
        useful = Fraction(0)  # covered area inside the target
        for cell, owners in sweep_cells(cover + [rank_plan.target]):
            report.note_checked("cells")
            in_target = rank_plan.target.contains(cell)
            n_cover = len([i for i in owners if i < len(cover)])
            if in_target and n_cover == 0:
                gap += cell.fraction
            gathered += n_cover * cell.fraction
            if in_target and n_cover:
                useful += cell.fraction
        if gap:
            problems.append(
                f"generation shard has an uncovered gap of fraction {gap}"
            )
        excess = gathered - useful
        if mode is GenGroupingMode.HYBRIDFLOW and excess > 0 and not gap:
            report.add(
                "SH403",
                ERROR,
                f"zero-redundancy plan gathers redundant fraction {excess} "
                f"on rank {rank_plan.rank} (bytes held or received beyond "
                "its generation shard)",
                location=f"{name}.transition[{rank_plan.rank}]",
                hint="each micro-DP peer's training shard must appear "
                "exactly once and lie inside the target (§5.3, Eq. 2)",
            )
        if problems:
            report.add(
                "SH402",
                ERROR,
                f"rank {rank_plan.rank}: " + "; ".join(problems),
                location=f"{name}.transition[{rank_plan.rank}]",
                hint="the gather group must supply every missing tile of "
                "the generation shard from its owning ranks (§5.3, Eq. 1)",
            )

    def _cross_check_closed_form(
        self, name: str, gen: GenTopology, rank: int, report: AnalysisReport
    ) -> None:
        """Closed-form §5.3 fractions must match the independent sweep."""
        train_sh = training_shard(gen.train, rank)
        gen_sh = generation_shard(gen, rank)
        overlap = sweep_overlap_fraction(train_sh, gen_sh)
        redundant = sweep_difference_fraction(train_sh, gen_sh)
        peak = gen_sh.fraction + redundant
        mismatches = []
        if overlap != shard_overlap_fraction(gen, rank):
            mismatches.append(
                f"overlap: sweep {overlap} vs closed form "
                f"{shard_overlap_fraction(gen, rank)}"
            )
        if redundant != redundant_fraction(gen, rank):
            mismatches.append(
                f"redundancy: sweep {redundant} vs closed form "
                f"{redundant_fraction(gen, rank)}"
            )
        if peak != peak_param_fraction(gen, rank):
            mismatches.append(
                f"peak: sweep {peak} vs closed form "
                f"{peak_param_fraction(gen, rank)}"
            )
        if gen.mode is GenGroupingMode.HYBRIDFLOW and redundant != 0:
            mismatches.append(
                f"HYBRIDFLOW grouping must be redundancy-free, got {redundant}"
            )
        if mismatches:
            report.add(
                "SH403",
                ERROR,
                f"rank {rank}: " + "; ".join(mismatches),
                location=f"{name}.geometry[{rank}]",
                hint="repro/parallel/sharding.py closed forms and the "
                "interval sweep must agree exactly (§5.3, Eq. 1–2)",
            )
        report.note_checked("geometry_cross_checks")

    def verify_group_family(
        self,
        family: str,
        groups: Sequence[ProcessGroup],
        universe: Sequence[int],
        report: Optional[AnalysisReport] = None,
    ) -> AnalysisReport:
        """SH404: a collective group family must partition the pool's ranks."""
        if report is None:
            report = AnalysisReport("sharding")
        report.note_checked("group_families")
        problems = partition_problems(groups, universe)
        if problems:
            report.add(
                "SH404",
                ERROR,
                f"group family {family!r} is not a partition of the pool: "
                + "; ".join(problems[:3])
                + ("" if len(problems) <= 3 else f" (+{len(problems) - 3} more)"),
                location=family,
                hint="every rank must appear in exactly one group of a "
                "collective's family",
            )
        return report

    # -- ZeRO / FSDP consistency (SH405) -----------------------------------------------

    def verify_zero(
        self,
        config: ZeroConfig,
        n_params: int,
        world_size: int,
        capacity_bytes: Optional[int] = None,
        report: Optional[AnalysisReport] = None,
        location: str = "zero",
    ) -> AnalysisReport:
        """SH405 over a ZeRO config against the memory projection."""
        if report is None:
            report = AnalysisReport("sharding")
        report.note_checked("zero_configs")
        problems: List[str] = []
        if config.dp != world_size:
            problems.append(
                f"dp={config.dp} does not match the pool's world size "
                f"{world_size} (ZeRO shards over every rank of the group)"
            )
        unsharded = zero_memory_per_rank(
            n_params, ZeroConfig(ZeroStage.DDP, config.dp)
        )
        sharded = zero_memory_per_rank(n_params, config)
        if sharded > unsharded:
            problems.append(
                f"stage {int(config.stage)} footprint {sharded} exceeds the "
                f"unsharded footprint {unsharded}"
            )
        if config.dp > 1 and config.stage >= ZeroStage.PARAMETERS:
            gather = zero_param_gather_volume(n_params, config)
            full = n_params * 2  # BF16 params, per the model's byte constants
            expected = (config.dp - 1) * full // config.dp
            if gather != expected:
                problems.append(
                    f"param gather volume {gather} disagrees with the "
                    f"all-gather algebra {expected}"
                )
        if config.dp > 1 and zero_grad_sync_volume(n_params, config) <= 0:
            problems.append("multi-rank config reports no gradient sync traffic")
        if capacity_bytes is not None:
            from repro.perf.memory import USABLE_FRACTION

            usable = int(capacity_bytes * USABLE_FRACTION)
            if sharded > usable:
                problems.append(
                    f"sharded training state {sharded} B exceeds usable "
                    f"device capacity {usable} B"
                )
        if problems:
            report.add(
                "SH405",
                ERROR,
                "; ".join(problems),
                location=location,
                hint="ZeRO degree must equal the DP group size and the "
                "projected footprint must fit the device (Appendix C)",
            )
        return report

    def verify_fsdp(
        self,
        config: FsdpConfig,
        n_params: int,
        world_size: int,
        capacity_bytes: Optional[int] = None,
        report: Optional[AnalysisReport] = None,
        location: str = "fsdp",
    ) -> AnalysisReport:
        """SH405 over an FSDP config; its ZeRO mapping must not drift."""
        if report is None:
            report = AnalysisReport("sharding")
        zero = config.as_zero()
        drift = []
        if fsdp_memory_per_rank(n_params, config) != zero_memory_per_rank(
            n_params, zero
        ):
            drift.append("memory")
        if fsdp_param_gather_volume(n_params, config) != zero_param_gather_volume(
            n_params, zero
        ):
            drift.append("param gather volume")
        if fsdp_grad_sync_volume(n_params, config) != zero_grad_sync_volume(
            n_params, zero
        ):
            drift.append("grad sync volume")
        if drift:
            report.add(
                "SH405",
                ERROR,
                f"FSDP strategy {config.strategy!r} drifted from its ZeRO "
                f"equivalent (stage {int(zero.stage)}) on: " + ", ".join(drift),
                location=location,
                hint="FsdpConfig.as_zero must stay memory- and "
                "traffic-equivalent to the mapped ZeRO stage",
            )
        return self.verify_zero(
            zero,
            n_params,
            world_size,
            capacity_bytes=capacity_bytes,
            report=report,
            location=location,
        )

    def check_shipped(self) -> AnalysisReport:
        """Verify the configurations the repo ships, merged.

        Proves the resharding geometry for the tiny functional placement
        and the llama-7b colocated placement in both grouping modes, and
        checks the ZeRO-3 / FSDP configs the baselines assume against the
        memory projection.
        """
        report = AnalysisReport("sharding")
        for name, par, gen_pp, gen_tp in (
            ("tiny-ppo", ParallelConfig(pp=1, tp=2, dp=1), 1, 1),
            ("llama-7b-colocate", ParallelConfig(pp=1, tp=8, dp=2), 1, 2),
        ):
            topo = ParallelTopology(par, name=name)
            self.verify_topology(topo, report=report)
            for mode in (GenGroupingMode.HYBRIDFLOW, GenGroupingMode.VANILLA):
                gen = GenTopology(
                    topo, GenParallelConfig.derive(par, gen_pp, gen_tp), mode
                )
                self.verify_transition(gen, report=report)
        n_params = MODEL_SPECS["llama-7b"].n_params()
        cluster = ClusterSpec(n_machines=2)
        self.verify_zero(
            ZeroConfig(ZeroStage.PARAMETERS, dp=cluster.n_gpus),
            n_params,
            cluster.n_gpus,
            capacity_bytes=cluster.gpu.memory_bytes,
            report=report,
            location="zero[llama-7b]",
        )
        self.verify_fsdp(
            FsdpConfig(dp=cluster.n_gpus, strategy="full"),
            n_params,
            cluster.n_gpus,
            capacity_bytes=cluster.gpu.memory_bytes,
            report=report,
            location="fsdp[llama-7b]",
        )
        return report


def _dedupe(groups) -> List[ProcessGroup]:
    seen = set()
    out: List[ProcessGroup] = []
    for group in groups:
        key = tuple(group.ranks)
        if key not in seen:
            seen.add(key)
            out.append(group)
    return out
