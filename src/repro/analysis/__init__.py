"""Static and post-hoc analysis of composed RLHF dataflows (``repro check``).

Six passes behind one report type:

* :class:`DataflowChecker` — pre-execution: protocol/topology compatibility,
  batch divisibility, serving config, projected memory vs capacity, per-
  algorithm plan structure (PPO / ReMax / GRPO / Safe-RLHF).
* :func:`audit_run` — post-execution, over one :class:`RunRecord` loaded
  from a live run or an exported Chrome trace: timeline overlap, span
  nesting, memory-ledger leaks / double frees / negative balances,
  busy-accounting consistency, and vector-clock happens-before over the
  execution trace plus the shared-state access log (conflicting accesses
  with no ordering edge, including the nondeterministic ``merge_outputs``
  hazard).
* :class:`RepoLint` — AST rules over the source tree (seeded RNG only, no
  wall-clock reads, no float ``==``, json via ``json_safe``, no module-state
  mutation in workers, no stale suppressions).
* :class:`ShardingVerifier` — static proof that training shards partition
  the parameter space, the train→generation gather plan is complete and
  (under HYBRIDFLOW grouping) redundancy-free, collective group families
  partition their pools, and ZeRO/FSDP configs match the memory projection.
* :class:`ModelChecker` — bounded stateless model checking with sleep-set
  partial-order reduction over explicit state-machine models of the
  shipped concurrent protocols (async pipeline, drain hand-off, fleet
  gang scheduling); violations carry minimal counterexample schedules
  replayable through :func:`audit_run`.
* :class:`ShapeFlowChecker` — abstract interpretation of symbolic array
  shapes and dtypes through the whole algorithm graph: declarative
  ``@shape_contract`` specs on worker methods, per-protocol split/collect
  transfer functions, serving reassembly, the train→generation transition
  plan, and async-pipeline staleness; a :class:`ShapeRecorder` cross-
  validates the static inference against real run shapes.

All findings carry a rule id (``DF1xx`` / ``TA2xx`` / ``RL3xx`` / ``SH4xx``
/ ``RC5xx`` / ``MC6xx`` / ``SF7xx``), severity, location, and fix hint;
see ``docs/ANALYSIS.md`` for the catalog.
"""

from repro.analysis.dataflow import DataflowChecker, registered_methods
from repro.analysis.modelcheck import (
    MC_RULES,
    Counterexample,
    ModelChecker,
    ModelCheckResult,
    cross_validate,
    seeded_mutants,
    shipped_models,
)
from repro.analysis.report import ERROR, WARNING, AnalysisReport, Finding
from repro.analysis.repolint import ALL_RULES, RepoLint
from repro.analysis.shapeflow import (
    MUTATIONS as SF_MUTATIONS,
    SF_RULES,
    ContractError,
    Dim,
    ProbeGroup,
    ShapeFlowChecker,
    ShapeRecorder,
    SymArray,
    parse_contract,
    predict_protocol_shapes,
    predict_system_outputs,
    shipped_graph_reports,
)
from repro.analysis.shapeflow import cross_validate as shape_cross_validate
from repro.analysis.shapeflow import seeded_mutants as shape_seeded_mutants
from repro.analysis.sharding import (
    ShardingVerifier,
    sweep_cells,
    sweep_difference_fraction,
    sweep_overlap_fraction,
    sweep_union_fraction,
)
from repro.analysis.trace import PERSISTENT_SUFFIXES, Call, RunRecord, audit_run

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "Call",
    "ContractError",
    "Counterexample",
    "DataflowChecker",
    "Dim",
    "ERROR",
    "Finding",
    "MC_RULES",
    "ModelCheckResult",
    "ModelChecker",
    "PERSISTENT_SUFFIXES",
    "ProbeGroup",
    "RepoLint",
    "RunRecord",
    "SF_MUTATIONS",
    "SF_RULES",
    "ShapeFlowChecker",
    "ShapeRecorder",
    "ShardingVerifier",
    "SymArray",
    "WARNING",
    "audit_run",
    "cross_validate",
    "parse_contract",
    "predict_protocol_shapes",
    "predict_system_outputs",
    "registered_methods",
    "seeded_mutants",
    "shape_cross_validate",
    "shape_seeded_mutants",
    "shipped_graph_reports",
    "shipped_models",
    "sweep_cells",
    "sweep_difference_fraction",
    "sweep_overlap_fraction",
    "sweep_union_fraction",
]
