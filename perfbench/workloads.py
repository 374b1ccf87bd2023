"""The benchmark's workloads, their seeded inputs and their correctness checks.

Each workload is a closed loop with one client: an operation (one RLHF
iteration, or one serving drain) starts only after the previous one ended.
The runner times :meth:`run` alone; :meth:`prepare` makes the operation's
inputs from the workload's seeded stream and :meth:`finish` checks the
outputs, both outside the timed region.

* ``ppo_colocated`` (training-heavy): the paper's Figure-9 PPO setup.
  Backward, Adam and the gradient sync dominate; serving is bypassed.
* ``grpo_serving_eos`` (rollout-heavy): GRPO whose generation runs through
  the continuous-batching ``RolloutServer`` with an EOS id, so responses
  are ragged and the masked losses run.
* ``rollout_ragged_drain`` (inference-only): one ``RolloutServer`` draining
  ragged prompts, with no controller, training or HybridEngine.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig
from repro.data import SyntheticPreferenceTask
from repro.data.batch import DataBatch
from repro.models.sampler import generate
from repro.models.tinylm import TinyLM, TinyLMConfig
from repro.perf.continuous_batching import continuous_schedule_stats
from repro.rlhf.core import AlgoType
from repro.rlhf.trainers import TrainerConfig
from repro.runtime import (
    ModelAssignment,
    PlacementPlan,
    build_rlhf_system,
    build_timeline,
)
from repro.serving import RolloutServer, ServingConfig

#: Seed of model weights and worker sampling streams.  Fixed, so that
#: ``--seed`` varies only the inputs the program is given.
MODEL_SEED = 0
#: Small enough that the policy, and with it the EOS length distribution,
#: stays put through a run: a faster program completes more iterations, and
#: their work must not drift with the iteration count.
LEARNING_RATE = 1e-5

FULL_MODEL = TinyLMConfig(
    n_layers=4,
    hidden_size=128,
    n_heads=4,
    ffn_hidden_size=256,
    vocab_size=32,
    max_seq_len=80,
)
TINY_MODEL = TinyLMConfig(
    n_layers=1,
    hidden_size=16,
    n_heads=2,
    ffn_hidden_size=32,
    vocab_size=32,
    max_seq_len=32,
)


@dataclasses.dataclass(frozen=True)
class RlhfShape:
    model: TinyLMConfig
    prompts: int
    prompt_len: int
    response_len: int
    #: Prompts of the warm-up iteration that set-up runs.
    warmup_prompts: int
    group_size: int = 1
    eos_token_id: Optional[int] = None


@dataclasses.dataclass(frozen=True)
class DrainShape:
    model: TinyLMConfig
    requests: int
    min_prompt: int
    max_prompt: int
    new_tokens: int
    slots: int
    warmup_requests: int
    #: Requests re-served greedily and compared with sequential ``generate``.
    greedy_sample: int


SHAPES: Dict[str, Dict[str, Any]] = {
    "full": {
        "ppo_colocated": RlhfShape(FULL_MODEL, 32, 16, 32, warmup_prompts=4),
        "grpo_serving_eos": RlhfShape(
            FULL_MODEL, 16, 16, 48, warmup_prompts=1, group_size=4,
            eos_token_id=0,
        ),
        "rollout_ragged_drain": DrainShape(
            FULL_MODEL, 256, 4, 32, 32, slots=64, warmup_requests=16,
            greedy_sample=8,
        ),
    },
    "tiny": {
        "ppo_colocated": RlhfShape(TINY_MODEL, 4, 4, 4, warmup_prompts=4),
        "grpo_serving_eos": RlhfShape(
            TINY_MODEL, 2, 4, 6, warmup_prompts=1, group_size=4,
            eos_token_id=0,
        ),
        "rollout_ragged_drain": DrainShape(
            TINY_MODEL, 12, 2, 6, 4, slots=4, warmup_requests=4,
            greedy_sample=3,
        ),
    },
}


@dataclasses.dataclass
class OpRecord:
    """What one timed operation did, and which of its checks failed."""

    wall: float
    #: prompt tokens plus real response tokens, over all sequences
    tokens: int
    #: real (generated) response tokens
    gen_tokens: int
    #: padded response slots: sequences x response width
    response_slots: int
    #: host seconds from operation start to each request's result
    latencies: List[float]
    #: operations this record stands for: 1 iteration, or N requests
    attempted: int
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    #: (request id, end time) of each request, for the traced run
    request_ends: List[Tuple[int, float]] = dataclasses.field(default_factory=list)
    # controller-level counts (RLHF workloads only)
    dispatches: int = 0
    comm_bytes: int = 0
    sim_s: float = 0.0
    sim_idle_frac: float = 0.0
    raised: bool = False
    traced: bool = False

    @classmethod
    def failure(cls, attempted: int) -> "OpRecord":
        """An operation that raised: all it stood for failed."""
        return cls(0.0, 0, 0, 0, [], attempted, failed=attempted,
                   problems=["operation raised"], raised=True)


def _check_response_mask(
    responses: np.ndarray, mask: np.ndarray, eos: int
) -> bool:
    """``mask`` is a ones-prefix ending at each row's first EOS (or full)."""
    width = responses.shape[1]
    is_eos = responses == eos
    first = np.where(is_eos.any(axis=1), is_eos.argmax(axis=1) + 1, width)
    expected = (np.arange(width)[None, :] < first[:, None]).astype(mask.dtype)
    return bool(np.array_equal(mask, expected))


class _GenerationTap:
    """Timestamps the generation result as the controller collects it.

    Attached through the controller's ``shape_recorder`` hook, which the
    dispatch path calls with every collected result; only the
    ``generate_sequences`` output is kept.
    """

    def __init__(self) -> None:
        self.batch: Optional[DataBatch] = None
        self.at = 0.0

    def record(self, group: str, method: str, result: Any) -> None:
        if method == "generate_sequences":
            self.at = time.perf_counter()
            self.batch = result


class RlhfWorkload:
    """A PPO or GRPO job on the single controller and the 3D-HybridEngine."""

    def __init__(
        self,
        name: str,
        shape: RlhfShape,
        seed: int,
        reward_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        self.name = name
        self.shape = shape
        self.algo = AlgoType.GRPO if shape.group_size > 1 else AlgoType.PPO
        #: dispatches one iteration's dataflow makes (Figure 6): generate,
        #: reference, reward, actor log-prob, actor update, plus the
        #: critic's values and update under PPO
        self.expected_dispatches = 5 if self.algo is AlgoType.GRPO else 7
        task = SyntheticPreferenceTask(vocab_size=shape.model.vocab_size)
        self.reward_fn = reward_fn or task.reward
        self.requests_per_op = 1
        self.rng = np.random.default_rng((seed, 0))
        self.warmup_rng = np.random.default_rng((seed, 1))
        self.system = None
        self.tap = _GenerationTap()
        self._comm_bytes: Optional[int] = None

    def build(self) -> None:
        par = ParallelConfig(pp=1, tp=2, dp=2)
        roles = ("actor", "reference") + (
            ("critic",) if self.algo is AlgoType.PPO else ()
        )
        assignments = {role: ModelAssignment("main", par) for role in roles}
        # generation at (p_g, t_g) = (1, 1): 4 micro-DP replicas to reshard
        # into on every iteration
        assignments["actor"] = ModelAssignment(
            "main", par, GenParallelConfig.derive(par, 1, 1)
        )
        assignments["reward"] = ModelAssignment("reward", ParallelConfig(1, 1, 1))
        plan = PlacementPlan(pools={"main": 4, "reward": 1}, assignments=assignments)
        self.system = build_rlhf_system(
            self.algo,
            plan,
            self.shape.model,
            cluster_spec=ClusterSpec(n_machines=1, gpus_per_machine=8),
            trainer_config=TrainerConfig(
                group_size=self.shape.group_size, seed=MODEL_SEED
            ),
            reward_fn=self.reward_fn,
            max_new_tokens=self.shape.response_len,
            lr=LEARNING_RATE,
            seed=MODEL_SEED,
            eos_token_id=self.shape.eos_token_id,
            use_serving=self.algo is AlgoType.GRPO,
        )
        self.system.controller.shape_recorder = self.tap

    def _prompts(self, rng: np.random.Generator, n: int) -> DataBatch:
        shape = (n, self.shape.prompt_len)
        tokens = rng.integers(0, self.shape.model.vocab_size, size=shape)
        return DataBatch({"prompts": tokens.astype(np.int64)})

    def warm_up(self) -> None:
        self.system.trainer.run_step(
            self._prompts(self.warmup_rng, self.shape.warmup_prompts)
        )

    def prepare(self, index: int) -> Dict[str, Any]:
        controller = self.system.controller
        self.tap.batch = None
        return {
            "prompts": self._prompts(self.rng, self.shape.prompts),
            "seq": len(controller.trace),
            "bytes": controller.meter.total_bytes(),
            "clock": controller.clock.now,
        }

    def run(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        return self.system.trainer.run_step(inputs["prompts"])

    def finish(
        self, inputs: Dict[str, Any], result: Dict[str, Any], t0: float, t1: float
    ) -> OpRecord:
        controller = self.system.controller
        shape = self.shape
        gen = self.tap.batch
        records = controller.trace[inputs["seq"] :]
        timeline = build_timeline(controller, trace=records)
        pools = timeline.pools()
        n_seqs = shape.prompts * shape.group_size
        record = OpRecord(
            wall=t1 - t0,
            tokens=0,
            gen_tokens=0,
            response_slots=n_seqs * shape.response_len,
            latencies=[],
            attempted=1,
            dispatches=len(records),
            comm_bytes=controller.meter.total_bytes() - inputs["bytes"],
            sim_s=controller.clock.now - inputs["clock"],
            sim_idle_frac=sum(timeline.idle_fraction(p) for p in pools)
            / max(len(pools), 1),
        )
        problems = record.problems
        if record.dispatches != self.expected_dispatches:
            problems.append(
                f"{record.dispatches} dispatches, expected {self.expected_dispatches}"
            )
        # structure-derived: the same on every iteration of one shape
        if self._comm_bytes is None:
            self._comm_bytes = record.comm_bytes
        if record.comm_bytes != self._comm_bytes or record.comm_bytes <= 0:
            problems.append(
                f"{record.comm_bytes} comm bytes, first iteration had {self._comm_bytes}"
            )
        losses = {k: v for k, v in result.items() if isinstance(v, float)}
        if "score_mean" not in losses or not all(
            np.isfinite(v) for v in losses.values()
        ):
            problems.append(f"non-finite iteration metrics {losses}")
        if gen is None:
            problems.append("no generate_sequences result was collected")
        else:
            self._check_generation(inputs["prompts"]["prompts"], gen, record)
            record.latencies = [self.tap.at - t0] * gen.batch_size
        record.failed = int(bool(problems))
        return record

    def _check_generation(
        self, prompts: np.ndarray, gen: DataBatch, record: OpRecord
    ) -> None:
        shape = self.shape
        problems = record.problems
        sequences = gen["sequences"]
        expected_prompts = np.repeat(prompts, shape.group_size, axis=0)
        width = shape.prompt_len + shape.response_len
        if sequences.shape != (expected_prompts.shape[0], width):
            problems.append(f"sequences shape {sequences.shape}")
            return
        if not np.array_equal(sequences[:, : shape.prompt_len], expected_prompts):
            problems.append("sequences do not start with their prompts")
        if sequences.min() < 0 or sequences.max() >= shape.model.vocab_size:
            problems.append("token id outside the vocabulary")
        responses = sequences[:, shape.prompt_len :]
        if shape.eos_token_id is None:
            if "response_mask" in gen:
                problems.append("response_mask without an EOS id")
            real = responses.size
        else:
            mask = gen["response_mask"] if "response_mask" in gen else None
            if mask is None or not _check_response_mask(
                responses, mask, shape.eos_token_id
            ):
                problems.append("response_mask is not a prefix ending at EOS")
                return
            real = int(mask.sum())
        record.gen_tokens = real
        record.tokens = expected_prompts.size + real

    def final_check(self) -> Tuple[int, int, List[str]]:
        return 0, 0, []


class DrainWorkload:
    """One ``RolloutServer`` draining ragged prompts: inference only."""

    def __init__(self, name: str, shape: DrainShape, seed: int) -> None:
        self.name = name
        self.shape = shape
        self.seed = seed
        self.requests_per_op = shape.requests
        self.rng = np.random.default_rng((seed, 0))
        self.model: Optional[TinyLM] = None
        self._last_prompts: List[np.ndarray] = []

    def build(self) -> None:
        self.model = TinyLM(self.shape.model, seed=MODEL_SEED)

    def _server(self, seed: Tuple[int, ...], greedy: bool = False) -> RolloutServer:
        return RolloutServer(
            self.model,
            ServingConfig(max_slots=self.shape.slots, seed=seed, greedy=greedy),
        )

    def _prompt_list(self, rng: np.random.Generator, n: int) -> List[np.ndarray]:
        shape = self.shape
        lengths = rng.integers(shape.min_prompt, shape.max_prompt + 1, size=n)
        vocab = shape.model.vocab_size
        return [rng.integers(0, vocab, size=int(k)).astype(np.int64) for k in lengths]

    def warm_up(self) -> None:
        rng = np.random.default_rng((self.seed, 1))
        server = self._server((self.seed, 1, 0))
        for prompt in self._prompt_list(rng, self.shape.warmup_requests):
            server.submit(prompt, max_new_tokens=self.shape.new_tokens)
        server.drain()

    def prepare(self, index: int) -> Dict[str, Any]:
        prompts = self._prompt_list(self.rng, self.shape.requests)
        self._last_prompts = prompts
        return {
            "prompts": prompts,
            "server": self._server((self.seed, 0, index)),
            "ends": {},
        }

    def run(self, inputs: Dict[str, Any]) -> Any:
        server, ends = inputs["server"], inputs["ends"]

        def on_finish(done) -> None:
            ends[done.request_id] = time.perf_counter()

        for prompt in inputs["prompts"]:
            server.submit(prompt, max_new_tokens=self.shape.new_tokens)
        return server.drain(on_finish=on_finish)

    def finish(self, inputs: Dict[str, Any], report: Any, t0: float, t1: float) -> OpRecord:
        shape = self.shape
        prompts = inputs["prompts"]
        ends = inputs["ends"]
        n = len(prompts)
        record = OpRecord(
            wall=t1 - t0,
            tokens=sum(p.size for p in prompts) + report.total_tokens,
            gen_tokens=report.total_tokens,
            response_slots=n * shape.new_tokens,
            latencies=[ends[i] - t0 for i in sorted(ends)],
            attempted=n,
            request_ends=sorted(ends.items()),
        )
        problems = record.problems
        unfinished = set(range(n)) - set(ends)
        wrong = {
            done.request_id for done in report.completed if not self._response_ok(done)
        }
        if unfinished:
            problems.append(f"{len(unfinished)} requests never finished")
        if wrong:
            problems.append(f"{len(wrong)} requests with a wrong response")
        # the schedule is structure-derived: without preemption the engine
        # takes exactly the steps of the analytic continuous-batching model
        steps, utilisation = continuous_schedule_stats(
            [shape.new_tokens] * n, shape.slots
        )
        if report.n_preemptions:
            schedule_ok = report.n_steps >= steps
        else:
            schedule_ok = report.n_steps == steps and (
                abs(report.slot_utilisation - utilisation) <= 1e-12
            )
        if report.total_tokens != n * shape.new_tokens or not schedule_ok:
            problems.append(
                f"{report.total_tokens} tokens in {report.n_steps} steps, the "
                f"analytic schedule gives {n * shape.new_tokens} in {steps}"
            )
            unfinished = set(range(n))
        record.failed = len(unfinished | wrong)
        return record

    def _response_ok(self, done) -> bool:
        shape = self.shape
        tokens = np.asarray(done.response)
        log_probs = np.asarray(done.log_probs)
        return (
            tokens.shape == (shape.new_tokens,)
            and tokens.min() >= 0
            and tokens.max() < shape.model.vocab_size
            and bool(np.all(np.isfinite(log_probs)))
            and bool(np.all(log_probs <= 0.0))
        )

    def final_check(self) -> Tuple[int, int, List[str]]:
        """Greedy cross-check: serving must equal sequential ``generate``."""
        shape = self.shape
        rng = np.random.default_rng((self.seed, 2))
        pick = rng.choice(len(self._last_prompts), size=shape.greedy_sample, replace=False)
        prompts = [self._last_prompts[int(i)] for i in pick]
        server = self._server((self.seed, 2, 0), greedy=True)
        for prompt in prompts:
            server.submit(prompt, max_new_tokens=shape.new_tokens)
        report = server.drain()
        mismatched = 0
        for prompt, done in zip(prompts, report.completed):
            out = generate(
                self.model, prompt[None, :], max_new_tokens=shape.new_tokens, greedy=True
            )
            if not np.array_equal(out.responses[0], np.asarray(done.response)):
                mismatched += 1
        problems = (
            [f"{mismatched} of {len(prompts)} greedy requests differ from generate"]
            if mismatched
            else []
        )
        return len(prompts), mismatched, problems


def make_workload(
    name: str,
    size: str,
    seed: int,
    reward_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
):
    shape = SHAPES[size][name]
    if isinstance(shape, DrainShape):
        return DrainWorkload(name, shape, seed)
    return RlhfWorkload(name, shape, seed, reward_fn=reward_fn)

