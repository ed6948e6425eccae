"""Configuration evaluation: one harness in front of two synthesis backends.

``EvalHarness`` runs every evaluation the same way, whatever synthesizes the
design: the constraint stage, the retrieval lookup, the choice of reference
checkpoint, synthesis by the backend, the resource stage on the synthesized
LUT count, and the one conversion of the tool's minutes into the run's
virtual minutes (``time_scale``).  It builds every failed result.  The
reference is none under ``direct`` (synthesis from scratch), the default
configuration under ``fixed-checkpoint``, and the nearest stored checkpoint
under ``retrieval``, where an exact hit returns the cached metrics at lookup
cost.  A backend has a ``space``, a ``base_frequency`` that failed results
record, and ``synthesize(cfg, reference_cfg, benchmark)``, which returns a
valid result in the tool's own minutes or raises ``Rejected``.  The answer
depends on the design and the reference alone.

``SyntheticModel`` is a deterministic closed form standing in for a real
simulate-and-synthesize flow.  Cycle counts start from a per-benchmark base
(instructions retired) and grow by a quadratic penalty for every ordinal
parameter left below its top rank plus a fixed factor per categorical choice;
LUT usage accumulates per-parameter costs; the maximum frequency degrades
linearly with normalized LUT complexity; synthesis time ramps from a base
(incremental) to a full (from scratch) figure with the weighted distance to
the reference.  All coefficients live in a bundled, frozen model file so
results are reproducible oracles.  ``ExternalEvaluator`` runs a real
toolchain over a one-request, one-response JSON line protocol.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .checkpoints import (
    CheckpointStore,
    DistanceWeights,
    artifact_path,
    match_config,
    weighted_distance,
)
from .constraints import exact_configuration
from .errors import (
    InvalidConfigurationError,
    ProtocolError,
    ToolError,
    UndefinedMetricError,
)
from .space import CATEGORICAL, ParameterSpace

DIRECT = "direct"
FIXED_CHECKPOINT = "fixed-checkpoint"
RETRIEVAL = "retrieval"
STRATEGIES = (DIRECT, FIXED_CHECKPOINT, RETRIEVAL)

STAGE_CONSTRAINT = "constraint"
STAGE_RESOURCE = "resource"
STAGE_SYNTHESIS = "synthesis"

#: virtual minutes charged for a database hit and for a failed evaluation
LOOKUP_MINUTES = 0.1
FAILURE_MINUTES = 1.0


@dataclass
class EvaluationResult:
    cycles: int
    fmax_mhz: float
    luts: int
    power_w: float
    eval_minutes: float
    valid: bool
    failure_stage: str | None = None

    def __post_init__(self):
        if self.valid != (self.failure_stage is None):
            raise ValueError("valid results must have no failure stage and "
                             "invalid ones must name it")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ResourceBudget:
    max_luts: int

    def __post_init__(self):
        if self.max_luts <= 0:
            raise ValueError("LUT budget must be positive")


def estimated_execution_time(result: EvaluationResult) -> float:
    """Milliseconds to run the benchmark: cycles over maximum frequency."""
    if not result.valid:
        raise UndefinedMetricError(
            f"no execution time for invalid result (stage {result.failure_stage})")
    return result.cycles / (result.fmax_mhz * 1e3)


#: top-level keys of a model file; any other key but the ``processor``
#: label is rejected
MODEL_KEYS = ("base_frequency_mhz", "frequency_sensitivity", "base_luts",
              "lut_budget", "full_synthesis_minutes", "base_synthesis_minutes",
              "power_idle_w", "power_per_lut_w", "benchmarks", "match_weights",
              "parameters")


class SyntheticModel:
    """Frozen closed-form stand-in for simulation plus synthesis."""

    def __init__(self, data: dict, space: ParameterSpace):
        names = [p.name for p in space.params]
        unknown = [k for k in data if k not in MODEL_KEYS + ("processor",)]
        if unknown:
            raise InvalidConfigurationError(
                f"model file has unknown key(s) {', '.join(unknown)}")
        coeffs = data.get("parameters", {})
        missing = [k for k in MODEL_KEYS if k not in data] + [
            f"{p.name}.{f}" for p in space.params if p.name in coeffs
            for f in (("lut_factors", "cycle_factors") if p.kind == CATEGORICAL
                      else ("lut_cost", "cycle_beta"))
            if f not in coeffs[p.name]]
        if missing:
            raise InvalidConfigurationError(
                f"model file lacks {', '.join(missing)}")
        missing = [n for n in names if n not in data["parameters"]
                   or n not in data["match_weights"]]
        if missing:
            raise InvalidConfigurationError("model file lacks coefficients "
                                            f"for {', '.join(missing)}")
        uncovered = [
            f"{p.name}.{f} lacks {', '.join(map(str, gaps))}"
            for p in space.params if p.kind == CATEGORICAL
            for f in ("lut_factors", "cycle_factors")
            if (gaps := [v for v in p.values if v not in coeffs[p.name][f]])]
        if uncovered:
            raise InvalidConfigurationError(
                f"model file: {'; '.join(uncovered)}")
        self.space = space
        self.base_frequency = float(data["base_frequency_mhz"])
        self.gamma = float(data["frequency_sensitivity"])
        self.base_luts = int(data["base_luts"])
        self.lut_budget = int(data["lut_budget"])
        self.t_full = float(data["full_synthesis_minutes"])
        self.t_base = float(data["base_synthesis_minutes"])
        self.power_idle = float(data["power_idle_w"])
        self.power_per_lut = float(data["power_per_lut_w"])
        self.benchmarks = dict(data["benchmarks"])
        self.coeffs = data["parameters"]
        self.match_weights = DistanceWeights(
            np.array([data["match_weights"][n] for n in names]))
        self._max_dist = float(self.match_weights.w.sum())
        self._max_extra_luts = sum(
            max(c["lut_factors"].values()) if "lut_factors" in c
            else c["lut_cost"] for c in map(self.coeffs.get, names))

    @classmethod
    def load(cls, path, space: ParameterSpace) -> "SyntheticModel":
        return cls(json.loads(Path(path).read_text()), space)

    def luts(self, cfg: dict) -> int:
        total = float(self.base_luts)
        for p in self.space.params:
            c = self.coeffs[p.name]
            if p.kind == CATEGORICAL:
                total += c["lut_factors"][cfg[p.name]]
            else:
                total += c["lut_cost"] * p.scaled_rank(cfg[p.name])
        return int(round(total))

    def fmax(self, cfg: dict) -> float:
        return self._fmax_at(self.luts(cfg))

    def _fmax_at(self, luts: int) -> float:
        """Frequency at a LUT count, falling with the extra LUT load."""
        load = 0.0 if self._max_extra_luts == 0 \
            else (luts - self.base_luts) / self._max_extra_luts
        return self.base_frequency * (1.0 - self.gamma * load)

    def cycles(self, cfg: dict, benchmark: str) -> int:
        try:
            base = self.benchmarks[benchmark]
        except KeyError:
            raise UndefinedMetricError(f"unknown benchmark {benchmark!r}") from None
        penalty = 0.0
        for p in self.space.params:
            c = self.coeffs[p.name]
            if p.kind == CATEGORICAL:
                penalty += c["cycle_factors"][cfg[p.name]]
            else:
                penalty += c["cycle_beta"] * (1.0 - p.scaled_rank(cfg[p.name])) ** 2
        return int(round(base * (1.0 + penalty)))

    def power(self, luts: int) -> float:
        return self.power_idle + self.power_per_lut * luts

    def synthesis_time(self, cfg: dict, reference_cfg: dict | None) -> float:
        """Minutes to synthesize, ramping with distance to the reference.

        No reference means a from-scratch run at the full figure.  The ramp
        uses the model's own match weights, so incremental reuse pays off in
        proportion to how much of the design is shared.
        """
        if reference_cfg is None:
            return self.t_full
        d = weighted_distance(self.space, cfg, reference_cfg, self.match_weights)
        frac = min(d / self._max_dist, 1.0) if self._max_dist > 0 else 1.0
        return min(max(self.t_base + (self.t_full - self.t_base) * frac,
                       self.t_base), self.t_full)

    def synthesize(self, cfg: dict, reference_cfg: dict | None,
                   benchmark: str) -> EvaluationResult:
        luts = self.luts(cfg)
        return EvaluationResult(
            cycles=self.cycles(cfg, benchmark), fmax_mhz=self._fmax_at(luts),
            luts=luts, power_w=self.power(luts),
            eval_minutes=self.synthesis_time(cfg, reference_cfg), valid=True)


class Rejected(Exception):
    """``Rejected(stage, minutes)``: the tool turned the design down."""


class EvalHarness:
    """The evaluation stages in front of a synthesis backend."""

    def __init__(self, backend, tree, resource_budget: ResourceBudget,
                 benchmark: str = "multiply", time_scale: float = 1.0):
        self.backend = backend
        self.space = backend.space
        self.tree = tree
        self.budget = resource_budget
        self.benchmark = benchmark
        self.time_scale = time_scale

    def _failed(self, stage: str, luts: int, minutes: float) -> EvaluationResult:
        return EvaluationResult(
            cycles=0, fmax_mhz=self.backend.base_frequency, luts=luts,
            power_w=0.0, eval_minutes=minutes, valid=False, failure_stage=stage)

    def evaluate(self, cfg: dict, strategy: str = DIRECT,
                 db: CheckpointStore | None = None,
                 weights: DistanceWeights | None = None) -> EvaluationResult:
        """Constraint stage, lookup or synthesis, resource stage; the charge
        in the tool's minutes is scaled to run minutes here, once."""
        result = self._stages(cfg, strategy, db, weights)
        return replace(result, eval_minutes=result.eval_minutes * self.time_scale)

    def _stages(self, cfg, strategy, db, weights) -> EvaluationResult:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        if not exact_configuration(self.tree, self.space, cfg):
            return self._failed(STAGE_CONSTRAINT, 0, FAILURE_MINUTES)
        from_store = strategy == RETRIEVAL and db is not None and len(db) > 0
        if from_store and (hit := db.lookup(cfg)) is not None:
            result = replace(hit.metrics, eval_minutes=LOOKUP_MINUTES)
        else:
            if strategy == FIXED_CHECKPOINT:
                reference = self.space.default_configuration()
            else:
                reference = match_config(db, cfg, weights).config \
                    if from_store else None
            try:
                result = self.backend.synthesize(cfg, reference, self.benchmark)
            except Rejected as rejection:
                stage, minutes = rejection.args
                return self._failed(stage, 0, minutes)
        # the tool has already spent the synthesis (or lookup) time
        if result.luts > self.budget.max_luts:
            return self._failed(STAGE_RESOURCE, result.luts, result.eval_minutes)
        return result


class ExternalEvaluator:
    """Synthesis backend that runs a real toolchain, one JSON line each way.

    Request:  {"id": ..., "config": {...}, "checkpoint_hint": ...,
               "benchmark": ...}
    Response: {"id": ..., "status": "ok", "cycles": ..., "fmax_mhz": ...,
               "luts": ..., "power_w": ..., "synthesis_minutes": ...}
          or  {"id": ..., "status": "invalid", "stage": ...}

    ``checkpoint_hint`` is the artifact handle of the reference
    configuration, or null for a from-scratch run.  A timeout is a rejection
    at the synthesis stage charged ``timeout_s`` of the tool's time; an
    ``invalid`` reply is one charged ``FAILURE_MINUTES``.
    """

    REQUIRED = ("cycles", "fmax_mhz", "luts", "power_w", "synthesis_minutes")
    #: a rejected design has no frequency; its failed result records this
    base_frequency = 1.0

    def __init__(self, command: list[str], space: ParameterSpace,
                 timeout_s: float = 300.0):
        self.command = list(command)
        self.space = space
        self.timeout_s = timeout_s
        self._next_id = 0

    def synthesize(self, cfg: dict, reference_cfg: dict | None,
                   benchmark: str) -> EvaluationResult:
        self._next_id += 1
        hint = None if reference_cfg is None \
            else artifact_path(self.space, reference_cfg)
        request = {"id": f"r{self._next_id}", "config": cfg,
                   "checkpoint_hint": hint, "benchmark": benchmark}
        proc = subprocess.Popen(self.command, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(json.dumps(request) + "\n",
                                      timeout=self.timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise Rejected(STAGE_SYNTHESIS, self.timeout_s / 60.0) from None
        if proc.returncode != 0:
            raise ToolError(f"evaluator exited with code {proc.returncode}")
        lines = [l for l in out.splitlines() if l.strip()]
        if not lines:
            raise ProtocolError("evaluator produced no response line")
        try:
            response = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"unparseable response: {exc}") from None
        if response.get("id") != request["id"]:
            raise ProtocolError(
                f"response id {response.get('id')!r} does not echo request id")
        status = response.get("status")
        if status == "invalid":
            raise Rejected(response.get("stage", STAGE_SYNTHESIS),
                           FAILURE_MINUTES)
        if status != "ok":
            raise ProtocolError(f"unknown status {status!r}")
        missing = [k for k in self.REQUIRED if k not in response]
        if missing:
            raise ProtocolError(f"response missing fields: {missing}")
        return EvaluationResult(
            cycles=int(response["cycles"]),
            fmax_mhz=float(response["fmax_mhz"]),
            luts=int(response["luts"]),
            power_w=float(response["power_w"]),
            eval_minutes=float(response["synthesis_minutes"]),
            valid=True,
        )
