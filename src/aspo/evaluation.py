"""Configuration evaluation: synthetic processor model and external tools.

The synthetic model is a deterministic closed form standing in for a real
simulate-and-synthesize flow.  Cycle counts start from a per-benchmark base
(instructions retired) and grow by a quadratic penalty for every ordinal
parameter left below its top rank plus a fixed factor per categorical choice;
LUT usage accumulates per-parameter costs; the maximum frequency degrades
linearly with normalized LUT complexity; synthesis time ramps from a base
(incremental) to a full (from scratch) figure with the weighted distance to
the reference checkpoint.  All coefficients live in a bundled, frozen model
file so results are reproducible oracles.

Three accounting strategies mirror common evaluation setups: ``direct``
(every run synthesizes from scratch), ``fixed-checkpoint`` (always reuse the
default configuration's checkpoint), and ``retrieval`` (reuse the nearest
stored checkpoint; exact hits return cached metrics at lookup cost).

``ExternalEvaluator`` shells out to a real toolchain over a one-request,
one-response JSON line protocol, mapping timeouts and malformed output onto
the same result type.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .checkpoints import (
    CheckpointStore,
    DistanceWeights,
    match_config,
    weighted_distance,
)
from .constraints import exact_configuration
from .errors import ProtocolError, ToolError, UndefinedMetricError
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
        return {"cycles": self.cycles, "fmax_mhz": self.fmax_mhz,
                "luts": self.luts, "power_w": self.power_w,
                "eval_minutes": self.eval_minutes, "valid": self.valid,
                "failure_stage": self.failure_stage}

    @classmethod
    def from_dict(cls, data: dict) -> "EvaluationResult":
        return cls(**data)


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


class SyntheticModel:
    """Frozen closed-form stand-in for simulation plus synthesis."""

    def __init__(self, data: dict, space: ParameterSpace):
        self.space = space
        self.data = data
        self.base_frequency = float(data["base_frequency_mhz"])
        self.gamma = float(data["frequency_sensitivity"])
        self.base_luts = int(data["base_luts"])
        self.lut_budget = int(data["lut_budget"])
        self.t_full = float(data["full_synthesis_minutes"])
        self.t_base = float(data["base_synthesis_minutes"])
        self.power_idle = float(data["power_idle_w"])
        self.power_per_lut = float(data["power_per_lut_w"])
        self.noise_sd = float(data.get("noise_sd", 0.0))
        self.benchmarks = dict(data["benchmarks"])
        self.coeffs = data["parameters"]
        self.match_weights = DistanceWeights(
            np.array([data["match_weights"][p.name] for p in space.params]))
        self._max_dist = float(self.match_weights.w.sum())
        self._max_extra_luts = sum(self._max_lut(p.name) for p in space.params)

    @classmethod
    def from_dict(cls, data: dict, space: ParameterSpace) -> "SyntheticModel":
        return cls(data, space)

    @classmethod
    def load(cls, path, space: ParameterSpace) -> "SyntheticModel":
        return cls(json.loads(Path(path).read_text()), space)

    def _max_lut(self, name: str) -> float:
        c = self.coeffs[name]
        if "lut_factors" in c:
            return max(c["lut_factors"].values())
        return c["lut_cost"]

    def luts(self, cfg: dict) -> int:
        total = float(self.base_luts)
        for p in self.space.params:
            c = self.coeffs[p.name]
            if p.kind == CATEGORICAL:
                total += c["lut_factors"][cfg[p.name]]
            else:
                total += c["lut_cost"] * p.scaled_rank(cfg[p.name])
        return int(round(total))

    def complexity(self, cfg: dict) -> float:
        """Normalized extra LUT load in [0, 1]."""
        if self._max_extra_luts == 0:
            return 0.0
        return (self.luts(cfg) - self.base_luts) / self._max_extra_luts

    def fmax(self, cfg: dict) -> float:
        return self.base_frequency * (1.0 - self.gamma * self.complexity(cfg))

    def cycles(self, cfg: dict, benchmark: str, seed: int = 0) -> int:
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
        value = base * (1.0 + penalty)
        if self.noise_sd > 0:
            value *= float(np.exp(self.noise_sd * self._noise_draw(cfg, benchmark, seed)))
        return int(round(value))

    def _noise_draw(self, cfg: dict, benchmark: str, seed: int) -> float:
        key = json.dumps([[p.name, cfg[p.name]] for p in self.space.params]) \
            + benchmark
        digest = hashlib.sha256(key.encode()).digest()
        return float(np.random.default_rng(
            [seed, int.from_bytes(digest[:8], "big")]).standard_normal())

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


class EvalHarness:
    """Binds a synthetic model to a space, constraints, and a resource budget."""

    def __init__(self, model: SyntheticModel, tree=None,
                 resource_budget: ResourceBudget | None = None,
                 benchmark: str = "multiply", time_scale: float = 1.0):
        self.model = model
        self.space = model.space
        self.tree = tree
        self.budget = resource_budget or ResourceBudget(model.lut_budget)
        self.benchmark = benchmark
        self.time_scale = time_scale

    def _failed(self, stage: str, luts: int = 0) -> EvaluationResult:
        return EvaluationResult(
            cycles=0, fmax_mhz=self.model.base_frequency, luts=luts,
            power_w=0.0, eval_minutes=FAILURE_MINUTES * self.time_scale,
            valid=False, failure_stage=stage)

    def evaluate(self, cfg: dict, strategy: str = DIRECT,
                 db: CheckpointStore | None = None,
                 weights: DistanceWeights | None = None,
                 benchmark: str | None = None, seed: int = 0) -> EvaluationResult:
        """Constraint check, resource check, then strategy-priced metrics."""
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        benchmark = benchmark or self.benchmark
        if not exact_configuration(self.tree, self.space, cfg):
            return self._failed(STAGE_CONSTRAINT)
        luts = self.model.luts(cfg)
        if luts > self.budget.max_luts:
            return self._failed(STAGE_RESOURCE, luts=luts)

        if strategy == DIRECT:
            reference = None
        elif strategy == FIXED_CHECKPOINT:
            reference = self.space.default_configuration()
        else:
            if db is not None and (hit := db.lookup(cfg)) is not None:
                return replace(hit.metrics,
                               eval_minutes=LOOKUP_MINUTES * self.time_scale)
            if db is not None and len(db) > 0:
                w = weights or self.model.match_weights
                reference = match_config(db, cfg, w).config
            else:
                reference = None

        minutes = self.model.synthesis_time(cfg, reference) * self.time_scale
        cycles = self.model.cycles(cfg, benchmark, seed)
        return EvaluationResult(
            cycles=cycles,
            fmax_mhz=self.model.fmax(cfg),
            luts=luts,
            power_w=self.model.power(luts),
            eval_minutes=minutes,
            valid=True,
        )


class ExternalEvaluator:
    """Child-process evaluator speaking one JSON line each way.

    Request:  {"id": ..., "config": {...}, "checkpoint_hint": ...,
               "benchmark": ...}
    Response: {"id": ..., "status": "ok", "cycles": ..., "fmax_mhz": ...,
               "luts": ..., "power_w": ..., "synthesis_minutes": ...}
          or  {"id": ..., "status": "invalid", "stage": ...}
    """

    REQUIRED = ("cycles", "fmax_mhz", "luts", "power_w", "synthesis_minutes")

    def __init__(self, command: list[str], timeout_s: float = 300.0):
        self.command = list(command)
        self.timeout_s = timeout_s
        self._next_id = 0

    def evaluate(self, cfg: dict, benchmark: str,
                 checkpoint_hint: str | None = None) -> EvaluationResult:
        self._next_id += 1
        request = {"id": f"r{self._next_id}", "config": cfg,
                   "checkpoint_hint": checkpoint_hint, "benchmark": benchmark}
        proc = subprocess.Popen(self.command, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(json.dumps(request) + "\n",
                                      timeout=self.timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return EvaluationResult(
                cycles=0, fmax_mhz=1.0, luts=0, power_w=0.0,
                eval_minutes=self.timeout_s / 60.0, valid=False,
                failure_stage=STAGE_SYNTHESIS)
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
            return EvaluationResult(
                cycles=0, fmax_mhz=1.0, luts=0, power_w=0.0,
                eval_minutes=FAILURE_MINUTES, valid=False,
                failure_stage=response.get("stage", STAGE_SYNTHESIS))
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
