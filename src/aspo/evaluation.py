"""Configuration evaluation: one harness in front of two synthesis backends.

``EvalHarness`` runs every evaluation the same way, whatever synthesizes the
design: the constraint stage, the retrieval lookup, the choice of reference
checkpoint, synthesis by the backend, the resource stage on the synthesized
LUT count, and the one conversion of the tool's minutes into the run's
virtual minutes (``time_scale``).  It ranks the configuration once, which
raises before any stage on one that does not match the space, and builds
every failed result.  The reference is none under ``direct`` (from scratch),
the default configuration under ``fixed-checkpoint``, and the nearest stored
checkpoint under ``retrieval``, where an exact hit returns the cached metrics
at lookup cost.  A backend has a ``space``, a ``base_frequency`` that failed
results record, and ``synthesize(ranks, reference_ranks, benchmark)`` on rank
rows, which returns a valid result in the tool's own minutes or raises
``Rejected``.  The answer depends on the design and the reference alone.

``SyntheticModel`` is a deterministic closed form standing in for a real
simulate-and-synthesize flow.  Cycle counts start from a per-benchmark base
(instructions retired) and grow by a quadratic penalty for every ordinal
parameter left below its top rank plus a fixed factor per categorical choice;
LUT usage accumulates per-parameter costs; both sums read per-rank tables
over the rank row.  The maximum frequency degrades linearly with the LUT
load; synthesis time ramps from a base to a full (from scratch) figure with
the weighted ``rank_terms`` to the reference (``reuse_minutes``).  All
coefficients live in a bundled, frozen model file so results are reproducible
oracles.  ``ExternalEvaluator`` runs a real toolchain over a one-request,
one-response JSON line protocol.
"""

from __future__ import annotations

import json
import math
import subprocess
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .checkpoints import (
    CheckpointStore,
    DistanceWeights,
    artifact_path,
    rank_terms,
)
from .constraints import exact_configuration
from .errors import (
    InvalidConfigurationError,
    ProtocolError,
    ToolError,
    UndefinedMetricError,
)
from .space import CATEGORICAL, ParameterSpace, config_ranks, rank_configuration

DIRECT = "direct"
FIXED_CHECKPOINT = "fixed-checkpoint"
RETRIEVAL = "retrieval"
STRATEGIES = (DIRECT, FIXED_CHECKPOINT, RETRIEVAL)

STAGE_CONSTRAINT = "constraint"
STAGE_RESOURCE = "resource"
STAGE_SYNTHESIS = "synthesis"
STAGES = (STAGE_CONSTRAINT, STAGE_RESOURCE, STAGE_SYNTHESIS)

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
        if not isinstance(data, dict):
            raise InvalidConfigurationError("model file must hold an object")
        unknown = [k for k in data if k not in MODEL_KEYS + ("processor",)]
        if unknown:
            raise InvalidConfigurationError(
                f"model file has unknown key(s) {', '.join(unknown)}")
        coeffs = data.get("parameters", {})
        objects = {k: data.get(k, {}) for k in
                   ("benchmarks", "match_weights", "parameters")}
        if isinstance(coeffs, dict):
            objects.update((f"parameters.{n}", c) for n, c in coeffs.items())
            objects.update((f"parameters.{n}.{f}", c.get(f, {}))
                           for n, c in coeffs.items() if isinstance(c, dict)
                           for f in ("lut_factors", "cycle_factors"))
        malformed = [k for k, v in objects.items() if not isinstance(v, dict)]
        if malformed:
            raise InvalidConfigurationError(
                f"model file: {', '.join(malformed)} must be object(s)")
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
        try:
            self.base_frequency = float(data["base_frequency_mhz"])
            self.gamma = float(data["frequency_sensitivity"])
            self.base_luts = int(data["base_luts"])
            self.lut_budget = int(data["lut_budget"])
            self.t_full = float(data["full_synthesis_minutes"])
            self.t_base = float(data["base_synthesis_minutes"])
            self.power_idle = float(data["power_idle_w"])
            self.power_per_lut = float(data["power_per_lut_w"])
            self.benchmarks = {name: float(base) for name, base
                               in data["benchmarks"].items()}
            self.match_weights = DistanceWeights(
                np.array([data["match_weights"][n] for n in names]))
            self._max_dist = float(self.match_weights.w.sum())
            self._max_extra_luts = sum(
                max(c["lut_factors"].values()) if "lut_factors" in c
                else c["lut_cost"] for c in map(coeffs.get, names))
            # each parameter's LUT and cycle-penalty terms, indexed by rank
            params = [(p, coeffs[p.name]) for p in space.params]
            self._lut_terms = [
                [float(c["lut_factors"][v]) if p.kind == CATEGORICAL
                 else c["lut_cost"] * p.scaled_rank(v) for v in p.values]
                for p, c in params]
            self._cycle_terms = [
                [float(c["cycle_factors"][v]) if p.kind == CATEGORICAL
                 else c["cycle_beta"] * (1.0 - p.scaled_rank(v)) ** 2
                 for v in p.values] for p, c in params]
        except (TypeError, ValueError) as exc:
            raise InvalidConfigurationError(f"model file: {exc}") from None

    @classmethod
    def load(cls, path, space: ParameterSpace) -> "SyntheticModel":
        return cls(json.loads(Path(path).read_text()), space)

    # dict entry points for perfbench's checks; aspo itself prices rank rows
    def luts(self, cfg: dict) -> int:
        return self._price(config_ranks(self.space, cfg))[0]

    def fmax(self, cfg: dict) -> float:
        return self._price(config_ranks(self.space, cfg))[1]

    def cycles(self, cfg: dict, benchmark: str) -> int:
        return self.synthesize(config_ranks(self.space, cfg), None,
                               benchmark).cycles

    def synthesis_time(self, cfg: dict, reference_cfg: dict | None) -> float:
        """``_minutes`` between two configurations."""
        return self._minutes(
            config_ranks(self.space, cfg), None if reference_cfg is None
            else config_ranks(self.space, reference_cfg))

    def _price(self, ranks) -> tuple[int, float, float]:
        """LUT count, frequency and cycle penalty of a rank row."""
        luts, penalty = float(self.base_luts), 0.0
        for lut, cycle, r in zip(self._lut_terms, self._cycle_terms, ranks):
            luts += lut[r]
            penalty += cycle[r]
        luts = int(round(luts))
        # the frequency falls with the extra LUT load
        load = 0.0 if self._max_extra_luts == 0 \
            else (luts - self.base_luts) / self._max_extra_luts
        return luts, self.base_frequency * (1.0 - self.gamma * load), penalty

    def _minutes(self, ranks, reference_ranks) -> float:
        """Minutes to synthesize; the full figure without a reference."""
        if reference_ranks is None:
            return self.t_full
        return self.reuse_minutes(
            rank_terms(self.space, ranks, reference_ranks))

    def reuse_minutes(self, terms) -> float:
        """Minutes to synthesize at ``rank_terms`` row ``terms`` from the
        reference: reuse pays off in proportion to the design shared."""
        d = float(np.dot(self.match_weights.w, terms))
        frac = min(d / self._max_dist, 1.0) if self._max_dist > 0 else 1.0
        return min(max(self.t_base + (self.t_full - self.t_base) * frac,
                       self.t_base), self.t_full)

    def synthesize(self, ranks, reference_ranks,
                   benchmark: str) -> EvaluationResult:
        try:
            base = self.benchmarks[benchmark]
        except KeyError:
            raise UndefinedMetricError(f"unknown benchmark {benchmark!r}") from None
        luts, fmax, penalty = self._price(ranks)
        return EvaluationResult(
            cycles=int(round(base * (1.0 + penalty))), fmax_mhz=fmax, luts=luts,
            power_w=self.power_idle + self.power_per_lut * luts,
            eval_minutes=self._minutes(ranks, reference_ranks), valid=True)


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
        ranks = config_ranks(self.space, cfg)
        if not exact_configuration(self.tree, self.space, cfg):
            return self._failed(STAGE_CONSTRAINT, 0, FAILURE_MINUTES)
        from_store = strategy == RETRIEVAL and db is not None and len(db) > 0
        if from_store and (hit := db.find(ranks)) is not None:
            result = replace(hit.metrics, eval_minutes=LOOKUP_MINUTES)
        else:
            if strategy == FIXED_CHECKPOINT:
                reference = self.space.default_ranks
            else:
                reference = db.nearest(ranks, weights) if from_store else None
            try:
                result = self.backend.synthesize(ranks, reference, self.benchmark)
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

    ``config`` is the design in space order; ``checkpoint_hint`` is the
    reference's artifact handle, or null for a from-scratch run.  A timeout is a rejection
    at the synthesis stage charged ``timeout_s`` of the tool's time; an
    ``invalid`` reply is one charged ``FAILURE_MINUTES`` at its ``STAGES``
    entry, ``synthesis`` when it names none.
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

    def synthesize(self, ranks, reference_ranks,
                   benchmark: str) -> EvaluationResult:
        self._next_id += 1
        hint = None if reference_ranks is None else artifact_path(
            self.space, rank_configuration(self.space, reference_ranks))
        request = {"id": f"r{self._next_id}",
                   "config": rank_configuration(self.space, ranks),
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
        if not isinstance(response, dict):
            raise ProtocolError("response is not a JSON object")
        if response.get("id") != request["id"]:
            raise ProtocolError(
                f"response id {response.get('id')!r} does not echo request id")
        status = response.get("status")
        if status == "invalid":
            if (stage := response.get("stage", STAGE_SYNTHESIS)) not in STAGES:
                raise ProtocolError(f"unknown stage {stage!r}")
            raise Rejected(stage, FAILURE_MINUTES)
        if status != "ok":
            raise ProtocolError(f"unknown status {status!r}")
        # each a JSON number (not a bool), finite and >= 0; fmax_mhz > 0
        bad = [k for k in self.REQUIRED
               if type(value := response.get(k)) not in (int, float)
               or not 0 <= value < math.inf or k == "fmax_mhz" and value == 0]
        if bad:
            raise ProtocolError(f"response fields missing or invalid: {bad}")
        return EvaluationResult(
            cycles=int(response["cycles"]),
            fmax_mhz=float(response["fmax_mhz"]),
            luts=int(response["luts"]),
            power_w=float(response["power_w"]),
            eval_minutes=float(response["synthesis_minutes"]),
            valid=True,
        )
