"""Output check for aspo reports that does not rely on aspo.

It reads the bundled space, model and constraint JSON files directly and
recomputes, in closed form, what every row of an emitted ``report.jsonl``
must say.  Nothing here imports aspo, so a fault in aspo's evaluator,
constraint code or report writer cannot hide itself.

``check_report`` returns ``(bad_rows, problems)``: the indices of history
rows that fail a row-level check, and one message per problem found, row
level and run level alike.  An empty ``problems`` list means the report is
correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

#: virtual minutes charged for a database hit and for a rejected design,
#: before time compression (README, "Checkpoint reuse accounting")
LOOKUP_MINUTES = 0.1
FAILURE_MINUTES = 1.0

#: relative tolerance for floats that aspo computes by the same formula
REL_TOL = 1e-9

REJECTION_STAGES = ("constraint", "resource")


@dataclass
class Design:
    """The bundled files of one processor, read as plain JSON."""

    processor: str
    params: list          # [{"name", "kind", "values", "default"}, ...]
    model: dict
    constraints: dict | None

    @classmethod
    def load(cls, asset_dir, processor: str) -> "Design":
        asset_dir = Path(asset_dir)
        space = json.loads((asset_dir / f"spaces/{processor}.json").read_text())
        model = json.loads((asset_dir / f"models/{processor}.json").read_text())
        cpath = asset_dir / f"constraints/{processor}.json"
        constraints = json.loads(cpath.read_text()) if cpath.exists() else None
        return cls(processor, space["parameters"], model, constraints)

    # ---------------------------------------------------------------- model

    @staticmethod
    def _scaled_rank(p: dict, value) -> float:
        n = len(p["values"])
        return 0.0 if n == 1 else p["values"].index(value) / (n - 1)

    def luts(self, cfg: dict) -> int:
        total = float(self.model["base_luts"])
        for p in self.params:
            c = self.model["parameters"][p["name"]]
            if p["kind"] == "categorical":
                total += c["lut_factors"][cfg[p["name"]]]
            else:
                total += c["lut_cost"] * self._scaled_rank(p, cfg[p["name"]])
        return int(round(total))

    def fmax_mhz(self, luts: int) -> float:
        max_extra = 0.0
        for p in self.params:
            c = self.model["parameters"][p["name"]]
            max_extra += max(c["lut_factors"].values()) \
                if "lut_factors" in c else c["lut_cost"]
        complexity = (luts - self.model["base_luts"]) / max_extra
        return self.model["base_frequency_mhz"] * (
            1.0 - self.model["frequency_sensitivity"] * complexity)

    def cycles(self, cfg: dict, benchmark: str) -> int:
        penalty = 0.0
        for p in self.params:
            c = self.model["parameters"][p["name"]]
            if p["kind"] == "categorical":
                penalty += c["cycle_factors"][cfg[p["name"]]]
            else:
                penalty += c["cycle_beta"] * \
                    (1.0 - self._scaled_rank(p, cfg[p["name"]])) ** 2
        return int(round(self.model["benchmarks"][benchmark] * (1.0 + penalty)))

    def eet_ms(self, cfg: dict, benchmark: str) -> float:
        return self.cycles(cfg, benchmark) / \
            (self.fmax_mhz(self.luts(cfg)) * 1e3)

    def power_w(self, luts: int) -> float:
        return self.model["power_idle_w"] + self.model["power_per_lut_w"] * luts

    def in_budget(self, cfg: dict) -> bool:
        return self.luts(cfg) <= self.model["lut_budget"]

    # ---------------------------------------------------------- constraints

    def feasible(self, cfg: dict) -> bool:
        """Integer semantics of the constraint grammar (root is ``all``)."""
        return self.constraints is None or _holds(self.constraints, cfg)

    def admissible(self, cfg) -> bool:
        return isinstance(cfg, dict) and set(cfg) == \
            {p["name"] for p in self.params} and \
            all(cfg[p["name"]] in p["values"] for p in self.params)

    def neighbours(self, cfg: dict):
        """Every configuration that differs from ``cfg`` in one parameter."""
        for p in self.params:
            for v in p["values"]:
                if v != cfg[p["name"]]:
                    yield dict(cfg, **{p["name"]: v})


def _holds(node: dict, cfg: dict) -> bool:
    (kind, body), = node.items()
    if kind == "all":
        return all(_holds(c, cfg) for c in body)
    if kind == "any":
        return any(_holds(c, cfg) for c in body)
    if kind == "ineq":
        lhs = body.get("ka", 1) * cfg[body["xa"]] - \
            body.get("kb", 1) * cfg[body["xb"]] + body.get("t", 0)
        return lhs > 0 if body.get("strict", False) else lhs >= 0
    if kind == "cond":
        lo, hi = body["if"]["in"]
        if not lo <= cfg[body["if"]["param"]] <= hi:
            return True
        lo, hi = body["then"]["in"]
        return lo <= cfg[body["then"]["param"]] <= hi
    if kind == "div":
        return cfg[body["xa"]] % cfg[body["xb"]] == 0
    raise ValueError(f"unknown constraint kind {kind!r}")


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=REL_TOL,
                                                        abs_tol=1e-12)


def _check_row(design: Design, row: dict, benchmark: str,
               compression: float) -> list[str]:
    cfg = row.get("config")
    if not design.admissible(cfg):
        return [f"configuration not in the {design.processor} space: {cfg}"]
    out = []
    minutes = row.get("eval_minutes")
    feasible = design.feasible(cfg)
    luts = design.luts(cfg)
    if row.get("valid") is True:
        if row.get("failure_stage") is not None:
            out.append("valid row names a failure stage")
        if not feasible:
            out.append("valid row violates the constraints")
        if luts > design.model["lut_budget"]:
            out.append(f"valid row exceeds the LUT budget ({luts})")
        if row.get("luts") != luts:
            out.append(f"luts {row.get('luts')} != {luts}")
        cycles = design.cycles(cfg, benchmark)
        if row.get("cycles") != cycles:
            out.append(f"cycles {row.get('cycles')} != {cycles}")
        fmax = design.fmax_mhz(luts)
        if not _close(row.get("fmax_mhz"), fmax):
            out.append(f"fmax_mhz {row.get('fmax_mhz')} != {fmax}")
        if not _close(row.get("power_w"), design.power_w(luts)):
            out.append(f"power_w {row.get('power_w')} != {design.power_w(luts)}")
        eet = cycles / (fmax * 1e3)
        if not _close(row.get("eet_ms"), eet):
            out.append(f"eet_ms {row.get('eet_ms')} != {eet}")
        lo = design.model["base_synthesis_minutes"] * compression
        hi = design.model["full_synthesis_minutes"] * compression
        lookup = _close(minutes, LOOKUP_MINUTES * compression)
        if not lookup and not (isinstance(minutes, float) and
                               lo * (1 - REL_TOL) <= minutes <= hi * (1 + REL_TOL)):
            out.append(f"eval_minutes {minutes} is neither a lookup charge nor "
                       f"within [{lo}, {hi}]")
    elif row.get("valid") is False:
        stage = row.get("failure_stage")
        if stage not in REJECTION_STAGES:
            out.append(f"unknown failure stage {stage!r}")
        elif stage == "constraint" and feasible:
            out.append("constraint-stage rejection of a feasible design")
        elif stage == "resource" and (not feasible or
                                      luts <= design.model["lut_budget"]):
            out.append("resource-stage rejection of an infeasible or "
                       "in-budget design")
        if row.get("eet_ms") is not None:
            out.append("invalid row reports an eet_ms")
        if not _close(minutes, FAILURE_MINUTES * compression):
            out.append(f"rejected design charged {minutes}, not the failure "
                       "charge")
    else:
        out.append(f"valid is {row.get('valid')!r}")
    return out


def check_report(rows: list[dict], design: Design, *, benchmark: str,
                 compression: float, expected_stop: str,
                 constrained_proposals: bool = False,
                 local_optimum: bool = False) -> tuple[list[int], list[str]]:
    """Check one run's report rows (history rows, then the summary row).

    ``constrained_proposals`` demands that no row is infeasible (the
    optimizer promises feasible proposals); ``local_optimum`` demands that
    no feasible in-budget single-parameter neighbour of the best
    configuration has a lower EET, as a converged best-improvement climb
    must ensure.
    """
    if not rows or rows[-1].get("summary") is not True:
        return [], ["report has no summary row"]
    history, summary = rows[:-1], rows[-1]
    bad_rows, problems = [], []
    for i, row in enumerate(history):
        found = _check_row(design, row, benchmark, compression)
        if constrained_proposals and design.admissible(row.get("config")) \
                and not design.feasible(row["config"]):
            found.append("the constrained optimizer evaluated an infeasible "
                         "design")
        if found:
            bad_rows.append(i)
            problems += [f"row {i}: {p}" for p in found]

    if summary.get("evaluations") != len(history):
        problems.append(f"summary counts {summary.get('evaluations')} "
                        f"evaluations, report has {len(history)}")
    valid = [r for r in history if r.get("valid") is True]
    best = min((r["eet_ms"] for r in valid), default=None)
    if summary.get("best_eet_ms") != best:
        problems.append(f"best_eet_ms {summary.get('best_eet_ms')} is not the "
                        f"minimum over valid rows ({best})")
    tdt = sum(r.get("eval_minutes") or 0.0 for r in history)
    if not _close(summary.get("tdt_minutes"), tdt):
        problems.append(f"tdt_minutes {summary.get('tdt_minutes')} is not the "
                        f"sum of eval_minutes ({tdt})")
    if history and not _close(summary.get("idr"),
                              (len(history) - len(valid)) / len(history)):
        problems.append(f"idr {summary.get('idr')} does not match the rows")
    if summary.get("stop_reason") != expected_stop:
        problems.append(f"stop_reason {summary.get('stop_reason')!r}, "
                        f"expected {expected_stop!r}")

    best_cfg = summary.get("best_config")
    if best is not None and (not design.admissible(best_cfg) or not _close(
            design.eet_ms(best_cfg, benchmark), best)):
        problems.append(f"best_config {best_cfg} does not give best_eet_ms")
    elif local_optimum and best is not None:
        for n in design.neighbours(best_cfg):
            if design.feasible(n) and design.in_budget(n) and \
                    design.eet_ms(n, benchmark) < best * (1 - REL_TOL):
                problems.append(f"best configuration has an improving "
                                f"neighbour: {n}")
                break
    return bad_rows, problems


def read_report(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]
