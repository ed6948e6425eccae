#!/usr/bin/env python3
"""Regenerate the bundled asset files and their manifest.

The space and constraint definitions mirror the published processor design
spaces; the model coefficient files are calibrated once and frozen here so
test oracles stay stable.  Run from the repo root:

    python3 scripts/build_assets.py
"""

import hashlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "src" / "aspo" / "assets"

CACHE_GEOM = [2, 4, 8, 16, 32, 64]
POW2_MEM = [4, 8, 16, 32, 64, 128, 256, 512]

SPACES = {
    "el2_veer": {"parameters": [
        {"name": "icache_size", "kind": "ordinal",
         "values": [16, 32, 64, 128, 256], "default": 16},
        {"name": "lsu_stbuf_depth", "kind": "ordinal",
         "values": [2, 4, 8], "default": 4},
        {"name": "btb_enable", "kind": "categorical",
         "values": ["true", "false"], "default": "true"},
        {"name": "iccm_size", "kind": "ordinal",
         "values": POW2_MEM, "default": 64},
        {"name": "dccm_size", "kind": "ordinal",
         "values": POW2_MEM, "default": 64},
    ]},
    "rocketchip": {"parameters": [
        {"name": "core_num", "kind": "ordinal",
         "values": [1, 2, 3, 4], "default": 1},
        {"name": "icache_nSets", "kind": "ordinal",
         "values": CACHE_GEOM, "default": 64},
        {"name": "icache_nWays", "kind": "ordinal",
         "values": CACHE_GEOM, "default": 4},
        {"name": "dcache_nSets", "kind": "ordinal",
         "values": CACHE_GEOM, "default": 64},
        {"name": "dcache_nWays", "kind": "ordinal",
         "values": CACHE_GEOM, "default": 4},
        {"name": "mul_div_config", "kind": "categorical",
         "values": ["Fast", "Default", "Simple"], "default": "Default"},
        {"name": "btb_config", "kind": "categorical",
         "values": ["Default", "WithoutBTB"], "default": "Default"},
    ]},
    "boom": {"parameters": [
        {"name": "core_num", "kind": "ordinal",
         "values": [1, 2, 3, 4], "default": 1},
        {"name": "icache_nSets", "kind": "ordinal",
         "values": CACHE_GEOM, "default": 64},
        {"name": "icache_nWays", "kind": "ordinal",
         "values": CACHE_GEOM, "default": 4},
        {"name": "dcache_nSets", "kind": "ordinal",
         "values": CACHE_GEOM, "default": 64},
        {"name": "dcache_nWays", "kind": "ordinal",
         "values": CACHE_GEOM, "default": 4},
        {"name": "bpd_config", "kind": "categorical",
         "values": ["TAGEL", "Boom2", "Alpha21264"], "default": "TAGEL"},
        {"name": "FetchWidth", "kind": "ordinal",
         "values": [1, 4, 8], "default": 4},
        {"name": "DecodeWidth", "kind": "ordinal",
         "values": [1, 2, 3, 4, 5, 6], "default": 1},
        {"name": "RobEntry", "kind": "ordinal",
         "values": [32, 64, 96, 120, 128], "default": 32},
        {"name": "FetchBufferEntry", "kind": "ordinal",
         "values": [8, 16, 24, 32, 35, 40], "default": 16},
    ]},
}

CONSTRAINTS = {
    "boom": {"all": [
        {"ineq": {"ka": 1, "xa": "FetchWidth", "kb": 1, "xb": "DecodeWidth", "t": 0}},
        {"ineq": {"ka": 1, "xa": "FetchBufferEntry", "kb": 1, "xb": "FetchWidth",
                  "t": 0, "strict": True}},
        # binds only at nWays = 64: the space tops out below the upper endpoint
        {"cond": {"if": {"param": "icache_nWays", "in": [64, 128]},
                  "then": {"param": "icache_nSets", "in": [2, 4]}}},
        {"any": [
            {"cond": {"if": {"param": "dcache_nWays", "in": [16, 32]},
                      "then": {"param": "dcache_nSets", "in": [2, 4]}}},
            {"cond": {"if": {"param": "dcache_nWays", "in": [128, 256]},
                      "then": {"param": "dcache_nSets", "in": [4, 8]}}},
        ]},
        {"div": {"xa": "RobEntry", "xb": "DecodeWidth"}},
        {"div": {"xa": "FetchBufferEntry", "xb": "DecodeWidth"}},
    ]},
}

BENCHMARKS = {
    "coremark": 282995,
    "dhrystone": 186031,
    "rsort": 171154,
    "qsort": 123506,
    "multiply": 42503,
    "spmv": 34466,
    "mm": 24744,
}

MODELS = {
    "el2_veer": {
        "processor": "el2_veer",
        "base_frequency_mhz": 60.0,
        "frequency_sensitivity": 0.25,
        "base_luts": 24000,
        "lut_budget": 70560,
        "full_synthesis_minutes": 11.4,
        "base_synthesis_minutes": 2.9,
        "power_idle_w": 0.2,
        "power_per_lut_w": 1.2e-05,
        "benchmarks": BENCHMARKS,
        "match_weights": {
            "icache_size": 1.2, "lsu_stbuf_depth": 0.4, "btb_enable": 0.5,
            "iccm_size": 0.9, "dccm_size": 0.9,
        },
        "parameters": {
            "icache_size": {"cycle_beta": 0.22, "lut_cost": 12000},
            "lsu_stbuf_depth": {"cycle_beta": 0.10, "lut_cost": 4000},
            "btb_enable": {"cycle_factors": {"true": 0.0, "false": 0.12},
                           "lut_factors": {"true": 5000, "false": 0}},
            "iccm_size": {"cycle_beta": 0.15, "lut_cost": 9000},
            "dccm_size": {"cycle_beta": 0.12, "lut_cost": 9000},
        },
    },
    "rocketchip": {
        "processor": "rocketchip",
        "base_frequency_mhz": 55.0,
        "frequency_sensitivity": 0.28,
        "base_luts": 50000,
        "lut_budget": 214604,
        "full_synthesis_minutes": 45.4,
        "base_synthesis_minutes": 12.0,
        "power_idle_w": 0.3,
        "power_per_lut_w": 1.2e-05,
        "benchmarks": BENCHMARKS,
        "match_weights": {
            "core_num": 2.0, "icache_nSets": 0.6, "icache_nWays": 0.9,
            "dcache_nSets": 0.8, "dcache_nWays": 1.2,
            "mul_div_config": 1.1, "btb_config": 0.7,
        },
        "parameters": {
            "core_num": {"cycle_beta": 0.02, "lut_cost": 35000},
            "icache_nSets": {"cycle_beta": 0.09, "lut_cost": 6000},
            "icache_nWays": {"cycle_beta": 0.11, "lut_cost": 9000},
            "dcache_nSets": {"cycle_beta": 0.13, "lut_cost": 8000},
            "dcache_nWays": {"cycle_beta": 0.16, "lut_cost": 12000},
            "mul_div_config": {
                "cycle_factors": {"Fast": 0.0, "Default": 0.07, "Simple": 0.16},
                "lut_factors": {"Fast": 11000, "Default": 6000, "Simple": 2500}},
            "btb_config": {
                "cycle_factors": {"Default": 0.0, "WithoutBTB": 0.10},
                "lut_factors": {"Default": 7000, "WithoutBTB": 0}},
        },
    },
    "boom": {
        "processor": "boom",
        "base_frequency_mhz": 50.0,
        "frequency_sensitivity": 0.30,
        "base_luts": 80000,
        "lut_budget": 214604,
        "full_synthesis_minutes": 81.2,
        "base_synthesis_minutes": 20.3,
        "power_idle_w": 0.4,
        "power_per_lut_w": 1.2e-05,
        "benchmarks": BENCHMARKS,
        "match_weights": {
            "core_num": 2.0, "icache_nSets": 0.6, "icache_nWays": 0.9,
            "dcache_nSets": 0.8, "dcache_nWays": 1.2, "bpd_config": 0.9,
            "FetchWidth": 1.6, "DecodeWidth": 1.8, "RobEntry": 0.7,
            "FetchBufferEntry": 0.45,
        },
        "parameters": {
            "core_num": {"cycle_beta": 0.02, "lut_cost": 40000},
            "icache_nSets": {"cycle_beta": 0.08, "lut_cost": 6000},
            "icache_nWays": {"cycle_beta": 0.10, "lut_cost": 9000},
            "dcache_nSets": {"cycle_beta": 0.12, "lut_cost": 8000},
            "dcache_nWays": {"cycle_beta": 0.15, "lut_cost": 12000},
            "bpd_config": {
                "cycle_factors": {"TAGEL": 0.0, "Boom2": 0.09, "Alpha21264": 0.05},
                "lut_factors": {"TAGEL": 9000, "Boom2": 3500, "Alpha21264": 6000}},
            "FetchWidth": {"cycle_beta": 0.30, "lut_cost": 16000},
            "DecodeWidth": {"cycle_beta": 0.35, "lut_cost": 18000},
            "RobEntry": {"cycle_beta": 0.10, "lut_cost": 7000},
            "FetchBufferEntry": {"cycle_beta": 0.06, "lut_cost": 4500},
        },
    },
}

PROVENANCE = {
    "spaces": "published",
    "constraints": "published",
    "models": "calibrated",
}


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n")


def main() -> None:
    files = []
    for name, data in SPACES.items():
        files.append((f"spaces/{name}.json", data))
    for name, data in CONSTRAINTS.items():
        files.append((f"constraints/{name}.json", data))
    for name, data in MODELS.items():
        files.append((f"models/{name}.json", data))
    manifest = {"files": []}
    for rel, data in files:
        path = ROOT / rel
        write_json(path, data)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest["files"].append({
            "path": rel,
            "sha256": digest,
            "provenance": PROVENANCE[rel.split("/")[0]],
        })
    write_json(ROOT / "manifest.json", manifest)
    print(f"wrote {len(files)} asset files + manifest under {ROOT}")


if __name__ == "__main__":
    main()
