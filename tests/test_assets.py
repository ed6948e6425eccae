import hashlib
import json
import shutil

import pytest

from aspo import assets
from aspo.constraints import exact_configuration, smooth_satisfied, smooth_tree, tree_parameters
from aspo.errors import AssetError


def test_load_assets_pristine():
    assert assets.PROCESSORS == ("el2_veer", "rocketchip", "boom")
    for proc in assets.PROCESSORS:
        assets.load_bundle(proc)


def test_boom_space_has_ten_parameters():
    space = assets.load_bundle("boom").space
    assert len(space.params) == 10


def test_shared_parameters_present_in_both_cores():
    shared = {"core_num", "icache_nSets", "icache_nWays", "dcache_nSets",
              "dcache_nWays"}
    for proc in ("rocketchip", "boom"):
        names = {p.name for p in assets.load_bundle(proc).space.params}
        assert shared <= names


def test_boom_default_satisfies_constraints():
    bundle = assets.load_bundle("boom")
    default = bundle.space.default_configuration()
    assert exact_configuration(bundle.tree, bundle.space, default)
    values = {n: default[n] for n in bundle.space.ordinal_names}
    assert smooth_satisfied(smooth_tree(bundle.tree, values))


def test_constraints_reference_only_declared_parameters():
    bundle = assets.load_bundle("boom")
    declared = {p.name for p in bundle.space.params}
    assert tree_parameters(bundle.tree) <= declared


def test_corrupted_file_raises_named_error(tmp_path):
    src = assets.asset_root()
    root = tmp_path / "assets"
    shutil.copytree(src, root)
    target = root / "spaces" / "boom.json"
    raw = bytearray(target.read_bytes())
    raw[20] ^= 0xFF
    target.write_bytes(bytes(raw))
    with pytest.raises(AssetError, match="spaces/boom.json"):
        assets.load_bundle("boom", root=root)


def test_model_without_coefficients_rejected(tmp_path):
    root = tmp_path / "assets"
    shutil.copytree(assets.asset_root(), root)
    target = root / "models" / "boom.json"
    model = json.loads(target.read_text())
    del model["parameters"]["FetchWidth"]
    target.write_text(json.dumps(model))
    manifest = json.loads((root / "manifest.json").read_text())
    for entry in manifest["files"]:
        if entry["path"] == "models/boom.json":
            entry["sha256"] = hashlib.sha256(target.read_bytes()).hexdigest()
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(AssetError, match="boom: .*FetchWidth"):
        assets.load_bundle("boom", root=root)


def test_unknown_processor_rejected():
    with pytest.raises(AssetError):
        assets.load_bundle("z80")


def test_model_files_cover_every_parameter():
    for proc in assets.PROCESSORS:
        bundle = assets.load_bundle(proc)
        assert set(bundle.model["parameters"]) == {p.name for p in bundle.space.params}


def test_benchmark_table():
    model = assets.load_bundle("boom").model
    assert model["benchmarks"] == {
        "coremark": 282995, "dhrystone": 186031, "rsort": 171154,
        "qsort": 123506, "multiply": 42503, "spmv": 34466, "mm": 24744,
    }


def test_icache_rule_binds_only_at_top_way_count():
    # the condition interval's upper end exceeds the largest admissible value,
    # so the conditional can only fire at icache_nWays == 64
    bundle = assets.load_bundle("boom")
    ways = bundle.space.param("icache_nWays").values
    assert max(ways) == 64
    bad = dict(bundle.space.default_configuration(),
               icache_nWays=64, icache_nSets=8)
    assert not exact_configuration(bundle.tree, bundle.space, bad)
    ok = dict(bundle.space.default_configuration(),
              icache_nWays=64, icache_nSets=4)
    assert exact_configuration(bundle.tree, bundle.space, ok)
