"""Loader for the bundled data files (design spaces, constraints, models).

Every bundled file is listed in ``assets/manifest.json`` with its sha256;
loads go through the manifest so a corrupted checkout fails loudly instead of
silently changing experiment oracles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .constraints import parse_constraints
from .errors import AssetError, InvalidConfigurationError
from .evaluation import SyntheticModel
from .space import ParameterSpace

#: processors with a bundled constraint file
CONSTRAINED = ("boom",)

PROCESSORS = ("el2_veer", "rocketchip", "boom")


def asset_root() -> Path:
    return Path(resources.files("aspo") / "assets")


def load_manifest(root=None) -> dict:
    root = Path(root) if root is not None else asset_root()
    path = root / "manifest.json"
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise AssetError(f"manifest missing: {path}") from None
    except json.JSONDecodeError as exc:
        raise AssetError(f"manifest unreadable: {exc}") from None


def _verified_text(root: Path, rel: str, manifest: dict) -> str:
    entry = next((f for f in manifest["files"] if f["path"] == rel), None)
    if entry is None:
        raise AssetError(f"file not listed in manifest: {rel}")
    path = root / rel
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise AssetError(f"bundled file missing: {rel}") from None
    digest = hashlib.sha256(raw).hexdigest()
    if digest != entry["sha256"]:
        raise AssetError(f"hash mismatch for {rel}: expected {entry['sha256']},"
                         f" got {digest}")
    return raw.decode("utf-8")


@dataclass
class Bundle:
    space: ParameterSpace
    tree: object  # Conj or None
    model: dict


def load_bundle(processor: str, root=None) -> Bundle:
    """A processor's space, constraint tree (None when none is bundled)
    and model dict, checked against one read of the manifest."""
    if processor not in PROCESSORS:
        raise AssetError(f"unknown processor {processor!r}; "
                         f"bundled: {', '.join(PROCESSORS)}")
    root = Path(root) if root is not None else asset_root()
    manifest = load_manifest(root)
    space = ParameterSpace.from_json(
        _verified_text(root, f"spaces/{processor}.json", manifest))
    tree = parse_constraints(_verified_text(
        root, f"constraints/{processor}.json", manifest), space) \
        if processor in CONSTRAINED else None
    model = json.loads(
        _verified_text(root, f"models/{processor}.json", manifest))
    try:
        SyntheticModel(model, space)
    except InvalidConfigurationError as exc:
        raise AssetError(f"{processor}: {exc}") from None
    return Bundle(space, tree, model)

