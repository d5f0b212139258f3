"""Differential test: the fragment-built fingerprint equals the raw one.

``ModelSpec.fingerprint`` assembles its JSON payload from per-layer cached
fragments; ``compute_fingerprint`` serializes the whole spec every time.
Both must return the identical string for every spec the system builds:
zoo models, every extended-registry technique's output, slices and
concatenations. Stored artifacts stamp fingerprints, so they must still
load through the stamp check.
"""

import gzip
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import extended_registry
from repro.model.blocks import slice_into_blocks
from repro.model.spec import (
    LayerSpec,
    LayerType,
    ModelSpec,
    TensorShape,
    compute_fingerprint,
    conv,
    fc,
    flatten,
)
from repro.nn.zoo import BASE_MODELS
from repro.search.serialize import load_plan, load_tree, tree_from_dict

ROOT = Path(__file__).resolve().parents[2]
ARTIFACTS = ROOT / "perfbench" / "artifacts"
SERVING_GOLDEN = ROOT / "tests" / "runtime" / "golden" / "serving.json.gz"


def _picks(indices):
    """First, middle and last of ``indices`` (deduplicated)."""
    return sorted({indices[0], indices[len(indices) // 2], indices[-1]}) if indices else []


def _specs(name):
    """Fresh specs derived from zoo model ``name``."""
    spec = BASE_MODELS[name]()
    yield "base", spec
    for technique in extended_registry():
        applicable = [i for i in range(len(spec)) if technique.applies_to(spec, i)]
        for index in _picks(applicable):
            yield f"{technique.name}@{index}", technique.apply(spec, index)
    blocks = [block.model for block in slice_into_blocks(spec, 3)]
    for i, block in enumerate(blocks):
        yield f"block{i}", block
    yield "block0+block1", blocks[0].concatenate(blocks[1])
    yield "block1+block2", blocks[1].concatenate(blocks[2])
    half = len(spec) // 2
    yield "halves", spec.slice(0, half).concatenate(spec.slice(half, len(spec)))
    yield "empty", spec.slice(half, half)


@pytest.mark.parametrize("name", sorted(BASE_MODELS))
def test_fingerprint_equals_reference(name):
    for label, spec in _specs(name):
        reference = compute_fingerprint(spec)
        assert spec.fingerprint() == reference, label
        assert spec.fingerprint() == reference, label  # cached value


def test_renamed_copy_shares_fingerprint():
    spec = BASE_MODELS["vgg11"]()
    renamed = ModelSpec(spec.layers, spec.input_shape, name="other")
    assert renamed.fingerprint() == spec.fingerprint() == compute_fingerprint(renamed)


def test_fragment_is_not_part_of_equality():
    layer = conv(16)
    _ = layer.fingerprint_fragment
    assert layer == conv(16)
    assert hash(layer) == hash(conv(16))


floats = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)
layers = st.builds(
    LayerSpec,
    layer_type=st.sampled_from([LayerType.FC, LayerType.RELU, LayerType.DROPOUT]),
    out_channels=st.integers(1, 4096),
    rank=st.integers(0, 64),
    sparsity=floats,
    dropout_p=st.floats(min_value=0.0, max_value=0.9),
    squeeze_ratio=st.floats(min_value=0.0, max_value=1.0),
    bits=st.integers(1, 32),
)


@given(st.lists(layers, max_size=6), st.integers(1, 512))
@settings(max_examples=60, deadline=None)
def test_fingerprint_equals_reference_on_random_layers(chain, features):
    spec = ModelSpec([flatten(), *chain, fc(10)], TensorShape(features, 1, 1, flat=True))
    assert spec.fingerprint() == compute_fingerprint(spec)


def _artifact_files():
    return sorted(p.name for p in ARTIFACTS.glob("*.json") if p.name != "manifest.json")


def test_artifacts_are_listed():
    assert len(_artifact_files()) == 9


@pytest.mark.parametrize("name", _artifact_files())
def test_artifact_loads_through_stamp_check(name):
    path = ARTIFACTS / name
    stamped = json.loads(path.read_text())
    if name.endswith(".tree.json"):
        assert stamped["base_fingerprint"]
        tree = load_tree(path)
        assert tree.base.fingerprint() == stamped["base_fingerprint"]
        specs = [tree.base] + [
            spec
            for node in tree.root.iter_nodes()
            for spec in (node.edge_spec, node.cloud_spec)
            if spec is not None
        ]
    else:
        assert any(stamped["fingerprints"].values())
        plan = load_plan(path)
        specs = [s for s in (plan.edge_spec, plan.cloud_spec) if s is not None]
    for spec in specs:
        assert spec.fingerprint() == compute_fingerprint(spec)


def test_serving_golden_trees_load_through_stamp_check():
    with gzip.open(SERVING_GOLDEN, "rt", encoding="utf-8") as handle:
        trees = json.load(handle)["trees"]
    assert trees
    for key, data in trees.items():
        tree = tree_from_dict(data)
        assert tree.base.fingerprint() == data["base_fingerprint"], key
