"""Differential test: the cached per-spec latency equals the uncached model.

``DeviceProfile.model_latency_ms`` caches each spec's compute latency per
profile on the immutable spec; ``compute_model_latency_ms`` rebuilds the
MACC table every time. Both must return the identical float, on the first
call and on every later one, for every spec the system builds: zoo models,
every registered compression technique's output, block slices and their
concatenations.
"""

import dataclasses
import pickle

import pytest

import repro.latency.devices as devices
from repro.compression import extended_registry
from repro.latency.devices import (
    CLOUD_SERVER,
    JETSON_TX2,
    XIAOMI_MI_6X,
    compute_model_latency_ms,
)
from repro.model.blocks import slice_into_blocks
from repro.model.spec import ModelSpec, TensorShape, conv, fc
from repro.nn.zoo import BASE_MODELS, vgg11
from repro.search.multitier import FOG_SERVER

PROFILES = (XIAOMI_MI_6X, JETSON_TX2, CLOUD_SERVER, FOG_SERVER)


def _picks(indices):
    """First, middle and last of ``indices`` (deduplicated)."""
    return sorted({indices[0], indices[len(indices) // 2], indices[-1]}) if indices else []


def _technique_outputs(spec):
    for technique in extended_registry():
        applicable = [i for i in range(len(spec)) if technique.applies_to(spec, i)]
        for index in _picks(applicable):
            yield f"{technique.name}@{index}", technique.apply(spec, index)


def _block_specs(spec):
    blocks = [block.model for block in slice_into_blocks(spec, 3)]
    for i, block in enumerate(blocks):
        yield f"block{i}", block
    yield "block0+block1", blocks[0].concatenate(blocks[1])
    yield "block1+block2", blocks[1].concatenate(blocks[2])
    yield "halves", spec.slice(0, len(spec) // 2).concatenate(
        spec.slice(len(spec) // 2, len(spec))
    )


def _specs(name):
    """Fresh specs derived from zoo model ``name`` (nothing cached yet)."""
    spec = BASE_MODELS[name]()
    yield "base", spec
    yield from _technique_outputs(spec)
    yield from _block_specs(spec)


@pytest.mark.parametrize("name", sorted(BASE_MODELS))
def test_cached_latency_equals_reference(name):
    for label, spec in _specs(name):
        for profile in PROFILES:
            reference = compute_model_latency_ms(profile, spec)
            first = profile.model_latency_ms(spec)
            second = profile.model_latency_ms(spec)
            assert first == reference, (label, profile.name)
            assert second == reference, (label, profile.name)


def test_later_calls_do_not_recompute(monkeypatch):
    spec = vgg11()
    expected = XIAOMI_MI_6X.model_latency_ms(spec)

    def fail(profile, spec):
        raise AssertionError("recomputed a cached latency")

    monkeypatch.setattr(devices, "compute_model_latency_ms", fail)
    assert XIAOMI_MI_6X.model_latency_ms(spec) == expected


def test_equal_profile_shares_the_cached_value(monkeypatch):
    spec = vgg11()
    expected = XIAOMI_MI_6X.model_latency_ms(spec)
    twin = dataclasses.replace(XIAOMI_MI_6X)
    assert twin is not XIAOMI_MI_6X
    monkeypatch.setattr(devices, "compute_model_latency_ms", None)  # must not be reached
    assert twin.model_latency_ms(spec) == expected


@pytest.mark.parametrize(
    "changes",
    [
        {"conv_coeff_ms": 9e-7},
        {"fc_coeff_ms": 9e-7},
        {"conv_kernel_coeffs_ms": {**XIAOMI_MI_6X.conv_kernel_coeffs_ms, 3: 9e-7}},
        {"dispatch_overhead_ms": 0.5},
        {"min_primitive_ms": 0.1},
        {"quantized_speedup": 3.0},
    ],
    ids=lambda changes: next(iter(changes)),
)
def test_changed_profile_gets_its_own_value(changes):
    # An 8-bit 3x3 conv, a 9x9 conv (no kernel override: the default
    # coefficient) and an FC small enough to sit under a latency floor.
    mixed = ModelSpec([conv(8), conv(8, kernel_size=9, padding=4), fc(10)], TensorShape(3, 16, 16))
    spec = extended_registry().get("Q1").apply(mixed, 0)
    base = XIAOMI_MI_6X.model_latency_ms(spec)
    variant = dataclasses.replace(XIAOMI_MI_6X, **changes)
    assert variant.model_latency_ms(spec) == compute_model_latency_ms(variant, spec)
    assert variant.model_latency_ms(spec) != base
    assert XIAOMI_MI_6X.model_latency_ms(spec) == base


def test_pickled_spec_keeps_its_value():
    spec = vgg11()
    expected = {profile: profile.model_latency_ms(spec) for profile in PROFILES}
    restored = pickle.loads(pickle.dumps(spec))
    for profile in PROFILES:
        assert profile.model_latency_ms(restored) == expected[profile]
        assert compute_model_latency_ms(profile, restored) == expected[profile]


def test_cache_is_invisible_to_identity():
    warm, cold = vgg11(), vgg11()
    fingerprint, data = cold.fingerprint(), cold.to_dict()
    for profile in PROFILES:
        profile.model_latency_ms(warm)
    assert warm == cold and hash(warm) == hash(cold)
    assert warm.fingerprint() == fingerprint
    assert warm.to_dict() == data
    assert warm.to_json() == cold.to_json()
