"""Unit tests for device compute profiles and the transfer model (Eqn. 6)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.latency.devices import (
    CLOUD_SERVER,
    DEVICE_PRESETS,
    JETSON_TX2,
    XIAOMI_MI_6X,
    DeviceProfile,
    get_device,
)
from repro.latency.maccs import MaccEntry
from repro.latency.transfer import (
    CELLULAR_TRANSFER,
    WIFI_TRANSFER,
    TransferModel,
    transmission_delay_ms,
)
from repro.nn.zoo import vgg11, vgg19


def conv_entry(maccs, kernel=3):
    return MaccEntry(0, "conv", kernel, maccs)


class TestDeviceProfiles:
    def test_presets_registered(self):
        assert set(DEVICE_PRESETS) == {"xiaomi_mi_6x", "jetson_tx2", "cloud_gtx1080ti"}
        assert get_device("jetson_tx2") is JETSON_TX2

    def test_unknown_device(self):
        with pytest.raises(KeyError):
            get_device("pixel9")

    def test_linearity_on_cpu(self):
        t1 = XIAOMI_MI_6X.primitive_latency_ms(conv_entry(10_000_000))
        t2 = XIAOMI_MI_6X.primitive_latency_ms(conv_entry(20_000_000))
        # Linear up to the small dispatch overhead.
        assert abs((t2 - XIAOMI_MI_6X.dispatch_overhead_ms) - 2 * (t1 - XIAOMI_MI_6X.dispatch_overhead_ms)) < 1e-9

    def test_kernel_specific_coefficients(self):
        small = XIAOMI_MI_6X.conv_coefficient(1)
        large = XIAOMI_MI_6X.conv_coefficient(7)
        assert small < large

    def test_unknown_kernel_uses_default(self):
        assert XIAOMI_MI_6X.conv_coefficient(9) == XIAOMI_MI_6X.conv_coeff_ms

    def test_gpu_floor_bends_small_layers(self):
        tiny = JETSON_TX2.primitive_latency_ms(conv_entry(1_000))
        assert tiny >= JETSON_TX2.min_primitive_ms

    def test_device_speed_ordering(self):
        """Cloud beats TX2 beats phone on a large model (Sec. I: edge ≥10× slower)."""
        spec = vgg19()
        phone = XIAOMI_MI_6X.model_latency_ms(spec)
        tx2 = JETSON_TX2.model_latency_ms(spec)
        cloud = CLOUD_SERVER.model_latency_ms(spec)
        assert cloud < tx2 < phone
        assert phone / cloud > 10

    def test_fc_entry_uses_fc_coeff(self):
        entry = MaccEntry(0, "fc", 0, 1_000_000)
        expected = 1_000_000 * XIAOMI_MI_6X.fc_coeff_ms + XIAOMI_MI_6X.dispatch_overhead_ms
        assert XIAOMI_MI_6X.primitive_latency_ms(entry) == pytest.approx(expected)

    def test_presets_hash_and_key_dicts(self):
        presets = (XIAOMI_MI_6X, JETSON_TX2, CLOUD_SERVER)
        table = {profile: profile.name for profile in presets}
        assert len({hash(profile) for profile in presets}) == 3
        for profile in presets:
            copy = dataclasses.replace(profile)
            assert copy is not profile
            assert copy == profile and hash(copy) == hash(profile)
            assert table[copy] == profile.name

    def test_kernel_coefficients_count_for_equality_not_hash(self):
        coeffs = {**XIAOMI_MI_6X.conv_kernel_coeffs_ms, 3: 1e-7}
        variant = dataclasses.replace(XIAOMI_MI_6X, conv_kernel_coeffs_ms=coeffs)
        assert variant != XIAOMI_MI_6X
        assert hash(variant) == hash(XIAOMI_MI_6X)
        assert len({XIAOMI_MI_6X: 0, variant: 1}) == 2

    def test_table1_calibration_within_20_percent(self):
        """The phone profile reproduces the paper's Table I within tolerance."""
        from repro.experiments.table1 import run_table1

        for row in run_table1():
            assert abs(row.relative_error) < 0.20, row


class TestTransmissionDelay:
    def test_closed_form(self):
        # 1 MB at 8 Mbps = 1 second.
        assert transmission_delay_ms(1_000_000, 8.0) == pytest.approx(1000.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            transmission_delay_ms(100, 0.0)


class TestTransferModel:
    def test_monotone_in_size(self):
        model = WIFI_TRANSFER
        assert model.latency_ms(1_000, 10) < model.latency_ms(100_000, 10)

    def test_monotone_in_bandwidth(self):
        model = WIFI_TRANSFER
        assert model.latency_ms(100_000, 50) < model.latency_ms(100_000, 5)

    def test_zero_size_free(self):
        assert WIFI_TRANSFER.latency_ms(0, 10) == 0.0

    def test_cellular_costlier_setup(self):
        assert CELLULAR_TRANSFER.latency_ms(1_000, 10) > WIFI_TRANSFER.latency_ms(1_000, 10)

    def test_fit_recovers_ground_truth(self):
        truth = TransferModel(
            setup_ms=12.0, per_byte_overhead_ms=2e-5, setup_per_inverse_mbps_ms=30.0
        )
        rng = np.random.default_rng(0)
        sizes, bandwidths, measured = [], [], []
        for size in (1e3, 1e4, 1e5, 1e6):
            for bw in (2.0, 10.0, 40.0):
                sizes.append(size)
                bandwidths.append(bw)
                measured.append(truth.latency_ms(size, bw))
        fit = TransferModel.fit(sizes, bandwidths, measured)
        assert fit.setup_ms == pytest.approx(truth.setup_ms, rel=0.05)
        assert fit.per_byte_overhead_ms == pytest.approx(
            truth.per_byte_overhead_ms, rel=0.05
        )
        assert fit.r_squared(sizes, bandwidths, measured) > 0.999

    def test_fit_needs_three_points(self):
        with pytest.raises(ValueError):
            TransferModel.fit([1.0], [1.0], [1.0])

    def test_fit_mismatched_lengths(self):
        with pytest.raises(ValueError):
            TransferModel.fit([1.0, 2.0], [1.0], [1.0, 2.0])

    @given(
        size=st.floats(1e2, 1e7),
        bandwidth=st.floats(0.5, 200.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_latency_always_positive_and_finite(self, size, bandwidth):
        latency = CELLULAR_TRANSFER.latency_ms(size, bandwidth)
        assert latency > 0
        assert np.isfinite(latency)
