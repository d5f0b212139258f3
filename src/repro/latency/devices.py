"""Device compute profiles for the latency estimation model.

The paper observes (Sec. V-B, Fig. 5) that computational latency is linear
in the MACC count, with:

- one coefficient per *kernel size* for conv layers,
- one coefficient for FC layers,
- salient linearity on CPU platforms (the Xiaomi MI 6X smartphone),
- obscure linearity on GPU platforms (Jetson TX2, the cloud server) due to
  parallel execution — modeled here as a per-primitive latency floor plus a
  dispatch overhead, which flattens the curve for small layers exactly as
  the measured TX2/cloud points deviate below the fitted line in Fig. 5.

The preset coefficients are calibrated against Table I (phone latencies for
VGG19/ResNet50/101/152 at 224×224 input) and the relative device speeds the
paper reports ("today's edge devices are still at least 10 times slower than
a GPU-powered server").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..model.spec import ModelSpec
from .maccs import MaccEntry, model_macc_entries


@dataclass(frozen=True)
class DeviceProfile:
    """Linear-in-MACCs compute model for one platform.

    A profile is immutable once built, including the kernel-coefficient
    mapping: specs cache their latency keyed by the profile's value, so a
    profile mutated in place would read stale latencies. Derive a variant
    with :func:`dataclasses.replace` instead. Profiles hash by value (the
    coefficient mapping is left out of the hash but not out of equality),
    so equal profiles share cached latencies.

    Parameters
    ----------
    name:
        Platform identifier.
    conv_coeff_ms:
        Default milliseconds per conv MACC.
    conv_kernel_coeffs_ms:
        Kernel-size-specific overrides (paper: "the coefficients differ by
        kernel sizes for Conv layers").
    fc_coeff_ms:
        Milliseconds per FC MACC.
    dispatch_overhead_ms:
        Fixed cost added per primitive operation (kernel launch etc.).
    min_primitive_ms:
        Latency floor per primitive — GPUs cannot go faster than one
        scheduling quantum no matter how small the layer is.
    quantized_speedup:
        Throughput multiplier for ≤8-bit (Q1-quantized) layers — integer
        SIMD paths process roughly twice the MACCs per cycle on CPUs.
    is_gpu:
        Whether the platform executes primitives with massive parallelism
        (affects only documentation/plot labels; the floor and overhead do
        the numerical work).
    """

    name: str
    conv_coeff_ms: float
    fc_coeff_ms: float
    conv_kernel_coeffs_ms: Mapping[int, float] = field(default_factory=dict, hash=False)
    dispatch_overhead_ms: float = 0.0
    min_primitive_ms: float = 0.0
    is_gpu: bool = False
    quantized_speedup: float = 1.8

    def conv_coefficient(self, kernel_size: int) -> float:
        return self.conv_kernel_coeffs_ms.get(kernel_size, self.conv_coeff_ms)

    def primitive_latency_ms(self, entry: MaccEntry) -> float:
        """Latency of a single conv/FC primitive on this device."""
        if entry.kind == "fc":
            base = entry.maccs * self.fc_coeff_ms
        else:
            base = entry.maccs * self.conv_coefficient(entry.kernel_size)
        if entry.bits <= 8:
            base /= self.quantized_speedup
        return max(base, self.min_primitive_ms) + self.dispatch_overhead_ms

    def model_latency_ms(self, spec: ModelSpec) -> float:
        """Total compute latency of running ``spec`` on this device.

        Computed by :func:`compute_model_latency_ms` on the first call for
        a (spec, profile) pair and cached on the immutable spec, so every
        later call is one dict read and returns the identical float.
        """
        cache = spec._latency_ms
        latency = cache.get(self)
        if latency is None:
            latency = cache[self] = compute_model_latency_ms(self, spec)
        return latency


def compute_model_latency_ms(profile: DeviceProfile, spec: ModelSpec) -> float:
    """Rebuild ``spec``'s MACC table and sum its primitives on ``profile``.

    This is the raw, *uncached* computation behind
    :meth:`DeviceProfile.model_latency_ms`, exposed separately as the
    differential-test oracle and the benchmarks' in-process baseline.
    Library code should call the method, never this function.
    """
    return sum(profile.primitive_latency_ms(e) for e in model_macc_entries(spec))


# ---------------------------------------------------------------------------
# Presets (coefficients in ms per MACC).
#
# Phone: calibrated to Table I — 2.88e-7 ms/MACC reproduces VGG19 5734.89 ms
# and ResNet50 1103.20 ms within a few percent from our chain specs; 3×3
# convs are slightly cheaper per MACC than large kernels on the MI 6X's
# NEON-optimized conv paths.
# ---------------------------------------------------------------------------
XIAOMI_MI_6X = DeviceProfile(
    name="xiaomi_mi_6x",
    conv_coeff_ms=2.95e-7,
    fc_coeff_ms=3.6e-7,
    conv_kernel_coeffs_ms={1: 2.6e-7, 3: 2.88e-7, 5: 3.1e-7, 7: 3.2e-7, 11: 3.3e-7},
    dispatch_overhead_ms=0.02,
    min_primitive_ms=0.0,
)

# TX2: the mobile GPU's theoretical throughput is far above the phone CPU's,
# but the small CIFAR-scale convolutions the evaluation runs cannot saturate
# it — its *effective* per-MACC rate lands only ~2× the phone's, plus a
# visible kernel-dispatch cost per primitive. This matches the paper: TX2
# end-to-end latencies in Tables IV/V are comparable to (even above) the
# phone's, and TX2's Fig. 5 points bend off the linear fit ("obscure"
# linearity on GPU-based platforms).
JETSON_TX2 = DeviceProfile(
    name="jetson_tx2",
    conv_coeff_ms=1.5e-7,
    fc_coeff_ms=2.0e-7,
    conv_kernel_coeffs_ms={1: 1.3e-7, 3: 1.5e-7, 5: 1.6e-7, 7: 1.7e-7},
    dispatch_overhead_ms=1.5,
    min_primitive_ms=0.2,
    is_gpu=True,
)

CLOUD_SERVER = DeviceProfile(
    name="cloud_gtx1080ti",
    conv_coeff_ms=6.5e-9,
    fc_coeff_ms=1.2e-8,
    conv_kernel_coeffs_ms={1: 6.0e-9, 3: 6.5e-9, 5: 7.0e-9, 7: 7.2e-9},
    dispatch_overhead_ms=0.08,
    min_primitive_ms=0.03,
    is_gpu=True,
)

DEVICE_PRESETS: Dict[str, DeviceProfile] = {
    profile.name: profile
    for profile in (XIAOMI_MI_6X, JETSON_TX2, CLOUD_SERVER)
}


def get_device(name: str) -> DeviceProfile:
    try:
        return DEVICE_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown device {name!r}; available: {sorted(DEVICE_PRESETS)}"
        ) from None
