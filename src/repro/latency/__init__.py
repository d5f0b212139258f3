"""Latency estimation: MACC counting, device profiles, transfer model."""

from .calibration import (
    ComputeMeasurement,
    LinearFit,
    MeasurementSimulator,
    TransferMeasurement,
    calibrate_compute_model,
    calibrate_transfer_model,
    compute_measurement_sweep,
    fit_linear,
    transfer_measurement_sweep,
)
from .compute import LatencyBreakdown, LatencyEstimator
from .energy import (
    EnergyBreakdown,
    EnergyEstimator,
    EnergyProfile,
    PHONE_4G_ENERGY,
    PHONE_WIFI_ENERGY,
    TX2_WIFI_ENERGY,
)
from .devices import (
    CLOUD_SERVER,
    DEVICE_PRESETS,
    JETSON_TX2,
    XIAOMI_MI_6X,
    DeviceProfile,
    compute_model_latency_ms,
    get_device,
)
from .maccs import MaccEntry, layer_maccs, maccs_by_kernel, model_macc_entries, total_maccs
from .transfer import (
    CELLULAR_TRANSFER,
    WIFI_TRANSFER,
    TransferModel,
    transmission_delay_ms,
)

__all__ = [
    "EnergyBreakdown",
    "EnergyEstimator",
    "EnergyProfile",
    "PHONE_4G_ENERGY",
    "PHONE_WIFI_ENERGY",
    "TX2_WIFI_ENERGY",
    "ComputeMeasurement",
    "LinearFit",
    "MeasurementSimulator",
    "TransferMeasurement",
    "calibrate_compute_model",
    "calibrate_transfer_model",
    "compute_measurement_sweep",
    "fit_linear",
    "transfer_measurement_sweep",
    "LatencyBreakdown",
    "LatencyEstimator",
    "CLOUD_SERVER",
    "DEVICE_PRESETS",
    "JETSON_TX2",
    "XIAOMI_MI_6X",
    "DeviceProfile",
    "compute_model_latency_ms",
    "get_device",
    "MaccEntry",
    "layer_maccs",
    "maccs_by_kernel",
    "model_macc_entries",
    "total_maccs",
    "CELLULAR_TRANSFER",
    "WIFI_TRANSFER",
    "TransferModel",
    "transmission_delay_ms",
]
