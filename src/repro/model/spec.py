"""Structural DNN descriptions — the MDP state of Sec. V-A.

The paper expresses each DNN layer as a hyperparameter string (Eqn. 1)::

    x_i = (l, k, s, p, n)

with ``l`` the layer type, ``k`` kernel size, ``s`` stride, ``p`` padding and
``n`` the number of output channels, "and a sequence of strings denotes the
state of an entire DNN model." :class:`LayerSpec` is that tuple plus the
small amount of extra structure needed by the compression techniques
(grouping, expansion factors, sparsity); :class:`ModelSpec` is the sequence,
with shape inference, parameter/feature-size accounting, and block slicing.

Everything here is pure structure: no weights are materialized, so the
reinforcement-learning search can evaluate thousands of candidate models
cheaply. ``repro.nn.build`` instantiates any spec as a real trainable
network when weights are needed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class LayerType(str, Enum):
    """Layer vocabulary used by specs, the latency model and the controllers."""

    CONV = "conv"
    DEPTHWISE_CONV = "dw_conv"
    POINTWISE_CONV = "pw_conv"
    FC = "fc"
    MAX_POOL = "max_pool"
    AVG_POOL = "avg_pool"
    GLOBAL_AVG_POOL = "global_avg_pool"
    BATCH_NORM = "batch_norm"
    RELU = "relu"
    DROPOUT = "dropout"
    FLATTEN = "flatten"
    FIRE = "fire"
    INVERTED_RESIDUAL = "inverted_residual"

    def __str__(self) -> str:  # keep specs readable in logs
        return self.value


#: Layer types whose MACCs dominate inference cost (Sec. V-B): conv-like and FC.
COMPUTE_LAYER_TYPES = frozenset(
    {
        LayerType.CONV,
        LayerType.DEPTHWISE_CONV,
        LayerType.POINTWISE_CONV,
        LayerType.FC,
        LayerType.FIRE,
        LayerType.INVERTED_RESIDUAL,
    }
)

#: Layer types the compression controller may act on.
COMPRESSIBLE_LAYER_TYPES = frozenset({LayerType.CONV, LayerType.FC})

BYTES_PER_VALUE = 4  # float32 features on the wire and in memory


@dataclass(frozen=True)
class LayerSpec:
    """One DNN layer as the (l, k, s, p, n) hyperparameter tuple of Eqn. 1.

    Extra fields extend the tuple exactly as the paper allows ("this
    formulation can be easily extended to include other hyper-parameters"):

    - ``groups``: channel grouping (``groups == in_channels`` ⇒ depthwise);
    - ``expansion``: MobileNetV2 inverted-residual expansion factor;
    - ``squeeze_ratio``: SqueezeNet Fire squeeze ratio;
    - ``rank``: SVD factorization rank for compressed FC layers;
    - ``sparsity``: KSVD sparse-factor density in (0, 1];
    - ``dropout_p``: dropout probability;
    - ``bits``: weight precision (32 = float; 8 = Q1-quantized).
    """

    layer_type: LayerType
    kernel_size: int = 0
    stride: int = 1
    padding: int = 0
    out_channels: int = 0
    groups: int = 1
    expansion: int = 1
    squeeze_ratio: float = 0.0
    rank: int = 0
    sparsity: float = 1.0
    dropout_p: float = 0.0
    bits: int = 32

    def __post_init__(self) -> None:
        if self.kernel_size < 0 or self.stride < 1 or self.padding < 0:
            raise ValueError(f"invalid geometry in {self}")
        if self.out_channels < 0:
            raise ValueError("out_channels must be non-negative")
        if not 0.0 < self.sparsity <= 1.0:
            raise ValueError("sparsity must be in (0, 1]")
        if self.bits < 1:
            raise ValueError("bits must be positive")

    # -- Eqn. 1 rendering ------------------------------------------------
    def to_string(self) -> str:
        """Render the (l, k, s, p, n) string of Eqn. 1."""
        return (
            f"{self.layer_type.value},{self.kernel_size},{self.stride},"
            f"{self.padding},{self.out_channels}"
        )

    def replace(self, **changes) -> "LayerSpec":
        return dataclasses.replace(self, **changes)

    @property
    def is_compute(self) -> bool:
        return self.layer_type in COMPUTE_LAYER_TYPES

    @property
    def is_compressible(self) -> bool:
        return self.layer_type in COMPRESSIBLE_LAYER_TYPES

    def to_dict(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        data["layer_type"] = self.layer_type.value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LayerSpec":
        data = dict(data)
        data["layer_type"] = LayerType(data["layer_type"])
        return cls(**data)  # type: ignore[arg-type]


@dataclass(frozen=True)
class TensorShape:
    """Shape of the activation flowing between layers (single example)."""

    channels: int
    height: int
    width: int
    flat: bool = False  # True once the activation is (features,) not (C, H, W)

    @property
    def num_values(self) -> int:
        if self.flat:
            return self.channels
        return self.channels * self.height * self.width

    @property
    def num_bytes(self) -> int:
        return self.num_values * BYTES_PER_VALUE


def _conv_out(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"layer produces non-positive spatial size: "
            f"in={size}, k={kernel}, s={stride}, p={padding}"
        )
    return out


def infer_output_shape(layer: LayerSpec, input_shape: TensorShape) -> TensorShape:
    """Shape inference for one layer; raises ``ValueError`` on misuse."""
    lt = layer.layer_type
    if lt in (LayerType.CONV, LayerType.DEPTHWISE_CONV, LayerType.POINTWISE_CONV):
        if input_shape.flat:
            raise ValueError(f"{lt} applied to flat input")
        h = _conv_out(input_shape.height, layer.kernel_size, layer.stride, layer.padding)
        w = _conv_out(input_shape.width, layer.kernel_size, layer.stride, layer.padding)
        out_c = layer.out_channels or input_shape.channels
        return TensorShape(out_c, h, w)
    if lt in (LayerType.FIRE, LayerType.INVERTED_RESIDUAL):
        if input_shape.flat:
            raise ValueError(f"{lt} applied to flat input")
        h = _conv_out(input_shape.height, layer.kernel_size, layer.stride, layer.padding)
        w = _conv_out(input_shape.width, layer.kernel_size, layer.stride, layer.padding)
        return TensorShape(layer.out_channels, h, w)
    if lt == LayerType.FC:
        return TensorShape(layer.out_channels, 1, 1, flat=True)
    if lt in (LayerType.MAX_POOL, LayerType.AVG_POOL):
        if input_shape.flat:
            raise ValueError("pooling applied to flat input")
        h = _conv_out(input_shape.height, layer.kernel_size, layer.stride, 0)
        w = _conv_out(input_shape.width, layer.kernel_size, layer.stride, 0)
        return TensorShape(input_shape.channels, h, w)
    if lt == LayerType.GLOBAL_AVG_POOL:
        if input_shape.flat:
            raise ValueError("global average pooling applied to flat input")
        return TensorShape(input_shape.channels, 1, 1, flat=True)
    if lt == LayerType.FLATTEN:
        return TensorShape(input_shape.num_values, 1, 1, flat=True)
    if lt in (LayerType.BATCH_NORM, LayerType.RELU, LayerType.DROPOUT):
        return input_shape
    raise ValueError(f"unknown layer type: {lt}")


def layer_parameter_count(layer: LayerSpec, in_channels: int) -> int:
    """Number of weights in a layer given its input channel count."""
    lt = layer.layer_type
    k = layer.kernel_size
    if lt == LayerType.CONV:
        return (in_channels // layer.groups) * layer.out_channels * k * k + layer.out_channels
    if lt == LayerType.DEPTHWISE_CONV:
        return in_channels * k * k + in_channels
    if lt == LayerType.POINTWISE_CONV:
        return in_channels * layer.out_channels + layer.out_channels
    if lt == LayerType.FC:
        if layer.rank > 0:
            dense = in_channels * layer.rank + layer.rank * layer.out_channels
            return int(dense * layer.sparsity) + layer.out_channels
        return in_channels * layer.out_channels + layer.out_channels
    if lt == LayerType.FIRE:
        squeeze = max(1, int(round(in_channels * layer.squeeze_ratio)))
        half = layer.out_channels // 2
        return (
            in_channels * squeeze
            + squeeze * half
            + squeeze * half * 9
            + squeeze
            + layer.out_channels
        )
    if lt == LayerType.INVERTED_RESIDUAL:
        hidden = in_channels * layer.expansion
        return (
            in_channels * hidden
            + hidden * k * k
            + hidden * layer.out_channels
            + 2 * hidden
            + layer.out_channels
        )
    if lt == LayerType.BATCH_NORM:
        return 2 * in_channels
    return 0


def compute_fingerprint(spec: "ModelSpec") -> str:
    """Serialize-and-hash a spec's structure (input shape + layers).

    This is the raw, *uncached* computation — O(layers) JSON serialization
    plus a SHA-256 — exposed separately so benchmarks can compare it against
    the cached :meth:`ModelSpec.fingerprint` path. Library code should call
    the method, never this function.
    """
    payload = json.dumps(
        {
            "input": dataclasses.asdict(spec.input_shape),
            "layers": [layer.to_dict() for layer in spec.layers],
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class ModelSpec:
    """An ordered sequence of :class:`LayerSpec` — the full MDP state string.

    Shape inference runs eagerly at construction so invalid specs (e.g. a
    conv after flattening) fail fast, and per-layer input/output shapes are
    available to the latency model and compression techniques.

    A spec is immutable: every surgery method returns a new one. Two values
    derived from its structure are therefore computed once and cached on
    the instance: the :meth:`fingerprint` (reference:
    :func:`compute_fingerprint`) and, per device profile, the compute
    latency that :meth:`~repro.latency.devices.DeviceProfile.model_latency_ms`
    returns (reference: :func:`~repro.latency.devices.compute_model_latency_ms`).
    Neither cache takes part in equality, hashing, the fingerprint or
    :meth:`to_dict`.
    """

    def __init__(
        self,
        layers: Sequence[LayerSpec],
        input_shape: TensorShape,
        name: str = "model",
    ) -> None:
        self.layers: Tuple[LayerSpec, ...] = tuple(layers)
        self.input_shape = input_shape
        self.name = name
        self._fingerprint: Optional[str] = None  # computed lazily, then cached
        #: Compute latency (ms) per device profile, filled by
        #: ``DeviceProfile.model_latency_ms`` on first use.
        self._latency_ms: Dict[object, float] = {}
        self._shapes: List[TensorShape] = [input_shape]
        for layer in self.layers:
            self._shapes.append(infer_output_shape(layer, self._shapes[-1]))

    # -- basics ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, index: int) -> LayerSpec:
        return self.layers[index]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ModelSpec)
            and self.layers == other.layers
            and self.input_shape == other.input_shape
        )

    def __hash__(self) -> int:
        return hash((self.layers, self.input_shape))

    def __repr__(self) -> str:
        return f"ModelSpec({self.name!r}, {len(self.layers)} layers)"

    # -- shapes ------------------------------------------------------------
    def input_shape_of(self, index: int) -> TensorShape:
        return self._shapes[index]

    def output_shape_of(self, index: int) -> TensorShape:
        return self._shapes[index + 1]

    @property
    def output_shape(self) -> TensorShape:
        return self._shapes[-1]

    # -- accounting ----------------------------------------------------------
    def parameter_count(self) -> int:
        return sum(
            layer_parameter_count(layer, self.input_shape_of(i).channels)
            for i, layer in enumerate(self.layers)
        )

    def parameter_bytes(self) -> int:
        """On-device storage, honoring per-layer weight precision (bits)."""
        total = 0
        for i, layer in enumerate(self.layers):
            count = layer_parameter_count(layer, self.input_shape_of(i).channels)
            total += count * layer.bits // 8
        return total

    def feature_bytes_after(self, index: int) -> int:
        """Bytes needed to ship the activation produced by layer ``index``.

        ``index == -1`` means shipping the raw input.
        """
        return self._shapes[index + 1].num_bytes

    # -- Eqn. 1 -----------------------------------------------------------
    def to_strings(self) -> List[str]:
        return [layer.to_string() for layer in self.layers]

    def fingerprint(self) -> str:
        """Stable hash for the memoization pool (Sec. VII-A 'memory pool').

        Computed once and cached: a spec is immutable (every surgery method
        returns a *new* spec), and the search hot path fingerprints the same
        objects thousands of times per episode. The name is deliberately
        excluded, so renamed copies of the same structure share a key.
        """
        if self._fingerprint is None:
            self._fingerprint = compute_fingerprint(self)
        return self._fingerprint

    # -- surgery ------------------------------------------------------------
    def replace_layer(self, index: int, new_layers: Sequence[LayerSpec]) -> "ModelSpec":
        """Return a new spec with layer ``index`` replaced by ``new_layers``."""
        layers = list(self.layers)
        layers[index : index + 1] = list(new_layers)
        return ModelSpec(layers, self.input_shape, name=self.name)

    def replace_range(
        self, start: int, stop: int, new_layers: Sequence[LayerSpec]
    ) -> "ModelSpec":
        layers = list(self.layers)
        layers[start:stop] = list(new_layers)
        return ModelSpec(layers, self.input_shape, name=self.name)

    def slice(self, start: int, stop: int, name: Optional[str] = None) -> "ModelSpec":
        """Sub-model covering layers [start, stop) with the right input shape."""
        return ModelSpec(
            self.layers[start:stop],
            self._shapes[start],
            name=name or f"{self.name}[{start}:{stop}]",
        )

    def concatenate(self, other: "ModelSpec", name: Optional[str] = None) -> "ModelSpec":
        """Append ``other`` (whose input shape must match our output)."""
        if other.input_shape != self.output_shape:
            raise ValueError(
                f"cannot concatenate: output {self.output_shape} != "
                f"input {other.input_shape}"
            )
        return ModelSpec(
            self.layers + other.layers,
            self.input_shape,
            name=name or f"{self.name}+{other.name}",
        )

    # -- (de)serialization ------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "input_shape": dataclasses.asdict(self.input_shape),
            "layers": [layer.to_dict() for layer in self.layers],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ModelSpec":
        shape = TensorShape(**data["input_shape"])  # type: ignore[arg-type]
        layers = [LayerSpec.from_dict(d) for d in data["layers"]]  # type: ignore[union-attr]
        return cls(layers, shape, name=str(data.get("name", "model")))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, payload: str) -> "ModelSpec":
        return cls.from_dict(json.loads(payload))


# ---------------------------------------------------------------------------
# Convenience constructors used throughout the model zoo
# ---------------------------------------------------------------------------
def conv(out_channels: int, kernel_size: int = 3, stride: int = 1, padding: int = 1) -> LayerSpec:
    return LayerSpec(LayerType.CONV, kernel_size, stride, padding, out_channels)


def fc(out_features: int) -> LayerSpec:
    return LayerSpec(LayerType.FC, 0, 1, 0, out_features)


def max_pool(kernel_size: int = 2, stride: Optional[int] = None) -> LayerSpec:
    return LayerSpec(LayerType.MAX_POOL, kernel_size, stride or kernel_size, 0, 0)


def relu() -> LayerSpec:
    return LayerSpec(LayerType.RELU)


def batch_norm() -> LayerSpec:
    return LayerSpec(LayerType.BATCH_NORM)


def dropout(p: float = 0.5) -> LayerSpec:
    return LayerSpec(LayerType.DROPOUT, dropout_p=p)


def flatten() -> LayerSpec:
    return LayerSpec(LayerType.FLATTEN)


def global_avg_pool() -> LayerSpec:
    return LayerSpec(LayerType.GLOBAL_AVG_POOL)
