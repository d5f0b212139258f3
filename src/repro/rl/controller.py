"""The LSTM-based partition and compression controllers — Sec. VI-C, Fig. 6.

Both controllers share a backbone: the layer-hyperparameter sequence runs
through a bidirectional LSTM producing hidden states ``H_i``. The *partition
controller* emits one softmax over the L+1 cut choices of a block (cut
before layer 0..L−1, or the L+1-th "no partition" option — Sec. VII-A). The
*compression controller* emits one softmax per layer over the technique
registry, with inapplicable techniques masked out.

Sampling returns both the drawn action and its log-probability tensor so
REINFORCE gradients flow back through the LSTM.

Both controllers expose a batched entry point (``sample_batch``): N
requests against the same block — the K same-block-different-bandwidth
forks of a tree level, or the per-fork edge slices — run through the
backbone as one (N, T, W) pass instead of N sequential calls. The single
``sample`` methods delegate to the batch path with N = 1, so batched and
sequential sampling are the same code and consume the RNG identically in
request order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compression.base import TechniqueRegistry
from ..model.spec import ModelSpec
from ..nn import functional as F
from ..nn.init import xavier_uniform
from ..nn.layers import Module
from ..nn.rnn import BiLSTM
from ..nn.tensor import Tensor, concatenate
from .encoding import ENCODING_WIDTH, encode_model

NO_PARTITION = -1  # sentinel action: keep the whole block on the edge


def _sample_from_logits(
    logits: Tensor, rng: np.random.Generator, mask: Optional[np.ndarray] = None
) -> Tuple[int, Tensor, Tensor]:
    """Sample from masked logits; return (index, log-prob, entropy tensors).

    The entropy of the (masked) distribution supports the optional
    exploration bonus in :class:`~repro.rl.reinforce.ReinforceTrainer`.
    """
    if mask is not None:
        logits = logits + Tensor(np.where(mask, 0.0, -1e9))
    log_probs = F.log_softmax(logits, axis=-1)
    probs_t = log_probs.exp()
    entropy = -(probs_t * log_probs).sum()
    probs = probs_t.data / probs_t.data.sum()  # flowcheck: ignore[div-guard] -- softmax probs sum to ~1; renormalizes fp error for rng.choice
    index = int(rng.choice(len(probs), p=probs))
    return index, log_probs[index], entropy


class PartitionController(Module):
    """Chooses where (whether) to cut a block between edge and cloud."""

    def __init__(self, hidden_size: int = 32, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.backbone = BiLSTM(ENCODING_WIDTH, hidden_size, rng=rng)
        width = 2 * hidden_size
        # Per-position cut score (cut before layer i) and a no-partition
        # score read from the last hidden state.
        self.last_entropy: Optional[Tensor] = None
        self.cut_head = Tensor(
            xavier_uniform((width, 1), width, 1, rng), requires_grad=True,
            name="partition.cut_head",
        )
        self.keep_head = Tensor(
            xavier_uniform((width, 1), width, 1, rng), requires_grad=True,
            name="partition.keep_head",
        )
        # Favor "no partition" at initialization: a uniform policy over L+1
        # cut positions almost never keeps a block whole (probability
        # 1/(L+1)), starving the compression controller of full-block
        # samples — the same pathology the paper's fair-chance exploration
        # counters at tree level.
        self.bias = Tensor(np.array([0.0, 2.0]), requires_grad=True, name="partition.bias")

    def logits(self, spec: ModelSpec, bandwidth_mbps: float) -> Tensor:
        """The L+1 logits for a block spec: [cut@0 .. cut@L-1, no-partition]."""
        return self.logits_batch(spec, [bandwidth_mbps])[0]

    def logits_batch(
        self, spec: ModelSpec, bandwidths_mbps: Sequence[float]
    ) -> Tensor:
        """(N, L+1) logits: one row per requested bandwidth for one block."""
        encoded = Tensor(
            np.concatenate(
                [encode_model(spec, bw) for bw in bandwidths_mbps], axis=0
            )
        )
        n = len(bandwidths_mbps)
        hidden = self.backbone(encoded)  # (N, T, width)
        cut_scores = hidden.matmul(self.cut_head).reshape(n, -1) + self.bias[0]
        keep_score = hidden[:, -1, :].matmul(self.keep_head) + self.bias[1]
        return concatenate([cut_scores, keep_score], axis=1)

    def sample_batch(
        self,
        spec: ModelSpec,
        bandwidths_mbps: Sequence[float],
        rng: np.random.Generator,
        force_flags: Optional[Sequence[bool]] = None,
    ) -> List[Tuple[int, Tensor, Optional[Tensor]]]:
        """Sample N cuts for one block in a single backbone pass.

        Returns one ``(cut_index, log_prob, entropy)`` triple per requested
        bandwidth, in request order — which is also the RNG consumption
        order, so a batch of one draws exactly what a sequential call would.
        Forced rows (fair-chance exploration, Sec. VII-A) never sample a
        distribution; their entropy is ``None`` and they consume no RNG.
        """
        n = len(bandwidths_mbps)
        flags = list(force_flags) if force_flags is not None else [False] * n
        if len(flags) != n:
            raise ValueError("force_flags length must match bandwidths_mbps")
        logits = self.logits_batch(spec, bandwidths_mbps)
        length = len(spec)
        results: List[Tuple[int, Tensor, Optional[Tensor]]] = []
        for row in range(n):
            if flags[row]:
                log_probs = F.log_softmax(logits[row], axis=-1)
                results.append((NO_PARTITION, log_probs[length], None))
                continue
            index, log_prob, entropy = _sample_from_logits(logits[row], rng)
            cut = NO_PARTITION if index == length else index
            results.append((cut, log_prob, entropy))
        return results

    def sample(
        self,
        spec: ModelSpec,
        bandwidth_mbps: float,
        rng: np.random.Generator,
        force_no_partition: bool = False,
    ) -> Tuple[int, Tensor]:
        """Sample a cut: returns (cut_index, log-prob).

        ``cut_index`` in [0, L) cuts before that layer (cloud takes
        [cut_index, L)); ``NO_PARTITION`` keeps the block on the edge.
        ``force_no_partition`` implements the fair-chance exploration
        override (Sec. VII-A) — the log-prob of the forced choice is still
        returned so the update remains on-policy for the chosen action.
        ``last_entropy`` is reset to ``None`` on the forced path (no
        distribution was sampled, so the previous node's entropy must not
        leak to a later reader).
        """
        cut, log_prob, entropy = self.sample_batch(
            spec, [bandwidth_mbps], rng, [force_no_partition]
        )[0]
        self.last_entropy = entropy
        return cut, log_prob

    def greedy(self, spec: ModelSpec, bandwidth_mbps: float) -> int:
        """Arg-max cut choice (used after training converges)."""
        logits = self.logits(spec, bandwidth_mbps).data
        index = int(np.argmax(logits))
        return NO_PARTITION if index == len(spec) else index


class CompressionController(Module):
    """Chooses a compression technique for every layer of a block."""

    def __init__(
        self,
        registry: TechniqueRegistry,
        hidden_size: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed + 1)
        self.registry = registry
        self.technique_names: List[str] = list(registry.names)
        self.backbone = BiLSTM(ENCODING_WIDTH, hidden_size, rng=rng)
        width = 2 * hidden_size
        count = len(self.technique_names)
        self.last_entropies: List[Tensor] = []
        self.head = Tensor(
            xavier_uniform((width, count), width, count, rng),
            requires_grad=True,
            name="compression.head",
        )
        # Start near the identity: a fresh uniform policy would compress
        # ~80 % of layers per sample (4 of 5 techniques transform), and such
        # over-compressed candidates score so poorly the search never sees
        # the sparse plans that actually win. Biasing the ID logit makes
        # early samples compress ~1-3 layers, the paper's operating regime.
        bias = np.zeros(count)
        if "ID" in self.technique_names:
            bias[self.technique_names.index("ID")] = 2.0
        self.head_bias = Tensor(bias, requires_grad=True, name="compression.head_bias")

    def _applicable_mask(self, spec: ModelSpec, layer: int) -> np.ndarray:
        applicable = {t.name for t in self.registry.applicable(spec, layer)}
        return np.array([n in applicable for n in self.technique_names])

    def _sole_applicable_name(self, mask: np.ndarray) -> str:
        """The action for a layer with at most one applicable technique.

        Nothing is sampled (a one-arm distribution carries no gradient
        signal), but the emitted name must be the technique that actually
        applies — an earlier revision hardcoded ``"ID"``, silently dropping
        the sole applicable transform whenever identity was masked out.
        ``"ID"`` remains the no-op fallback when *nothing* applies.
        """
        if mask.any():
            return self.technique_names[int(np.argmax(mask))]
        return "ID"

    def logits_batch(
        self, specs: Sequence[ModelSpec], bandwidths_mbps: Sequence[float]
    ) -> List[Tensor]:
        """Per-request (T, C) technique logits, one backbone pass per length.

        Specs of equal length are grouped into one (N, T, W) backbone pass
        and one fused head matmul; rows come back in request order.
        """
        if len(specs) != len(bandwidths_mbps):
            raise ValueError("specs and bandwidths_mbps must have equal length")
        logits_rows: Dict[int, Tensor] = {}
        groups: Dict[int, List[int]] = {}
        for i, spec in enumerate(specs):
            groups.setdefault(len(spec), []).append(i)
        for indices in groups.values():
            encoded = Tensor(
                np.concatenate(
                    [
                        encode_model(specs[i], bandwidths_mbps[i])
                        for i in indices
                    ],
                    axis=0,
                )
            )
            hidden = self.backbone(encoded)  # (n, T, width)
            all_logits = hidden.matmul(self.head) + self.head_bias  # (n, T, C)
            for j, i in enumerate(indices):
                logits_rows[i] = all_logits[j]
        return [logits_rows[i] for i in range(len(specs))]

    def sample_batch(
        self,
        specs: Sequence[ModelSpec],
        bandwidths_mbps: Sequence[float],
        rng: np.random.Generator,
    ) -> List[Tuple[List[str], List[Tensor], List[Tensor]]]:
        """Sample per-layer techniques for N edge slices in batched passes.

        Logits come from :meth:`logits_batch`; sampling then runs in
        *request order* regardless of grouping, so the RNG stream matches N
        sequential :meth:`sample` calls over the same requests. Returns one
        ``(names, log_probs, entropies)`` triple per request.
        """
        logits_rows = self.logits_batch(specs, bandwidths_mbps)
        results: List[Tuple[List[str], List[Tensor], List[Tensor]]] = []
        for i, spec in enumerate(specs):
            layer_logits = logits_rows[i]
            names: List[str] = []
            log_probs: List[Tensor] = []
            entropies: List[Tensor] = []
            for layer in range(len(spec)):
                mask = self._applicable_mask(spec, layer)
                if mask.sum() <= 1:
                    names.append(self._sole_applicable_name(mask))
                    continue
                index, log_prob, entropy = _sample_from_logits(
                    layer_logits[layer], rng, mask=mask
                )
                names.append(self.technique_names[index])
                log_probs.append(log_prob)
                entropies.append(entropy)
            results.append((names, log_probs, entropies))
        return results

    def sample(
        self,
        spec: ModelSpec,
        bandwidth_mbps: float,
        rng: np.random.Generator,
    ) -> Tuple[List[str], List[Tensor]]:
        """Sample one technique name per layer; returns (names, log-probs).

        Inapplicable techniques are masked; layers where at most one
        technique applies are skipped (their action carries no gradient
        signal) and emit that technique's name directly.
        """
        names, log_probs, entropies = self.sample_batch(
            [spec], [bandwidth_mbps], rng
        )[0]
        self.last_entropies = entropies
        return names, log_probs

    def greedy(self, spec: ModelSpec, bandwidth_mbps: float) -> List[str]:
        """Arg-max technique per layer (used after training converges)."""
        all_logits = self.logits_batch([spec], [bandwidth_mbps])[0].data  # (T, C)
        names = []
        for i in range(len(spec)):
            mask = self._applicable_mask(spec, i)
            if mask.sum() <= 1:
                names.append(self._sole_applicable_name(mask))
                continue
            logits = np.where(mask, all_logits[i], -1e9)
            names.append(self.technique_names[int(np.argmax(logits))])
        return names
