"""Composing a DNN from a model tree at runtime — Algorithm 2.

Starting at the root, the decision engine concatenates the root block, then
repeatedly measures the current bandwidth, matches it to the k-th fork, and
concatenates the k-th child block — until it reaches a childless node (fully
on-edge model) or a partitioned node (remaining computation ships to the
cloud).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..contracts import require_positive
from ..model.spec import ModelSpec
from ..perf import get_registry
from .composer import SpecComposer
from .tree import ModelTree, TreeNode

#: Called before each block with the block index; returns measured Mbps.
BandwidthProbe = Callable[[int], float]


@dataclass(frozen=True)
class ComposedModel:
    """The result of one Alg. 2 walk."""

    path: Tuple[TreeNode, ...]
    edge_spec: Optional[ModelSpec]
    cloud_spec: Optional[ModelSpec]
    measured_bandwidths: Tuple[float, ...]

    @property
    def offloads(self) -> bool:
        return self.cloud_spec is not None and len(self.cloud_spec) > 0

    def full_spec(self) -> ModelSpec:
        if self.edge_spec is None or not len(self.edge_spec):
            assert self.cloud_spec is not None
            return self.cloud_spec
        if self.cloud_spec is None or not len(self.cloud_spec):
            return self.edge_spec
        return self.edge_spec.concatenate(self.cloud_spec, name="composed")

    def fingerprint(self) -> str:
        """Stable identity of the composition — ``edge:cloud`` fingerprints.

        Built from the parts' *cached* fingerprints (never the concatenated
        spec), so identifying a walk's outcome — e.g. deduplicating across
        requests or keying a downstream cache — costs two dict reads
        instead of a fresh serialization of the full model.
        """
        edge = self.edge_spec.fingerprint() if self.edge_spec is not None else ""
        cloud = self.cloud_spec.fingerprint() if self.cloud_spec is not None else ""
        return f"{edge}:{cloud}"


def match_fork(bandwidth_mbps: float, bandwidth_types: List[float]) -> int:
    """Match a live measurement to the nearest configured bandwidth type."""
    require_positive(bandwidth_mbps, "bandwidth_mbps")
    distances = [abs(bandwidth_mbps - t) for t in bandwidth_types]
    return int(np.argmin(distances))


def walk_tree(
    tree: ModelTree, measure: Callable[[TreeNode], float]
) -> Tuple[List[TreeNode], List[int], List[float]]:
    """The one Alg. 2 walk: root to a partitioned or childless node.

    At every other node ``measure(node)`` returns the measured Mbps, which
    picks the fork (clamped to the node's children). Returns the visited
    path, the fork taken at each step and the measurements.
    """
    node = tree.root
    path: List[TreeNode] = [node]
    forks: List[int] = []
    measured: List[float] = []
    while not node.partitioned and node.children:
        bandwidth = measure(node)
        fork = min(match_fork(bandwidth, tree.bandwidth_types), len(node.children) - 1)
        node = node.children[fork]
        path.append(node)
        forks.append(fork)
        measured.append(bandwidth)
    return path, forks, measured


def compose_from_tree(
    tree: ModelTree,
    probe: BandwidthProbe,
    composer: Optional[SpecComposer] = None,
) -> ComposedModel:
    """Algorithm 2: grow a model from the tree, fork by measured bandwidth.

    ``composer`` (optional) caches the edge-prefix concatenation by the
    parts' fingerprints, so repeated walks down the same path — the normal
    case across a session's requests — reuse one composed spec.
    """
    get_registry().count("compose.walks")
    path, _, measured = walk_tree(tree, lambda node: probe(node.block_index + 1))
    composer = composer if composer is not None else SpecComposer()
    return ComposedModel(
        path=tuple(path),
        edge_spec=composer.concat([node.edge_spec for node in path]),
        cloud_spec=path[-1].cloud_spec,
        measured_bandwidths=tuple(measured),
    )
