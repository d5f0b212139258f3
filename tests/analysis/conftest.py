"""Shared fixtures for the static-analysis tests: one trained tree, reused."""

import pytest

from repro.nn.zoo import vgg11
from repro.search.serialize import tree_to_dict
from repro.search.tree import TreeSearchConfig, model_tree_search
from tests.conftest import make_context


@pytest.fixture(scope="session")
def trained():
    """(context, result) of a small but real Alg. 3 search on vgg11."""
    context = make_context(vgg11(), 0.9201)
    config = TreeSearchConfig(num_blocks=3, episodes=3, branch_episodes=5, seed=0)
    result = model_tree_search(context, [5.0, 20.0], config=config)
    return context, result


@pytest.fixture
def tree_dict(trained):
    """A fresh serialized copy of the trained tree, safe to corrupt."""
    _, result = trained
    return tree_to_dict(result.tree)
