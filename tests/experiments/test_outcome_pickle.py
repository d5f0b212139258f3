"""A scene's outcome crosses process boundaries: it must pickle.

Parallel sweeps ship each ``ScenarioOutcome`` from a worker back to the
parent. A searched tree that still held its controller tokens carried the
autograd graph along, whose backward closures cannot be pickled. This
config is the one that exposed it.
"""

import pickle

from repro.experiments.common import ExperimentConfig, run_scenario
from repro.network.scenarios import get_scenario


def test_scenario_outcome_pickles():
    config = ExperimentConfig(tree_episodes=20, branch_episodes=40, emulation_requests=40)
    outcome = run_scenario(get_scenario("vgg11", "phone", "4G indoor static"), config)
    tree = outcome.tree.plan.tree
    assert all(not node.tokens for node in tree.root.iter_nodes())
    restored = pickle.loads(pickle.dumps(outcome))
    assert restored.tree.offline_reward == outcome.tree.offline_reward
    assert restored.tree.emulation.outcomes == outcome.tree.emulation.outcomes
