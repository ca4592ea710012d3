"""The simulator against tests/reference.py, which imports nothing from it.
(test_game.py's ``TestEvaluate::test_compare_grid`` holds ``evaluate`` to it.)"""

import subprocess
import sys
from pathlib import Path

import numpy as np

import reference
from qminority import channels, game


def test_imports_nothing_from_the_package():
    # with qminority unimportable, the reference still loads and plays a game
    code = ("import sys; sys.modules['qminority'] = None; import reference; "
            "print(reference.payoffs('depolarizing', 0.3, 0.6, 1.0))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=Path(reference.__file__).parent, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_run_game_on_random_profiles():
    rng = np.random.default_rng(17)
    for _ in range(40):
        kind = channels.KINDS[rng.integers(len(channels.KINDS))]
        p, mu, gamma = rng.uniform(), rng.uniform(), rng.uniform(0.0, np.pi / 2)
        triples = [(rng.uniform(0.0, np.pi), *rng.uniform(-np.pi, np.pi, 2))
                   for _ in range(4)]
        spec = channels.ChannelSpec(kind, p, mu)
        config = game.GameConfig(gamma=gamma, noise_pre=spec, noise_post=spec,
                                 strategies=tuple(game.StrategyTriple(*t) for t in triples))
        got = game.run_game(config).payoffs
        want = reference.payoffs(kind, p, mu, gamma, triples)
        assert np.abs(np.array(got) - want).max() <= 1e-12, (kind, p, mu, gamma, triples)
