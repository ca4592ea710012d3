"""The identities that make the searched payoff affine in one Bloch vector.

The Minority payoff is symmetric under complementing all four bits, so the
closing gate J+ leaves every payoff projector as it is; the lattice's move
enters the score through the Bloch vector m of u+Zu alone. None of these
checks needs a noise channel.
"""

import numpy as np
import pytest

from qminority import game
from reference import bloch_of_z


def test_payoff_table_is_complement_symmetric():
    # outcome 15 - o is o with every bit flipped
    for k in range(4):
        for o in range(16):
            assert game._PAYOFF_TABLE[k, o] == game._PAYOFF_TABLE[k, 15 - o]


@pytest.mark.parametrize("gamma", [0.0, 0.3, np.pi / 8, np.pi / 4, 1.2, np.pi / 2])
def test_gate_keeps_every_payoff_projector(gamma):
    gate = game.entangler(gamma)
    for row in game._PAYOFF_TABLE:
        projector = np.diag(row)
        assert np.abs(gate @ projector @ gate.conj().T - projector).max() <= 1e-15


def test_probe_moves_span_the_bloch_sphere():
    # the four probes sit at m = +Z, -Z, +X and +Y, in that order
    expected = [[0, 0, 1], [0, 0, -1], [1, 0, 0], [0, 1, 0]]
    assert np.abs(bloch_of_z(game._PROBE_MOVES) - expected).max() <= 1e-15


def test_slab_bloch_vector_matches_strategy_unitary():
    # the search scores the lattice point (theta, alpha, beta) through
    # m = (sin theta sin(alpha - beta), -sin theta cos(alpha - beta), cos theta)
    rng = np.random.default_rng(11)
    for _ in range(500):
        theta, alpha, beta = rng.uniform(0.0, np.pi), *rng.uniform(-np.pi, np.pi, 2)
        u = game.strategy_unitary(game.StrategyTriple(theta, alpha, beta))
        delta = alpha - beta
        m = [np.sin(theta) * np.sin(delta), -np.sin(theta) * np.cos(delta), np.cos(theta)]
        assert np.abs(np.array(m) - bloch_of_z(u)).max() <= 1e-15
