"""Ledger of the claims in the paper's abstract (PAPER.md), one test per claim.

Each test asserts what the simulator gives for player 1's equilibrium payoff
at gamma = pi/2 on an 11-point p grid, whether or not that bears the claim
out; its docstring says which. All four players score alike at the symmetric
equilibrium, so player 1 stands for every player.
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest

from qminority import channels, game

GRID = np.linspace(0.0, 1.0, 11)


@lru_cache(maxsize=None)
def curve(kind: str, mu: float) -> np.ndarray:
    """Player 1's payoff at each p of GRID, at memory mu."""
    return game.evaluate(kind, GRID, mu, np.pi / 2).payoffs[:, 0]


def test_channels_affect_the_game_differently():
    """Reproduces for mu < 1: the five curves differ pairwise by more than
    0.02 at mu = 0. At mu = 1, bit flip and bit-phase flip coincide."""
    for a, b in itertools.combinations(channels.KINDS, 2):
        assert np.abs(curve(a, 0.0) - curve(b, 0.0)).max() > 0.02
    assert np.abs(curve("bit_flip", 1.0) - curve("bit_phase_flip", 1.0)).max() <= 1e-12


def test_memory_enhances_the_payoff():
    """Reproduces in part: raising mu never lowers the payoff for amplitude
    damping, depolarizing and phase flip, but memory does not help everywhere.
    Bit flip at p = 0.7 falls from 0.12501788 at mu = 0 to 0.075 at mu = 1."""
    for kind in ("amplitude_damping", "depolarizing", "phase_flip"):
        for mu in GRID.tolist():
            assert np.all(curve(kind, mu) >= curve(kind, 0.0) - 1e-12), (kind, mu)
    assert curve("bit_flip", 1.0)[7] == pytest.approx(0.075, abs=1e-12)
    assert curve("bit_flip", 0.0)[7] == pytest.approx(0.12501788, abs=1e-8)


def test_depolarizing_and_bit_phase_flip_overlap_at_full_memory():
    """Does not reproduce: at mu = 1, depolarizing gives 0.25 - p/8 and
    bit-phase flip 0.25 - p/4, a gap that reaches 0.125 at p = 1."""
    assert np.abs(curve("depolarizing", 1.0) - (0.25 - GRID / 8)).max() <= 1e-12
    assert np.abs(curve("bit_phase_flip", 1.0) - (0.25 - GRID / 4)).max() <= 1e-12
    gap = curve("depolarizing", 1.0) - curve("bit_phase_flip", 1.0)
    assert gap[-1] == pytest.approx(0.125, abs=1e-12)


def test_amplitude_damping_influences_the_game_most():
    """Does not reproduce: at mu = 0, p = 1, amplitude damping, bit flip and
    bit-phase flip all give 0, and at p = 0.1 amplitude damping leaves the
    highest payoff of the five channels."""
    for kind in ("amplitude_damping", "bit_flip", "bit_phase_flip"):
        assert abs(curve(kind, 0.0)[-1]) <= 1e-12, kind
    at_01 = {kind: curve(kind, 0.0)[1] for kind in channels.KINDS}
    assert max(at_01, key=at_01.get) == "amplitude_damping"


def test_phase_flip_is_symmetric_about_half_decoherence():
    """Reproduces: the phase flip curve is symmetric about p = 0.5 to 1e-12
    at every mu of an 11-point grid."""
    for mu in GRID.tolist():
        values = curve("phase_flip", mu)
        assert np.abs(values - values[::-1]).max() <= 1e-12, mu
