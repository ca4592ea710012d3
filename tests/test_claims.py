"""Ledger of the claims in the paper's abstract (PAPER.md), one test per claim.

Each test asserts what the simulator gives for player 1's equilibrium payoff
at gamma = pi/2 on an 11-point p grid, whether or not that bears the claim
out; its docstring says which. All four players score alike at the symmetric
equilibrium, so player 1 stands for every player.

The last five tests measure the payoff against the classical line: the
classical four-player Minority game's symmetric mixed equilibrium pays each
player 1/8, against 1/4 for the noiseless quantum one. They check every
player's payoff, on the grids their docstrings name.
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest

from qminority import channels, game

GRID = np.linspace(0.0, 1.0, 11)
CLASSICAL = 1 / 8


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


def payoffs(kind: str, p, mu) -> np.ndarray:
    """All four players' payoffs at each (p, mu) point, at gamma = pi/2."""
    return game.evaluate(kind, p, mu, np.pi / 2).payoffs


def test_bit_flips_pay_a_quarter_across_half_decoherence():
    """Beyond the paper: bit flip and bit-phase flip satisfy f(p) + f(1 - p) =
    1/4 to 1e-12 on the 11 x 5 grid of ``compare``, so at p = 1/2 they pay the
    classical 1/8 at every mu."""
    p, mu = np.meshgrid(GRID, np.linspace(0.0, 1.0, 5), indexing="ij")
    for kind in ("bit_flip", "bit_phase_flip"):
        f = payoffs(kind, p.ravel(), mu.ravel()).reshape(11, 5, 4)
        assert np.abs(f + f[::-1] - 0.25).max() <= 1e-12, kind


def test_full_damping_pays_an_eighth_of_the_memory():
    """Beyond the paper: amplitude damping at p = 1 pays mu/8 to 1e-12 at 21
    values of mu, so it reaches the classical 1/8 only at mu = 1."""
    mu = np.linspace(0.0, 1.0, 21)
    assert np.abs(payoffs("amplitude_damping", 1.0, mu) - mu[:, None] / 8).max() <= 1e-12


def test_depolarizing_and_phase_flip_keep_the_classical_payoff():
    """Beyond the paper: depolarizing and phase flip never pay less than
    1/8 - 1e-12 on a 51 x 51 (p, mu) grid."""
    p, mu = np.meshgrid(np.linspace(0.0, 1.0, 51), np.linspace(0.0, 1.0, 51))
    for kind in ("depolarizing", "phase_flip"):
        assert payoffs(kind, p.ravel(), mu.ravel()).min() >= CLASSICAL - 1e-12, kind


FINE = np.linspace(0.0, 1.0, 10001)


def first_below(kind: str, mu: float) -> np.ndarray:
    """Each player's first p of a 10,001-point grid where the payoff is below
    1/8 - 1e-12, or nan where there is none."""
    below = payoffs(kind, FINE, mu) < CLASSICAL - 1e-12
    return np.where(below.any(axis=0), FINE[below.argmax(axis=0)], np.nan)


def test_bit_flip_first_falls_below_the_classical_payoff_at_one_minus_root_half():
    """Beyond the paper: with no memory, bit flip first pays less than 1/8 at
    p = 1 - 1/sqrt(2), at 0.2929 on a 10,001-point grid and to 1e-9 by bisection
    between that point and the one before (4.7e-14 measured)."""
    hi = first_below("bit_flip", 0.0)
    assert np.abs(hi - 0.2929).max() <= 1e-12
    lo = hi - 1e-4
    for _ in range(40):
        mid = (lo + hi) / 2
        above = np.diagonal(payoffs("bit_flip", mid, 0.0)) >= CLASSICAL
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    assert np.abs(lo - (1 - 1 / np.sqrt(2))).max() <= 1e-9


def test_memory_delays_the_damping_payoffs_fall_below_the_classical_one():
    """Beyond the paper: amplitude damping first pays less than 1/8 at p = 0.4302,
    0.5750, 0.7359 and 0.9094 on a 10,001-point grid at mu = 0, 0.25, 0.5 and 0.75.
    At mu = 1 it never does (player 1's least payoff is 1/8 - 2.8e-17, at p = 1)."""
    for mu, crossing in zip((0.0, 0.25, 0.5, 0.75), (0.4302, 0.5750, 0.7359, 0.9094)):
        assert np.abs(first_below("amplitude_damping", mu) - crossing).max() <= 1e-12, mu
    assert np.isnan(first_below("amplitude_damping", 1.0)).all()
