"""Closed-form payoff curves and their comparison against the simulator.

One reference expression per channel kind, evaluated at the symmetric
equilibrium profile. The phase flip expression is exact and the comparison
holds it to 1e-10. The other four are reproduced with their published
coefficients as-is, typos included; comparing them against the simulator is
how those defects get recorded, so ``compare`` reports rather than raises
when they disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import channels, game

PF_TOLERANCE = 1e-10
DEFAULT_TOLERANCE = 5e-3
# compare keeps one (k, 5) float array per CHUNK_POINTS cells, 40 bytes a cell, and
# streams its text: peak RSS grows ~0.08 KB a cell
_MAX_GRID_CELLS = 100_000


def _phase_flip(p: float, mu: float, gamma: float) -> float:
    poly = (-16 * (mu - 1) ** 3 * p ** 4
            + 32 * (mu - 1) ** 3 * p ** 3
            - 4 * (5 * mu ** 3 - 14 * mu ** 2 + 15 * mu - 6) * p ** 2
            + 4 * (mu ** 3 - 2 * mu ** 2 + 3 * mu - 2) * p
            + 1)
    return (poly * np.sin(gamma) + 1) / 8


def _amplitude_damping(p: float, mu: float, gamma: float) -> float:
    mu_sq = 0.125 * p ** 6 - 0.625 * p ** 5 + 1.25 * p ** 4 - 1.25 * p ** 3 + 0.5 * p ** 2
    mu_lin = -0.25 * (p - 1.73898) * (p - 1) ** 2 * p * ((p - 1.76102) * p + 1.43762)
    return (0.125 * mu * p ** 4
            + (0.125 * (p - 1) ** 6 + mu ** 2 * mu_sq + mu * mu_lin) * np.sin(gamma))


def _depolarizing(p: float, m: float, gamma: float) -> float:
    bracket = (
        0.25 * (m - 1) ** 6 * p ** 8
        - 1.625 * (m - 1.23077) * (m - 0.998694)
        * (m ** 2 - 2.00212 * m + 1.00212) * (m ** 2 - 1.99919 * m + 0.999187) * p ** 7
        + 4.25 * (m - 1.00034) * (m - 0.999661)
        * (m ** 2 - 2.41176 * m + 1.64706) * (m ** 2 - 2.0 * m + 1.0) * p ** 6
        - 5.75 * (m - 1.24903) * (m - 1) ** 3
        * (m ** 2 - 2.25097 * m + 1.94934) * p ** 5
        + 4.25 * (m - 1) * (m - 1)
        * (m ** 2 - 2.56538 * m + 1.72402) * (m ** 2 - 1.90521 * m + 2.3884) * p ** 4
        - 1.625 * (m - 1.19251) * (m - 1)
        * (m ** 2 - 2.75771 * m + 2.34443) * (m ** 2 - 1.35747 * m + 3.08159) * p ** 3
        + 0.25 * (m - 2.12845) * (m - 1)
        * (m ** 2 - 2.33278 * m + 2.63081) * (m ** 2 - 0.538772 * m + 5.0004) * p ** 2
        + 0.625 * (m - 1.1587) * (m ** 2 - 1.2413 * m + 2.76171) * p
        + 0.25 * np.cos(gamma / 2) * np.sin(gamma / 2)
    )
    return bracket + 0.125


def _bit_phase_flip(p: float, m: float, gamma: float) -> float:
    bracket = (
        -3.31371 * (m - 1.00056) * (m + 2)
        * ((m - 2.00035) * m + 1.00035) * ((m - 1.99909) * m + 0.99909) * p ** 7
        + 11.598 * (m - 0.999197) * (m + 2)
        * ((m - 2.0013) * m + 1.0013) * ((m - 1.9995) * m + 0.999503) * p ** 6
        - 15.7401 * (m - 1.20598) * (m - 1.00002)
        * (m - 0.682281) * (m + 1.9409) * ((m - 1.99998) * m + 0.999979) * p ** 5
        + 10.3553 * (m - 1.3349) * (m - 0.999989)
        * (m - 0.202106) * (m + 1.73701) * ((m - 2.00001) * m + 1.00001) * p ** 4
        - 3.31371 * (m - 1.83902) * (m - 1)
        * ((m - 1.69669) * m + 1.00918) * (m * (m + 2.03571) + 1.56825) * p ** 3
        + 0.414214 * (m - 2.62495) * (m - 1)
        * ((m - 1.30099) * m + 1.21191) * (m * (m + 2.92594) + 5.86011) * p ** 2
        + 1.10355 * (m - 1.21443)
        * (((m - 0.597899) * m + 1.71088) * p + 0.25)
        * np.cos(gamma / 2) * np.sin(gamma / 2)
    )
    return bracket + 0.125


def _bit_flip(p: float, m: float, gamma: float) -> float:
    bracket = (
        19.3137 * (m - 1.00066) * (m + 2)
        * ((m - 2.00041) * m + 1.00041) * ((m - 1.99894) * m + 0.998937) * p ** 7
        - 67.598 * (m - 0.999575) * (m + 2)
        * ((m - 2.00069) * m + 1.00069) * ((m - 1.99974) * m + 0.999737) * p ** 6
        + 91.7401 * (m - 0.999995) * (m + 2.00968)
        * ((m - 2) * m + 1) * ((m - 1.95705) * m + 1.09095) * p ** 5
        - 60.3553 * (m - 1.00001) * (m + 2.03676)
        * ((m - 1.99999) * m + 0.999994) * ((m - 1.83676) * m + 1.34104) * p ** 4
        + 19.3137 * (m - 1) * (m + 2.10125)
        * ((m - 2.05931) * m + 1.11332) * ((m - 1.54194) * m + 1.77849) * p ** 3
        - 2.41421 * (m - 1) * (m + 2.28298)
        * ((m - 2.30862) * m + 1.59107) * ((m - 0.974366) * m + 2.65448) * p ** 2
        + 0.396447 * (m - 1.27686) * ((m - 3.76795) * m + 7.32329) * p
        + 0.25 * np.cos(gamma / 2) * np.sin(gamma / 2)
    )
    return bracket + 0.125


_FORMS = {
    "amplitude_damping": _amplitude_damping,
    "depolarizing": _depolarizing,
    "bit_flip": _bit_flip,
    "phase_flip": _phase_flip,
    "bit_phase_flip": _bit_phase_flip,
}


def _check(kind: str, p: float, mu: float, gamma: float) -> None:
    channels.ChannelSpec(kind, p, mu)  # the kind, p and mu checks of one channel
    if not 0.0 <= gamma <= np.pi / 2:
        raise ValueError(f"gamma must be in [0, pi/2], got {gamma}")


def formula_payoff(kind: str, p: float, mu: float, gamma: float) -> float:
    """Reference curve value for one channel at one operating point."""
    _check(kind, p, mu, gamma)
    # on arrays, as in compare: numpy's array ** can round unlike Python's
    return float(_FORMS[kind](np.array([p]), np.array([mu]), gamma)[0])


class ComparisonPoint(NamedTuple):
    p: float
    mu: float
    formula: float
    simulated: float
    difference: float


@dataclass(frozen=True)
class DiscrepancyReport:
    kind: str
    gamma: float
    tolerance: float
    points: tuple
    max_difference: float
    verdict: str


def _compare(kind: str, grid: tuple[int, int], gamma: float) -> DiscrepancyReport:
    """compare's report with points (k, 5) slices: p, mu, formula, simulated, difference."""
    p_points, mu_points = grid
    if p_points < 2 or mu_points < 2:
        raise ValueError(f"grid must be at least 2x2, got {grid}")
    if p_points * mu_points > _MAX_GRID_CELLS:
        raise ValueError(f"need at most {_MAX_GRID_CELLS} grid cells, "
                         f"got {p_points * mu_points}")
    _check(kind, 0.0, 0.0, gamma)  # the grid lies in [0, 1] x [0, 1]
    tolerance = PF_TOLERANCE if kind == "phase_flip" else DEFAULT_TOLERANCE
    p_axis, mu_axis = np.linspace(0.0, 1.0, p_points), np.linspace(0.0, 1.0, mu_points)
    points = []
    for start in range(0, p_points * mu_points, game.CHUNK_POINTS):
        cells = np.arange(start, min(start + game.CHUNK_POINTS, p_points * mu_points))
        p, mu = p_axis[cells // mu_points], mu_axis[cells % mu_points]  # p-major, then mu
        expected = _FORMS[kind](p, mu, gamma)
        simulated = game.evaluate(kind, p, mu, gamma, spectrum=False).payoffs[:, 0]
        points.append(np.stack((p, mu, expected, simulated, np.abs(expected - simulated)), -1))
    max_difference = float(np.max([part[:, 4].max() for part in points]))
    verdict = "consistent" if max_difference < tolerance else "inconsistent"
    return DiscrepancyReport(kind, gamma, tolerance, tuple(points), max_difference, verdict)


def compare(kind: str, grid: tuple[int, int], gamma: float) -> DiscrepancyReport:
    """Tabulate formula vs simulation over a (p, mu) grid.

    The verdict is consistent only when every point agrees within the
    kind's tolerance. Disagreement is data, not an error: the report always
    completes.
    """
    report = _compare(kind, grid, gamma)
    return replace(report, points=tuple(map(ComparisonPoint._make,
                                            np.concatenate(report.points).tolist())))


class OverlapPoint(NamedTuple):
    p: float
    depolarizing: float
    bit_phase_flip: float
    difference: float


@dataclass(frozen=True)
class OverlapReport:
    gamma: float
    points: tuple
    max_difference: float
    recompute_residual: float


def overlap_check(gamma: float, p_points: int) -> OverlapReport:
    """Tabulate depolarizing against bit-phase flip at full memory.

    Report only: at mu=1 the two channels keep different collective error
    sets, so the gap is recorded, never asserted away. The report also
    carries ``recompute_residual``: the largest difference, over both
    channels, every point and every player, between the batched
    ``game.evaluate`` that produced the table and the single-point reference
    ``game.run_game``.
    """
    if p_points < 2:
        raise ValueError(f"need at least 2 points, got {p_points}")
    grid = np.linspace(0.0, 1.0, p_points)
    tables = {kind: game.evaluate(kind, grid, 1.0, gamma, spectrum=False).payoffs
              for kind in ("depolarizing", "bit_phase_flip")}
    residual = 0.0
    for kind, table in tables.items():
        for p, row in zip(grid.tolist(), table):
            spec = channels.ChannelSpec(kind, p, 1.0)
            cfg = game.GameConfig(gamma=gamma, noise_pre=spec, noise_post=spec)
            residual = max(residual, float(np.max(np.abs(
                row - game.run_game(cfg).payoffs))))
    points = tuple(OverlapPoint(p, d, b, abs(d - b)) for p, d, b in zip(
        grid.tolist(), tables["depolarizing"][:, 0].tolist(),
        tables["bit_phase_flip"][:, 0].tolist()))
    return OverlapReport(gamma, points, max(pt.difference for pt in points),
                         residual)
