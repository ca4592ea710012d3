"""Four-player Minority game played through an entangling protocol.

The register starts in |0000>, passes through the entangling gate, takes a
noise hit, the players apply their local moves, the noise hits again, and
the inverse gate closes the protocol. Payoffs read off the computational
basis: a player scores 1 exactly when alone on the minority side of a 3-1
split. Player k owns qubit k, with player 1 on the most significant bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import channels, linalg


class StrategyTriple(NamedTuple):
    theta: float
    alpha: float
    beta: float


class GameResult(NamedTuple):
    state: np.ndarray
    payoffs: tuple


class CurvePoint(NamedTuple):
    p: float
    mu: float
    gamma: float
    payoffs: tuple


class Evaluation(NamedTuple):
    """Batch result of ``evaluate``: one row or entry per operating point."""

    payoffs: np.ndarray         # (n, 4)
    trace_residual: np.ndarray  # (n,) of the final state
    min_eigenvalue: np.ndarray  # (n,) of the final state


_X4 = linalg.tensor([linalg.pauli(1)] * 4)


def entangler(gamma) -> np.ndarray:
    """Collective entangling gate: exp(i gamma/2 XXXX) on the four qubits.

    One angle gives the 16x16 gate, a 1-D array of n angles the (n, 16, 16) stack.
    """
    angles = np.asarray(gamma, dtype=float)
    bad = np.sort(angles[~((angles >= 0.0) & (angles <= np.pi / 2))])
    if bad.size:  # the smallest bad angle; nan sorts last
        raise ValueError(f"gamma must be in [0, pi/2], got {bad[0]}")
    half = angles[..., None, None] / 2
    return np.cos(half) * np.eye(16) + 1j * np.sin(half) * _X4


def strategy_unitary(triple: StrategyTriple) -> np.ndarray:
    """SU(2) move for one player.

    theta in [0, pi] sets the mixing between staying and flipping, alpha and
    beta in [-pi, pi] are the relative phases of the two branches.
    """
    theta, alpha, beta = triple
    if not 0.0 <= theta <= np.pi:
        raise ValueError(f"theta must be in [0, pi], got {theta}")
    if not -np.pi <= alpha <= np.pi:
        raise ValueError(f"alpha must be in [-pi, pi], got {alpha}")
    if not -np.pi <= beta <= np.pi:
        raise ValueError(f"beta must be in [-pi, pi], got {beta}")
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([
        [np.exp(1j * alpha) * c, 1j * np.exp(1j * beta) * s],
        [1j * np.exp(-1j * beta) * s, np.exp(-1j * alpha) * c],
    ])


def ne_strategy() -> StrategyTriple:
    """Symmetric equilibrium move of the noiseless maximally entangled game."""
    return StrategyTriple(np.pi / 2, -np.pi / 16, np.pi / 16)


def minority_payoff(outcome: int, player: int) -> float:
    """1.0 if ``player`` is the sole minority in basis state ``outcome``."""
    if not 0 <= outcome <= 15:
        raise ValueError(f"outcome must be a 4-bit index, got {outcome}")
    if player not in (1, 2, 3, 4):
        raise ValueError(f"player must be 1..4, got {player}")
    ones = bin(outcome).count("1")
    own = (outcome >> (4 - player)) & 1
    if ones == 1:
        return 1.0 if own == 1 else 0.0
    if ones == 3:
        return 1.0 if own == 0 else 0.0
    return 0.0


_PAYOFF_TABLE = np.array([[minority_payoff(outcome, k + 1) for outcome in range(16)]
                          for k in range(4)])


@dataclass(frozen=True)
class GameConfig:
    """Full parametrization of one protocol run.

    Both noise stages must use the same channel kind; their strengths may
    differ. ``strategies`` defaults to the symmetric equilibrium profile.
    """

    gamma: float
    noise_pre: channels.ChannelSpec
    noise_post: channels.ChannelSpec
    strategies: tuple = None

    def __post_init__(self):
        if self.noise_pre.kind != self.noise_post.kind:
            raise ValueError("noise stages must share one channel kind")
        object.__setattr__(self, "strategies", _profile(self.strategies))


def _profile(strategies) -> tuple:
    """Four StrategyTriples; None stands for the symmetric equilibrium profile."""
    if strategies is None:
        strategies = (ne_strategy(),) * 4
    if len(strategies) != 4:
        raise ValueError(f"need exactly 4 strategies, got {len(strategies)}")
    return tuple(StrategyTriple(*s) for s in strategies)


def _pre_move_state(gate: np.ndarray, noise) -> np.ndarray:
    """J|0000>, then the first noise map, for one 16x16 gate or an (n, 16, 16) stack."""
    column = gate[..., :, 0]  # J|0000>
    return noise(column[..., :, None] * column[..., None, :].conj())


def _play(rho: np.ndarray, moves: list, noise, gate: np.ndarray = None):
    """The four moves (each 2x2, or (n, 2, 2) for n states), the second noise map and,
    when ``gate`` is given, J+: returns the final state, its ValidationReport and the
    (..., 4) payoffs. evaluate passes no gate and scores the state before J+, which
    moves them by rounding alone: J keeps every payoff projector, a unitary the trace,
    hermiticity and spectrum."""
    rho = noise(linalg.conjugate(rho, linalg.tensor(moves)))
    if gate is not None:
        rho = linalg.conjugate(rho, gate.conj().swapaxes(-1, -2))
    report = linalg.validate_densities(rho)
    failed = np.flatnonzero(np.logical_not(report.ok))
    if len(failed):
        first = linalg.ValidationReport(*(float(np.ravel(value)[failed[0]])
                                          for value in vars(report).values()))
        raise RuntimeError(f"final state failed validation: {first}")
    # the diagonal is real up to rounding; clamp so the scores stay in [0, 1]. Each
    # payoff row has two nonzero entries, so this rounds like a per-row dot product
    probs = np.clip(np.diagonal(rho, axis1=-2, axis2=-1).real, 0.0, None)
    return rho, report, np.minimum(probs @ _PAYOFF_TABLE.T, 1.0)


def _setup(config: GameConfig):
    """The gate, pre-move state, second Kraus set and moves of a run; one set serves
    both stages when they match."""
    gate = entangler(config.gamma)
    pre = channels.build_channel(config.noise_pre)
    post = pre if config.noise_post == config.noise_pre else channels.build_channel(
        config.noise_post)
    moves = [strategy_unitary(s) for s in config.strategies]
    return gate, _pre_move_state(gate, pre), post, moves


def run_game(config: GameConfig) -> GameResult:
    """Run the protocol once and score all four players."""
    gate, rho, post, moves = _setup(config)
    rho, _, payoffs = _play(rho, moves, post, gate)
    return GameResult(rho, tuple(payoffs.tolist()))


# Points per batch in evaluate: bounds its working memory to a few MB
# however long the grid is
CHUNK_POINTS = 256


def evaluate(kind: str, p, mu, gamma, strategies=None) -> Evaluation:
    """Run the protocol at n operating points at once and score all players.

    ``p``, ``mu`` and ``gamma`` are equal-length 1-D arrays (scalars
    broadcast); point i plays ``strategies`` (default: the symmetric
    equilibrium) with both noise stages at (p[i], mu[i]). This is the batched
    path for grid workloads: the same protocol and final-state checks as
    ``run_game``, which stays the single-point reference, with the channels
    applied by ``channels.channel_maps`` instead of Kraus sums. It returns no
    state, so it scores and checks the state before the closing J+: every
    payoff projector commutes with J, and a unitary keeps the trace and the
    spectrum, so the results differ from run_game's by rounding alone.
    """
    p, mu, gamma = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                         for x in (p, mu, gamma)))
    if p.ndim != 1:
        raise ValueError(f"p, mu and gamma must be 1-D, got shape {p.shape}")
    moves = [strategy_unitary(s) for s in _profile(strategies)]
    result = Evaluation(np.empty((len(p), 4)), np.empty(len(p)), np.empty(len(p)))
    for start in range(0, len(p), CHUNK_POINTS):
        part = slice(start, start + CHUNK_POINTS)
        noise = channels.channel_maps(kind, p[part], mu[part])
        angles = gamma[part]
        # the noise maps broadcast one gate over a chunk with one gamma
        gate = entangler(angles[0] if np.all(angles == angles[0]) else angles)
        _, report, payoffs = _play(_pre_move_state(gate, noise), moves, noise)
        for out, value in zip(result, (payoffs, report.trace_residual, report.min_eigenvalue)):
            out[part] = value
    return result


_AXES = ("p", "mu", "gamma")


def _sweep(kind: str, vary: str, fixed: dict, points: int):
    """Check a one-axis sweep at the symmetric equilibrium profile, then yield it one
    CHUNK_POINTS slice at a time: the slice of the varied axis and evaluate's (n, 4)
    payoffs on it.

    ``vary`` is one of p, mu, gamma; ``fixed`` must hold the other two. The varied
    axis is np.linspace(0, high, points), high 1 for p and mu and pi/2 for gamma;
    each slice is computed with linspace's own arithmetic, so it holds that slice
    of the axis, bit for bit, and no slice needs the whole axis.
    """
    if points < 2:
        raise ValueError(f"need at least 2 points, got {points}")
    if vary not in _AXES:
        raise ValueError(f"vary must be one of {_AXES}, got {vary!r}")
    if set(fixed) != set(_AXES) - {vary}:
        raise ValueError(f"fixed must supply exactly {sorted(set(_AXES) - {vary})}")
    high = np.pi / 2 if vary == "gamma" else 1.0
    for start in range(0, points, CHUNK_POINTS):
        stop = min(start + CHUNK_POINTS, points)
        axis = np.arange(start, stop, dtype=float) * (high / (points - 1))
        if stop == points:
            axis[-1] = high
        axes = dict(fixed, **{vary: axis})
        yield axis, evaluate(kind, axes["p"], axes["mu"], axes["gamma"]).payoffs


def payoff_curve(kind: str, vary: str, fixed: dict, points: int = 101) -> list:
    """Sweep one axis at the symmetric equilibrium profile.

    ``vary`` is one of p, mu, gamma; ``fixed`` must hold the other two.
    p and mu run over [0, 1], gamma over [0, pi/2], all on uniform grids.
    """
    return [CurvePoint(**dict(fixed, **{vary: x}), payoffs=tuple(row))
            for axis, payoffs in _sweep(kind, vary, fixed, points)
            for x, row in zip(axis.tolist(), payoffs.tolist())]


# best_response_search replays on the Kraus path every lattice point whose
# affine score c + b.m is within this margin of the best score. The score and
# the Kraus path differ by rounding alone (under 1e-15 on random profiles);
# any margin of at least twice that gap keeps every true maximiser among the
# replayed points, and the search checks the gap at each of them
_SCREEN_MARGIN = 1e-9

# The search keeps grid_points**2 floats per table; this bound holds each to 8 MB
_MAX_GRID_POINTS = 1001

# I, iX, (I + iY)/sqrt(2) and (I - iX)/sqrt(2): the moves u at which the Bloch
# vector m of u+Zu is +Z, -Z, +X and +Y
_PROBE_MOVES = np.stack([linalg.pauli(0), 1j * linalg.pauli(1),
                         (linalg.pauli(0) + 1j * linalg.pauli(2)) / np.sqrt(2),
                         (linalg.pauli(0) - 1j * linalg.pauli(1)) / np.sqrt(2)])


def _slot(config: GameConfig, player: int):
    """The searched player's payoffs, as a function of an (n, 2, 2) stack of moves in
    their slot, on one Kraus-path setup of ``config``, and the form of those payoffs."""
    gate, rho, post, moves = _setup(config)
    # a chunk makes at most CHUNK_POINTS // 4 Kraus products (one point if k is
    # larger), so apply_kraus's (chunk, k, 16, 16) products stay within 1 MB
    chunk = max(1, (CHUNK_POINTS // 4) // len(post))

    def play(stack: np.ndarray) -> np.ndarray:
        slot = list(moves)
        payoffs = []
        for start in range(0, len(stack), chunk):
            slot[player - 1] = stack[start:start + chunk]
            payoffs.append(_play(rho, slot, post, gate)[2][:, player - 1])
        return np.concatenate(payoffs)
    return play, _payoff_form(rho, post, moves, player)


def _payoff_form(rho: np.ndarray, post, moves: list, player: int) -> np.ndarray:
    """(c, b_x, b_y, b_z), with payoff c + b.m for the move u, m the Bloch vector of u+Zu.

    J keeps the player's payoff projector P (the payoff is symmetric under bit
    complement), so u scores Tr[O u rho u+] on the pre-move state rho, with
    O = sum A+ P A = Y+Y over the second Kraus set, Y the rows of every A at the two
    winning outcomes. Every Kraus operator is X^c D, so O is diagonal and commutes
    with Z on the mover's qubit: four probe moves fix c and b."""
    slot = list(moves)
    slot[player - 1] = _PROBE_MOVES
    rows = post.stack[:, _PAYOFF_TABLE[player - 1] > 0].reshape(-1, 16)  # Y, (2k, 16)
    # Tr[O sigma] = sum_ij O_ji sigma_ij for each probe's state sigma, and O.T = Y.T Y*
    up, down, x, y = np.sum((rows.T @ rows.conj()) * linalg.conjugate(rho, linalg.tensor(slot)),
                            axis=(-2, -1)).real
    c = (up + down) / 2
    return np.array([c, x - c, y - c, (up - down) / 2])


def best_response_search(config: GameConfig, player: int, grid_points: int):
    """Lattice search over one player's move, others held fixed.

    Returns the best triple and its payoff. The lattice covers theta over
    [0, pi] and both phases over [-pi, pi], endpoints included. Ties keep
    the earliest lattice point, theta-major, then alpha, then beta.

    The payoff is c + b.m, affine in the Bloch vector m of u+Zu for the move
    u, so it depends on theta and alpha - beta alone; four probe moves, read
    through the adjoint of the second Kraus set, fix c and b. It scores the
    lattice one theta slab at a time, so memory grows with grid_points**2,
    which ``_MAX_GRID_POINTS`` bounds. The best score is read from each slab's
    phase-table maximum, so the lattice is scored once, in the pass that replays
    on the Kraus path, slab by slab, only the points within ``_SCREEN_MARGIN`` of
    it. The first maximum of the replayed payoffs wins.
    If any replayed payoff differs from its score by more than a quarter of
    the margin, the whole lattice is replayed instead, so the answer is
    always that of the exhaustive scan.
    """
    return _best_response(config, player, grid_points)[:2]


def _best_response(config: GameConfig, player: int, grid_points: int):
    """best_response_search's triple and payoff, then the slot function it searched."""
    if player not in (1, 2, 3, 4):
        raise ValueError(f"player must be 1..4, got {player}")
    if grid_points < 2:
        raise ValueError(f"need at least 2 grid points, got {grid_points}")
    if grid_points > _MAX_GRID_POINTS:
        raise ValueError(f"need at most {_MAX_GRID_POINTS} grid points, got {grid_points}")
    # the form only screens: the Kraus replays below pick the triple and its payoff
    play, (c, b_x, b_y, b_z) = _slot(config, player)
    thetas = np.linspace(0.0, np.pi, grid_points).tolist()
    phases = np.linspace(-np.pi, np.pi, grid_points)
    # m = (sin theta sin(alpha - beta), -sin theta cos(alpha - beta), cos theta), so a
    # theta slab, alpha-major then beta, scores c + b_z cos theta + sin theta * table
    delta = np.subtract.outer(phases, phases).ravel()
    table = b_x * np.sin(delta) - b_y * np.cos(delta)

    # sin theta >= 0 on [0, pi], and rounding keeps a + s * x monotone in x for s >= 0,
    # so each slab's best score is its score at the table's maximum, bit for bit
    top = table.max()
    floor = max(c + b_z * np.cos(theta) + np.sin(theta) * top for theta in thetas) - _SCREEN_MARGIN
    # each slab's first maximum over its screened points, then, if a screened
    # payoff strays from its score, over all of them
    for screened in (True, False):
        found = []
        for theta in thetas:
            slab = c + b_z * np.cos(theta) + np.sin(theta) * table
            kept = np.flatnonzero(slab >= floor) if screened else np.arange(slab.size)
            if not len(kept):
                continue
            alphas, betas = np.divmod(kept, grid_points)
            triples = [StrategyTriple(theta, alpha, beta) for alpha, beta
                       in zip(phases[alphas].tolist(), phases[betas].tolist())]
            payoffs = play(np.stack([strategy_unitary(s) for s in triples]))
            if screened and not np.all(np.abs(payoffs - slab[kept]) <= _SCREEN_MARGIN / 4):
                break
            best = int(np.argmax(payoffs))  # the first maximum: ties keep the earliest point
            found.append((triples[best], payoffs[best].item()))
        else:
            return (*max(found, key=lambda point: point[1]), play)  # ties keep the earliest slab
