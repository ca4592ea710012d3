import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from qminority import channels, game, linalg


def noiseless(kind="phase_flip"):
    return channels.ChannelSpec(kind, 0.0, 0.0)


def ne_config(kind, p, mu, gamma=np.pi / 2):
    spec = channels.ChannelSpec(kind, p, mu)
    return game.GameConfig(gamma=gamma, noise_pre=spec, noise_post=spec)


unit = st.floats(0.0, 1.0)
triples = st.builds(game.StrategyTriple, st.floats(0.0, np.pi),
                    st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi))


@pytest.fixture
def construction_counts(monkeypatch):
    """Counts of Kraus-set builds and Kraus applications from here on."""
    counts = {"build": 0, "apply": 0}
    build, apply = channels.build_channel, linalg.apply_kraus

    def counted_build(spec):
        counts["build"] += 1
        return build(spec)

    def counted_apply(rho, kraus):
        counts["apply"] += 1
        return apply(rho, kraus)
    monkeypatch.setattr(channels, "build_channel", counted_build)
    monkeypatch.setattr(linalg, "apply_kraus", counted_apply)
    return counts


class TestEntangler:
    def test_gamma_zero_is_identity(self):
        assert np.array_equal(game.entangler(0.0), np.eye(16))

    def test_max_entangling_on_ground_state(self):
        # J|0000> = (|0000> + i|1111>)/sqrt(2) at gamma = pi/2
        v = game.entangler(np.pi / 2)[:, 0]
        expected = np.zeros(16, dtype=complex)
        expected[0] = 1 / np.sqrt(2)
        expected[15] = 1j / np.sqrt(2)
        assert np.allclose(v, expected, atol=1e-15)

    @pytest.mark.parametrize("gamma", np.linspace(0, np.pi / 2, 7))
    def test_matches_matrix_exponential(self, gamma):
        # oracle: exponentiate i*gamma/2 * X^(x)4 through its eigenbasis
        x4 = reference.kron([reference.X] * 4)
        evals, evecs = np.linalg.eigh(x4)
        expm = evecs @ np.diag(np.exp(1j * gamma / 2 * evals)) @ evecs.conj().T
        assert np.max(np.abs(game.entangler(gamma) - expm)) < 1e-14

    @pytest.mark.parametrize("gamma", [-0.1, np.pi / 2 + 0.01, 3.0])
    def test_range(self, gamma):
        with pytest.raises(ValueError):
            game.entangler(gamma)

    @pytest.mark.parametrize("angles", [
        np.linspace(0, np.pi / 2, 101),
        np.random.default_rng(3).uniform(0, np.pi / 2, 300),
        np.array([np.pi / 2]),
    ], ids=["figure-grid", "random", "one"])
    def test_array_is_the_per_angle_stack(self, angles):
        stack = np.stack([game.entangler(g) for g in angles.tolist()])
        assert game.entangler(angles).tobytes() == stack.tobytes()

    @pytest.mark.parametrize("angles, bad", [
        ([0.1, 3.0, -0.5, 2.0], "-0.5"),  # the smallest bad angle
        ([0.1, np.nan, 2.0], "2.0"),      # nan sorts last
        ([np.nan, np.nan], "nan"),
    ])
    def test_array_range(self, angles, bad):
        with pytest.raises(ValueError, match=rf"^gamma must be in \[0, pi/2\], got {bad}$"):
            game.entangler(np.array(angles))

    @pytest.mark.parametrize("gamma", [0.0, np.pi / 5, np.pi / 2,
                                       np.linspace(0, np.pi / 2, 101)])
    def test_pre_move_state_is_the_conjugated_ground_state(self, gamma):
        # J|0000><0000|J+ as the outer product of J's first column, bit for bit
        gate = game.entangler(gamma)
        ground = np.zeros(gate.shape, dtype=complex)
        ground[..., 0, 0] = 1.0
        state = game._pre_move_state(gate, lambda rho: rho)
        assert state.tobytes() == linalg.conjugate(ground, gate).tobytes()


class TestStrategyUnitary:
    def test_identity(self):
        u = game.strategy_unitary(game.StrategyTriple(0.0, 0.0, 0.0))
        assert np.array_equal(u, np.eye(2))

    def test_full_flip(self):
        u = game.strategy_unitary(game.StrategyTriple(np.pi, 0.0, 0.0))
        assert np.allclose(u, 1j * reference.X, atol=1e-15)

    def test_structure(self):
        theta, alpha, beta = 1.1, 0.7, -2.0
        u = game.strategy_unitary(game.StrategyTriple(theta, alpha, beta))
        assert abs(u[0, 0] - np.cos(theta / 2) * np.exp(1j * alpha)) < 1e-15
        assert abs(u[0, 1] - 1j * np.sin(theta / 2) * np.exp(1j * beta)) < 1e-15
        # special unitary: the determinant is exactly cos^2 + sin^2
        assert abs(np.linalg.det(u) - 1.0) < 1e-14
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-14

    @pytest.mark.parametrize("triple", [
        (-0.1, 0.0, 0.0), (np.pi + 0.1, 0.0, 0.0),
        (1.0, -np.pi - 0.1, 0.0), (1.0, 0.0, np.pi + 0.1),
    ])
    def test_range(self, triple):
        with pytest.raises(ValueError):
            game.strategy_unitary(game.StrategyTriple(*triple))

    def test_ne_strategy(self):
        ne = game.ne_strategy()
        assert ne == (np.pi / 2, -np.pi / 16, np.pi / 16)


class TestMinorityPayoff:
    def test_truth_table(self):
        # sole minority: exactly one player differs from the other three
        for outcome in range(16):
            for player in (1, 2, 3, 4):
                expected = reference.minority(outcome, player)
                assert game.minority_payoff(outcome, player) == expected

    def test_examples(self):
        assert game.minority_payoff(0b0111, 1) == 1.0
        assert game.minority_payoff(0b1000, 1) == 1.0
        assert game.minority_payoff(0b0111, 2) == 0.0
        assert game.minority_payoff(0b0000, 3) == 0.0
        assert game.minority_payoff(0b0101, 4) == 0.0

    def test_complement_invariance(self):
        for outcome in range(16):
            for player in (1, 2, 3, 4):
                assert (game.minority_payoff(outcome, player)
                        == game.minority_payoff(15 - outcome, player))

    def test_at_most_one_winner(self):
        for outcome in range(16):
            assert sum(game.minority_payoff(outcome, k) for k in (1, 2, 3, 4)) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            game.minority_payoff(16, 1)
        with pytest.raises(ValueError):
            game.minority_payoff(0, 5)


class TestGameConfig:
    def test_defaults_to_ne_profile(self):
        cfg = game.GameConfig(gamma=np.pi / 2, noise_pre=noiseless(), noise_post=noiseless())
        assert cfg.strategies == (game.ne_strategy(),) * 4

    def test_rejects_mixed_kinds(self):
        with pytest.raises(ValueError, match="kind"):
            game.GameConfig(gamma=0.5,
                            noise_pre=channels.ChannelSpec("bit_flip", 0.1, 0.0),
                            noise_post=channels.ChannelSpec("phase_flip", 0.1, 0.0))

    def test_rejects_wrong_player_count(self):
        with pytest.raises(ValueError):
            game.GameConfig(gamma=0.5, noise_pre=noiseless(), noise_post=noiseless(),
                            strategies=(game.ne_strategy(),) * 3)


class TestRunGame:
    @pytest.mark.parametrize("kind", channels.KINDS)
    def test_noiseless_ne_payoff(self, kind):
        _, payoffs = game.run_game(ne_config(kind, 0.0, 0.0))
        assert payoffs == pytest.approx((0.25,) * 4, abs=1e-12)

    def test_equal_stages_build_once(self, construction_counts):
        game.run_game(ne_config("bit_flip", 0.2, 0.5))
        assert construction_counts == {"build": 1, "apply": 2}

    def test_final_state_is_valid(self):
        rho, _ = game.run_game(ne_config("depolarizing", 0.4, 0.6))
        assert linalg.validate_density(rho).ok

    def test_no_entanglement_uniform(self):
        # gamma=0 and balanced moves: sixteen equally likely outcomes
        _, payoffs = game.run_game(ne_config("phase_flip", 0.0, 0.0, gamma=0.0))
        assert payoffs == pytest.approx((0.125,) * 4, abs=1e-12)

    def test_no_entanglement_same_move_loses(self):
        cfg = game.GameConfig(gamma=0.0, noise_pre=noiseless(), noise_post=noiseless(),
                              strategies=(game.StrategyTriple(0.0, 0.0, 0.0),) * 4)
        _, payoffs = game.run_game(cfg)
        assert payoffs == pytest.approx((0.0,) * 4, abs=1e-14)

    def test_classical_unilateral_flip_wins(self):
        flip = game.StrategyTriple(np.pi, 0.0, 0.0)
        stay = game.StrategyTriple(0.0, 0.0, 0.0)
        cfg = game.GameConfig(gamma=0.0, noise_pre=noiseless(), noise_post=noiseless(),
                              strategies=(flip, stay, stay, stay))
        _, payoffs = game.run_game(cfg)
        assert payoffs == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-12)

    def test_full_depolarizing_randomizes(self):
        _, payoffs = game.run_game(ne_config("depolarizing", 1.0, 0.0))
        assert payoffs == pytest.approx((0.125,) * 4, abs=1e-12)

    def test_balanced_phase_flip(self):
        _, payoffs = game.run_game(ne_config("phase_flip", 0.5, 0.0))
        assert payoffs == pytest.approx((0.125,) * 4, abs=1e-12)

    def test_phase_flip_memory_curve_point(self):
        # frozen value; equals (1 + f)/8 with f = 0.3831424 at p=0.4, mu=0.6
        _, payoffs = game.run_game(ne_config("phase_flip", 0.4, 0.6))
        assert payoffs == pytest.approx((0.1728928,) * 4, abs=1e-12)

    def test_deterministic_flip_noise_kills_payoff(self):
        # p=1 bit flip applies X on all four qubits at both noise stages.
        # The flip before the moves turns the shared resource into its
        # phase-inverted twin, the moves do not commute with it, and every
        # outcome lands on an even split: payoff zero, not a cancellation.
        for kind in ("bit_flip", "bit_phase_flip"):
            _, payoffs = game.run_game(ne_config(kind, 1.0, 0.0))
            assert payoffs == pytest.approx((0.0,) * 4, abs=1e-12)

    def test_full_damping_kills_payoff(self):
        # everything relaxes to |0000> which the final gate spreads over
        # the two unanimous outcomes only
        _, payoffs = game.run_game(ne_config("amplitude_damping", 1.0, 0.0))
        assert payoffs == pytest.approx((0.0,) * 4, abs=1e-12)

    @pytest.mark.parametrize("kind", channels.KINDS)
    def test_players_equal_at_symmetric_profile(self, kind):
        _, payoffs = game.run_game(ne_config(kind, 0.4, 0.6))
        assert max(payoffs) - min(payoffs) < 1e-12

    def test_payoffs_bounded(self):
        for kind in channels.KINDS:
            for p in (0.0, 0.3, 1.0):
                _, payoffs = game.run_game(ne_config(kind, p, 0.5))
                assert all(0.0 <= x <= 1.0 for x in payoffs)
                assert sum(payoffs) <= 1.0 + 1e-12

    def test_asymmetric_noise_stages(self):
        cfg = game.GameConfig(gamma=np.pi / 2,
                              noise_pre=channels.ChannelSpec("phase_flip", 0.3, 0.5),
                              noise_post=channels.ChannelSpec("phase_flip", 0.0, 0.0))
        rho, payoffs = game.run_game(cfg)
        assert linalg.validate_density(rho).ok
        assert all(0.0 <= x <= 1.0 for x in payoffs)


class TestPayoffCurve:
    def test_vary_p_endpoints(self):
        curve = game.payoff_curve("phase_flip", "p",
                                  {"mu": 0.0, "gamma": np.pi / 2}, points=11)
        assert len(curve) == 11
        assert curve[0].p == 0.0 and curve[-1].p == 1.0
        assert curve[0].payoffs == pytest.approx((0.25,) * 4, abs=1e-12)
        assert curve[5].payoffs == pytest.approx((0.125,) * 4, abs=1e-12)

    def test_vary_gamma_range(self):
        curve = game.payoff_curve("depolarizing", "gamma",
                                  {"p": 0.3, "mu": 0.3}, points=5)
        assert curve[0].gamma == 0.0
        assert curve[-1].gamma == pytest.approx(np.pi / 2)
        # entanglement can only help at the symmetric profile
        assert curve[-1].payoffs[0] > curve[0].payoffs[0]

    def test_vary_mu(self):
        curve = game.payoff_curve("bit_flip", "mu",
                                  {"p": 0.7, "gamma": np.pi / 2}, points=3)
        assert [pt.mu for pt in curve] == [0.0, 0.5, 1.0]
        assert all(pt.p == 0.7 for pt in curve)

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            game.payoff_curve("bit_flip", "q", {"mu": 0.0, "gamma": 0.0}, points=3)

    def test_rejects_wrong_fixed_keys(self):
        with pytest.raises(ValueError):
            game.payoff_curve("bit_flip", "p", {"mu": 0.0}, points=3)
        with pytest.raises(ValueError):
            game.payoff_curve("bit_flip", "p", {"mu": 0.0, "gamma": 0.0, "p": 0.1}, points=3)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            game.payoff_curve("bit_flip", "p", {"mu": 0.0, "gamma": 0.0}, points=1)


class TestSweepGrid:
    @pytest.mark.parametrize("vary, high", [("p", 1.0), ("gamma", np.pi / 2)])
    @pytest.mark.parametrize("points", [2, 3, 101, 255, 256, 257, 513, 20001])
    def test_slices_are_linspace(self, vary, high, points):
        fixed = {"p": 0.3, "mu": 0.6, "gamma": 1.0}
        del fixed[vary]
        given = dict(fixed)
        slices = list(game._sweep("phase_flip", vary, fixed, points))
        linspace = np.linspace(0.0, high, points)
        assert np.concatenate([axis for axis, _ in slices]).tobytes() == linspace.tobytes()
        assert [len(axis) for axis, _ in slices[:-1]] == [game.CHUNK_POINTS] * (len(slices) - 1)
        assert 0 < len(slices[-1][0]) <= game.CHUNK_POINTS
        assert fixed == given
        whole = dict(fixed, **{vary: linspace})
        expected = game.evaluate("phase_flip", whole["p"], whole["mu"], whole["gamma"]).payoffs
        payoffs = np.concatenate([payoffs for _, payoffs in slices])
        assert payoffs.tobytes() == expected.tobytes()


class TestBestResponseSearch:
    def test_classical_flip_dominates(self):
        # gamma=0 against three stay-players: flipping wins outright, and
        # every (pi, alpha, beta) ties at payoff 1, so the tie-break must
        # return the lowest alpha and beta lattice points
        stay = game.StrategyTriple(0.0, 0.0, 0.0)
        cfg = game.GameConfig(gamma=0.0, noise_pre=noiseless(), noise_post=noiseless(),
                              strategies=(stay,) * 4)
        best, payoff = game.best_response_search(cfg, player=1, grid_points=9)
        assert payoff == pytest.approx(1.0, abs=1e-12)
        assert best == pytest.approx((np.pi, -np.pi, -np.pi))

    def test_ne_profile_is_stable(self):
        cfg = ne_config("phase_flip", 0.0, 0.0)
        best, payoff = game.best_response_search(cfg, player=2, grid_points=9)
        assert payoff <= 0.25 + 1e-6

    def test_deterministic(self):
        cfg = ne_config("phase_flip", 0.0, 0.0)
        a = game.best_response_search(cfg, player=1, grid_points=5)
        b = game.best_response_search(cfg, player=1, grid_points=5)
        assert a == b

    def test_builds_and_enters_noise_once(self, construction_counts):
        # both stages match, so one Kraus set serves them both, and it and the
        # pre-move state are shared by the search; only the second noise stage
        # runs, once per chunk of played moves. With 16 bit-flip operators a
        # chunk is (CHUNK_POINTS // 4) // 16 = 4 moves, and the form reads the
        # set's adjoint without applying it, so the pre-move state and the 7
        # screened candidates, all in the theta = pi/2 slab, make
        # 1 + ceil(7 / 4) = 3
        game.best_response_search(ne_config("bit_flip", 0.2, 0.5), player=1,
                                  grid_points=5)
        assert construction_counts == {"build": 1, "apply": 3}

    @pytest.mark.parametrize("p,mu,grid,player,others", [
        (0.3, 0.3, 9, 1, None),
        (0.7, 0.9, 5, 3, (1.0, 0.5, -0.3)),
    ])
    def test_kraus_applies_are_the_replays(self, p, mu, grid, player, others,
                                           construction_counts):
        # 256 depolarizing operators exceed a chunk's CHUNK_POINTS // 4 Kraus products,
        # so a chunk is one move, and the form applies no Kraus set: the set enters
        # once for the pre-move state and once for each lattice point within the
        # margin of the best score
        spec = channels.ChannelSpec("depolarizing", p, mu)
        cfg = game.GameConfig(gamma=np.pi / 2, noise_pre=spec, noise_post=spec,
                              strategies=None if others is None else (others,) * 4)
        game.best_response_search(cfg, player=player, grid_points=grid)
        applies = construction_counts["apply"]
        form = game._slot(cfg, player)[1]
        lattice = np.stack([game.strategy_unitary(s) for s in lattice_points(grid)])
        scores = form[0] + reference.bloch_of_z(lattice) @ form[1:]
        candidates = np.count_nonzero(scores >= scores.max() - game._SCREEN_MARGIN)
        assert 1 < candidates < len(lattice)
        assert applies == 1 + candidates

    @pytest.mark.parametrize("kind,pre,post,player", [
        ("bit_flip", (0.2, 0.5), (0.4, 0.5), 1),
        ("amplitude_damping", (0.3, 0.2), (0.6, 0.7), 2),
        ("depolarizing", (0.1, 0.9), (0.3, 0.3), 4),
    ])
    def test_unequal_stages(self, kind, pre, post, player, construction_counts):
        # each stage gets its own Kraus set, and the search stays exhaustive
        cfg = game.GameConfig(gamma=np.pi / 2, noise_pre=channels.ChannelSpec(kind, *pre),
                              noise_post=channels.ChannelSpec(kind, *post))
        found = game.best_response_search(cfg, player=player, grid_points=5)
        assert construction_counts["build"] == 2
        assert found == per_point_best(cfg, player, 5)

    @pytest.mark.parametrize("kind,p,mu,grid,gamma,others", [
        ("bit_flip", 0.2, 0.5, 5, np.pi / 2, None),      # 16 operators, 4 points per chunk
        ("depolarizing", 0.3, 0.3, 3, np.pi / 2, None),  # 256 operators, 1 point per chunk
        ("phase_flip", 0.0, 0.0, 5, np.pi / 2, None),    # 1 operator, 64 points per chunk
        # against three classical stay moves at gamma = 0 the theta = pi flips
        # win, and they all lie in the last, partial chunk
        ("phase_flip", 0.0, 0.0, 5, 0.0, (0.0, 0.0, 0.0)),
    ])
    def test_matches_per_point_run_game(self, kind, p, mu, grid, gamma, others):
        # every lattice ends in a partial chunk; the search must agree exactly
        # with a theta-major scan that plays each point through run_game
        spec = channels.ChannelSpec(kind, p, mu)
        cfg = game.GameConfig(gamma=gamma, noise_pre=spec, noise_post=spec,
                              strategies=None if others is None else (others,) * 4)
        found = game.best_response_search(cfg, player=1, grid_points=grid)
        assert found == per_point_best(cfg, 1, grid)

    # The seed code's outputs for the benchmark's default best-response calls
    # (bench/reference/best-response-{ad,dep}.json.gz). The depolarizing
    # alpha = -pi ties exactly with +pi, and only the order of the arithmetic
    # decides which comes first, so the triples are pinned exactly.
    @pytest.mark.parametrize("kind,p,grid,triple,payoff", [
        ("amplitude_damping", 0.4, 17,
         (1.9634954084936207, -0.7853981633974483, -0.39269908169872414),
         0.1486794627511175),
        ("depolarizing", 0.3, 9,
         (1.5707963267948966, -3.141592653589793, -2.356194490192345),
         0.14554865377318205),
    ])
    def test_recorded_tie_resolution(self, kind, p, grid, triple, payoff):
        best, found = game.best_response_search(ne_config(kind, p, 0.3), player=1,
                                                grid_points=grid)
        assert tuple(best) == triple
        assert abs(found - payoff) <= 1e-12

    def test_validation(self):
        cfg = ne_config("phase_flip", 0.0, 0.0)
        with pytest.raises(ValueError):
            game.best_response_search(cfg, player=0, grid_points=5)
        with pytest.raises(ValueError):
            game.best_response_search(cfg, player=1, grid_points=1)

    def test_corrupted_form_falls_back_to_full_scan(self, monkeypatch):
        # a form whose c is off by 1e-6 fails the candidate guard, so the search
        # replays the whole lattice, theta-major, and still returns the exhaustive
        # answer. (Shifting c and b alike would cancel here: the optimum has
        # m = (0, -1, 0), so c + b.m would not move.)
        cfg = ne_config("bit_flip", 0.2, 0.5)
        played, play, form = [], game._play, game._payoff_form

        def recorded_play(rho, moves, noise, gate=None):
            played.append(moves[0])
            return play(rho, moves, noise, gate)
        monkeypatch.setattr(game, "_play", recorded_play)
        clean = game.best_response_search(cfg, player=1, grid_points=5)
        assert sum(map(len, played)) == 7  # the candidates; the form plays nothing
        played.clear()
        monkeypatch.setattr(game, "_payoff_form",
                            lambda *args: form(*args) + [1e-6, 0, 0, 0])
        found = game.best_response_search(cfg, player=1, grid_points=5)
        lattice = np.stack([game.strategy_unitary(s) for s in lattice_points(5)])
        assert np.array_equal(np.concatenate(played)[-len(lattice):], lattice)
        assert found == clean == per_point_best(cfg, 1, 5)

    @settings(max_examples=25, deadline=None)
    # a flat landscape: full dephasing at p = 0.5 makes every lattice point score
    # 1/8, so all of them are replayed and rounding alone picks the maximum
    @example(kind="phase_flip", p=0.5, mu=0.0, gamma=np.pi / 2, player=3, grid=5,
             others=[game.ne_strategy()] * 4)
    @given(kind=st.sampled_from(channels.KINDS), p=unit, mu=unit,
           gamma=st.floats(0.0, np.pi / 2), player=st.integers(1, 4),
           grid=st.integers(3, 5), others=st.lists(triples, min_size=4, max_size=4))
    def test_screen_is_exact(self, kind, p, mu, gamma, player, grid, others):
        # the screened search is the exhaustive one: same triple, same payoff bits
        spec = channels.ChannelSpec(kind, p, mu)
        cfg = game.GameConfig(gamma=gamma, noise_pre=spec, noise_post=spec,
                              strategies=tuple(others))
        found = game.best_response_search(cfg, player=player, grid_points=grid)
        assert found == per_point_best(cfg, player, grid)

    def test_memory_stays_bounded(self):
        # the lattice is scored one theta slab at a time and never listed, so a
        # 101^3 search (1,030,301 points) stays within a few MB
        tracemalloc.start()
        try:
            game.best_response_search(ne_config("phase_flip", 0.3, 0.3), player=1,
                                      grid_points=101)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestSlot:
    @pytest.mark.parametrize("kind,pre,post,player", [
        ("bit_flip", (0.2, 0.5), (0.4, 0.5), 1),
        ("amplitude_damping", (0.3, 0.2), (0.6, 0.7), 2),
        ("depolarizing", (0.1, 0.9), (0.3, 0.3), 4),
    ])
    def test_equilibrium_move_is_run_game(self, kind, pre, post, player):
        # the slot plays the searched move on run_game's own setup, bit for bit,
        # when each noise stage has its own Kraus set too
        others = game.StrategyTriple(1.0, 0.5, -0.3)
        profile = [others] * 4
        profile[player - 1] = game.ne_strategy()
        cfg = game.GameConfig(gamma=np.pi / 3, noise_pre=channels.ChannelSpec(kind, *pre),
                              noise_post=channels.ChannelSpec(kind, *post),
                              strategies=tuple(profile))
        play, _ = game._slot(cfg, player)
        ne_move = game.strategy_unitary(game.ne_strategy())[None]
        assert play(ne_move)[0] == game.run_game(cfg).payoffs[player - 1]

    def test_builds_kraus_sets_once(self, construction_counts):
        # one Kraus set per noise stage, however often the slot is played
        pre, post = (channels.ChannelSpec("bit_flip", p, 0.5) for p in (0.2, 0.4))
        cfg = game.GameConfig(gamma=np.pi / 2, noise_pre=pre, noise_post=post)
        play, _ = game._slot(cfg, 3)
        lattice = np.stack([game.strategy_unitary(s) for s in lattice_points(3)])
        for stack in lattice[:5], lattice[5:], lattice:
            play(stack)
        assert construction_counts["build"] == 2


def lattice_points(grid):
    """The search lattice in its theta-major order."""
    thetas = np.linspace(0.0, np.pi, grid).tolist()
    phases = np.linspace(-np.pi, np.pi, grid).tolist()
    return [game.StrategyTriple(*t) for t in itertools.product(thetas, phases, phases)]


def per_point_best(cfg, player, grid):
    """The first maximum of a lattice scan that plays each point through run_game."""
    best, best_payoff = None, -1.0
    for triple in lattice_points(grid):
        profile = list(cfg.strategies)
        profile[player - 1] = triple
        _, payoffs = game.run_game(dataclasses.replace(cfg, strategies=tuple(profile)))
        payoff = payoffs[player - 1]
        if payoff > best_payoff:
            best, best_payoff = triple, payoff
    return best, best_payoff


def slot_player(kind, p, mu, gamma, player, others):
    """The searched slot as best_response_search sets it up: its slot function for
    a stack of moves, and its form (c, b_x, b_y, b_z)."""
    spec = channels.ChannelSpec(kind, p, mu)
    cfg = game.GameConfig(gamma=gamma, noise_pre=spec, noise_post=spec,
                          strategies=tuple(others))
    return game._slot(cfg, player)


def random_triples(rng, n):
    return [game.StrategyTriple(rng.uniform(0.0, np.pi), *rng.uniform(-np.pi, np.pi, 2))
            for _ in range(n)]


def random_slot(kind, seed):
    """A random operating point, searched player and profile, and 6 random moves."""
    rng = np.random.default_rng(seed)
    play, form = slot_player(kind, rng.uniform(), rng.uniform(), rng.uniform(0.0, np.pi / 2),
                             int(rng.integers(1, 5)), random_triples(rng, 4))
    stack = np.stack([game.strategy_unitary(s) for s in random_triples(rng, 6)])
    return play, form, stack, rng


# Every best-response call the benchmark can make, with the seed code's outputs
RECORDED_BEST_RESPONSES = {
    key: json.loads(call["out"])
    for key, call in reference.recorded("best-response-ad", "best-response-dep").items()}

_CHANNEL_NAMES = {"ad": "amplitude_damping", "dep": "depolarizing"}


class TestPayoffForm:
    """The searched payoff is c + b.m, m the Bloch vector of u+Zu for the move u."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", channels.KINDS)
    def test_play_ignores_z_rotation_on_the_left(self, kind, seed):
        play, _, stack, rng = random_slot(kind, seed)
        t = rng.uniform(-np.pi, np.pi)
        rotated = np.diag([np.exp(1j * t), np.exp(-1j * t)]) @ stack
        assert np.abs(play(rotated) - play(stack)).max() <= 1e-15

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", channels.KINDS)
    def test_affine_in_bloch_vector(self, kind, seed):
        play, form, stack, _ = random_slot(kind, seed)
        assert np.abs(form[0] + reference.bloch_of_z(stack) @ form[1:] - play(stack)).max() <= 1e-15

    @pytest.mark.parametrize("stages", ["equal", "unequal"])
    @pytest.mark.parametrize("kind", channels.KINDS)
    def test_adjoint_form_is_probe_plays(self, kind, stages):
        # the form read through the second Kraus set's adjoint is the one that the
        # four probe moves played on the Kraus slot fix, up to rounding, with one
        # Kraus set or two
        rng = np.random.default_rng(channels.KINDS.index(kind))
        pre, post = (channels.ChannelSpec(kind, *rng.uniform(size=2)) for _ in range(2))
        cfg = game.GameConfig(gamma=rng.uniform(0.0, np.pi / 2), noise_pre=pre,
                              noise_post=post if stages == "unequal" else pre,
                              strategies=tuple(random_triples(rng, 4)))
        play, form = game._slot(cfg, int(rng.integers(1, 5)))
        up, down, x, y = play(game._PROBE_MOVES)
        c = (up + down) / 2
        assert np.abs(form - [c, x - c, y - c, (up - down) / 2]).max() <= 1e-15

    @pytest.mark.parametrize("key", sorted(RECORDED_BEST_RESPONSES))
    def test_bounds_recorded_best_response(self, key):
        # c + |b| is the best payoff over all of SU(2): at least the recorded
        # lattice maximum, and reached by a move whose m is b/|b| (beta = 0)
        args = dict(zip(key.split()[1::2], key.split()[2::2]))
        assert args["--gamma"] == "pi/2" and "--player" not in args
        play, form = slot_player(_CHANNEL_NAMES[args["--channel"]], float(args["--p"]),
                                 float(args["--mu"]), np.pi / 2, 1, [game.ne_strategy()] * 4)
        c, b = form[0], form[1:]
        top = c + np.linalg.norm(b)
        assert top >= RECORDED_BEST_RESPONSES[key]["payoff"] - 1e-15
        m = b / np.linalg.norm(b)
        move = game.strategy_unitary(game.StrategyTriple(
            np.arccos(np.clip(m[2], -1.0, 1.0)), np.arctan2(m[0], -m[1]), 0.0))
        assert abs(play(move[None])[0] - top) <= 1e-15

def assert_matches_run_game(kind, p, mu, gamma, strategies=None, tol=1e-13):
    """evaluate against run_game point by point: payoffs, and the trace and
    eigenvalue residuals against validate_density on run_game's state."""
    result = game.evaluate(kind, p, mu, gamma, strategies)
    assert result.payoffs.shape == (len(p), 4)
    for i in range(len(p)):
        spec = channels.ChannelSpec(kind, float(p[i]), float(mu[i]))
        cfg = game.GameConfig(gamma=float(gamma[i]), noise_pre=spec,
                              noise_post=spec, strategies=strategies)
        state, payoffs = game.run_game(cfg)
        report = linalg.validate_density(state)
        assert np.max(np.abs(result.payoffs[i] - payoffs)) <= tol
        assert abs(result.trace_residual[i] - report.trace_residual) <= tol
        assert abs(result.min_eigenvalue[i] - report.min_eigenvalue) <= tol
    return result


class TestEvaluate:
    @pytest.mark.parametrize("kind", channels.KINDS)
    def test_figure_sweep_grid(self, kind):
        # all seven sweeps in one call: 707 points over several chunks and
        # mixed gamma values
        p, mu, gamma = (np.concatenate(axis) for axis in zip(
            *(reference.sweep_axes(vary, fixed) for vary, fixed in reference.FIGURE_SWEEPS)))
        assert len(p) > 2 * game.CHUNK_POINTS
        assert_matches_run_game(kind, p, mu, gamma)

    @pytest.mark.parametrize("kind", channels.KINDS)
    def test_compare_grid(self, kind):
        p, mu = (a.ravel() for a in np.meshgrid(np.linspace(0, 1, 11),
                                                np.linspace(0, 1, 5), indexing="ij"))
        result = assert_matches_run_game(kind, p, mu, np.full(len(p), np.pi / 2))
        # and against the independent model, the payoff oracle from outside the package
        want = [reference.payoffs(kind, *point, np.pi / 2) for point in zip(p, mu)]
        assert np.abs(result.payoffs - want).max() <= 1e-12

    def test_phase_flip_grid(self):
        p, mu, gamma = (a.ravel() for a in np.meshgrid(
            np.linspace(0, 1, 11), np.linspace(0, 1, 5),
            np.linspace(0, np.pi / 2, 3), indexing="ij"))
        assert_matches_run_game("phase_flip", p, mu, gamma)

    @pytest.mark.parametrize("kind", channels.KINDS)
    @pytest.mark.parametrize("gamma, gate_shape", [
        ([np.pi / 3] * 5, (16, 16)),
        ([0.0, np.pi / 2, np.pi / 5, np.pi / 2, 0.0], (5, 16, 16)),
    ], ids=["single-gamma", "mixed-gamma"])
    def test_gate_per_chunk(self, kind, gamma, gate_shape, monkeypatch):
        # a chunk with one gamma plays one 16x16 gate, which the noise maps
        # broadcast; a chunk with several plays one gate per point. evaluate
        # uses the gate only to prepare the state, so it is recorded there
        shapes, prepare = [], game._pre_move_state

        def recorded_prepare(gate, noise):
            shapes.append(gate.shape)
            return prepare(gate, noise)
        monkeypatch.setattr(game, "_pre_move_state", recorded_prepare)
        profile = ((0.3, 0.2, -1.0), (1.0, -0.5, 0.4), game.ne_strategy(), (2.5, 1.2, 0.1))
        p, mu = np.linspace(0.0, 1.0, 5), np.array([0.0, 0.3, 0.5, 0.7, 1.0])
        assert_matches_run_game(kind, p, mu, np.array(gamma), profile)
        assert shapes[0] == gate_shape

    def test_scalars_broadcast(self):
        result = game.evaluate("bit_flip", [0.1, 0.2], 0.5, np.pi / 2)
        assert result.payoffs.shape == (2, 4)
        assert result.trace_residual.shape == result.min_eigenvalue.shape == (2,)

    @pytest.mark.parametrize("args, message", [
        (("dephasing", [0.1], [0.1], [0.1]), "unknown channel kind"),
        (("bit_flip", [0.1, 0.2], [0.1, 0.2, 0.3], [0.1]), "shape mismatch"),
        (("bit_flip", [[0.1]], [0.1], [0.1]), "1-D"),
        (("bit_flip", [0.1, 1.5], [0.1], [0.1]), r"p must be in \[0, 1\], got 1.5"),
        (("phase_flip", [0.1], [np.nan], [0.1]), r"mu must be in \[0, 1\], got nan"),
        (("amplitude_damping", [0.1], [0.1], [2.0]),
         r"gamma must be in \[0, pi/2\], got 2.0"),
    ])
    def test_validation(self, args, message):
        with pytest.raises(ValueError, match=message):
            game.evaluate(*args)

    def test_rejects_bad_profile(self):
        with pytest.raises(ValueError, match="4 strategies"):
            game.evaluate("bit_flip", [0.1], [0.1], [0.1], (game.ne_strategy(),) * 3)
        with pytest.raises(ValueError, match="theta"):
            game.evaluate("bit_flip", [0.1], [0.1], [0.1],
                          ((4.0, 0.0, 0.0),) + (game.ne_strategy(),) * 3)

    def test_failed_state_validation_raises(self, monkeypatch):
        def broken(rho):
            report = linalg.ValidationReport(np.zeros(len(rho)), np.zeros(len(rho)),
                                             np.zeros(len(rho)))
            report.trace_residual[1] = 1.0
            return report
        monkeypatch.setattr(linalg, "validate_densities", broken)
        with pytest.raises(RuntimeError,
                           match=r"^final state failed validation: ValidationReport\("
                                 r"hermiticity_residual=0.0, trace_residual=1.0"):
            game.evaluate("depolarizing", [0.1, 0.2, 0.3], 0.5, np.pi / 2)

    def test_memory_is_bounded(self):
        # the batch is worked in fixed chunks, so the working set does not
        # grow with the number of points
        def peak(points):
            grid = np.linspace(0.0, 1.0, points)
            tracemalloc.start()
            try:
                game.evaluate("depolarizing", grid, 0.3, np.pi / 2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak(20_001) <= 1.5 * peak(1_001)


class TestEvaluateProperties:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(channels.KINDS), p=unit, mu=unit,
           gamma=st.floats(0.0, np.pi / 2), profile=st.lists(triples, min_size=4,
                                                              max_size=4))
    def test_matches_run_game(self, kind, p, mu, gamma, profile):
        result = assert_matches_run_game(kind, [p], [mu], [gamma], tuple(profile))
        payoffs = result.payoffs[0]
        assert np.all((payoffs >= 0.0) & (payoffs <= 1.0))
        assert payoffs.sum() <= 1.0 + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(channels.KINDS), p=unit, mu=unit,
           gamma=st.floats(0.0, np.pi / 2), triple=triples)
    def test_symmetric_profile(self, kind, p, mu, gamma, triple):
        # the memory chain runs along the qubit order, so a symmetric
        # profile pays players 1 and 4, and 2 and 3, alike; all four are
        # equal where the noise is blind to the order: no memory, full
        # memory, amplitude damping, and phase flip (which acts on the
        # shared resource through the parity of its errors only)
        payoffs = game.evaluate(kind, [p, p, p], [mu, 0.0, 1.0], gamma,
                                (triple,) * 4).payoffs
        assert np.max(np.abs(payoffs - payoffs[:, ::-1])) <= 1e-13
        assert np.ptp(payoffs[1:], axis=1).max() <= 1e-13
        if kind in ("amplitude_damping", "phase_flip"):
            assert np.ptp(payoffs[0]) <= 1e-13
