"""Acceptance checks: one test per agreed deliverable, in order.

Covers payoff anchors, closed-form cross-validation, channel properties,
memory endpoints, equilibrium search, the overlap report, CLI figure sweeps,
and the documented closed-form discrepancies. Run with `pytest -v` to get
one pass/fail line per check. Runtime budgets are asserted where a check
carries one.
"""

import time

import numpy as np
import pytest

import reference
from qminority import channels, cli, formulas, game, linalg
from reference import random_density

GAMMA_MAX = np.pi / 2
GRID5 = (0.0, 0.25, 0.5, 0.75, 1.0)


def _ne_payoffs(kind: str, p: float, mu: float, gamma: float = GAMMA_MAX):
    spec = channels.ChannelSpec(kind, p, mu)
    cfg = game.GameConfig(gamma=gamma, noise_pre=spec, noise_post=spec)
    return game.run_game(cfg).payoffs


def test_noiseless_ne_payoff():
    """p=0, mu=0, gamma=pi/2, all players on the equilibrium triple: 0.25 each."""
    for kind in channels.KINDS:
        for value in _ne_payoffs(kind, 0.0, 0.0):
            assert value == pytest.approx(0.25, abs=1e-10)


def test_classical_depolarizing_limit():
    """Full depolarizing noise: maximally mixed outcome, payoff 2/16 per player."""
    for value in _ne_payoffs("depolarizing", 1.0, 0.0):
        assert value == pytest.approx(0.125, abs=1e-10)


def test_phase_flip_closed_form_match():
    """Simulation matches the printed phase-flip curve on an 11x5x3 grid."""
    start = time.perf_counter()
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 11):
        for mu in GRID5:
            for gamma in np.linspace(0.0, GAMMA_MAX, 3):
                expected = formulas.formula_payoff("phase_flip", float(p), mu,
                                                   float(gamma))
                payoffs = _ne_payoffs("phase_flip", float(p), mu, float(gamma))
                worst = max(worst, max(abs(v - expected) for v in payoffs))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 5.0


def test_phase_flip_symmetry():
    """Phase-flip payoff is symmetric about p = 1/2 at every memory level."""
    start = time.perf_counter()
    worst = 0.0
    for mu in GRID5:
        for p in np.linspace(0.0, 1.0, 11):
            a = _ne_payoffs("phase_flip", float(p), mu)[0]
            b = _ne_payoffs("phase_flip", float(1.0 - p), mu)[0]
            worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 5.0


def test_unitary_noise_limits():
    """Bit flip and bit-phase flip at p=1, mu=0 pay 0, not the noiseless 0.25.

    At p=1 each noise stage is the deterministic global flip X^4 (or Y^4).
    Unlike Z^4, which commutes with J and cancels, the first flip meets the
    shared resource before the moves, and at gamma=pi/2
    X^4 J|0000> = Y^4 J|0000> = i J^dagger|0000>: the game is played from
    the conjugate resource. The second flip commutes with J^dagger and only
    complements each outcome, which the Minority rule pays alike. The target
    is the explicit pipeline of tests/reference.py, built without the library;
    at p=1, mu=0 its one Kraus operator is the global flip.
    """
    gate = reference.gate(GAMMA_MAX)
    for flip in (reference.X, reference.Y):
        assert np.allclose(reference.kron([flip] * 4) @ gate[:, 0], 1j * gate.conj().T[:, 0],
                           rtol=0.0, atol=1e-12)
    # control: the same pipeline with Z^4 (phase flip at p=1) cancels to the noiseless payoff
    assert np.allclose(reference.payoffs("phase_flip", 1.0, 0.0, GAMMA_MAX), 0.25,
                       rtol=0.0, atol=1e-10)
    for kind in ("bit_flip", "bit_phase_flip"):
        expected = reference.payoffs(kind, 1.0, 0.0, GAMMA_MAX)
        assert np.allclose(expected, 0.0, rtol=0.0, atol=1e-10)
        for value, target in zip(_ne_payoffs(kind, 1.0, 0.0), expected):
            assert value == pytest.approx(target, abs=1e-10)


def test_cptp_property_suite():
    """Completeness, trace preservation, positivity over the 5x5 (p, mu) grid."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    probe = game.entangler(GAMMA_MAX)[:, 0]
    states = [np.outer(probe, probe.conj())]
    states += [random_density(rng) for _ in range(3)]
    for kind in channels.KINDS:
        for p in GRID5:
            for mu in GRID5:
                ks = channels.build_channel(channels.ChannelSpec(kind, p, mu))
                assert ks.completeness_residual < 1e-10
                for rho in states:
                    report = linalg.validate_density(linalg.apply_kraus(rho, ks))
                    assert report.trace_residual < 1e-10
                    assert report.min_eigenvalue >= -1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0


def test_memory_endpoints():
    """mu=0 reduces to the memoryless product channel, mu=1 to the small
    fully correlated set, checked entrywise on 20 random states."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240818)
    states = [random_density(rng) for _ in range(20)]
    for kind in channels.PAULI_KINDS:
        for p in (0.3, 0.7):
            memoryless = channels.build_channel(channels.ChannelSpec(kind, p, 0.0))
            correlated = channels.build_channel(channels.ChannelSpec(kind, p, 1.0))
            reference_ops = reference.kraus_stack(kind, p, 1.0)
            assert len(correlated) == len(reference_ops)
            assert 2 <= len(correlated) <= 4
            for rho in states:
                got = linalg.apply_kraus(rho, memoryless)
                want = reference.product_channel(kind, p, rho)
                assert np.max(np.abs(got - want)) < 1e-10
                got = linalg.apply_kraus(rho, correlated)
                want = reference.operator_sum(rho, reference_ops)
                assert np.max(np.abs(got - want)) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0


def test_ne_deviation_bound():
    """No move on the 17^3 lattice beats the equilibrium triple noiselessly."""
    start = time.perf_counter()
    spec = channels.ChannelSpec("depolarizing", 0.0, 0.0)
    cfg = game.GameConfig(gamma=GAMMA_MAX, noise_pre=spec, noise_post=spec)
    _, best_payoff = game.best_response_search(cfg, player=1, grid_points=17)
    elapsed = time.perf_counter() - start
    assert best_payoff <= 0.25 + 1e-6
    assert elapsed < 60.0


def test_overlap_report():
    """Depolarizing vs bit-phase flip at mu=1: report is produced over 101
    p-points, is deterministic, and records the maximum difference."""
    start = time.perf_counter()
    report = formulas.overlap_check(GAMMA_MAX, 101)
    again = formulas.overlap_check(GAMMA_MAX, 101)
    elapsed = time.perf_counter() - start
    assert len(report.points) == 101
    assert report.points == again.points
    assert report.max_difference == again.max_difference
    assert np.isfinite(report.max_difference)
    assert report.max_difference >= 0.0
    assert report.recompute_residual < 1e-12
    assert elapsed < 10.0


def _read_sweep(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == cli.CSV_HEADER
    rows = []
    for line in lines[1:]:
        kind, p, mu, gamma, player, payoff = line.split(",")
        rows.append((kind, float(p), float(mu), float(gamma),
                     int(player), float(payoff)))
    return rows


def test_figure_sweeps(tmp_path):
    """All seven sweep parameterizations for all five channels: payoffs stay
    in [0, 1] and the five channels agree at the p=0 end of each p-sweep."""
    start = time.perf_counter()
    tables = {}
    for index, (vary, fixed) in enumerate(reference.FIGURE_SWEEPS):
        for kind in channels.KINDS:
            out = tmp_path / f"sweep_{index}_{kind}.csv"
            argv = ["sweep", "--channel", kind, "--vary", vary,
                    "--out", str(out)]
            for flag, value in fixed.items():
                argv += [f"--{flag}", value]
            assert cli.main(argv) == 0
            rows = _read_sweep(out)
            assert len(rows) == 101 * 4
            for row in rows:
                assert 0.0 <= row[5] <= 1.0
            tables[(index, kind)] = rows
    for index, (vary, _) in enumerate(reference.FIGURE_SWEEPS):
        if vary != "p":
            continue
        for player in range(1, 5):
            values = [row[5]
                      for kind in channels.KINDS
                      for row in tables[(index, kind)]
                      if row[1] == 0.0 and row[4] == player]
            assert len(values) == len(channels.KINDS)
            assert max(values) - min(values) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


def _read_compare(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == cli.COMPARE_HEADER
    rows = []
    for line in lines[1:]:
        kind, p, mu, gamma, form, sim, diff = line.split(",")
        rows.append((kind, float(p), float(mu), float(gamma),
                     float(form), float(sim), float(diff)))
    return rows


def test_formula_discrepancy_reports(tmp_path):
    """`compare` completes for the four non-matching channels and records the
    known as-printed anomalies instead of crashing on them."""
    start = time.perf_counter()
    rows = {}
    for kind in ("amplitude_damping", "depolarizing", "bit_phase_flip",
                 "bit_flip"):
        out = tmp_path / f"compare_{kind}.csv"
        assert cli.main(["compare", "--channel", kind, "--out", str(out)]) == 0
        rows[kind] = _read_compare(out)
        assert len(rows[kind]) == 11 * 5
    ad_origin = [r for r in rows["amplitude_damping"] if r[1] == 0.0 and r[2] == 0.0]
    assert len(ad_origin) == 1
    assert ad_origin[0][4] == pytest.approx(0.125, abs=1e-6)
    assert ad_origin[0][5] == pytest.approx(0.25, abs=1e-10)
    dep_full = [r for r in rows["depolarizing"] if r[1] == 1.0 and r[2] == 0.0]
    assert len(dep_full) == 1
    assert abs(dep_full[0][4]) < 5e-3
    assert dep_full[0][5] == pytest.approx(0.125, abs=1e-10)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
