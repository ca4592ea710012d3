import numpy as np
import pytest

from qminority import formulas, game, channels


G2 = np.pi / 2


def simulate(kind, p, mu, gamma=G2):
    spec = channels.ChannelSpec(kind, p, mu)
    cfg = game.GameConfig(gamma=gamma, noise_pre=spec, noise_post=spec)
    return game.run_game(cfg).payoffs[0]


class TestPhaseFlipFormula:
    def test_matches_simulation(self):
        for p in np.linspace(0, 1, 6):
            for mu in (0.0, 0.5, 1.0):
                for gamma in (0.0, 0.8, G2):
                    got = formulas.formula_payoff("phase_flip", p, mu, gamma)
                    assert abs(got - simulate("phase_flip", p, mu, gamma)) < 1e-10

    def test_noiseless_point(self):
        assert formulas.formula_payoff("phase_flip", 0.0, 0.0, G2) == pytest.approx(0.25, abs=1e-14)

    def test_balanced_point(self):
        assert formulas.formula_payoff("phase_flip", 0.5, 0.0, G2) == pytest.approx(0.125, abs=1e-14)

    def test_symmetric_in_p(self):
        for mu in (0.0, 0.25, 0.75, 1.0):
            for p in np.linspace(0, 1, 11):
                a = formulas.formula_payoff("phase_flip", p, mu, G2)
                b = formulas.formula_payoff("phase_flip", 1 - p, mu, G2)
                assert abs(a - b) < 1e-14

    def test_full_memory_restores_noiseless_value(self):
        # at mu=1 the polynomial part collapses to 1 for every p
        for p in (0.0, 0.3, 0.9):
            for gamma in (0.0, 0.5, G2):
                got = formulas.formula_payoff("phase_flip", p, 1.0, gamma)
                assert got == pytest.approx((np.sin(gamma) + 1) / 8, abs=1e-14)


class TestOtherFormulas:
    """The four remaining closed forms carry typos as printed; these tests
    pin the transcription, not agreement with the simulator."""

    def test_amplitude_damping_noiseless_point(self):
        # formula gives 0.125 at p=0 regardless of mu; the simulator gives
        # 0.25, which is the first recorded discrepancy
        for mu in (0.0, 0.5, 1.0):
            got = formulas.formula_payoff("amplitude_damping", 0.0, mu, G2)
            assert got == pytest.approx(0.125, abs=1e-12)

    def test_amplitude_damping_memoryless_curve(self):
        # mu=0 collapses to 0.125 (1-p)^6 sin(gamma)
        for p in (0.0, 0.3, 0.8, 1.0):
            got = formulas.formula_payoff("amplitude_damping", p, 0.0, G2)
            assert got == pytest.approx(0.125 * (1 - p) ** 6, abs=1e-12)

    def test_depolarizing_noiseless_point(self):
        got = formulas.formula_payoff("depolarizing", 0.0, 0.3, G2)
        assert got == pytest.approx(0.25, abs=1e-12)

    def test_depolarizing_fully_noisy_point(self):
        # formula lands near zero where the simulator gives 0.125; the
        # second recorded discrepancy
        got = formulas.formula_payoff("depolarizing", 1.0, 0.0, G2)
        assert abs(got) < 5e-3

    def test_bit_phase_flip_noiseless_point(self):
        # hand evaluation: 0.125 - 1.10355 * 1.21443 * 0.125 = -0.042523...
        got = formulas.formula_payoff("bit_phase_flip", 0.0, 0.0, G2)
        assert got == pytest.approx(-0.042523, abs=1e-4)

    def test_bit_flip_noiseless_point(self):
        got = formulas.formula_payoff("bit_flip", 0.0, 0.0, G2)
        assert got == pytest.approx(0.25, abs=1e-12)

    def test_bit_flip_deterministic_point(self):
        # hand evaluation at p=1, mu=0 sums to about -0.248
        got = formulas.formula_payoff("bit_flip", 1.0, 0.0, G2)
        assert got == pytest.approx(-0.248, abs=5e-3)

    def test_gamma_dependence_enters_through_half_angle(self):
        # for these four the gamma term is cos(gamma/2) sin(gamma/2); at
        # gamma=0 it vanishes
        a = formulas.formula_payoff("depolarizing", 0.3, 0.3, 0.0)
        b = formulas.formula_payoff("depolarizing", 0.3, 0.3, G2)
        assert abs((b - a) - 0.125) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^unknown channel kind 'dephasing'$"):
            formulas.formula_payoff("dephasing", 0.1, 0.1, G2)
        with pytest.raises(ValueError, match=r"^p must be in \[0, 1\], got 1\.5$"):
            formulas.formula_payoff("bit_flip", 1.5, 0.1, G2)
        with pytest.raises(ValueError, match=r"^mu must be in \[0, 1\], got -0\.1$"):
            formulas.formula_payoff("bit_flip", 0.1, -0.1, G2)
        with pytest.raises(ValueError, match=r"^gamma must be in \[0, pi/2\], got 2\.0$"):
            formulas.formula_payoff("bit_flip", 0.1, 0.1, 2.0)

    @pytest.mark.parametrize("kind", channels.KINDS)
    @pytest.mark.parametrize("gamma", [0.0, np.pi / 4, G2])
    def test_matches_the_array_path_exactly(self, kind, gamma):
        # one point evaluates as one element of an array, bit for bit
        p, mu = np.random.default_rng(11).random((2, 2000))
        want = formulas._FORMS[kind](p, mu, gamma).tolist()
        got = [formulas.formula_payoff(kind, a, b, gamma)
               for a, b in zip(p.tolist(), mu.tolist())]
        assert got == want


class TestCompare:
    def test_phase_flip_consistent(self):
        report = formulas.compare("phase_flip", (11, 5), G2)
        assert report.verdict == "consistent"
        assert report.tolerance == 1e-10
        assert report.max_difference < 1e-10
        assert len(report.points) == 55

    def test_amplitude_damping_inconsistent(self):
        report = formulas.compare("amplitude_damping", (11, 5), G2)
        assert report.verdict == "inconsistent"
        assert report.tolerance == 5e-3
        first = report.points[0]
        assert (first.p, first.mu) == (0.0, 0.0)
        assert first.formula == pytest.approx(0.125, abs=1e-12)
        assert first.simulated == pytest.approx(0.25, abs=1e-10)

    def test_depolarizing_inconsistent(self):
        report = formulas.compare("depolarizing", (11, 5), G2)
        assert report.verdict == "inconsistent"
        worst_free = [pt for pt in report.points if pt.p == 1.0 and pt.mu == 0.0]
        assert len(worst_free) == 1
        assert abs(worst_free[0].formula) < 5e-3
        assert worst_free[0].simulated == pytest.approx(0.125, abs=1e-10)

    @pytest.mark.parametrize("kind", ["bit_flip", "bit_phase_flip"])
    def test_flip_channels_complete(self, kind):
        report = formulas.compare(kind, (6, 3), G2)
        assert report.verdict == "inconsistent"
        assert np.isfinite(report.max_difference)
        assert len(report.points) == 18

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            formulas.compare("phase_flip", (1, 5), G2)
        with pytest.raises(ValueError):
            formulas.compare("phase_flip", (5, 0), G2)

    def test_kind_and_gamma_validation(self):
        with pytest.raises(ValueError, match=r"^unknown channel kind 'dephasing'$"):
            formulas.compare("dephasing", (3, 3), G2)
        with pytest.raises(ValueError, match=r"^gamma must be in \[0, pi/2\], got 2\.0$"):
            formulas.compare("bit_flip", (3, 3), 2.0)

    @pytest.mark.parametrize("kind", channels.KINDS)
    @pytest.mark.parametrize("gamma", [0.0, np.pi / 4, G2])
    def test_formula_column_matches_formula_payoff(self, kind, gamma):
        # compare evaluates the closed form on the whole grid at once
        for pt in formulas.compare(kind, (11, 5), gamma).points:
            want = formulas.formula_payoff(kind, pt.p, pt.mu, gamma)
            assert pt.formula == pytest.approx(want, rel=0, abs=1e-13)


def per_cell_report(kind, grid, gamma):
    """compare's report as built before the columns: a list of (p, mu) cells, then
    one ComparisonPoint a cell from Python floats."""
    cells = [(p, mu) for p in np.linspace(0.0, 1.0, grid[0]).tolist()
             for mu in np.linspace(0.0, 1.0, grid[1]).tolist()]
    p, mu = np.array(cells).T
    expected = formulas._FORMS[kind](p, mu, gamma).tolist()
    simulated = game.evaluate(kind, p, mu, gamma).payoffs[:, 0].tolist()
    points = tuple(formulas.ComparisonPoint(p, mu, f, s, abs(f - s))
                   for (p, mu), f, s in zip(cells, expected, simulated))
    max_difference = max(pt.difference for pt in points)
    tolerance = formulas.PF_TOLERANCE if kind == "phase_flip" else formulas.DEFAULT_TOLERANCE
    verdict = "consistent" if max_difference < tolerance else "inconsistent"
    return formulas.DiscrepancyReport(kind, gamma, tolerance, points, max_difference, verdict)


class TestCompareColumns:
    @pytest.mark.parametrize("kind", channels.KINDS)
    @pytest.mark.parametrize("grid, gamma", [((11, 5), G2), ((3, 171), np.pi / 5),
                                             ((257, 2), 0.3)])
    def test_report_matches_the_per_cell_construction(self, kind, grid, gamma):
        report = formulas.compare(kind, grid, gamma)
        assert report == per_cell_report(kind, grid, gamma)
        assert type(report.points) is tuple
        assert all(type(pt) is formulas.ComparisonPoint for pt in report.points)
        assert {type(x) for pt in report.points for x in pt} == {float}
        assert type(report.max_difference) is float


class TestOverlapCheck:
    def test_records_disagreement(self):
        # full-memory depolarizing keeps all four collective errors while
        # bit-phase flip keeps two; the report only records the gap
        report = formulas.overlap_check(G2, 21)
        assert report.max_difference == pytest.approx(0.125, abs=1e-6)
        mid = [pt for pt in report.points if pt.p == 0.5][0]
        assert mid.depolarizing == pytest.approx(0.1875, abs=1e-10)
        assert mid.bit_phase_flip == pytest.approx(0.125, abs=1e-10)

    def test_deterministic(self):
        a = formulas.overlap_check(G2, 11)
        b = formulas.overlap_check(G2, 11)
        assert a == b

    def test_cache_independence(self):
        report = formulas.overlap_check(G2, 11)
        assert report.recompute_residual <= 1e-15

    def test_point_count(self):
        assert len(formulas.overlap_check(G2, 31).points) == 31

    def test_rejects_one_point(self):
        with pytest.raises(ValueError, match="^need at least 2 points, got 1$"):
            formulas.overlap_check(G2, 1)

    def test_residual_compares_evaluate_with_run_game(self, monkeypatch):
        fast = game.evaluate

        def off_by_1e9(*args, **kwargs):
            result = fast(*args, **kwargs)
            return result._replace(payoffs=result.payoffs + 1e-9)
        monkeypatch.setattr(game, "evaluate", off_by_1e9)
        assert formulas.overlap_check(G2, 5).recompute_residual >= 1e-9
