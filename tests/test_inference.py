import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from pcbdet import inference
from pcbdet.inference import (
    CALIBRATION_DRAWS,
    FIT_FLOOR,
    ClassStatistics,
    DegenerateNullError,
    NullFit,
    _digamma_trigamma,
    _fit_rows,
    _log_gammaincc,
    calibrated_pvalue,
    combined_statistic,
    compute_r_s,
    compute_w,
    compute_z,
    detect,
    exclusion_set,
    fit_gamma_null,
    order_statistic_pvalue,
)
from pcbdet.report import read_report, write_report_json, write_statistics_csv
from tests.oracles import full_scan_distances, gamma_cdf


@st.composite
def r_s_calls(draw):
    """(centre, clouds): 1-6 clouds of 1-40 points on a coarse grid or
    anywhere in [-2, 2]^3, some points duplicated, and a centre that is now
    and then one of the clouds' points."""
    coords = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-2, 2))
    clouds = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 40))
        X = draw(hnp.arrays(np.float64, (n, 3), elements=coords))
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=5)):
            X[i] = X[j]
        clouds.append(X)
    if draw(st.booleans()):
        X = clouds[draw(st.integers(0, len(clouds) - 1))]
        return X[draw(st.integers(0, len(X) - 1))].copy(), clouds
    return draw(hnp.arrays(np.float64, (3,), elements=coords)), clouds


def make_stats(r_values, t_hats=None):
    t_hats = t_hats or [(s + 1) % len(r_values) for s in range(len(r_values))]
    return [
        ClassStatistics(source=s, t_hat=t_hats[s], r_s=1.0, r_t=1.0, z=0.5, w=0.5, r=r_values[s])
        for s in range(len(r_values))
    ]


class TestBasicStatistics:
    def test_r_s_mean_of_distances(self):
        clouds = [np.array([[0.1, 0, 0]]), np.array([[0.3, 0, 0]])]
        assert compute_r_s([0, 0, 0], clouds) == pytest.approx(0.2, abs=1e-15)

    def test_r_s_zero_when_touching_every_cloud(self):
        clouds = [np.array([[0.5, 0, 0], [1, 1, 1]]), np.array([[0.5, 0, 0]])]
        assert compute_r_s([0.5, 0, 0], clouds) == 0.0

    def test_r_t_over_target_clouds(self):
        clouds = [np.array([[1.0, 0, 0]]), np.array([[1.0, 0, 0]]), np.array([[4.0, 0, 0]])]
        # r_t is compute_r_s on the voted target's clouds.
        assert compute_r_s([0, 0, 0], clouds) == pytest.approx(2.0, abs=1e-15)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(call=r_s_calls())
    def test_r_s_bits_equal_full_scan_mean(self, call):
        # The mean of the M per-cloud distances, summed as one array: the
        # bits of the full scan's (1, M) distance row averaged.
        c, clouds = call
        assert compute_r_s(c, clouds) == float(full_scan_distances(c[None], clouds)[0].mean())

    def test_z_all_parallel(self):
        g = np.array([1.0, 0, 0])
        sw = [np.array([2.0, 0, 0]), np.array([0.5, 0, 0])]
        assert compute_z(g, sw) == pytest.approx(1.0, abs=1e-12)

    def test_z_opposed_cancel(self):
        g = np.array([1.0, 0, 0])
        sw = [np.array([1.0, 0, 0]), np.array([-1.0, 0, 0])]
        assert compute_z(g, sw) == pytest.approx(0.0, abs=1e-12)

    def test_z_failed_contributes_zero(self):
        g = np.array([1.0, 0, 0])
        sw = [np.array([1.0, 0, 0]), None]
        assert compute_z(g, sw) == pytest.approx(0.5, abs=1e-12)

    def test_w_normalization(self):
        np.testing.assert_allclose(compute_w([0.2, 0.8, 0.5]), [0.0, 1.0, 0.5], atol=1e-12)

    def test_w_degenerate_all_ones(self):
        np.testing.assert_array_equal(compute_w([0.3, 0.3, 0.3]), [1.0, 1.0, 1.0])

    def test_w_extremes(self):
        np.testing.assert_allclose(compute_w([-1.0, 1.0]), [0.0, 1.0], atol=1e-12)

    def test_combined_statistic(self):
        assert combined_statistic(0.5, 0.2, 0.1) == pytest.approx(1.0, abs=1e-12)
        assert combined_statistic(0.0, 5.0, 0.1) == 0.0
        assert combined_statistic(1.0, 0.7, 0.7) == pytest.approx(1.0, abs=1e-12)

    def test_combined_statistic_zero_denominator(self):
        assert combined_statistic(1.0, 2.0, 0.0) == pytest.approx(2.0 / 1e-9)


class TestAblation:
    def test_families(self):
        st = ClassStatistics(source=0, t_hat=1, r_s=0.5, r_t=1.0, z=0.4, w=0.4, r=0.8)
        assert st.inv_rs == pytest.approx(2.0)
        assert st.rt_over_rs == pytest.approx(2.0)
        assert st.w_over_rs == pytest.approx(0.8)

    def test_failed_class_all_zero(self):
        st = ClassStatistics(source=0, t_hat=None, r_s=0.0, r_t=0.0, z=0.0, w=0.0, r=0.0)
        assert (st.inv_rs, st.rt_over_rs, st.w_over_rs) == (0.0, 0.0, 0.0)

    def test_w_one_matches_inverse(self):
        st = ClassStatistics(source=0, t_hat=1, r_s=0.25, r_t=1.0, z=1.0, w=1.0, r=4.0)
        assert st.w_over_rs == st.inv_rs


class TestExclusion:
    def test_shared_target_excluded(self):
        # t_hat = [2,2,5,1,0]; r maximal at class 0 -> exclude {0, 1}
        stats = make_stats([5.0, 1.0, 0.5, 0.2, 0.1], t_hats=[2, 2, 5, 1, 0])
        assert exclusion_set(stats) == {0, 1}

    def test_unique_votes_exclude_only_smax(self):
        stats = make_stats([1.0, 3.0, 0.5], t_hats=[1, 2, 0])
        assert exclusion_set(stats) == {1}

    def test_all_same_vote_excludes_everything(self):
        stats = make_stats([1.0, 3.0, 0.5, 0.2], t_hats=[3, 3, 3, 3])
        assert exclusion_set(stats) == {0, 1, 2, 3}

    def test_smax_tie_breaks_low(self):
        stats = make_stats([2.0, 2.0, 0.1], t_hats=[2, 0, 1])
        assert 0 in exclusion_set(stats)

    def test_failed_classes_never_excluded(self):
        stats = make_stats([2.0, 0.0, 0.1], t_hats=[2, None, 0])
        assert exclusion_set(stats) == {0}


class TestGammaFit:
    def test_recovers_seeded_draws(self):
        rng = np.random.default_rng(1234)
        vals = rng.gamma(shape=2.0, scale=1.0, size=1000)
        fit = fit_gamma_null(vals)
        assert 1.8 <= fit.shape <= 2.2
        assert 0.9 <= fit.scale <= 1.1

    def test_moment_initialization_formula(self):
        # mean 2, variance 2 -> moment start shape 2, scale 1; the MLE stays
        # in that neighborhood for a gamma-like sample.
        vals = np.array([2.0 - math.sqrt(2), 2.0 + math.sqrt(2), 2.0, 1.0, 3.0])
        m, v = vals.mean(), vals.var()
        assert m * m / v == pytest.approx(vals.mean() ** 2 / vals.var())

    def test_identical_values_degenerate(self):
        with pytest.raises(DegenerateNullError):
            fit_gamma_null(np.full(6, 3.3))

    def test_degenerate_rows_are_not_fitted(self):
        vals = np.array([[FIT_FLOOR] * 4, [1.0, 2.0, 3.0, 4.0], [2.0] * 4, [1.0, 1.0 + 1e-15, 1.0, 1.0]])
        shape, scale, fitted = _fit_rows(vals)
        assert fitted.tolist() == [False, True, False, False]
        assert NullFit(shape=shape[0], scale=scale[0]) == fit_gamma_null(vals[1])

    @pytest.mark.parametrize(
        "values",
        [[1 + eps * k for k in range(6)] for eps in (1e-7, 1e-8, 1e-9, 1e-12)] + [[1e200, 2e200, 3e200, 4e200]],
        ids=["eps-1e-7", "eps-1e-8", "eps-1e-9", "eps-1e-12", "above-ceiling"],
    )
    def test_unresolvable_nulls_degenerate(self, values):
        # Near-equal values have a gap below MIN_LOG_GAP, which rounding
        # swamps; the last row's squares overflow. Neither may come out as a
        # NaN or warn (warnings are errors here).
        with pytest.raises(DegenerateNullError):
            fit_gamma_null(values)

    def test_clamps_zeros(self):
        fit = fit_gamma_null(np.array([0.0, 0.0, 1.0, 2.0, 0.5]))
        assert fit.shape > 0 and fit.scale > 0
        assert fit == fit_gamma_null(np.array([1e-12, 1e-12, 1.0, 2.0, 0.5]))

    @staticmethod
    def count_newton_steps(monkeypatch):
        """A list that gets one entry per _digamma_trigamma call, that is
        per Newton step of every fit."""
        calls = []
        real = inference._digamma_trigamma

        def counting(x):
            calls.append(np.size(x))
            return real(x)

        monkeypatch.setattr(inference, "_digamma_trigamma", counting)
        return calls

    @pytest.mark.parametrize(
        "fit, r_max, num_null, num_top, pv",
        [
            (NullFit(5.0, 0.1), 2.0, 4, 3, 0.14642678660669664),
            (NullFit(50.0, 0.01), 0.7, 8, 3, 0.29035482258870565),
        ],
    )
    def test_newton_stops_where_its_update_stalls(self, monkeypatch, fit, r_max, num_null, num_top, pv):
        # A few simulated nulls refit to shapes in the hundreds and more,
        # where the update stalls at rounding level above 1e-10; they used
        # to run all 100 steps. pv keeps its bits.
        calls = self.count_newton_steps(monkeypatch)
        assert calibrated_pvalue(fit, r_max, num_null, num_top) == pv
        assert len(calls) <= 12

    @pytest.mark.parametrize(
        "fit, r_max, num_null, num_top, pv, steps",
        [
            (NullFit(1.2, 0.3), 1.0, 5, 2, 0.7621189405297352, 16),
            (NullFit(2.0, 0.2), 0.9, 6, 1, 0.8160919540229885, 13),
            (NullFit(10.0, 0.05), 1.0, 7, 2, 0.29735132433783107, 8),
        ],
    )
    def test_converging_fits_keep_their_newton_steps(self, monkeypatch, fit, r_max, num_null, num_top, pv, steps):
        # The step counts these fits had before the stall rule, and their pv.
        calls = self.count_newton_steps(monkeypatch)
        assert calibrated_pvalue(fit, r_max, num_null, num_top) == pv
        assert len(calls) == steps


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


class TestSpecialFunctions:
    # scipy.special is the oracle; the package computes these with numpy.

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(log_uniform(-4, 6), min_size=1, max_size=40))
    def test_digamma_trigamma_match_scipy(self, xs):
        x = np.array(xs)
        psi, dpsi = _digamma_trigamma(x)
        for got, ref in ((psi, special.digamma(x)), (dpsi, special.polygamma(1, x))):
            assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + 1e-14)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(log_uniform(-2, 4), log_uniform(-3, 2)), min_size=1, max_size=40))
    def test_upper_incomplete_gamma_matches_scipy(self, pairs):
        # Calibration refits reach shapes of about 5000.
        a, ratio = np.array(pairs).T
        x = a * ratio
        ref = special.gammaincc(a, x)
        kept = ref >= 1e-300
        np.testing.assert_allclose(np.exp(_log_gammaincc(a, x)[kept]), ref[kept], rtol=1e-10, atol=0.0)

    def test_closed_forms(self):
        euler = 0.5772156649015329
        psi, dpsi = _digamma_trigamma(np.array([1.0, 0.5]))
        np.testing.assert_allclose(psi, [-euler, -euler - 2.0 * math.log(2.0)], rtol=1e-14)
        np.testing.assert_allclose(dpsi, [math.pi**2 / 6.0, math.pi**2 / 2.0], rtol=1e-14)
        x = np.geomspace(1e-3, 700.0, 80)
        np.testing.assert_allclose(_log_gammaincc(1.0, x), -x, rtol=1e-14)
        erfc = [math.erfc(math.sqrt(v)) for v in x]
        np.testing.assert_allclose(np.exp(_log_gammaincc(0.5, x)), erfc, rtol=1e-12)
        assert np.all(_log_gammaincc(np.array([0.01, 1.0, 5e3]), 0.0) == 0.0)

    @pytest.mark.parametrize("y", [800.0, 1500.0])
    def test_log_tail_where_the_tail_underflows(self, y):
        assert special.gammaincc(1.0, y) == 0.0
        assert float(_log_gammaincc(1.0, y)) == pytest.approx(-y, rel=1e-14)
        res = order_statistic_pvalue(NullFit(shape=1.0, scale=2.0), 2.0 * y, num_classes=10, num_excluded=1)
        assert res.underflow
        assert res.log_pv == pytest.approx(math.log(9) - y, rel=1e-14)


class TestOrderStatisticPValue:
    def fit(self, shape=1.0, scale=1.0):
        return NullFit(shape=shape, scale=scale)

    def test_power_arithmetic(self):
        # G(r) = 0.99 for Gamma(1,1) at r = -ln(0.01); K-J = 38.
        fit = self.fit()
        r = -math.log(0.01)
        res = order_statistic_pvalue(fit, r, num_classes=39, num_excluded=1)
        assert res.pv == pytest.approx(1 - 0.99**38, abs=1e-6)
        assert res.pv == pytest.approx(0.3174, abs=5e-4)

    def test_median_single(self):
        fit = self.fit()
        res = order_statistic_pvalue(fit, math.log(2.0), num_classes=2, num_excluded=1)
        assert res.pv == pytest.approx(0.5, abs=1e-12)

    def test_underflow_marker(self):
        fit = self.fit()
        res = order_statistic_pvalue(fit, 800.0, num_classes=10, num_excluded=1)
        assert res.underflow
        assert res.pv == 0.0
        # log pv ~ log(9) - 800 for the exponential tail
        assert res.log_pv == pytest.approx(math.log(9) - 800.0, rel=1e-3)

    def test_monotone_in_r_max(self):
        fit = self.fit(shape=2.0, scale=0.7)
        rs = np.linspace(0.01, 30.0, 50)
        pvs = [order_statistic_pvalue(fit, r, 8, 1).pv for r in rs]
        assert all(a >= b for a, b in zip(pvs, pvs[1:]))
        assert all(0.0 <= p <= 1.0 for p in pvs)

    @pytest.mark.parametrize("shape", [0.05, 0.1])
    def test_degenerate_simulated_nulls_are_dropped(self, shape):
        # At small shapes some simulated nulls clamp every draw to FIT_FLOOR.
        # They have no refit and leave the count and the denominator, without
        # a divide-by-zero or invalid-value warning (warnings are errors here).
        assert 0.0 < calibrated_pvalue(NullFit(shape=shape, scale=1.0), 1.0, 4, 1) <= 1.0

    def test_calibration_with_no_refit_left(self):
        # Hardly any draw of a shape-1e-5 Gamma exceeds FIT_FLOOR.
        assert calibrated_pvalue(NullFit(shape=1e-5, scale=1.0), 1.0, 4, 1) == 1.0

    def test_calibration_uniform(self):
        # Statistics drawn from the fitted null itself make G(max)^m uniform.
        fit = self.fit(shape=2.0, scale=1.3)
        rng = np.random.default_rng(77)
        m = 7
        pvs = []
        for _ in range(1000):
            draws = rng.gamma(fit.shape, fit.scale, size=m)
            pvs.append(order_statistic_pvalue(fit, draws.max(), m + 1, 1).pv)
        pvs = np.sort(pvs)
        grid = (np.arange(1, 1001)) / 1000.0
        ks = np.max(np.maximum(np.abs(grid - pvs), np.abs(grid - 1.0 / 1000 - pvs)))
        assert ks <= 0.06

    def test_scale_invariance_under_refit(self):
        rng = np.random.default_rng(5)
        vals = rng.gamma(1.7, 0.4, size=200)
        fit1 = fit_gamma_null(vals)
        fit2 = fit_gamma_null(vals * 10.0)
        r_max = float(vals.max()) * 1.1
        g1 = gamma_cdf(fit1, r_max)
        g2 = gamma_cdf(fit2, r_max * 10.0)
        assert abs(g1 - g2) <= 1e-6


class TestDetect:
    def test_attacked_verdict_and_target(self):
        rng = np.random.default_rng(3)
        r = list(rng.gamma(2.0, 0.05, size=7)) + [30.0]
        stats = make_stats(r, t_hats=[1, 2, 3, 4, 5, 6, 7, 2])
        report = detect(stats, phi=0.05)
        assert report.verdict == "attacked"
        assert report.s_max == 7
        assert report.inferred_target == 2
        assert report.pvalue.pv < 0.05
        # class 1 votes the same target as s_max -> excluded together
        assert set(report.excluded) == {1, 7}

    def test_clean_verdict(self):
        rng = np.random.default_rng(4)
        r = list(rng.gamma(2.0, 0.5, size=8))
        stats = make_stats(r, t_hats=[1, 2, 3, 4, 5, 6, 7, 0])
        report = detect(stats, phi=0.05)
        assert report.verdict in ("clean", "attacked")
        assert report.inferred_target is None or report.verdict == "attacked"

    def test_boundary_pv_is_clean(self):
        # pv exactly at phi must NOT flag an attack (strict less-than).
        stats = make_stats([1.0] * 8)
        report = detect(stats, phi=0.05)
        if report.pvalue is not None:
            assert (report.verdict == "attacked") == (report.pvalue.pv < 0.05)

    def test_small_k_inconclusive(self):
        stats = make_stats([1.0, 2.0, 3.0], t_hats=[1, 2, 0])
        report = detect(stats, phi=0.05)
        assert report.verdict == "inconclusive"
        assert report.pvalue is None

    def test_exclusion_fallback_shrinks_to_smax(self):
        # All classes vote the same target: full exclusion leaves nothing, so
        # the fit falls back to excluding s_max alone.
        rng = np.random.default_rng(9)
        r = list(rng.gamma(2.0, 0.5, size=8))
        stats = make_stats(r, t_hats=[5] * 8)
        report = detect(stats, phi=0.05)
        assert report.verdict in ("clean", "attacked")
        assert report.num_excluded == 1

    def test_degenerate_null_inconclusive(self):
        stats = make_stats([0.0] * 8, t_hats=[1, 2, 3, 4, 5, 6, 7, 0])
        report = detect(stats, phi=0.05)
        assert report.verdict == "inconclusive"

    @pytest.mark.parametrize("eps", [1e-7, 1e-8, 1e-9, 1e-12])
    def test_near_equal_null_inconclusive(self, tmp_path, eps):
        report = detect(make_stats([1 + eps * s for s in range(7)] + [5.0]), phi=0.05)
        assert report.verdict == "inconclusive"
        csv, js = tmp_path / "s.csv", tmp_path / "r.json"
        write_statistics_csv(report, csv)
        write_report_json(report, js)
        assert "NaN" not in js.read_text()
        assert read_report(csv, js).verdict == "inconclusive"

    def test_failed_class_statistics_are_zero_convention(self):
        stats = make_stats([0.5, 2.0, 0.1, 0.4, 0.3, 0.2, 0.25, 0.0],
                           t_hats=[2, 3, 4, 5, 6, 7, 1, None])
        report = detect(stats, phi=0.05)
        assert report.s_max == 1
        assert 7 not in report.excluded

    def test_zero_statistics_stay_out_of_the_fit(self):
        # Class 3 has w = 0 (r = 0 with a vote), class 7 failed (no vote).
        r = [0.5, 2.0, 0.1, 0.0, 0.3, 0.2, 0.25, 0.0]
        stats = make_stats(r, t_hats=[2, 3, 4, 5, 6, 7, 1, None])
        report = detect(stats, phi=0.05)
        assert report.s_max == 1
        assert 3 not in report.excluded and 7 not in report.excluded
        # The fit saw the positive r outside the exclusion set, no clamped zero.
        assert report.fit == fit_gamma_null([0.5, 0.1, 0.3, 0.2, 0.25])
        # The exponent counts the fitted values only.
        assert report.order_pvalue.pv == order_statistic_pvalue(report.fit, 2.0, 6, 1).pv

    def test_false_alarm_rate_on_iid_gamma(self):
        # Eight i.i.d. Gamma statistics with distinct votes are null data:
        # the calibrated test may flag at most about phi of them.
        rng = np.random.default_rng(2024)
        draws = 450
        attacked = 0
        for i in range(draws):
            r = rng.gamma((1.0, 2.0, 3.0)[i % 3], 1.0, size=8)
            attacked += detect(make_stats(list(r)), phi=0.05).verdict == "attacked"
        assert attacked / draws <= 0.08

    def test_calibrated_pv_floor_and_order_pv(self):
        r = [0.1, 0.12, 0.09, 0.11, 0.13, 0.08, 0.1, 50.0]
        report = detect(make_stats(r), phi=0.05)
        assert report.pvalue.pv == 1 / (CALIBRATION_DRAWS + 1)
        assert report.pvalue.log_pv == math.log(report.pvalue.pv)
        assert report.order_pvalue.pv < report.pvalue.pv
