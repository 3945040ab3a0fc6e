"""Detection inference: per-class statistics, Gamma null, order-statistic test.

Each putative source class yields a combined statistic r = w * r_t / r_s that
is abnormally large only when a genuine backdoor pair exists: r_s small (a
common location close to source clouds works), r_t large (that location is
not simply inside the target class), and w large (per-sample locations agree
with the group location). Classes voting for the same target as the top
statistic are excluded from the null fit to absorb collateral damage, and the
verdict comes from the maximum order statistic p-value under a fitted Gamma,
calibrated by simulating the same fit-and-test under that Gamma.

Zero statistics (the class min-max normalization always maps to w = 0, and
failed classes) never enter the Gamma fit: a Gamma puts no mass at 0, and a
zero can never be the maximum, so it adds nothing to the order-statistic
test either. The null and the exponent of the test count positive retained
statistics only.

The Gamma's special functions are computed here with numpy and math alone:
digamma and trigamma by the upward recurrence and their asymptotic Bernoulli
series (_digamma_trigamma), log Gamma by math.lgamma, and the regularised
upper incomplete gamma by its power series or its continued fraction (Press
et al., Numerical Recipes, section 6.2), returned as a logarithm so that a
tail that underflows keeps its value (_log_gammaincc).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pcbdet.geometry import as_point, point_to_cloud_distance

__all__ = [
    "ClassStatistics",
    "NullFit",
    "PValue",
    "DetectionReport",
    "DegenerateNullError",
    "compute_r_s",
    "compute_z",
    "compute_w",
    "combined_statistic",
    "exclusion_set",
    "fit_gamma_null",
    "order_statistic_pvalue",
    "calibrated_pvalue",
    "detect",
]

# Substituted for a vanishing source-distance denominator.
DENOM_EPS = 1e-9

# Values are clamped up to this floor before the Gamma fit.
FIT_FLOOR = 1e-12

# A null with a value above FIT_CEILING or a log-moment gap below MIN_LOG_GAP
# is degenerate (see _fit_rows).
FIT_CEILING = 1e100
MIN_LOG_GAP = 1e-8

# Smallest positive double; smaller p-values are flagged as underflow.
UNDERFLOW_LIMIT = 1e-323

MIN_FIT_SIZE = 4

# Simulated fit-and-test repetitions behind a calibrated p-value.
CALIBRATION_DRAWS = 2000

VERDICT_ATTACKED = "attacked"
VERDICT_CLEAN = "clean"
VERDICT_INCONCLUSIVE = "inconclusive"


class DegenerateNullError(ValueError):
    """Null fit impossible: all statistics identical after clamping."""


@dataclass
class ClassStatistics:
    source: int
    t_hat: int | None  # None when the group estimate failed
    r_s: float
    r_t: float
    z: float
    w: float
    r: float

    @property
    def failed(self) -> bool:
        return self.t_hat is None

    # The alternative statistic families 1/r_s, r_t/r_s and w/r_s, for
    # reporting only (the verdict always uses r); 0 for a failed class.
    @property
    def inv_rs(self) -> float:
        return 0.0 if self.failed else 1.0 / _denominator(self.r_s)

    @property
    def rt_over_rs(self) -> float:
        return 0.0 if self.failed else self.r_t / _denominator(self.r_s)

    @property
    def w_over_rs(self) -> float:
        return 0.0 if self.failed else self.w / _denominator(self.r_s)


@dataclass
class NullFit:
    shape: float
    scale: float


@dataclass
class PValue:
    pv: float
    log_pv: float

    @property
    def underflow(self) -> bool:
        """pv is below UNDERFLOW_LIMIT; log_pv then carries the value."""
        return self.pv < UNDERFLOW_LIMIT

    def display(self) -> str:
        return "u.f." if self.underflow else f"{self.pv:.3g}"


@dataclass
class DetectionReport:
    """The statistics, the held-out classes, the null fit and the p-values;
    the verdict and the other summaries are derived from them. The fit's
    inputs are the positive r of the classes outside excluded."""

    stats: list  # ClassStatistics per class
    excluded: tuple  # sorted classes held out of the null, for every verdict
    fit: NullFit | None  # None when the verdict is inconclusive
    pvalue: PValue | None  # calibrated; the verdict compares it with phi
    phi: float
    order_pvalue: PValue | None = None  # uncalibrated 1 - G(r_max)^m

    @property
    def num_classes(self) -> int:
        return len(self.stats)

    @property
    def num_excluded(self) -> int:
        """J, the number of held-out classes."""
        return len(self.excluded)

    @property
    def s_max(self) -> int:
        """Class of the largest statistic (lowest index on ties)."""
        return int(np.argmax([st.r for st in self.stats]))

    @property
    def verdict(self) -> str:
        if self.pvalue is None:
            return VERDICT_INCONCLUSIVE
        return VERDICT_ATTACKED if self.pvalue.pv < self.phi else VERDICT_CLEAN

    @property
    def inferred_target(self) -> int | None:
        """The top class's voted target when attacked, else None."""
        return self.stats[self.s_max].t_hat if self.verdict == VERDICT_ATTACKED else None


def compute_r_s(c_hat, clouds) -> float:
    """Mean distance from the estimated location to the clouds.

    r_s on the source class's clouds; r_t on the voted target's clouds.
    """
    if len(clouds) < 1:
        raise ValueError("need at least one cloud")
    return float(np.mean([point_to_cloud_distance(c_hat, X) for X in clouds]))


def compute_z(group_center, samplewise_centers) -> float:
    """Average cosine similarity between group and per-sample locations.

    A sample contributes 0 when its estimate failed or either vector is
    (numerically) zero.
    """
    g = as_point(group_center)
    gn = float(np.linalg.norm(g))
    if len(samplewise_centers) < 1:
        raise ValueError("need at least one sample-wise estimate")
    total = 0.0
    for c in samplewise_centers:
        if c is None:
            continue
        c = as_point(c)
        cn = float(np.linalg.norm(c))
        if gn < 1e-12 or cn < 1e-12:
            continue
        total += float(np.dot(g, c)) / (gn * cn)
    return total / len(samplewise_centers)


def compute_w(z_values) -> np.ndarray:
    """Min-max normalize the per-class similarity scores into [0, 1].

    With a degenerate spread (all z equal) every class gets w = 1: a neutral
    weight, so genuine distance evidence is not erased.
    """
    z = np.asarray(z_values, dtype=np.float64)
    if z.size < 2:
        raise ValueError("need at least two classes")
    lo, hi = float(z.min()), float(z.max())
    if hi - lo < 1e-12:
        return np.ones_like(z)
    return (z - lo) / (hi - lo)


def _denominator(r_s: float) -> float:
    """r_s, or DENOM_EPS when it vanishes."""
    return r_s if r_s > 0.0 else DENOM_EPS


def combined_statistic(w_s: float, r_t: float, r_s: float) -> float:
    """r = w * r_t / r_s, with a tiny epsilon denominator when r_s vanishes."""
    return w_s * r_t / _denominator(r_s)


def exclusion_set(stats: list[ClassStatistics]) -> set:
    """Classes whose voted target matches the top statistic's voted target.

    s_max (ties to the lowest class index) is always a member. Classes with
    failed estimates have no vote and are never excluded; their r = 0, like
    every zero statistic, is retained but kept out of the Gamma fit (see
    detect).
    """
    if len(stats) < 2:
        raise ValueError("need at least two classes")
    r = np.array([st.r for st in stats])
    s_max = int(np.argmax(r))
    top_target = stats[s_max].t_hat
    excluded = {s_max}
    if top_target is not None:
        for st in stats:
            if st.t_hat == top_target:
                excluded.add(st.source)
    return excluded


# Coefficients of the asymptotic series in powers of 1/x^2, n = 1..7:
# B_2n / (2n) for digamma and B_2n for trigamma (B_2n the Bernoulli numbers).
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
_TRIGAMMA_SERIES = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def _digamma_trigamma(x):
    """digamma psi(x) and trigamma psi'(x) of an array x > 0, elementwise.

    Ten steps of psi(x) = psi(x + 1) - 1/x and psi'(x) = psi'(x + 1) + 1/x^2
    lift every element to x + 10 > 10, where the asymptotic series
    psi(x) ~ ln x - 1/(2x) - sum B_2n / (2n x^2n) and
    psi'(x) ~ 1/x + 1/(2x^2) + sum B_2n / x^(2n+1), n = 1..7, are accurate
    to a few units in the last place.
    """
    x = np.asarray(x, dtype=np.float64)
    inv = 1.0 / (x[..., None] + np.arange(10.0))
    psi = -inv.sum(axis=-1)
    dpsi = (inv * inv).sum(axis=-1)
    x = x + 10.0
    inv2 = 1.0 / (x * x)
    s_psi, s_dpsi = 0.0, 0.0
    for c_psi, c_dpsi in zip(reversed(_DIGAMMA_SERIES), reversed(_TRIGAMMA_SERIES)):
        s_psi = (s_psi + c_psi) * inv2
        s_dpsi = (s_dpsi + c_dpsi) * inv2
    psi += np.log(x) - 0.5 / x - s_psi
    dpsi += (1.0 + 0.5 / x + s_dpsi) / x
    return psi, dpsi


# An incomplete-gamma term that changes its result by less than this
# fraction ends that element's evaluation.
_TAIL_RTOL = 1e-15

# Terms after which an incomplete-gamma evaluation gives up. The most are
# needed at x near a + 1: the series takes about 7.4 sqrt(a) terms there
# (780 at a = 1e4), the continued fraction about 2 sqrt(a).
_MAX_TERMS = 100_000


def _converge(step, *state):
    """Apply step(i, *state) for i = 1, 2, ... to the state arrays, dropping
    each element once step reports it done; returns each element's value at
    that step. step returns (new state, value, done)."""
    idx = np.arange(state[0].size)
    out = np.empty(idx.size)
    for i in range(1, _MAX_TERMS):
        if not idx.size:
            return out
        state, value, done = step(i, *state)
        out[idx[done]] = value[done]
        keep = ~done
        idx = idx[keep]
        state = tuple(s[keep] for s in state)
    raise ArithmeticError(f"incomplete gamma: no convergence in {_MAX_TERMS} terms")


def _series_step(i, a, x, term, total):
    # sum_n x^n / (a (a+1) ... (a+n)), which times x^a e^-x / Gamma(a) is P.
    term = term * x / (a + i)
    total = total + term
    return (a, x, term, total), total, term < total * _TAIL_RTOL


def _lentz_step(i, a, x, c, d, f):
    # The continued fraction f = b_0 + a_1 / (b_1 + a_2 / (b_2 + ...)) with
    # b_i = x + 1 - a + 2i and a_i = -i (i - a), by the modified Lentz method;
    # x^a e^-x / Gamma(a) / f is Q. For x >= a + 1 the denominators stay far
    # from 0, so the method's floor on them is left out.
    an = -i * (i - a)
    b = x + 1.0 - a + 2.0 * i
    d = 1.0 / (b + an * d)
    c = b + an / c
    delta = c * d
    f = f * delta
    return (a, x, c, d, f), f, np.abs(delta - 1.0) < _TAIL_RTOL


def _log_gammaincc(a, x):
    """log Q(a, x), the regularised upper incomplete gamma Gamma(a, x) /
    Gamma(a), for arrays (or scalars) a > 0 and x >= 0, elementwise.

    Q(a, 0) = 1. Below x = a + 1 it is 1 - P from the power series of P,
    elsewhere the continued fraction of Q by the modified Lentz method
    (Press et al., Numerical Recipes, section 6.2); both are scaled by
    x^a e^-x / Gamma(a), taken as a logarithm, so a Q that underflows still
    has a finite log.
    """
    a, x = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(x, dtype=np.float64))
    shape = a.shape
    a, x = a.ravel(), x.ravel()
    out = np.zeros(a.size)
    pos = np.flatnonzero(x > 0.0)
    log_front = a[pos] * np.log(x[pos]) - x[pos] - np.array([math.lgamma(k) for k in a[pos]])
    series = x[pos] < a[pos] + 1.0
    s, f = pos[series], pos[~series]
    total = _converge(_series_step, a[s], x[s], 1.0 / a[s], 1.0 / a[s])
    out[s] = np.log1p(-np.exp(log_front[series]) * total)
    b0 = x[f] + 1.0 - a[f]
    out[f] = log_front[~series] - np.log(_converge(_lentz_step, a[f], x[f], b0, np.zeros(f.size), b0))
    return out.reshape(shape)


def _gamma_shape_mle(mean, gap, start):
    """Newton steps on log(k) - digamma(k) = gap, elementwise.

    Each element stops once its update |k_new - k| is below 1e-10, or once
    its update is no smaller than its previous one and below 1e-6 k (at
    most 100 steps); a step that would leave k <= 0 halves k instead. At
    large k, log(k) - digamma(k) ~ 1/(2k) is a difference of nearly equal
    numbers and the update stalls at rounding level above 1e-10; the second
    rule ends it there. While Newton converges each update is smaller than
    the last, so the second rule does not fire; an element whose update
    stalls and dips below 1e-10 only later, by rounding, stops at the stall.
    """
    shape = np.array(start, dtype=np.float64)
    active = np.ones(shape.shape, dtype=bool)
    last = np.full(shape.shape, np.inf)
    for _ in range(100):
        k = shape[active]
        psi, dpsi = _digamma_trigamma(k)
        f = np.log(k) - psi - gap[active]
        fp = 1.0 / k - dpsi
        new = k - f / fp
        new = np.where(new <= 0, k / 2.0, new)
        shape[active] = new
        update = np.abs(new - k)
        stalled = (update >= last[active]) & (update < 1e-6 * k)
        last[active] = update
        active[active] = (update >= 1e-10) & ~stalled
        if not active.any():
            break
    return shape, mean / shape


def _fit_rows(vals):
    """Maximum-likelihood Gamma fit of each row of vals (clamped to
    FIT_FLOOR): (shape, scale, fitted), where shape and scale hold the rows
    that fitted marks. A row is degenerate and not fitted when a value is
    above FIT_CEILING (1e100; below it every square is finite) or not a
    number, or when its log-moment gap log(mean) - mean(log) is below
    MIN_LOG_GAP (1e-8). Equal values have a gap of 0 and an infinite
    maximum-likelihood shape. As 1/(2k) < log(k) - digamma(k) < 1/k, the
    floor keeps the shape below 1e8, where that difference of nearly equal
    numbers holds about six digits and _log_gammaincc's series needs at most
    about 74,000 terms; far above it rounding gives a wrong fit or a NaN.
    """
    fitted = vals.max(axis=1) <= FIT_CEILING
    rows = vals[fitted]
    mean = rows.mean(axis=1)
    # Profile likelihood: log(k) - digamma(k) = log(mean) - mean(log).
    gap = np.log(mean) - np.log(rows).mean(axis=1)
    resolved = gap >= MIN_LOG_GAP
    fitted[fitted] = resolved
    mean = mean[resolved]
    shape, scale = _gamma_shape_mle(mean, gap[resolved], mean * mean / rows[resolved].var(axis=1))
    return shape, scale, fitted


def fit_gamma_null(values) -> NullFit:
    """Maximum-likelihood Gamma fit of the null statistics.

    Values are clamped below at 1e-12; the shape starts at the
    method-of-moments value and is refined by Newton steps on the profile
    log-likelihood until the update is below 1e-10, or until it no longer
    shrinks and is below 1e-6 of the shape (at most 100 steps; see
    _gamma_shape_mle).
    Degenerate values (see _fit_rows) raise DegenerateNullError.
    """
    vals = np.maximum(np.asarray(values, dtype=np.float64), FIT_FLOOR)
    if vals.size < 2:
        raise ValueError("need at least two values")
    shape, scale, fitted = _fit_rows(vals[None])
    if not fitted[0]:
        raise DegenerateNullError(f"null statistics with a log-moment gap below {MIN_LOG_GAP} or above {FIT_CEILING}")
    return NullFit(shape=float(shape[0]), scale=float(scale[0]))


def order_statistic_pvalue(fit: NullFit, r_max: float, num_classes: int, num_excluded: int) -> PValue:
    """pv = 1 - G(r_max)^m with m = num_classes - num_excluded, evaluated in
    the log domain.

    detect passes as num_classes the number of fitted values plus the
    positive held-out ones, and that held-out count as num_excluded, so m is
    the number of fitted values. Values below 1e-323 are flagged as
    underflow and reported through log_pv.
    """
    m = num_classes - num_excluded
    if m < 1:
        raise ValueError("need at least one retained statistic")
    if r_max <= 0:
        return PValue(pv=1.0, log_pv=0.0)
    log_sf = float(_log_gammaincc(fit.shape, r_max / fit.scale))
    sf = math.exp(log_sf)
    if sf >= 1.0:
        return PValue(pv=1.0, log_pv=0.0)
    log_g = math.log1p(-sf)  # log G(r_max), accurate when G is near 1
    pv = -math.expm1(m * log_g)
    if pv >= UNDERFLOW_LIMIT:
        return PValue(pv=pv, log_pv=math.log(pv))
    # 1 - G^m ~ m * sf for tiny sf; the tail's log gives the displayable value.
    return PValue(pv=pv, log_pv=math.log(m) + log_sf)


def calibrated_pvalue(fit: NullFit, r_max: float, num_null: int, num_top: int) -> float:
    """Monte Carlo p-value of the fit-then-test under the fitted Gamma.

    The order-statistic p-value of a null fitted to a handful of values is
    far from uniform: the fit sees only the values below the maximum, so its
    tail is too light for that maximum. Each of CALIBRATION_DRAWS seeded
    repetitions draws num_null + num_top statistics from the fitted Gamma,
    holds out the largest of them together with num_top - 1 others, refits
    the remaining num_null and tests the largest against that refit, exactly
    as detect does with the observed statistics. For a fixed num_null the
    order-statistic p-value falls as the Gamma tail at r_max falls, so ranks
    are taken on that tail. A repetition whose simulated null is degenerate
    by the rule fit_gamma_null applies (_fit_rows; it happens at small
    shapes, where draws clamp to FIT_FLOOR, and at shapes of about 5e7 and
    up, near its gap floor) has no refit, as detect would be
    inconclusive: it is dropped from both the count and the denominator.
    Returns (1 + #{simulated <= observed}) / (#refitted + 1): 1 / 2001 at
    the smallest when every repetition refits, and 1.0 when none does.
    """
    draws = CALIBRATION_DRAWS
    rng = np.random.default_rng(0xCA11B)
    x = np.maximum(rng.gamma(fit.shape, fit.scale, size=(draws, num_null + num_top)), FIT_FLOOR)
    rows = np.arange(draws)
    top_idx = np.argmax(x, axis=1)
    top = x[rows, top_idx]
    # Move each row's last value into its maximum's slot (the last column is
    # held out, num_top >= 1); the draws are exchangeable, so the first
    # num_null columns are then a random choice among the non-maximal draws.
    x[rows, top_idx] = x[:, -1]
    shape, scale, fitted = _fit_rows(x[:, :num_null])
    sim_tail = _log_gammaincc(shape, top[fitted] / scale)
    obs_tail = _log_gammaincc(fit.shape, r_max / fit.scale)
    return float((1 + np.count_nonzero(sim_tail <= obs_tail)) / (np.count_nonzero(fitted) + 1))


def detect(stats: list[ClassStatistics], phi: float) -> DetectionReport:
    """Fit the null with collateral-damage exclusion and produce the verdict.

    The null is the positive statistics outside the exclusion set; zero
    statistics stay retained but never enter the fit (see the module
    docstring). If exclusion leaves fewer than 4 positive statistics, it
    shrinks to the top class alone; if even that leaves fewer than 4, or
    they are degenerate, the verdict is inconclusive. The order-statistic
    p-value 1 - G(r_max)^m uses m = the number of fitted values, and is
    calibrated by seeded simulations of the same fit-and-test
    (calibrated_pvalue). Attacked iff the calibrated pv < phi, which makes
    the false-alarm rate on i.i.d. Gamma statistics about phi.
    """
    r = np.array([st.r for st in stats])
    s_max = int(np.argmax(r))

    def null_values(excluded):
        return [st.r for st in stats if st.source not in excluded and st.r > 0.0]

    excluded = exclusion_set(stats)
    if len(null_values(excluded)) < MIN_FIT_SIZE:
        excluded = {s_max}
    null = null_values(excluded)
    excluded = tuple(sorted(excluded))
    fit = None
    if len(null) >= MIN_FIT_SIZE:
        try:
            fit = fit_gamma_null(null)
        except DegenerateNullError:
            pass
    if fit is None:
        return DetectionReport(stats=list(stats), excluded=excluded, fit=None, pvalue=None, phi=phi)
    r_max = float(r[s_max])
    num_top = sum(1 for s in excluded if r[s] > 0.0)
    order_pv = order_statistic_pvalue(fit, r_max, len(null) + num_top, num_top)
    pv = calibrated_pvalue(fit, r_max, len(null), num_top)
    pvalue = PValue(pv=pv, log_pv=math.log(pv))
    return DetectionReport(stats=list(stats), excluded=excluded, fit=fit, pvalue=pvalue, phi=phi, order_pvalue=order_pv)
