"""Closed-form probabilities: factorization, symmetry, temperatures."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gup_mirror import (
    CODATA,
    DimensionlessConfig,
    PhysicalConfig,
    gamma_phase_set,
    p1_closed,
    p2_closed,
    p2_numeric,
    planck_factor,
    q_parameter,
    temperatures,
    to_dimensionless,
)
from gup_mirror import special
from gup_mirror.closed_form import closed_rows
from gup_mirror.special import (
    _L_TOLERANCE,
    asymptotic_line,
    digamma,
    gup_coefficient,
    gup_coefficient_batch,
    log_gamma,
)

GRID_XY = (0.5, 1.0, 2.0)
GRID_ZETA = (0.3, 0.5, 0.9)


def test_factorization_identity():
    rng = np.random.default_rng(31)
    for _ in range(100):
        d = DimensionlessConfig(
            x=rng.uniform(0.3, 3.0),
            y=rng.uniform(0.3, 2.0),
            zeta=rng.uniform(0.3, 0.95),
            eps=rng.uniform(0.0, 0.02),
        )
        for b in (p1_closed(d), p2_closed(d)):
            product = b.prefactor * b.damping * b.planck * b.sin2
            assert b.total == pytest.approx(product, rel=1e-14)
            assert b.total >= 0.0


def test_p1_heisenberg_reduction():
    # eps = 0: (2 pi / x) planck(x) sin^2(y zeta + x ln y + theta)
    for x in (0.5, 1.0, 2.0):
        for y in (0.5, 2.0):
            d = DimensionlessConfig(x=x, y=y, zeta=1.7, eps=0.0)
            theta = gamma_phase_set(x)
            expected = (
                (2.0 * math.pi / x)
                * planck_factor(x)
                * math.sin(y * 1.7 + x * math.log(y) + theta) ** 2
            )
            assert p1_closed(d).total == pytest.approx(expected, rel=1e-13)


def test_p1_damping_at_unit_frequencies():
    # Omega cos Delta = -1/2 at x = 1, so the damping factor is e^{+eps/2}
    d = DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=0.01)
    assert p1_closed(d).damping == pytest.approx(math.exp(0.005), rel=1e-12)


def test_p1_damping_exponent_guard():
    # the exponent eps y^2 / (1 + x^2) grows without bound in y; at x = 1,
    # eps = 0.09 it reaches the 0.1 guard at y = 1.4907
    below = p1_closed(DimensionlessConfig(x=1.0, y=1.49, zeta=0.5, eps=0.09))
    assert below.damping == pytest.approx(math.exp(0.09 * 1.49**2 / 2.0), rel=1e-12)
    for y in (1.5, 100.0, 130.0):
        with pytest.raises(ValueError, match="perturbative regime violated"):
            p1_closed(DimensionlessConfig(x=1.0, y=y, zeta=0.5, eps=0.09))


def test_p2_eps_zero_damping_is_one():
    d = DimensionlessConfig(x=1.3, y=0.8, zeta=0.6, eps=0.0)
    assert p2_closed(d).damping == 1.0


def test_symmetry_at_equal_frequencies_eps_zero():
    for x in GRID_XY:
        for zeta in GRID_ZETA:
            d = DimensionlessConfig(x=x, y=x, zeta=zeta, eps=0.0)
            one = p1_closed(d).total
            two = p2_closed(d).total
            assert abs(one - two) / one < 1e-12


def test_gup_breaks_symmetry_linearly():
    for zeta in GRID_ZETA:
        defects = []
        for eps in (1e-3, 2e-3, 1e-2, 2e-2):
            d = DimensionlessConfig(x=1.0, y=1.0, zeta=zeta, eps=eps)
            defect = p2_closed(d).phase_argument - p1_closed(d).phase_argument
            assert defect != 0.0
            defects.append(defect)
        assert defects[1] / defects[0] == pytest.approx(2.0, rel=0.1)
        assert defects[3] / defects[2] == pytest.approx(2.0, rel=0.1)
    d0 = DimensionlessConfig(x=1.0, y=1.0, zeta=0.5, eps=0.0)
    assert p2_closed(d0).phase_argument - p1_closed(d0).phase_argument == pytest.approx(
        0.0, abs=1e-13
    )


def test_p2_requires_wedge():
    with pytest.raises(ValueError, match="zeta < 1"):
        p2_closed(DimensionlessConfig(x=1.0, y=1.0, zeta=1.0, eps=0.0))


def test_p2_small_zeta_warning():
    # as zeta -> 0 the damping tends to exp(2 eta (Im psi(1 + i ybar) - pi/2)),
    # with Im psi(1 + i w) = -1/(2w) + (pi/2) coth(pi w); no warning is due
    d = DimensionlessConfig(x=1.0, y=1.0, zeta=0.004, eps=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        b = p2_closed(d)
    eta, ybar = 0.005, 0.995
    im_psi = -0.5 / ybar + 0.5 * math.pi / math.tanh(math.pi * ybar)
    # the next term of the exponent is O(eta x zeta)
    limit = math.exp(2.0 * eta * (im_psi - 0.5 * math.pi))
    assert b.damping == pytest.approx(limit, rel=2.0 * eta * d.x * d.zeta)
    # first order in eps: measured 5.7e-6 from the oracle
    assert p2_numeric(d).probability == pytest.approx(b.total, rel=2e-5)


def test_closed_forms_finite_at_large_frequency():
    # log Gamma(-i x) and log Gamma(i ybar) past the sin(pi z) overflow
    one = p1_closed(DimensionlessConfig(x=230.0, y=1.0, zeta=0.5, eps=0.01))
    two = p2_closed(DimensionlessConfig(x=1.0, y=230.0, zeta=0.5, eps=0.01))
    for breakdown in (one, two):
        assert all(math.isfinite(value) for value in breakdown)


def test_phase_arguments_are_raw():
    # the phase is not reduced modulo pi: it grows linearly with zeta
    d1 = DimensionlessConfig(x=1.0, y=1.0, zeta=0.2, eps=0.0)
    d2 = DimensionlessConfig(x=1.0, y=1.0, zeta=0.9, eps=0.0)
    assert p1_closed(d2).phase_argument - p1_closed(d1).phase_argument == pytest.approx(
        0.7, rel=1e-12
    )


def test_unruh_temperature_reference():
    p = PhysicalConfig(a=9.8, omega0=1.0, nu=1.0, z0=1.0, beta=0.0)
    pair = temperatures(p)
    assert pair.unruh == pytest.approx(3.9739132522903252e-20, rel=1e-12, abs=0.0)
    assert pair.modified == pair.unruh


def test_modified_temperature_ratio():
    k = CODATA
    nu = 2.0e9
    beta = 0.01 * k.c**2 / (k.hbar**2 * nu**2)
    p = PhysicalConfig(a=9.8, omega0=1.0e9, nu=nu, z0=1.0, beta=beta)
    pair = temperatures(p)
    assert pair.modified / pair.unruh == pytest.approx(1.0 / 0.995, rel=1e-12)
    assert pair.modified >= pair.unruh


def test_temperature_pole_rejected():
    k = CODATA
    nu = 1.0e9
    beta = 2.5 * k.c**2 / (k.hbar**2 * nu**2)
    p = PhysicalConfig(a=9.8, omega0=1.0e9, nu=nu, z0=1.0, beta=beta)
    with pytest.raises(ValueError, match="perturbative regime violated"):
        temperatures(p)
    # eps = 0.495: far from the pole at 2, but outside the first-order guard
    p = PhysicalConfig(a=9.8, omega0=1.0e9, nu=nu, z0=1.0, beta=4e66)
    with pytest.raises(ValueError, match="perturbative regime violated"):
        temperatures(p)


def _convergent_l(ybar, r, log_gamma_iy, psi):
    """L's convergent series, written out apart from the package's:
    psi(a) - log z + K sum_n d_n z^n + (r / ybar) sum_n c_n z^n with K the
    first Kummer term, d_n = 1/(n! (a + n)) and c_n = 1/((n + 1) (2 - a)_n),
    z = i r.  Each coefficient is scaled by s^n, s the largest power of two
    not above the asymptotic line or 512, and each series is summed as
    E(t) + i w O(t), w = r / s and t = -w^2, with E and O its even and odd
    terms, by Horner on the real and imaginary parts."""
    half_pi = 0.5 * math.pi
    log_r = math.log(r)
    kummer = cmath.exp(complex(log_gamma_iy.real + (log_r - ybar * half_pi),
                               (half_pi + ybar * log_r) - log_gamma_iy.imag))
    size = abs(kummer) + 1.0
    terms = 0
    while size >= _L_TOLERANCE:
        terms += 1
        size *= r / terms
    s = math.ldexp(1.0, min(math.frexp(asymptotic_line(ybar))[1] - 1, 9))
    d, c = [], []  # (re, im) of each scaled coefficient
    factorial = 1.0  # s^n / n!
    pochhammer = (1.0, 0.0)  # s^n / (2 - a)_n
    for n in range(2 * (terms // 2 + 1)):
        if n:  # times s / n, and s / (n - i ybar) = s (n + i ybar) / (n^2 + ybar^2)
            factorial = factorial * s / n
            ratio = s / (n * n + ybar * ybar)
            re, im = n * ratio, ybar * ratio
            pochhammer = (pochhammer[0] * re - pochhammer[1] * im,
                          pochhammer[0] * im + pochhammer[1] * re)
        # 1 / (a + n) = ((n + 1) - i ybar) / ((n + 1)^2 + ybar^2)
        gain = factorial / ((n + 1.0) * (n + 1.0) + ybar * ybar)
        d.append((gain * (n + 1.0), -(gain * ybar)))
        c.append((pochhammer[0] / (n + 1.0), pochhammer[1] / (n + 1.0)))
    w = r / s
    t = -(w * w)

    def horner(coefficients):
        total = 0.0
        for coefficient in reversed(coefficients):
            total = total * t + coefficient
        return total

    def series(coefficients):  # E(t) + i w O(t)
        even = [horner([pair[part] for pair in coefficients[0::2]]) for part in (0, 1)]
        odd = [horner([pair[part] for pair in coefficients[1::2]]) for part in (0, 1)]
        return even[0] - w * odd[1], even[1] + w * odd[0]

    (d_re, d_im), (c_re, c_im) = series(d), series(c)
    k_re = kummer.real * d_re - kummer.imag * d_im
    k_im = kummer.real * d_im + kummer.imag * d_re
    return complex((psi.real - log_r) + (k_re + r / ybar * c_re),
                   (psi.imag - half_pi) + (k_im + r / ybar * c_im))


@pytest.mark.parametrize("ybar", [0.02, 0.8, 7.0, 120.0])
def test_tabled_series_keeps_its_bits(ybar):
    log_gamma_iy = log_gamma(complex(0.0, ybar))
    psi = digamma(complex(1.0, ybar))
    # radii up to the asymptotic switch, out of order
    asymptotic_from = asymptotic_line(ybar)
    radii = np.geomspace(1e-3, 0.999 * asymptotic_from, 40)
    for r in np.concatenate([radii[::2], radii[1::2][::-1]]).tolist():
        assert gup_coefficient(ybar, r, log_gamma_iy, psi) == _convergent_l(ybar, r, log_gamma_iy,
                                                                             psi)


def _convergent(ybar, r):
    """Whether gup_coefficient sums L from its convergent series at the
    row: the batch sums no other rows."""
    return 0.0 < r < asymptotic_line(ybar)


def _scalar_or_none(ybar, r, log_gamma_iy):
    """gup_coefficient, or None where it raises."""
    try:
        return gup_coefficient(ybar, r, log_gamma_iy, digamma(complex(1.0, ybar)))
    except ValueError:
        return None


def _batch(ybars, rs, log_gammas, psis):
    """gup_coefficient_batch's columns as L at each row it sums, and None
    at every other row."""
    summed, re, im = gup_coefficient_batch(ybars, rs, log_gammas, psis)
    assert summed.dtype == bool and re.dtype == im.dtype == float
    return [complex(*parts) if row_summed else None
            for row_summed, *parts in zip(summed.tolist(), re.tolist(), im.tolist())]


@st.composite
def _l_rows(draw):
    """Rows (ybar, r): ybar shared or per row; r below the asymptotic line,
    up to the double just under it, or now and then on or above it."""
    count = draw(st.integers(1, 12))
    ybar = st.floats(1e-3, 200.0)
    ybars = [draw(ybar)] * count if draw(st.booleans()) else [draw(ybar) for _ in range(count)]
    rows = []
    for value in ybars:
        line = asymptotic_line(value)
        below = st.floats(1e-6, line, exclude_max=True)
        rows.append((value, draw(st.one_of(below, below, below, st.floats(line, 2.0 * line)))))
    return rows


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_l_rows())
def test_batched_gup_coefficients_match_scalar_bit_for_bit(rows):
    # the scalar's bits at each row on the convergent branch where it sums
    # L, and None where it raises and at every row on or above the line
    log_gammas = [log_gamma(complex(0.0, ybar)) for ybar, _ in rows]
    psis = [digamma(complex(1.0, ybar)) for ybar, _ in rows]
    batch = _batch([ybar for ybar, _ in rows], [r for _, r in rows], log_gammas, psis)
    expected = [_scalar_or_none(ybar, r, lg) if _convergent(ybar, r) else None
                for (ybar, r), lg in zip(rows, log_gammas)]
    assert list(map(repr, batch)) == list(map(repr, expected))


def test_batched_gup_coefficients_in_blocks_match_scalar_bit_for_bit(monkeypatch):
    # rows with their own ybar take their coefficients a block of rows at a
    # time; these take 21 down to 7 steps, so 64 cells make 4 blocks of 3
    monkeypatch.setattr(special, "_TABLE_CELLS", 64)
    rows = [(0.3 + 0.7 * i, 9.5 - 0.75 * i) for i in range(12)]
    log_gammas = [log_gamma(complex(0.0, ybar)) for ybar, _ in rows]
    psis = [digamma(complex(1.0, ybar)) for ybar, _ in rows]
    batch = _batch([ybar for ybar, _ in rows], [r for _, r in rows], log_gammas, psis)
    scalar = [_scalar_or_none(ybar, r, lg) for (ybar, r), lg in zip(rows, log_gammas)]
    assert None not in batch
    assert list(map(repr, batch)) == list(map(repr, scalar))


# (ybar, r) rows the batch declines for each reason, between rows it sums
_DECLINE_ROWS = [
    (1.3, 2.0),
    (9.95e-308, 18.0),  # the first term overflows
    (1.3, 30.0),  # asymptotic branch
    (999.5, 750.0),  # the bound on the terms overflows
    (1.3, 0.0),  # no log r
    (2.7, 11.0),
    (1e-300, 18.0),  # terms up to 1.1e308, and still a finite sum
]


def test_batched_gup_coefficients_decline_where_scalar_raises():
    rows = _DECLINE_ROWS
    assert [_convergent(*row) for row in rows] == [True, True, False, True, False, True, True]
    ybars = [ybar for ybar, _ in rows]
    log_gammas = [log_gamma(complex(0.0, ybar)) for ybar in ybars]
    psis = [digamma(complex(1.0, ybar)) for ybar in ybars]
    batch = _batch(ybars, [r for _, r in rows], log_gammas, psis)
    # None where the scalar raises, and off the convergent branch, where the
    # scalar sums the asymptotic series (r = 30) or raises (r = 0)
    assert [value is None for value in batch] == [False, True, True, True, True, False, False]
    assert [_scalar_or_none(ybar, r, lg) is None for (ybar, r), lg in zip(rows, log_gammas)] == [
        False, True, False, True, True, False, False]
    for (ybar, r), lg, value in zip(rows, log_gammas, batch):
        if value is not None:
            assert repr(value) == repr(_scalar_or_none(ybar, r, lg))
    with pytest.raises(ValueError, match=r"ybar=9.95e-308, r=18.0: the first term of its series "
                                         "overflows a double"):
        gup_coefficient(9.95e-308, 18.0, log_gammas[1], psis[1])
    assert _batch([], [], [], []) == []


def test_batched_gup_coefficients_give_per_row_work_only_to_convergent_rows(monkeypatch):
    # _first_terms and _term_counts see the r of the rows on L's convergent
    # branch and no other, once for the rows at ybar = 1.3 alone (one
    # shared table) and once for all seven (a column per row); the results
    # stay the scalar's bits, or None where the decline test expects it
    seen = []
    first_terms, term_counts = special._first_terms, special._term_counts

    def recording_first_terms(log_gamma_re, log_gamma_im, ybar, r):
        seen.extend(("_first_terms", value) for value in r.tolist())
        return first_terms(log_gamma_re, log_gamma_im, ybar, r)

    def recording_term_counts(size, r):
        seen.extend(("_term_counts", value) for value in r.tolist())
        return term_counts(size, r)

    monkeypatch.setattr(special, "_first_terms", recording_first_terms)
    monkeypatch.setattr(special, "_term_counts", recording_term_counts)
    shared = [row for row in _DECLINE_ROWS if row[0] == 1.3]
    for rows, expected_none in ((shared, [False, True, True]),
                                (_DECLINE_ROWS, [False, True, True, True, True, False, False])):
        seen.clear()
        ybars = [ybar for ybar, _ in rows]
        log_gammas = [log_gamma(complex(0.0, ybar)) for ybar in ybars]
        psis = [digamma(complex(1.0, ybar)) for ybar in ybars]
        batch = _batch(ybars, [r for _, r in rows], log_gammas, psis)
        convergent = [r for ybar, r in rows if _convergent(ybar, r)]
        assert seen == ([("_first_terms", r) for r in convergent]
                        + [("_term_counts", r) for r in convergent])
        assert [value is None for value in batch] == expected_none
        for (ybar, r), lg, value in zip(rows, log_gammas, batch):
            if value is not None:
                assert repr(value) == repr(_scalar_or_none(ybar, r, lg))


def test_gup_coefficient_at_underflowed_r_names_l():
    # r = 2 zeta x rounds to 0 at x zeta below about 2.5e-324; log r once
    # raised a bare "math domain error"
    with pytest.raises(ValueError, match=r"^L\(1 \+ i ybar, i r\) at ybar=0.995, r=0.0: "
                                         r"r = 2 zeta x underflows to zero$"):
        gup_coefficient(0.995, 0.0, log_gamma(0.995j), digamma(complex(1.0, 0.995)))


# Dimensionless ranges: a typical box, where most sweeps succeed and many
# rows cross L's asymptotic line (large x zeta) or zeta = 1, and an
# extreme one, where p1's guard eps y^2/(1 + x^2), a total that is not a
# finite double (tiny x), L's bound (y near 1000) or r = 2 zeta x (x zeta
# below about 1e-323) fail; eps is drawn from a list that holds 0.
_TYPICAL = {"x": (0.05, 100.0), "y": (0.05, 20.0), "zeta": (0.01, 1.2)}
_EXTREME = {"x": (1e-160, 1e3), "y": (1e-307, 1e3), "zeta": (1e-300, 2.0)}
_EPS = (0.0, 1e-6, 1e-3, 0.01, 0.05)
# SI ranges: a carries zeta across 1, nu carries eps towards its guard
_SI_RANGES = {"omega0": (1e9, 1e13), "nu": (1e9, 3e12), "a": (1e19, 2e21)}


def _doubles(low, high):
    """Doubles in [low, high], log-uniform inside, and now and then an end."""
    inside = st.floats(math.log10(low), math.log10(high)).map(
        lambda e: min(max(10.0**e, low), high))
    return st.one_of(st.just(low), st.just(high), inside, inside, inside, inside)


@st.composite
def _sweep_points(draw):
    """The points of a dimensionless or SI sweep of 2-60 rows, linear or log."""
    param = draw(st.sampled_from([*_TYPICAL, "eps", *_SI_RANGES]))
    ranges = _EXTREME if draw(st.integers(0, 3)) == 0 else _TYPICAL
    if param == "eps":
        ends = sorted(draw(st.sampled_from(_EPS + (0.099,))) for _ in range(2))
    else:
        ends = sorted(draw(_doubles(*{**ranges, **_SI_RANGES}[param])) for _ in range(2))
    spacing = draw(st.sampled_from([np.linspace, np.geomspace]))
    assume(ends[0] < ends[1] and (spacing is np.linspace or ends[0] > 0.0))
    values = spacing(*ends, draw(st.integers(2, 60))).tolist()
    if param not in _SI_RANGES:
        base = {key: draw(_doubles(*bounds)) for key, bounds in ranges.items()}
        base["eps"] = draw(st.sampled_from(_EPS))
        build = lambda value: DimensionlessConfig(**{**base, param: value})  # noqa: E731
    else:
        scale = draw(st.sampled_from([1.0, 2.0 * math.pi]))  # angular or ordinary
        si = {"a": 3e20, "omega0": 8e10, "nu": 2e11, "z0": 1.8e-4,
              "beta": draw(st.sampled_from([0.0, 2e57, 2e59]))}

        def build(value):
            p = {**si, param: value}
            return to_dimensionless(PhysicalConfig(a=p["a"], omega0=p["omega0"] * scale,
                                                   nu=p["nu"] * scale, z0=p["z0"],
                                                   beta=p["beta"]))
    try:
        return [build(value) for value in values]
    except ValueError:  # a point no run can reach
        assume(False)


def _point_by_point(points, want_p1, want_p2):
    """closed_rows' rows, (d, p1's total and phase, p2's total and phase,
    Q), from one p1_closed, p2_closed and q_parameter call per point, up to
    the first ValueError, and that error's message (None if none)."""
    rows = []
    try:
        for d in points:
            one = p1_closed(d) if want_p1 else None
            two = p2_closed(d) if want_p2 and d.zeta < 1.0 else None
            rows.append((d, one and one.total, one and one.phase_argument, two and two.total,
                         two and two.phase_argument, q_parameter(d.eps, d.zeta)))
    except ValueError as exc:
        return rows, str(exc)
    return rows, None


# Row 313 of sweep-zeta's fourth text at seed 41, where sin(phase) * sin(phase)
# in place of sin(phase) ** 2 (libm's pow) moves p2's total by one ulp.
_SQUARING_POINT = DimensionlessConfig(1.071531034993657, 0.8460787794657127, 0.4372351970710474,
                                      0.0014656717741790657)


def _closed_rows_by_point(points, wanted, batch_rows, rows):
    """Append to `rows` closed_rows' five lists turned into (d, p1's total
    and phase, p2's total and phase, Q) per point, the points taken
    batch_rows at a time, as the runner takes them."""
    for start in range(0, len(points), batch_rows):
        batch = points[start:start + batch_rows]
        columns = closed_rows(*map(list, zip(*batch)), *wanted)
        assert len(columns) == 5
        assert all(type(column) is list and len(column) == len(batch) for column in columns)
        rows.extend((d, *cells) for d, cells in zip(batch, zip(*columns)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_sweep_points(), st.sampled_from([(True, True), (True, False), (False, True)]),
       st.sampled_from([1, 2, 7, 4096]))
@example([_SQUARING_POINT, _SQUARING_POINT._replace(zeta=0.5)], (True, True), 4096)
# an eps sweep: each row's tiers read its own eps
@example([_SQUARING_POINT._replace(eps=eps) for eps in (0.0, 0.01, 0.02)], (True, True), 4096)
# an x sweep whose r = x crosses asymptotic_line(0.995), about 19.12, inside one batch
@example([DimensionlessConfig(x, 1.0, 0.5, 0.01) for x in np.geomspace(0.5, 60.0, 40).tolist()],
         (True, True), 4096)
def test_closed_rows_match_point_by_point_calls(points, wanted, batch_rows):
    # every point's totals, phases and Q bit for bit, with empty cells where
    # a probability is not wanted and p2's from zeta = 1, or the first error
    # a point by point run meets, whatever the batch size
    expected, message = _point_by_point(points, *wanted)
    rows = []
    try:
        _closed_rows_by_point(points, wanted, batch_rows, rows)
    except ValueError as exc:
        assert str(exc) == message
    else:
        assert message is None and len(rows) == len(points)
    assert repr(rows) == repr(expected[:len(rows)])


def test_squaring_is_libm_pow():
    # the batch's p2 at this point is p2_closed's to the bit, and sin ** 2
    # gives 0.010349319315828685 where sin * sin gives ...684
    sweep = [_SQUARING_POINT._replace(zeta=zeta) for zeta in (0.4, 0.4372351970710474, 0.5)]
    totals = closed_rows(*map(list, zip(*sweep)), False, True)[2]
    assert [repr(total) for total in totals] == [repr(p2_closed(d).total) for d in sweep]
    assert totals[1] == p2_closed(_SQUARING_POINT).total == 0.010349319315828685
