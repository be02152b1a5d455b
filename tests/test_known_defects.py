"""The ledger of known wrong numbers: ROADMAP item 15.

Each row runs a mode, or sums L, where the package is known to give a
wrong number, and asserts the right answer, never today's output.  Each
row is a strict xfail whose reason names the ROADMAP items that would
mend it.  A mend shows as an XPASS, which fails the suite until the
change that made it drops that row's marker.

The exact values are literals, so the ledger takes well under a second.
Each was made with a recipe of `test_exact_reference.py`, at 30 digits
(50 digits gave the same doubles), and `test_ledger_references_recompute`
recomputes a few of them:

- PROBABILITY: 0.25 |p1_reference(d)|^2 or 0.25 |p2_reference(d)|^2;
- COEFFICIENT: coefficient_reference(ybar, r), mpmath's hyperu
  differentiated in b, L = z^a dU(a, b, z)/db at b = a + 1 with
  a = 1 + i ybar and z = i r.
"""

import csv

import pytest

from gup_mirror import DimensionlessConfig, ProbabilityBreakdown, log_gamma, p2_closed
from gup_mirror import closed_form
from gup_mirror.cli import main
from gup_mirror.special import digamma, gup_coefficient
from gup_mirror.units import deformed_frequencies

# keyed by (route, x, y), at zeta = 0.5 and eps = 0
PROBABILITY = {
    ("p1", 20.0, 1.0): 5.338388618964359e-56,
    ("p2", 1.0, 30.0): 2.5766427358075018e-80,
    ("p2", 1.0, 60.0): 4.896567219977695e-162,
    # quoted by the empty-range row, whose right answer is an exit code
    ("p2", 1e19, 1.0): 4.438505906519418e-41,
}

# keyed by (ybar, r)
COEFFICIENT = {
    # item 3's table, where the convergent series is 1.08, 15.9, 6.9e5 and
    # 9.3e29 off; ybar = 109.945 is 110 (1 - 1e-3 / 2), as in p2's row below
    (100.0, 166.0): 0.4715152962096397 - 0.0030527227064519645j,
    (109.94500000000001, 180.0): 0.4767400592132951 - 0.0027950089649363156j,
    (200.0, 300.0): 0.5108274370960812 - 0.0015999971199874671j,
    (500.0, 712.0): 0.5319495548024622 - 0.0006548920341312751j,
    # the (ybar, r) of the other p2 rows below
    (499.75, 711.9288): 0.5317845084061308 - 0.0006551056502404972j,
    (999.5, 1000.0): 0.6928972379193628 - 0.00037512501559760884j,
    (199.9999, 301.0): 0.509497446229681 - 0.0015976007592052466j,
    (9.95e-306, 10.0): 0.009488539016354807 - 0.09819103501017017j,
    # item 3's tiny-ybar rows, where the convergent series is 4.9e-4 and 26 off
    (1e-12, 1.0): 0.34337796155688516 - 0.6214496242354262j,
    (1e-16, 3.0): 0.07922152116436407 - 0.29195771069207876j,
}


def _cli(tmp_path, mode, point):
    """The exit code of `mode` at `point`, (x, y, zeta, eps), and its CSV
    row as a dict (None where nothing was written)."""
    config = tmp_path / "run.conf"
    out = tmp_path / "out.csv"
    config.write_text("x = {!r}\ny = {!r}\nzeta = {!r}\neps = {!r}\n".format(*point))
    code = main([mode, "--config", str(config), "--out", str(out)])
    if not out.exists():
        return code, None
    with out.open(newline="") as handle:
        (row,) = csv.DictReader(handle)
    return code, {name: float(cell) if cell else None for name, cell in row.items()}


def _verify_gates_or_is_honest(tmp_path, route, x, y):
    # item 1's gate exits 3 here, or item 2's oracle meets mpmath as
    # closely as test_oracle_matches_exact_reference_on_grids asks, 1e-10
    code, row = _cli(tmp_path, "verify", (x, y, 0.5, 0.0))
    exact = PROBABILITY[route, x, y]
    assert code == 3 or (code == 0 and abs(row[f"{route}_numeric"] - exact) <= 1e-10 * exact)


def _verify_gates(tmp_path, x, y):
    # the envelope has underflowed, so item 1's verdict is `unresolved`
    assert _cli(tmp_path, "verify", (x, y, 0.5, 0.0))[0] == 3


def _coefficients_within_1e_8(tmp_path, *points):
    # L at each (ybar, r) of `points` within 1e-8 of mpmath's
    errors = {(ybar, r): abs(gup_coefficient(ybar, r, log_gamma(complex(0.0, ybar)),
                                             digamma(complex(1.0, ybar))) - COEFFICIENT[ybar, r])
              for ybar, r in points}
    assert max(errors.values()) <= 1e-8, errors


def _p2_with_l_right(tmp_path, x, y, zeta, eps):
    # p2's first-order closed form with L from mpmath: exit 0, the total
    # within 1e-6 of that value's envelope (both 0 where the Planck factor
    # underflows), and the damping that L gives
    point = (x, y, zeta, eps)
    coefficient = COEFFICIENT[deformed_frequencies(y, eps)[1], 2.0 * zeta * x]
    factors = closed_form._p2_zeta_free(x, closed_form._p2_ybar_factors(y, eps))
    right = ProbabilityBreakdown(*closed_form._p2_at_zeta(factors, point, coefficient))
    code, row = _cli(tmp_path, "p2", point)
    envelope = right.prefactor * right.damping * right.planck
    assert code == 0 and abs(row["p2_closed"] - right.total) <= 1e-6 * envelope
    assert p2_closed(DimensionlessConfig(*point)).damping == pytest.approx(right.damping, rel=1e-9)


def _verify_refuses_the_empty_p2_range(tmp_path):
    # p2's lower limit is ln 1e-17 at every x, while the bulk of its
    # integrand sits near ln(1 / x); from x of about 6e18 the range
    # [ln 1e-17, ln(60 / x)] holds no node, and the rule returns 0 with an
    # estimate of 0.  mpmath gives 4.4385e-41 here (PROBABILITY), and
    # p2_closed's 8.08e-41 comes from a phase of 5e18: item 2's oracle,
    # item 6's phase check or item 1's gate must refuse the point
    assert _cli(tmp_path, "verify", (1e19, 1.0, 0.5, 0.0))[0] in (1, 3)


def _compare_loses_the_phase(tmp_path):
    # one ulp of p1's phase, 5e16, is 8 rad: no digit of sin^2 is left
    assert _cli(tmp_path, "compare", (1.0, 1e17, 0.5, 0.0)) == (1, None)


def _row(check, args, id, items, wrong):
    return pytest.param(check, args, id=f"{id}-item-{'-'.join(map(str, items))}",
                        marks=pytest.mark.xfail(strict=True, reason=(
                            f"ROADMAP item{'s' if len(items) > 1 else ''} "
                            f"{', '.join(map(str, items))}: {wrong}")))


LEDGER = [
    _row(_verify_gates_or_is_honest, ("p1", 20.0, 1.0), "verify-20-1", (1, 2),
         "exit 0; p1 5.338e-56 against an oracle of 5.330e-56"),
    _row(_verify_gates_or_is_honest, ("p2", 1.0, 30.0), "verify-1-30", (1, 2),
         "exit 0; p2 2.58e-80 against an oracle of 3.50e-76"),
    _row(_verify_gates_or_is_honest, ("p2", 1.0, 60.0), "verify-1-60", (1, 2),
         "exit 0; p2 4.90e-162 against an oracle of 5.06e-117"),
    _row(_verify_gates, (120.0, 1.0), "verify-120-1", (1, 6),
         "exit 0; p1 0 against an oracle of 5.67e-200"),
    _row(_coefficients_within_1e_8, ((100.0, 166.0), (109.94500000000001, 180.0),
                                     (200.0, 300.0), (500.0, 712.0)), "L-large-ybar", (3, 13),
         "L 1.08, 15.9, 6.9e5 and 9.3e29 off"),
    _row(_coefficients_within_1e_8, ((1e-12, 1.0), (1e-16, 3.0)), "L-small-ybar", (3, 13),
         "the convergent L's rounding grows as about u r / ybar: at r = 1 it is 4.5e-8 off "
         "at ybar 1e-8, 4.9e-4 at 1e-12 and 34 at 1e-16; printed p2 values do not show "
         "this error, since eta = eps y / 2 scales it to about eps u r"),
    _row(_p2_with_l_right, (180.0, 110.0, 0.5, 1e-3), "p2-180-110", (3, 13),
         "exit 0; 1.5221e-302 from an L 15.9 off"),
    _row(_p2_with_l_right, (356.0, 500.0, 0.9999, 1e-3), "p2-356-500", (3, 13),
         "exit 1; the damping overflows, with Im L = 5.25e28"),
    _row(_p2_with_l_right, (1000.0, 1000.0, 0.5, 1e-3), "p2-1000-1000", (3, 13),
         "exit 1; L is unsummable"),
    _row(_p2_with_l_right, (301.0, 200.0, 0.5, 1e-6), "p2-301-200", (3, 13),
         "exit 1; the damping overflows on L's noise"),
    _row(_p2_with_l_right, (10.0, 1e-305, 0.5, 0.01), "p2-10-1e-305", (3, 13),
         "exit 1; at ybar=9.95e-306, r=10.0 the bound on L's series terms overflows a double"),
    _row(_compare_loses_the_phase, (), "compare-1-1e17", (6,),
         "exit 0; p1 0.0080168 from a phase of 5.0e16"),
    _row(_verify_refuses_the_empty_p2_range, (), "verify-1e19-1", (1, 2, 6),
         "exit 0; p2_numeric 0 with an estimate of 0 against mpmath's 4.44e-41"),
]


@pytest.mark.parametrize("check, args", LEDGER)
def test_known_defect(tmp_path, check, args):
    check(tmp_path, *args)


def test_ledger_references_recompute():
    pytest.importorskip("mpmath")
    from test_exact_reference import coefficient_reference, p1_reference, p2_reference

    for (route, x, y), exact in PROBABILITY.items():
        reference = (p1_reference if route == "p1" else p2_reference)(
            DimensionlessConfig(x, y, 0.5, 0.0))
        assert 0.25 * abs(reference) ** 2 == pytest.approx(exact, rel=1e-14)
    for ybar, r in ((100.0, 166.0), (109.94500000000001, 180.0), (199.9999, 301.0),
                    (9.95e-306, 10.0), (1e-16, 3.0)):
        assert coefficient_reference(ybar, r) == pytest.approx(COEFFICIENT[ybar, r], rel=1e-14)
