"""p2's GUP coefficient L for many rows at once, with the bits of the scalar sum.

`closed_form._gup_coefficient` sums L(1 + i ybar, i r) one row at a time
in Python complex arithmetic.  `gup_coefficient_batch` sums the
convergent series of many rows together, each row with its own ybar, r,
log Gamma(i ybar) and psi(1 + i ybar), on float64 arrays, and gives
every row the bits the scalar function gives it.  numpy's complex type
cannot do that: its multiply and divide round differently from
CPython's.  So each complex * and / of the scalar loop is repeated as
the real operations CPython rounds, in CPython's order (`_product`;
`_quotient`, Smith's method with its branch picked per row).  What is
not + - * / (log r, the first term's exp and modulus) is computed row by
row with math and cmath, as the scalar does.

`closed_form.closed_rows` selects the rows: those on the convergent
branch (0 < r below `closed_form._asymptotic_line`) in a batch of more
than one point.  This module sums every row it is given.  Only that
batch imports it, so it imports numpy at the top; the one-point
modes sum L with the scalar function and never load either.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .closed_form import _L_TOLERANCE

__all__ = ["gup_coefficient_batch"]


def _product(a: tuple, b: tuple) -> tuple:
    """a * b for (real, imaginary) pairs of floats or float64 arrays, as
    CPython's complex product rounds it."""
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def _quotient(a: tuple, b: tuple) -> tuple:
    """a / b for (real, imaginary) pairs of floats or float64 arrays, b
    finite and not 0, as CPython's complex quotient rounds it: Smith's
    method, dividing through by whichever part of b is larger in
    modulus, that choice made per element."""
    (ar, ai), (br, bi) = a, b
    by_real = abs(br) >= abs(bi)
    if not isinstance(by_real, bool) and (by_real.all() or not by_real.any()):
        by_real = bool(by_real[0])
    if by_real is not False:
        ratio = bi / br
        denom = br + bi * ratio
        real_first = (ar + ai * ratio) / denom, (ai - ar * ratio) / denom
        if by_real is True:
            return real_first
    ratio = br / bi
    denom = br * ratio + bi
    imag_first = (ar * ratio + ai) / denom, (ai * ratio - ar) / denom
    if by_real is False:
        return imag_first
    return (np.where(by_real, real_first[0], imag_first[0]),
            np.where(by_real, real_first[1], imag_first[1]))


def _complex_products_unfused() -> bool:
    """Whether this interpreter rounds both real products in each part of a
    complex product, as the batch does.  A build that contracts a product
    and the sum after it into one fused multiply-add (compilers may, on
    arm64 for one) rounds once where the batch rounds twice."""
    u, v = 1.0 + 2.0**-30, 1.0 + 2.0**-31  # u * u and v * v are both inexact
    return complex(u, v) * complex(u, v) == complex(u * u - v * v, u * v + v * u)


def _term_counts(size: np.ndarray, r: np.ndarray) -> np.ndarray:
    """How many terms each row's convergent series sums: the first n at
    which its bound size r^n / n! falls below _L_TOLERANCE, or 0 where
    that bound overflows first (the scalar raises there).  size is
    changed in place.  A bound that has fallen below the tolerance stays
    below: it starts at 1 or more, so it gets there only once n > r, and
    every later factor r / n is at most 1."""
    terms = np.zeros(size.size, dtype=np.intp)
    n = 0
    while True:
        summing = size >= _L_TOLERANCE
        summing &= size != math.inf
        if not summing.any():
            break
        terms += summing
        n += 1
        size *= r / n
    terms[size == math.inf] = 0
    return terms


def gup_coefficient_batch(ybars: list[float], rs: list[float], log_gammas: list[complex],
                          psis: list[complex]) -> list[complex | None]:
    """closed_form._gup_coefficient(ybar, r, log_gamma_iy, psi) at many rows at
    once, bit for bit, or None at each row where the scalar function
    raises.  Never raises.  Every row must be on the convergent branch,
    0 < r < closed_form._asymptotic_line(ybar); closed_form.closed_rows chooses
    the rows, and this function sums each row it is given.

    A row stops adding terms where its own bound falls below
    _L_TOLERANCE: the rows are sorted by their number of terms, so the
    rows still summing are always a leading slice.  On an interpreter
    whose complex products are fused every row is None.
    """
    coefficients = [None] * len(ybars)
    if not coefficients or not _complex_products_unfused():
        return coefficients
    ybar = np.array(ybars, dtype=float)
    r = np.array(rs, dtype=float)
    with np.errstate(all="ignore"):
        # Overflow and 0 * inf happen where the scalar sum meets them too,
        # and leave the same infinities and NaNs in the same rows.
        log_gamma_iy = np.array(log_gammas, dtype=complex)
        # the first Kummer term exp(conj(log Gamma(i ybar)) + a log z), as the scalar's
        log_r = np.array(list(map(math.log, rs)))
        half_pi = 0.5 * math.pi
        product = _product((1.0, ybar), (log_r, half_pi))
        kummer, size = [], []
        for exponent in map(complex, (log_gamma_iy.real + product[0]).tolist(),
                            ((-log_gamma_iy.imag) + product[1]).tolist()):
            try:
                first = cmath.exp(exponent)
                size.append(abs(first) + 1.0)
            except OverflowError:  # the scalar raises; the infinite bound declines the row
                first = 0j
                size.append(math.inf)
            kummer.append(first)
        kummer = np.array(kummer)
        kummer = kummer.real, kummer.imag
        total = _quotient(kummer, (1.0, ybar))
        terms = _term_counts(np.array(size), r)
        # psi(a) - log z
        rest = np.array(psis, dtype=complex)
        rest = rest.real - log_r, rest.imag - half_pi
        rows = np.argsort(-terms, kind="stable")
        ybar, r, terms, *parts = (
            column[rows] for column in (ybar, r, terms, *kummer, *total, *rest))
        kummer, total, rest = parts[:2], parts[2:4], parts[4:]
        if ybar.min() == ybar.max():
            ybar = float(ybar[0])  # then each divisor's parts are plain floats
        minus_ybar = 0.0 - ybar  # the imaginary part of n - a
        summing = np.cumsum(np.bincount(terms)[::-1])[::-1].tolist()  # rows with >= n terms
        power = np.ones(rows.size), np.zeros(rows.size)
        for n in range(1, len(summing)):
            k = summing[n]
            r_k = r[:k]
            ybar_k, minus_k = ((ybar, minus_ybar) if isinstance(ybar, float)
                               else (ybar[:k], minus_ybar[:k]))
            # z / (n - a) with z = i r; z / n is exactly i r / n
            power = _product((power[0][:k], power[1][:k]),
                             _quotient((0.0, r_k), (n - 1.0, minus_k)))
            kummer = _product((kummer[0][:k], kummer[1][:k]), (0.0, r_k / n))
            term = _quotient(kummer, (n + 1.0, ybar_k))
            correction = _quotient(power, (float(n), 0.0))
            total[0][:k] += term[0] - correction[0]
            total[1][:k] += term[1] - correction[1]
        kept = summing[1] if len(summing) > 1 else 0
        coefficient_re = (rest[0][:kept] + total[0][:kept]).tolist()
        coefficient_im = (rest[1][:kept] + total[1][:kept]).tolist()
    for i, re, im in zip(rows[:kept].tolist(), coefficient_re, coefficient_im):
        coefficients[i] = complex(re, im)
    return coefficients
