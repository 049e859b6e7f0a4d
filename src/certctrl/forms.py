"""Declarative function-form registry for config-driven runs, and the one
owner of polynomial data.

Configs reference built-in forms (polynomial, piecewise-linear, trig, and
affine composition) instead of arbitrary expressions, which keeps problem
definitions auditable.  Every form encloses its own range on an interval:
``enclose(lo, hi)`` gives floats lower <= f(x) <= upper on [lo, hi], worked
out in exact rationals and rounded outward once.  A task reads sup|f|, the
Lipschitz constant and (ode, shh) sup|f''| from ``sup_abs`` of f, f' and
f'' on the set it uses.  A polynomial encloses as
c_0 -+ sum_{k>=1} |c_k| r^k with r = max(|lo|, |hi|); pwl exactly, from the
knots inside [lo, hi] and the interpolated ends, and its derivative is the
step function of its slopes, which has no derivative; trig as -+ sum |a|;
affine_of scales and shifts the inner enclosure.  Scalar forms act on the
first state coordinate (the config-driven demos are one-dimensional).
A polynomial form keeps its exact coefficients in ``coeffs`` (None for
every other form); the radial comparators, the exact Horner rule and the
Bernstein sign decider (_decide) that stability uses live here too.  The
decider runs on Python ints over one denominator per box, not on Fractions.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .core import ArgumentError, _float_down, _float_up

__all__ = [
    "Comparator",
    "ScalarForm",
    "build_scalar_form",
    "build_comparator",
    "parse_complex_matrix",
]


# Bernstein boxes examined per quotient before its sign is left undecided
_BERNSTEIN_BOXES = 512


def _horner(coeffs, r):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * r + c
    return acc


def _bernstein(coeffs: list, a: Fraction, b: Fraction) -> tuple[list, int]:
    """Integers N_i over one S > 0: the Bernstein coefficients N_i / S on
    [a, b] of p(r) = sum_i coeffs[i] r^i.  With D the lcm of the
    coefficient denominators and a = A / d, b = B / d, the Taylor shift of
    D d^n p(y / d) by A, scaled by (B - A)^j, gives D d^n p(a + (b - a) t)
    with integer coefficients c_j; S = D d^n lcm_j C(n, j) clears the
    C(n, j) of b_i = sum_j C(i, j) / C(n, j) c_j / (D d^n)."""
    n = len(coeffs) - 1
    D = math.lcm(*(c.denominator for c in coeffs))
    d = math.lcm(a.denominator, b.denominator)
    A, B = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
    c = [cj.numerator * (D // cj.denominator) * d ** (n - j) for j, cj in enumerate(coeffs)]
    for i in range(n):  # Taylor shift by Horner: the coefficients of h(A + z)
        for j in range(n - 1, i - 1, -1):
            c[j] += A * c[j + 1]
    L = math.lcm(*(math.comb(n, j) for j in range(n + 1)))
    c = [L // math.comb(n, j) * (B - A) ** j * cj for j, cj in enumerate(c)]
    return [sum(math.comb(i, j) * c[j] for j in range(i + 1)) for i in range(n + 1)], D * d**n * L


def _halve(bern: list) -> tuple[list, list]:
    """de Casteljau at t = 1/2 in sums: the Bernstein coefficients of both
    halves, over 2^n times the denominator of bern."""
    n = len(bern) - 1
    left, right, row = [bern[0] << n], [bern[-1] << n], bern
    while len(row) > 1:  # sums of level m are 2^m de Casteljau's, scaled by 2^(n - m)
        row = [u + v for u, v in zip(row, row[1:])]
        left.append(row[0] << len(row) - 1)
        right.append(row[-1] << len(row) - 1)
    return left, right[::-1]


def _decide(p: list, k: int, s: int, a: Fraction, b: Fraction):
    """The sign of p(r) = sum_j p[j] r^j on [a, b], 0 <= a < b, where
    p[k] is the lowest nonzero coefficient and x = s r.

    Returns (verdict, value, x): certified with the lowest Bernstein
    coefficient of the quotient p / r^k; counterexample at a float x where
    the exact p is the negative value; undecided with the lowest
    coefficient of the boxes left open, or 0 when p is 0 at a box end,
    where it holds with equality (that box is dropped when no coefficient
    is negative, since p >= 0 on it).  Box i of depth t is
    a + (b - a) [i, i + 1] / 2^t, with integer coefficients over
    S 2^(n t) (see _bernstein and _halve)."""
    bern, S = _bernstein(p[k:], a, b)
    n, boxes = len(bern) - 1, [(0, 0, bern)]
    leaves, touched, examined = [], False, 0
    while boxes and examined < _BERNSTEIN_BOXES:
        examined += 1
        i, t, bern = boxes.pop()
        m = min(bern)
        if m > 0:
            leaves.append((m, n * t))
            continue
        for j, q in ((i, bern[0]), (i + 1, bern[-1])):  # the quotient at the ends
            if q < 0:
                x = float(s * (a + (b - a) * Fraction(j, 1 << t)))
                value = _horner(p, abs(Fraction(x)))
                if value < 0:
                    return "counterexample", value, x
        if bern[0] == 0 or bern[-1] == 0:
            touched = True
            if m == 0:
                continue
        left, right = _halve(bern)
        boxes += [(2 * i + 1, t + 1, right), (2 * i, t + 1, left)]
    verdict = "certified"
    if touched or boxes:
        verdict, leaves = "undecided", [(0, 0)] * touched + [(min(bern), n * t) for _, t, bern in boxes]
    top = max(shift for _, shift in leaves)  # the least value over S 2^top
    return verdict, Fraction(min(m << top - shift for m, shift in leaves), S << top), None


def _lower_bound(p: list, s: int, a: Fraction, b: Fraction) -> Fraction:
    """A lower bound on p(r) = sum_j p[j] r^j over 0 < a <= r <= b, where
    x = s r: positive exactly when _decide certifies p > 0 there.  The box
    misses the origin, so p is its own quotient (k = 0)."""
    verdict, value, _ = _decide(p, 0, s, a, b)
    if verdict == "certified":
        return value
    bern, S = _bernstein(p, a, b)
    return Fraction(min(bern), S)  # <= 0, or _decide would certify


@dataclass(frozen=True)
class Comparator:
    """Radial polynomial comparator w(x) = sum_k coeffs[k-1] |x|^k (k >= 1)
    with finite, non-negative coefficients, not all zero: positive definite
    and strictly increasing in |x|."""

    coeffs: tuple
    name: str = ""

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not all(math.isfinite(c) and c >= 0 for c in coeffs) or not any(coeffs):
            raise ArgumentError(
                f"comparator {self.name!r} needs finite non-negative coefficients, not all zero"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def radial(self) -> list:
        """The exact coefficients of w in powers of |x|, from |x|^0."""
        return [Fraction(0)] + [Fraction(c) for c in self.coeffs]

    def exact(self, r: Fraction) -> Fraction:
        """w at |x| = r, in exact rational arithmetic."""
        return _horner(self.radial, r)


@dataclass(frozen=True)
class ScalarForm:
    """A scalar function of one variable that encloses its own range:
    exact_range(lo, hi) bounds it on [lo, hi] by two rationals.  coeffs
    holds a polynomial's exact coefficients, from x^0, and is None for
    every other form."""

    fn: Callable[[np.ndarray], np.ndarray]
    exact_range: Callable[[Fraction, Fraction], tuple]
    derive: Optional[Callable[[], "ScalarForm"]] = None
    coeffs: Optional[tuple] = None

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    @cached_property
    def derivative(self) -> Optional["ScalarForm"]:
        return self.derive and self.derive()

    def enclose(self, lo, hi) -> tuple[float, float]:
        """Floats (lower, upper) with lower <= f(x) <= upper on [lo, hi]."""
        lower, upper = self.exact_range(Fraction(lo), Fraction(hi))
        return _float_down(lower), _float_up(upper)

    def sup_abs(self, lo, hi) -> float:
        """A float upper bound on |f| over [lo, hi], from the enclosure."""
        return max(map(abs, self.enclose(lo, hi)))

    def exact(self, x: Fraction) -> Fraction:
        """A polynomial form at the rational x, in exact arithmetic."""
        return _horner(self.coeffs, x)


def _exact(values) -> list:
    """Config numbers as the exact rationals of their floats."""
    floats = [float(v) for v in values]
    if not all(map(math.isfinite, floats)):
        raise ArgumentError(f"form parameters must be finite, got {values!r}")
    return [Fraction(v) for v in floats]


def _poly_form(coeffs: list, floats: list) -> ScalarForm:
    # exact coefficients for the enclosure, float ones (inf on overflow) for fn
    coeffs, floats = coeffs or [Fraction(0)], floats or [0.0]

    def exact_range(lo, hi):
        r = max(abs(lo), abs(hi))
        s = sum(abs(c) * r**k for k, c in enumerate(coeffs) if k)
        return coeffs[0] - s, coeffs[0] + s

    def fn(x):  # Horner in floats, elementwise
        out = np.zeros_like(x)
        for c in reversed(floats):
            out = out * x + c
        return out

    def derive():
        return _poly_form([k * c for k, c in enumerate(coeffs)][1:],
                          [k * c for k, c in enumerate(floats)][1:])

    return ScalarForm(fn, exact_range, derive, tuple(coeffs))


def _pwl_form(X: list, Y: list) -> ScalarForm:
    if len(X) != len(Y) or len(X) < 2 or any(b <= a for a, b in zip(X, X[1:])):
        raise ArgumentError("piecewise-linear form needs strictly increasing xs matching ys")
    xs, ys = [float(v) for v in X], [float(v) for v in Y]
    slopes = [(y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(X, X[1:], Y, Y[1:])]

    def at(x):  # as np.interp: linear between the knots, constant outside
        i = min(max(bisect.bisect_right(X, x), 1), len(X) - 1)
        return Y[i - 1] + slopes[i - 1] * (min(max(x, X[0]), X[-1]) - X[i - 1])

    def exact_range(lo, hi):
        vals = [at(lo), at(hi)] + [y for x, y in zip(X, Y) if lo < x < hi]
        return min(vals), max(vals)

    def slope_range(lo, hi):
        # every one-sided slope on [lo, hi], 0 on the constant parts
        vals = [s for a, b, s in zip(X, X[1:], slopes) if a <= hi and b >= lo]
        vals += [Fraction(0)] * (lo <= X[0] or hi >= X[-1])
        return min(vals), max(vals)

    # the slope right of x; searchsorted's -1 and n - 1 both pick the last 0
    step = np.array([float(s) for s in slopes] + [0.0])
    return ScalarForm(
        lambda x: np.interp(x, xs, ys), exact_range,
        lambda: ScalarForm(lambda x: step[np.searchsorted(xs, x, side="right") - 1], slope_range),
    )


def _trig_form(terms: list) -> ScalarForm:
    # sum of a sin(b x + c), with exact amplitudes a, so the derivative's a b
    amplitude = sum(abs(a) for a, _, _ in terms)
    try:
        floats = [float(a) for a, _, _ in terms]
    except OverflowError:
        raise ArgumentError(
            "trig form: an amplitude of the form or of its derivatives exceeds the largest double"
        ) from None

    def fn(x):
        out = np.zeros_like(x)
        for a, (_, b, c) in zip(floats, terms):
            out = out + a * np.sin(b * x + c)
        return out

    return ScalarForm(
        fn, lambda lo, hi: (-amplitude, amplitude),
        lambda: _trig_form([(a * Fraction(b), b, c + math.pi / 2.0) for a, b, c in terms]),
    )


def _affine_form(inner: ScalarForm, s: Fraction, b: Fraction) -> ScalarForm:
    def exact_range(lo, hi):
        ends = [s * v + b for v in inner.exact_range(lo, hi)]
        return min(ends), max(ends)

    def derive():
        return inner.derivative and _affine_form(inner.derivative, s, Fraction(0))

    return ScalarForm(lambda x: float(s) * inner(x) + float(b), exact_range, derive)


def build_scalar_form(spec: dict) -> ScalarForm:
    """Instantiate a registry form from its config dictionary."""
    if not isinstance(spec, dict) or "form" not in spec:
        raise ArgumentError(f"not a function-form reference: {spec!r}")
    kind = spec["form"]
    if kind == "polynomial":
        floats = [float(c) for c in spec["coeffs"]]
        return _poly_form(_exact(floats), floats)
    if kind == "pwl":
        return _pwl_form(_exact(spec["xs"]), _exact(spec["ys"]))
    if kind == "trig":
        terms = spec["terms"]
        return _trig_form([(a, float(b), float(c))
                           for a, (_, b, c) in zip(_exact([t[0] for t in terms]), terms)])
    if kind == "affine_of":
        s, b = _exact([spec.get("scale", 1.0), spec.get("shift", 0.0)])
        return _affine_form(build_scalar_form(spec["inner"]), s, b)
    raise ArgumentError(
        f"unknown function form {kind!r}; registry: polynomial, pwl, trig, affine_of"
    )


def build_comparator(spec: dict, name: str = "") -> Comparator:
    """Comparator from a radial polynomial w(x) = sum_k c_k |x|^k
    (k >= 1, coefficients >= 0, some positive)."""
    if spec.get("form") != "radial_poly":
        raise ArgumentError("comparators must use the radial_poly form")
    return Comparator(tuple(float(c) for c in spec["coeffs"]), name or spec.get("name", ""))


def parse_complex_matrix(text: str) -> np.ndarray:
    """Plain-text matrix rows: whitespace-separated `re,im` pairs (the
    imaginary part may be omitted for real entries)."""
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        row = []
        for tok in line.split():
            if "," in tok:
                re_s, im_s = tok.split(",", 1)
                row.append(complex(float(re_s), float(im_s)))
            else:
                row.append(complex(float(tok), 0.0))
        rows.append(row)
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ArgumentError("matrix text must be square rows of re,im pairs")
    return np.array(rows, dtype=complex)
