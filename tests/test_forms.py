"""Range enclosures of the function-form registry: every form's
enclose(lo, hi) must contain the form's values on [lo, hi], at dense
points and at the exact extremes, and be rounded outward."""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from certctrl import forms
from certctrl.core import ArgumentError, _float_down, _float_up
from certctrl.forms import build_scalar_form
import oracles

FLOAT_MAX = sys.float_info.max


def _assert_encloses(form, lo, hi, extremes=()):
    """The enclosure bounds the form itself; its float evaluation may
    stray from the exact value by rounding, here by a few ulps."""
    lower, upper = form.enclose(lo, hi)
    xs = np.concatenate([np.linspace(lo, hi, 10_001), np.asarray(extremes, dtype=float)])
    vals = form(xs)
    slack = 4 * np.spacing(np.abs(vals).max())
    assert lower - slack <= vals.min() and vals.max() <= upper + slack
    return lower, upper


POLY = {"form": "polynomial", "coeffs": [1.0, -3.0, 0.0, 1.0]}  # 1 - 3x + x^3
PWL = {"form": "pwl", "xs": [-1.0, 0.0, 0.5, 2.0], "ys": [0.0, 2.0, -1.0, 1.0]}
TRIG = {"form": "trig", "terms": [[2.0, 3.0, 1.0], [-0.5, 7.0, 0.0]]}


def test_polynomial_encloses_values_and_slopes():
    # p' = 3x^2 - 3 vanishes at -1 and 1: p(-1) = 3 and p(1) = -1 are the
    # extremes on [-2, 1.5]; p'(-2) = 9 is the largest slope
    p = build_scalar_form(POLY)
    lower, upper = _assert_encloses(p, -2.0, 1.5, extremes=[-1.0, 1.0])
    assert lower <= -1.0 and upper >= 3.0
    # c_0 -+ sum |c_k| r^k with r = 2
    assert (lower, upper) == (1.0 - 14.0, 1.0 + 14.0)
    assert _assert_encloses(p.derivative, -2.0, 1.5, extremes=[-2.0, 0.0]) == (-3.0 - 12.0, -3.0 + 12.0)
    assert p.derivative.derivative.enclose(-2.0, 1.5) == (-12.0, 12.0)


def test_polynomial_enclosure_is_rounded_outward():
    rng = np.random.default_rng(5)
    for _ in range(200):
        coeffs = rng.uniform(-1, 1, int(rng.integers(1, 6))).tolist()
        lo, hi = sorted(rng.uniform(-3, 3, 2).tolist())
        lower, upper = build_scalar_form({"form": "polynomial", "coeffs": coeffs}).enclose(lo, hi)
        r = max(abs(Fraction(lo)), abs(Fraction(hi)))
        s = sum(abs(Fraction(c)) * r**k for k, c in enumerate(coeffs) if k)
        assert Fraction(lower) <= Fraction(coeffs[0]) - s and Fraction(coeffs[0]) + s <= Fraction(upper)
        # rounded once: the next float inward would no longer enclose
        assert Fraction(math.nextafter(upper, -math.inf)) < Fraction(coeffs[0]) + s


def test_pwl_is_exact_with_knots_inside_and_outside():
    f = build_scalar_form(PWL)
    # [-0.5, 1] holds the knots 0 (value 2) and 0.5 (value -1); -1 and 2
    # lie outside, and the ends interpolate to 1 and -1/3
    assert _assert_encloses(f, -0.5, 1.0, extremes=[0.0, 0.5]) == (-1.0, 2.0)
    # no knot inside: the interpolated ends 2 - 6x are the extremes,
    # computed exactly and rounded outward
    lower, upper = _assert_encloses(f, 0.1, 0.4)
    assert Fraction(lower) <= 2 - 6 * Fraction(0.4) < Fraction(math.nextafter(lower, math.inf))
    assert Fraction(math.nextafter(upper, -math.inf)) < 2 - 6 * Fraction(0.1) <= Fraction(upper)
    # beyond the last knot the form is constant
    assert _assert_encloses(f, 2.5, 3.0) == (1.0, 1.0)
    assert _assert_encloses(f, -3.0, 3.0) == (-1.0, 2.0)


def test_pwl_derivative_is_the_step_function_of_its_slopes():
    d = build_scalar_form(PWL).derivative
    # slopes 2, -6 and 4/3; 0 on the constant parts
    assert d(np.array([-2.0, -0.5, 0.25, 1.0, 2.0, 3.0])).tolist() == [0.0, 2.0, -6.0, 4.0 / 3.0, 0.0, 0.0]
    assert _assert_encloses(d, -0.5, 1.0) == (-6.0, 2.0)
    assert _assert_encloses(d, 0.6, 1.9) == (1.3333333333333333, 1.3333333333333335)
    assert _assert_encloses(d, 1.0, 3.0)[0] == 0.0
    assert _assert_encloses(d, -3.0, -0.5) == (0.0, 2.0)
    # a kink at an end of the interval: both one-sided slopes count
    assert d.enclose(0.0, 0.0) == (-6.0, 2.0)


def test_pwl_needs_strictly_increasing_knots():
    with pytest.raises(ArgumentError):
        build_scalar_form({"form": "pwl", "xs": [0.0, 0.0, 1.0], "ys": [0.0, 1.0, 2.0]})


def test_trig_encloses_values_and_slopes():
    f = build_scalar_form(TRIG)
    # 2 sin(3x + 1) peaks at x = (pi/2 - 1) / 3 and dips at (3 pi/2 - 1) / 3
    peaks = [(math.pi / 2 - 1) / 3, (3 * math.pi / 2 - 1) / 3]
    assert _assert_encloses(f, -4.0, 4.0, extremes=peaks) == (-2.5, 2.5)
    single = build_scalar_form({"form": "trig", "terms": [[2.0, 3.0, 1.0]]})
    lower, upper = _assert_encloses(single, -4.0, 4.0, extremes=peaks)
    assert single(np.array(peaks)) == pytest.approx([upper, lower])
    # the derivative's amplitudes |a b| are 6 and 3.5
    assert _assert_encloses(f.derivative, -4.0, 4.0) == (-9.5, 9.5)


def test_trig_derivative_amplitude_is_exact():
    # 0.1 * 5 rounds down to 0.5 in floats; the enclosure must not
    assert 0.1 * 5.0 == 0.5 < Fraction(0.1) * 5
    lower, upper = build_scalar_form({"form": "trig", "terms": [[0.1, 5.0, 0.0]]}).derivative.enclose(0, 1)
    assert Fraction(upper) >= Fraction(0.1) * 5 and Fraction(lower) <= -Fraction(0.1) * 5


def test_affine_of_with_a_negative_scale():
    # 1 - 2 x^2 on [-1, 3]: the extremes are 1 at x = 0 and -17 at x = 3
    f = build_scalar_form({"form": "affine_of", "inner": {"form": "polynomial", "coeffs": [0, 0, 1]},
                           "scale": -2.0, "shift": 1.0})
    lower, upper = _assert_encloses(f, -1.0, 3.0, extremes=[0.0])
    assert (lower, upper) == (-17.0, 19.0)
    # -4x: [-12, 4] on the box, enclosed through the inner 2x as [-12, 12]
    assert _assert_encloses(f.derivative, -1.0, 3.0, extremes=[-1.0, 3.0]) == (-12.0, 12.0)
    # the exact pwl range [-1, 2] maps to exactly [-3, 3]
    g = build_scalar_form({"form": "affine_of", "inner": PWL, "scale": -2.0, "shift": 1.0})
    assert _assert_encloses(g, -0.5, 1.0, extremes=[0.0, 0.5]) == (-3.0, 3.0)
    assert _assert_encloses(g.derivative, -0.5, 1.0) == (-4.0, 12.0)


def test_forms_reject_non_finite_parameters():
    for spec in ({"form": "polynomial", "coeffs": [0.0, math.inf]},
                 {"form": "pwl", "xs": [0.0, 1.0], "ys": [math.nan, 1.0]},
                 {"form": "trig", "terms": [[math.inf, 1.0, 0.0]]}):
        with pytest.raises(ArgumentError):
            build_scalar_form(spec)


# ---------------------------------------------------------------------------
# the integer Bernstein kernel against the Fraction reference
# ---------------------------------------------------------------------------

def _random_float(rng):
    return rng.choice([
        rng.uniform(-2, 2), round(rng.uniform(-2, 2), 2), float(rng.randint(-3, 3)),
        rng.uniform(-1, 1) * 2.0 ** rng.randint(-30, 30),
    ])


def _random_case(rng):
    """(p, k, s, a, b) with p[k] the lowest nonzero coefficient (None when
    p is 0): a random polynomial of degree 0 to 5, or a product of linear
    factors whose roots may sit on a box end or its midpoint, so that every
    verdict occurs, times a power r^j, j <= 2."""
    a = 0.0 if rng.random() < 0.3 else abs(_random_float(rng))
    a = Fraction(a)
    b = a + Fraction(abs(_random_float(rng)) + 2.0**-40)
    deg = rng.randint(0, 5)
    if rng.random() < 0.4:
        p = [Fraction(_random_float(rng)) for _ in range(deg + 1)]
    else:
        p = [Fraction(_random_float(rng))]
        for _ in range(deg):  # times (r - root)
            root = rng.choice([a, b, (a + b) / 2, Fraction(_random_float(rng))])
            p = [Fraction(0)] + p
            for j in range(len(p) - 1):
                p[j] -= root * p[j + 1]
    p = [Fraction(0)] * rng.randint(0, 2) + p
    k = next((j for j, c in enumerate(p) if c), None)
    return p, k, rng.choice([1, -1]), a, b


def test_integer_kernel_equals_the_fraction_reference():
    rng = random.Random(20261019)
    verdicts = {}
    while sum(verdicts.values()) < 10_000:
        p, k, s, a, b = _random_case(rng)
        if k is None:
            continue
        expected = oracles.decide(p, k, s, a, b)
        got = forms._decide(p, k, s, a, b)
        assert got == expected and type(got[2]) is type(expected[2]), (p, k, s, a, b)
        verdicts[expected[0]] = verdicts.get(expected[0], 0) + 1
        if a > 0 and k == 0:
            assert forms._lower_bound(p, s, a, b) == oracles.lower_bound(p, s, a, b), (p, s, a, b)
    assert set(verdicts) == {"certified", "counterexample", "undecided"}


def test_integer_bernstein_coefficients_and_halves():
    # 1 - 3x + x^3 on [1/4, 3/2]: the integers over S are the reference
    # coefficients, and both halves sit over S 2^n
    p = [Fraction(c) for c in (1.0, -3.0, 0.0, 1.0)]
    a, b = Fraction(1, 4), Fraction(3, 2)
    bern, S = forms._bernstein(p, a, b)
    assert all(isinstance(v, int) for v in bern) and S > 0
    assert [Fraction(v, S) for v in bern] == oracles.bernstein(p, a, b)
    left, right = forms._halve(bern)
    ref_left, ref_right = oracles.halve(oracles.bernstein(p, a, b))
    assert [Fraction(v, S << 3) for v in left] == ref_left
    assert [Fraction(v, S << 3) for v in right] == ref_right


def _float_up_reference(q: Fraction) -> float:
    """The least float >= q, by Fraction comparisons."""
    if q > Fraction(FLOAT_MAX):
        return math.inf
    f = float(max(q, -Fraction(FLOAT_MAX)))
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


def test_float_rounding_equals_the_fraction_formula():
    rng = random.Random(7)
    tiny = Fraction(1, 2**2000)
    top, sub = Fraction(FLOAT_MAX), Fraction(5e-324)
    edges = [Fraction(0), tiny, 2 * top, Fraction(2**1024), top, top + tiny, top - tiny,
             top + Fraction(2**970), top + Fraction(2**970) - tiny, sub, sub / 2, sub / 2 + tiny,
             sub / 2 - tiny, 3 * sub / 2, Fraction(1, 3), Fraction(2.2250738585072014e-308) - tiny]
    edges += [Fraction(rng.getrandbits(2000) + 1, rng.getrandbits(rng.randint(1, 2000)) + 1)
              for _ in range(200)]
    edges += [Fraction(rng.getrandbits(60), 2 ** rng.randint(0, 1100)) for _ in range(200)]
    for q in edges:
        for v in (q, -q):
            assert repr(_float_up(v)) == repr(_float_up_reference(v)), v
            assert repr(_float_down(v)) == repr(-_float_up_reference(-v) + 0.0), v
    assert repr(_float_up(-tiny)) == "-0.0" and repr(_float_down(Fraction(0))) == "0.0"
    assert _float_up(Fraction(2**1024)) == math.inf and _float_down(-Fraction(2**1024)) == -math.inf
    assert _float_down(Fraction(2**1024)) == FLOAT_MAX
