import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import certctrl.forms as forms
from certctrl import cli
from certctrl.core import ArgumentError, Hypercube, build_mesh, mesh_divisions
from certctrl.stability import (
    CLFProblem,
    LyapunovData,
    certify,
    check_decay,
    check_linear_growth,
    check_sandwich,
    clf_feedback,
    find_sampling_time,
    reaching_steps,
)
from certctrl.forms import Comparator, build_comparator, build_scalar_form
from certctrl.trajectories import RegularRHS, picard_solve
from oracles import clf_feedback_mesh_scan, sample_hold_step, sample_sublevel

BOX = Hypercube(np.array([0.0]), 2.0)  # [-1, 1]


def comparator(coeffs, name=""):
    return build_comparator({"form": "radial_poly", "coeffs": coeffs}, name)


W_HALF_SQ = comparator([0.0, 0.5], "x^2/2")
W_TWO_SQ = comparator([0.0, 2.0], "2x^2")
W_TWO_ABS = comparator([2.0], "2|x|")
W_ABS = comparator([1.0], "|x|")
W_SQ = comparator([0.0, 1.0], "x^2")
W_QUARTIC = comparator([0.0, 0.0, 0.0, 1.0], "x^4")


def poly(coeffs):
    return build_scalar_form({"form": "polynomial", "coeffs": list(coeffs)})


def lyapunov(f, w1=W_HALF_SQ, w2=W_TWO_ABS, w3=W_SQ, V=(0.0, 0.0, 1.0)):
    """V (x^2 by default) along x' = f(x), both by their coefficients."""
    return LyapunovData(V=poly(V), f=poly(f), w1=w1, w2=w2, w3=w3, xi=1.0)


def lyapunov_decay(vdot_factor=-2.0, w3=W_SQ):
    # V = x^2 along x' = (vdot_factor/2) x
    return lyapunov((0.0, vdot_factor / 2.0), w3=w3)


def _poly(coeffs, x):
    return sum(Fraction(c) * x**k for k, c in enumerate(coeffs))


def _conditions(data, x):
    """V - w1, w2 - V and -V'f - w3 at the rational x, exactly."""
    V, r = _poly(data.V.coeffs, x), abs(x)
    dV = _poly([k * Fraction(c) for k, c in enumerate(data.V.coeffs)][1:], x)
    return V - data.w1.exact(r), data.w2.exact(r) - V, -dV * _poly(data.f.coeffs, x) - data.w3.exact(r)


# ---------------------------------------------------------------------------
# sandwich
# ---------------------------------------------------------------------------

def test_sandwich_certified_quadratic():
    res = check_sandwich(lyapunov((0.0, -1.0), w2=W_TWO_SQ), BOX)
    assert res.verdict == "certified"
    # DERIVED: the quotients are 1/2 (V - w1 = r^2/2) and 1 (w2 - V = r^2)
    assert res.margin == 0.5
    assert res.details["orders"] == {"V - w1": {"+": 2, "-": 2}, "w2 - V": {"+": 2, "-": 2}}


def test_sandwich_counterexample_lower_bound_too_big():
    data = lyapunov((0.0, -1.0), w1=W_TWO_SQ, w2=W_TWO_SQ)  # 2x^2 > x^2 away from 0
    res = check_sandwich(data, BOX)
    assert res.verdict == "counterexample"
    assert res.counterexample["condition"] == "V - w1"
    (x,) = res.counterexample["point"]
    assert x != 0 and BOX.contains(np.array([x]))
    assert _conditions(data, Fraction(x))[0] < 0
    assert res.margin == res.counterexample["margin"] < 0


def test_sandwich_double_root_at_a_dyadic_point_is_undecided():
    # DERIVED: on [0, 1], V = 7x/4 + x^2 - x^3 gives w2 - V = r (r - 1/2)^2
    # for w2 = 2|x|; the quotient is 0 at the bisection point 1/2, where
    # the inequality holds with equality and nothing is violated
    half = Hypercube(np.array([0.5]), 1.0)
    data = lyapunov((0.0, -1.0), w3=comparator([0.0, 0.25]), V=(0.0, 1.75, 1.0, -1.0))
    res = check_sandwich(data, half)
    assert res.verdict == "undecided"
    assert res.details["orders"]["w2 - V"] == {"+": 1}
    assert _conditions(data, Fraction(1, 2))[1] == 0
    assert all(min(_conditions(data, Fraction(i, 64))) >= 0 for i in range(65))
    assert certify(data, half).verdict == "undecided"


def test_sandwich_on_boxes_off_the_origin():
    # w2 - V = r (2 - r) for w2 = 2|x| and V = x^2: the quotient 2 - r has
    # Bernstein coefficients 3/2 and 1/2 on [1/2, 3/2], and is -1 at r = 3
    data = lyapunov((0.0, -1.0))
    res = check_sandwich(data, Hypercube(np.array([1.0]), 1.0))
    assert res.verdict == "certified" and res.margin == 0.5
    res = check_sandwich(data, Hypercube(np.array([-2.0]), 2.0))  # [-3, -1]
    assert res.verdict == "counterexample" and res.counterexample["condition"] == "w2 - V"
    assert res.counterexample["point"].tolist() == [-3.0] and res.margin == -3.0


def test_sandwich_margin_is_rounded_down():
    # on [0, 1], V - w1 = r^2 (1 - r + r^5) for V = 3x^2/2 - x^3 + x^7 and
    # w1 = x^2/2; the quotient's lowest Bernstein coefficient is 1 - 4/5,
    # and the nearest double to 1/5 lies above it
    half = Hypercube(np.array([0.5]), 1.0)
    res = check_sandwich(lyapunov((0.0, -1.0), V=(0.0, 0.0, 1.5, -1.0, 0.0, 0.0, 0.0, 1.0)), half)
    assert res.verdict == "certified"
    assert res.margin == math.nextafter(0.2, 0.0) and Fraction(res.margin) < Fraction(1, 5)


def test_sandwich_identity_is_undecided():
    # V = w1 exactly: V - w1 is identically 0
    res = check_sandwich(lyapunov((0.0, -1.0), w1=W_SQ), BOX)
    assert res.verdict == "undecided"
    assert res.details["orders"]["V - w1"] == {"+": None, "-": None}


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------

def test_decay_certified_linear_system():
    res = check_decay(lyapunov_decay(-2.0, W_SQ), BOX)
    assert res.verdict == "certified"
    assert res.margin == 1.0  # DERIVED: -V'f - w3 = 2r^2 - r^2


def test_decay_counterexample_unstable_system():
    res = check_decay(lyapunov_decay(+2.0, W_SQ), BOX)
    assert res.verdict == "counterexample"


def test_decay_cubic_system_quartic_rate():
    # x' = -x^3, V = x^2: Vdot = -2x^4 <= -x^4 on [-1, 1]
    res = check_decay(lyapunov((0.0, 0.0, 0.0, -1.0), w3=W_QUARTIC), BOX)
    assert res.verdict == "certified"
    assert res.margin == 1.0
    assert res.details["orders"] == {"-V'f - w3": {"+": 4, "-": 4}}


def test_decay_growing_screen_shape_counterexample():
    # x' = +(a x + b x^3): -V'f - w3 = -(2a + k3) r^2 - 2b r^4 < 0 for r > 0
    data = lyapunov((0.0, 1.25, 0.0, 0.375), w3=comparator([0.0, 0.8125]))
    res = check_decay(data, BOX)
    assert res.verdict == "counterexample"
    (x,) = res.counterexample["point"]
    assert x != 0 and BOX.contains(np.array([x]))
    assert _conditions(data, Fraction(x))[2] < 0
    cert = certify(data, BOX)
    assert cert.verdict == "counterexample" and cert.counterexample["check"] == "decay"


def test_decider_undecided_once_the_box_budget_is_spent(monkeypatch):
    # on [0, 1], V - w1 = r^2 ((r - 1/2)^2 + 1/16): the Bernstein coefficients
    # of the quotient on [0, 1] are 5/16, -3/16, 5/16, so it needs a split
    half = Hypercube(np.array([0.5]), 1.0)
    data = lyapunov((0.0, -1.0), w1=comparator([0.0, 0.0625]), V=(0.0, 0.0, 0.375, -1.0, 1.0))
    res = check_sandwich(data, half)
    assert res.verdict == "certified" and 0 < res.margin <= 0.0625
    monkeypatch.setattr(forms, "_BERNSTEIN_BOXES", 1)
    res = check_sandwich(data, half)
    assert res.verdict == "undecided" and res.margin == 0.0625  # the two open halves


def test_lyapunov_data_rejects_bad_coefficients_and_xi():
    # a non-finite coefficient is refused when the form is built
    for V, f in (((0.0, math.inf), (0.0, -1.0)), ((0.0, 0.0, 1.0), (math.nan,))):
        with pytest.raises(ArgumentError):
            LyapunovData(poly(V), poly(f), W_HALF_SQ, W_TWO_ABS, W_SQ, 1.0)
    trig = build_scalar_form({"form": "trig", "terms": [[1.0, 1.0, 0.0]]})
    for V, f in ((trig, poly((0.0, -1.0))), (poly((0.0, 0.0, 1.0)), trig)):
        with pytest.raises(ArgumentError, match="polynomial"):
            LyapunovData(V, f, W_HALF_SQ, W_TWO_ABS, W_SQ, 1.0)
    for xi in (0.0, math.nan):
        with pytest.raises(ArgumentError):
            LyapunovData(poly((0.0, 0.0, 1.0)), poly((0.0, -1.0)), W_HALF_SQ, W_TWO_ABS, W_SQ, xi)


def _dyadic(rng, lo, hi, n=1):
    return [float(v) for v in np.round(rng.uniform(lo, hi, n) * 16) / 16]


def _random_comparator(rng, *ranges):
    coeffs = [v for lo, hi in ranges for v in _dyadic(rng, lo, hi)]
    return comparator(coeffs if any(coeffs) else coeffs[:-1] + [0.0625])


def _on_grid(coeffs, n, radial=False):
    """p(x), or p(|x|), at x = i / n for i = -n..n, exactly: the dyadic
    coefficients scaled to integers, so each value is an integer Horner
    pass and one Fraction."""
    cs = [Fraction(c) for c in coeffs]
    d = max(c.denominator for c in cs)  # powers of two: the largest is a common multiple
    ints = [int(c * d) * n ** (len(cs) - 1 - j) for j, c in enumerate(cs)]
    out = []
    for i in range(-n, n + 1):
        acc = 0
        for c in reversed(ints):
            acc = acc * (abs(i) if radial else i) + c
        out.append(Fraction(acc, d * n ** (len(cs) - 1)))
    return out


def _conditions_on_grid(data, n):
    """(V - w1, w2 - V, -V'f - w3) at every x = i / n, exactly."""
    V, f = _on_grid(data.V.coeffs, n), _on_grid(data.f.coeffs, n)
    dV = _on_grid([k * Fraction(c) for k, c in enumerate(data.V.coeffs)][1:], n)
    w1, w2, w3 = (_on_grid(w.radial, n, radial=True) for w in (data.w1, data.w2, data.w3))
    return [(v - a, b - v, -dv * fv - c) for v, dv, fv, a, b, c in zip(V, dV, f, w1, w2, w3)]


def test_sandwich_and_decay_randomized_against_a_dyadic_grid():
    # every certified check holds at every point of a 2^10 grid of [-1, 1],
    # exactly, with the margin times r^k, and every counterexample is
    # exactly negative
    rng = np.random.default_rng(2026)
    n = 512
    grid = [Fraction(i, n) for i in range(-n, n + 1)]
    seen = set()
    for _ in range(60):
        V = [0.0, 0.0, *_dyadic(rng, 0.25, 2.0), *_dyadic(rng, -0.5, 0.5, 2)]
        f = [0.0, *_dyadic(rng, -2.0, 0.5), *_dyadic(rng, -0.5, 0.5, int(rng.integers(0, 3)))]
        w1 = _random_comparator(rng, (0, 0), (0, 2))
        w2 = _random_comparator(rng, (0, 1.5), (0, 2))
        w3 = _random_comparator(rng, (0, 0), (0, 3), (0, 0.5))
        data = lyapunov(f, w1, w2, w3, V=V)
        values = None
        for check, idx in ((check_sandwich, (0, 1)), (check_decay, (2,))):
            res = check(data, BOX)
            seen.add(res.verdict)
            names = list(res.details["orders"])
            if res.verdict == "counterexample":
                (x,) = res.counterexample["point"]
                assert BOX.contains(np.array([x]))
                i = idx[names.index(res.counterexample["condition"])]
                assert _conditions(data, Fraction(x))[i] < 0
                continue
            values = values or _conditions_on_grid(data, n)
            if res.verdict == "certified":
                # p >= margin r^k on each half, k the reported order
                assert res.margin > 0
                margin = Fraction(res.margin)
                for x, vals in zip(grid, values):
                    for name, i in zip(names, idx):
                        k = res.details["orders"][name]["+" if x >= 0 else "-"]
                        assert vals[i] >= margin * abs(x) ** k
            else:  # here: the data touch a condition with equality
                assert min(vals[i] for vals in values for i in idx) == 0
    assert seen == {"certified", "counterexample", "undecided"}


# ---------------------------------------------------------------------------
# linear growth
# ---------------------------------------------------------------------------

def test_linear_growth_certified():
    res = check_linear_growth(W_TWO_ABS, 1.0, BOX)
    assert res.verdict == "certified"
    assert res.margin == pytest.approx(1.0, abs=1e-6)


def test_linear_growth_counterexample_quadratic_flatness():
    # DERIVED: pairs with small norms violate (slope x + y < 1 near 0)
    res = check_linear_growth(W_SQ, 1.0, BOX)
    assert res.verdict == "counterexample"


def test_linear_growth_boundary_case_undecided():
    res = check_linear_growth(W_ABS, 1.0, BOX)
    assert res.verdict == "undecided"
    assert abs(res.margin) <= 1e-9


def test_linear_growth_rejects_bad_xi():
    with pytest.raises(ArgumentError):
        check_linear_growth(W_TWO_ABS, 0.0, BOX)


def _violates_exactly(w, xi, pair):
    """w(x) - w(y) < xi (|x| - |y|) in rational arithmetic, for a pair of
    one-dimensional points."""
    lo, hi = sorted(abs(Fraction(float(p[0]))) for p in pair)
    phi = lambda r: sum(Fraction(c) * r ** (k + 1) for k, c in enumerate(w.coeffs))
    return lo < hi and phi(hi) - phi(lo) < Fraction(xi) * (hi - lo)


def test_linear_growth_refutes_quadratic_at_small_xi():
    # DERIVED: |x|^2 < 0.003 |x| for every 0 < |x| < 0.003
    w = comparator([0.0, 1.0], "|x|^2")
    res = check_linear_growth(w, 0.003, BOX)
    assert res.verdict == "counterexample"
    assert res.margin == -0.003
    pair = res.counterexample["pair"]
    assert all(BOX.contains(p) for p in pair)
    assert _violates_exactly(w, 0.003, pair)


def test_linear_growth_randomized_radial_polynomials():
    rng = np.random.default_rng(2025)
    box = Hypercube(np.array([0.0]), 2.0)
    grid = np.arange(-256, 257) / 256.0  # dyadic, origin included
    seen = set()
    for trial in range(60):
        deg = int(rng.integers(1, 5))
        coeffs = [float(v) for v in np.round(rng.uniform(0.0, 2.0, deg) * 64) / 64]
        if trial % 3 == 0:
            coeffs[0] = 0.0
        if not any(coeffs):
            coeffs[-1] = 1.0
        w = build_comparator({"form": "radial_poly", "coeffs": coeffs})
        c1 = coeffs[0]
        for xi in (c1 + 0.25, c1 * 0.5 + 0.01, c1 - 0.125):
            if xi <= 0:
                continue
            res = check_linear_growth(w, xi, box)
            seen.add(res.verdict)
            if res.verdict == "certified":
                assert res.margin == c1 - xi > 0
                vals = np.array([float(w.exact(abs(Fraction(g)))) for g in grid])
                r = np.abs(grid)
                dr = r[:, None] - r[None, :]
                dw = vals[:, None] - vals[None, :]
                ordered = dr > 0
                assert np.all(dw[ordered] / dr[ordered] > xi)
            else:
                assert res.verdict == "counterexample" and c1 < xi
                pair = res.counterexample["pair"]
                assert all(box.contains(p) for p in pair)
                assert _violates_exactly(w, xi, pair)
    assert seen == {"certified", "counterexample"}


def test_linear_growth_refutation_needs_the_origin():
    far = Hypercube(np.array([2.0]), 2.0)  # [1, 3]: |x|^2 has slope >= 2 there
    res = check_linear_growth(comparator([0.0, 1.0]), 1.0, far)
    assert res.verdict == "undecided"
    left = Hypercube(np.array([-0.75]), 2.0)  # [-1.75, 0.25]
    res = check_linear_growth(comparator([0.0, 1.0]), 1.0, left)
    assert res.verdict == "counterexample"
    assert res.counterexample["pair"][1][0] < 0 and left.contains(res.counterexample["pair"][1])
    # 1e308 |x|^2 < 1e-300 |x| only for 0 < |x| < 1e-608, below every double
    res = check_linear_growth(comparator([0.0, 1e308]), 1e-300, BOX)
    assert res.verdict == "undecided"


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_decay_instance_with_abs_upper_bound():
    cert = certify(lyapunov_decay(-2.0), BOX)
    assert cert.verdict == "certified"
    # DERIVED: X0 level is w1 on the unit sphere, 1/2
    assert cert.x0_set is not None
    assert cert.x0_set.level == 0.5
    assert cert.witness == {"level": 0.5, "sphere_radius": 1.0}
    assert cert.x0_set.contains(np.array([0.24]))
    assert cert.x0_set.contains(np.array([0.25]))  # 2 * 0.25 = 0.5 exactly
    assert not cert.x0_set.contains(np.array([0.26]))


def test_certify_rejects_unstable_with_counterexample():
    cert = certify(lyapunov_decay(+2.0), BOX)
    assert cert.verdict == "counterexample"
    assert cert.counterexample["check"] == "decay"


def test_certify_undecided_with_quadratic_w2_growth():
    # w2 = 2x^2 fails the linear-growth condition near 0 (counterexample)
    cert = certify(lyapunov((0.0, -1.0), w2=W_TWO_SQ), BOX)
    assert cert.verdict == "counterexample"
    assert cert.counterexample["check"] == "linear_growth"


def test_certified_instance_trajectories_decrease_v():
    cert = certify(lyapunov_decay(-2.0), BOX)
    rng = np.random.default_rng(6)
    x0s = sample_sublevel(cert.x0_set, rng, BOX, 20)
    rhs = RegularRHS.single(lambda xs, ts: -xs, 1.0, BOX, 1.0, 1.0)
    for x0 in x0s:
        sol = picard_solve(rhs, x0, 1.0, 1e-4)
        v = sol.values[:, 0] ** 2
        assert np.all(np.diff(v) <= 2e-4)  # monotone within solver bounds
        w1v = 0.5 * sol.values[:, 0] ** 2
        w2v = 2.0 * np.abs(sol.values[:, 0])
        assert np.all(v >= w1v - 1e-9) and np.all(v <= w2v + 1e-9)


def test_comparator_rejects_bad_coefficients():
    for coeffs in ([1.0, -0.5], [float("nan"), 1.0], [0.0, float("inf")], [0.0, 0.0], []):
        with pytest.raises(ArgumentError):
            Comparator(coeffs, name="bad")
        with pytest.raises(ArgumentError):
            build_comparator({"form": "radial_poly", "coeffs": coeffs})


# ---------------------------------------------------------------------------
# CLF feedback
# ---------------------------------------------------------------------------

V_SQ = build_scalar_form({"form": "polynomial", "coeffs": [0.0, 0.0, 1.0]})


def integrator_problem(r=0.1, R=1.0, state_box=Hypercube(np.array([0.0]), 4.0), V=V_SQ):
    """x' = u with u in [-1, 1], V = x^2 by default."""
    return CLFProblem(
        V=V,
        state_box=state_box,
        control_box=Hypercube(np.array([0.0]), 2.0),  # [-1, 1]
        target_radius=r,
        overshoot_radius=R,
    )


def test_clf_feedback_integrator_picks_minus_one():
    prob = integrator_problem()
    u, val = clf_feedback(prob, np.array([0.5]), 0.05)
    assert u[0] == pytest.approx(-1.0)
    # certified value <= inf + eps, inf = -2|x| = -1
    assert val.value - val.radius <= -1.0 + 0.05


def test_clf_feedback_at_origin_returns_lowest_index():
    prob = integrator_problem()
    u, val = clf_feedback(prob, np.array([0.0]), 0.05)
    assert val.value == 0.0


def test_clf_feedback_stays_in_a_non_dyadic_control_box():
    # the mesh is snapped to the 2^-44 lattice, whose nearest points to -0.8
    # and 0.6 lie outside [-0.8, 0.6]; the optimal controls sit at the ends
    prob = replace(integrator_problem(), control_box=Hypercube.interval(-0.8, 0.6))
    for x, end in ((0.5, -0.8), (-0.5, 0.6)):
        u, _ = clf_feedback(prob, np.array([x]), 0.05)
        assert u[0] == end
    for x in np.linspace(-1.0, 1.0, 41):
        u, _ = clf_feedback(prob, np.array([x]), 0.05)
        assert -0.8 <= u[0] <= 0.6


def test_clf_feedback_returns_a_control_that_owns_its_data():
    # a row view would keep the whole control mesh alive for as long as a
    # caller keeps the control
    prob = integrator_problem()
    for x in (0.5, 0.0, -0.3):
        u, _ = clf_feedback(prob, np.array([x]), 1e-3)
        assert u.base is None and u.shape == (1,)


def test_clf_feedback_consistency_in_eps():
    prob = integrator_problem()
    x = np.array([0.7])
    _, v1 = clf_feedback(prob, x, 0.4)
    _, v2 = clf_feedback(prob, x, 0.05)
    assert v2.value <= v1.value + 1e-9


def test_clf_feedback_rejects_a_batch_of_states():
    # one state (1,) per call: a batch, or a state of the wrong length, is
    # refused rather than reshaped
    prob = integrator_problem()
    for x in (np.array([[0.5], [-0.5]]), np.array([[0.5]]), np.array([0.5, 0.5]), np.array(0.5)):
        with pytest.raises(ArgumentError, match="one state"):
            clf_feedback(prob, x, 0.05)


# ---------------------------------------------------------------------------
# clf_feedback against the scan of the whole control mesh
# ---------------------------------------------------------------------------

def _random_control_box(rng):
    """Dyadic, non-dyadic, one-signed and signed-zero intervals."""
    kind = rng.integers(6)
    if kind == 0:
        lo, hi = sorted(rng.integers(-16, 17, size=2) / 8.0)
        hi = hi if hi > lo else lo + 0.125
    elif kind == 1:
        lo, hi = -float(rng.uniform(0.05, 3.0)), float(rng.uniform(0.05, 3.0))
    elif kind == 2:
        lo = float(rng.uniform(0.01, 2.0))
        hi = lo + float(rng.uniform(1e-3, 2.0))
    elif kind == 3:
        hi = -float(rng.uniform(0.01, 2.0))
        lo, hi = hi - float(rng.uniform(1e-3, 2.0)), hi
    elif kind == 4:
        lo, hi = (-0.0, float(rng.uniform(0.1, 2.0))) if rng.integers(2) else (-float(rng.uniform(0.1, 2.0)), -0.0)
    else:
        lo, hi = -0.8, 0.6
    return Hypercube.interval(float(lo), float(hi))


def _eps_around_the_least_value(problem, x, eps):
    """Two eps, e0 < e1, at which the cut lies just below and exactly at the
    least node value, found by bisection over eps from eps's mesh, or None
    unless the meshes at e0 and e1 have that mesh's end values: the ties
    that the cut test v <= cut decides."""
    box, g = problem.control_box, float(problem.V.derivative(np.array([x]))[0])

    def ends(e):  # the least value and r_g of the mesh at e
        vals = np.clip(build_mesh(box, (e / 2.0) / abs(g)).points[:, 0], box.lo, box.hi) * g + 0.0
        return vals.min(), 1e-12 * (1.0 + np.abs(vals).max())

    low, r_g = ends(eps)
    cut = lambda e: low + e / 2.0 - 2.0 * r_g
    below, above = 0.0, 4.0 * eps  # cut(below) < low <= cut(above)
    while below < (mid := (below + above) / 2.0) < above:
        below, above = (below, mid) if cut(mid) >= low else (mid, above)
    same = ends(below) == ends(above) == (low, r_g)
    return (below, above) if same and cut(below) < low == cut(above) else None


def test_clf_feedback_matches_the_mesh_scan():
    # the bisection over the node index returns the mesh scan's control,
    # value and radius bit for bit
    def check(problem, x, eps):
        u, cert = clf_feedback(problem, np.array([x]), eps)
        u_ref, cert_ref = clf_feedback_mesh_scan(problem, np.array([x]), eps)
        assert u.tobytes() == u_ref.tobytes(), (problem.control_box.lo, problem.V.coeffs, x, eps)
        assert (cert.value, cert.radius) == (cert_ref.value, cert_ref.radius)
        assert math.copysign(1.0, cert.value) == math.copysign(1.0, cert_ref.value)
        return u[0]

    # random boxes, random polynomial V (V' = 0 at some states), x = 0 and
    # eps from 1e-4 to 1
    rng = np.random.default_rng(33)
    cases = 0
    while cases < 10_000:
        box = _random_control_box(rng)
        degree = int(rng.integers(1, 6))
        coeffs = rng.uniform(-2.0, 2.0, degree + 1)
        if rng.integers(4) == 0:
            coeffs = np.round(coeffs * 4) / 4  # dyadic coefficients: exact zeros of V'
        problem = replace(integrator_problem(V=poly(coeffs)), control_box=box)
        for _ in range(8):
            x = float(rng.choice([0.0, rng.uniform(-2.0, 2.0), rng.integers(-16, 17) / 8.0]))
            check(problem, x, float(10.0 ** rng.uniform(-4.0, 0.0)))
            cases += 1
    # node values lie at least about eps / 2 apart in those cases, so the
    # first node within the cut is an end node.  Only nodes finer than the
    # 2^-44 lattice, which snap onto one lattice point, put it inside: boxes
    # 1e-10 to 1e-9 wide near 0, V = c x with 1e3 <= |c| <= 1e4 and eps
    # near 4 r_g, the least eps with any node within the cut; for c < 0
    # also the eps at which the cut is exactly the least value, and the eps
    # just below it
    inside = ties = 0
    for _ in range(1_000):
        lo = float(rng.uniform(-0.01, 0.01))
        box = Hypercube.interval(lo, lo + float(10.0 ** rng.uniform(-10.0, -9.0)))
        c = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(3.0, 4.0))
        problem = replace(integrator_problem(V=poly([0.0, c])), control_box=box)
        r_g = 1e-12 * (1.0 + abs(c) * max(abs(box.lo[0]), abs(box.hi[0])))
        eps = 4.0 * r_g * float(rng.uniform(1.0, 1.5))
        u = check(problem, 0.3, eps)
        inside += box.lo[0] < u < box.hi[0] and u != build_mesh(box, (eps / 2.0) / abs(c)).points[-1, 0]
        tie = _eps_around_the_least_value(problem, 0.3, eps) if c < 0 else None
        if tie is not None:
            check(problem, 0.3, tie[0])
            check(problem, 0.3, tie[1])
            ties += 1
    assert inside > 150 and ties > 150, (inside, ties)
    # V' so small that the mesh stays small near eps = 4e-12: the cut at the
    # least value, and eps below it, where no node is within the cut
    for s in (1.0, -1.0):
        problem = replace(integrator_problem(V=poly([0.0, s * 1e-8])), control_box=Hypercube.interval(-0.8, 0.6))
        none, least = _eps_around_the_least_value(problem, 0.5, 4e-12)
        assert (check(problem, 0.5, none), check(problem, 0.5, least)) == (-0.8, -0.8 if s > 0 else 0.6)
        for eps in np.geomspace(1e-13, 3e-12, 20):
            assert check(problem, 0.5, float(eps)) == -0.8


def test_clf_feedback_never_builds_the_control_mesh(monkeypatch):
    # a control box 10^5 wide would need 2 * 10^7 mesh nodes at x = 1
    import certctrl.core as core
    import certctrl.stability as stab

    def refuse(*args, **kwargs):
        raise AssertionError("clf_feedback built a mesh")

    monkeypatch.setattr(core, "build_mesh", refuse)
    assert not hasattr(stab, "build_mesh")
    wide = replace(integrator_problem(), control_box=Hypercube.interval(-1.0, 1e5))
    for problem in (integrator_problem(), wide):
        for x in (1.0, 0.5, 0.0, -0.3):
            u, _ = clf_feedback(problem, np.array([x]), 0.01)
            assert problem.control_box.contains(u)
    assert clf_feedback(wide, np.array([1.0]), 0.01)[0][0] == -1.0
    assert clf_feedback(wide, np.array([-1.0]), 0.01)[0][0] == 1e5


# ---------------------------------------------------------------------------
# sampling time
# ---------------------------------------------------------------------------

def test_clf_problem_needs_the_origin_centred_cube_in_the_state_box():
    with pytest.raises(ArgumentError, match=r"\[-R, R\]"):
        integrator_problem(0.1, 1.5, Hypercube(np.array([2.5]), 4.0))  # [0.5, 4.5]
    with pytest.raises(ArgumentError):
        integrator_problem(0.1, 1.2, Hypercube(np.array([1.0]), 4.0))  # [-1, 3]
    with pytest.raises(ArgumentError):  # the box ends are compared exactly
        integrator_problem(0.1, 1.0, Hypercube.interval(-0.9999999999995, 2.0))
    integrator_problem(0.1, 1.0, Hypercube(np.array([1.0]), 4.0))
    integrator_problem(0.1, 1.0, Hypercube.interval(-1.0, 1.0))

def test_clf_problem_refuses_a_trig_V_and_planar_boxes():
    # the sampling time is proved for a polynomial V on intervals: a trig V
    # and a planar state or control box are refused when the problem is made
    trig = build_scalar_form({"form": "trig", "terms": [[1.0, 1.0, 0.0]]})
    with pytest.raises(ArgumentError, match="polynomial V"):
        integrator_problem(V=trig)
    for box in ({"state_box": Hypercube(np.zeros(2), 4.0)}, {"control_box": Hypercube(np.zeros(2), 2.0)}):
        with pytest.raises(ArgumentError, match="one-dimensional"):
            replace(integrator_problem(), **box)


def test_find_sampling_time_integrator_certifies():
    (res,) = find_sampling_time(integrator_problem(), 1.0, [0.01])
    assert res.ok
    # alpha = 2 r = 0.2, S2 = 2 and M = 1: eta = alpha - eps' - eps, with
    # eps' = eps + 2e-12 (1 + sup|V'| M) = 0.01 + 1e-11
    assert res.details == {"alpha": 0.2, "eps_prime": 0.010000000010000001,
                           "curvature": 2.0, "control_bound": 1.0}
    assert res.eta == 0.17999999999 and res.margin >= 0.0


def test_find_sampling_time_uncontrollable_failure():
    # u in [0.5, 1] cannot push a state x > 0 toward the origin: no decay
    # direction there, and no eps-optimal u = 0 to refute with (undecided)
    prob = replace(integrator_problem(), control_box=Hypercube.interval(0.5, 1.0))
    (res,) = find_sampling_time(prob, 0.5, [0.01])
    assert res.verdict == "undecided" and res.eta is None
    assert res.diagnosis.startswith("clf_inadequate")
    assert res.details["alpha"] < 0 and res.details["missing_margin"] > 0


def test_find_sampling_time_refutes_with_an_eps_optimal_zero_control():
    # eps = 0.5 > 2 r: u = 0 is eps-optimal just outside the target ball,
    # so the state may stay there forever
    (res,) = find_sampling_time(integrator_problem(), 1.0, [0.5])
    assert res.verdict == "failure" and res.diagnosis.startswith("optimizer_tolerance")
    x = res.details["witness"]
    assert abs(x) > 0.1
    # -D(x) = 2 |x| over u in [-1, 1]: holding u = 0 is within eps of the best rate
    assert 2 * abs(Fraction(x)) <= Fraction(0.5)


def test_find_sampling_time_needs_V_to_grow_out_to_the_box_end():
    # V = -x^2 has no decay direction; V = x^2 - x^4 / 4 decays on the
    # annulus 0.1 <= |x| <= 1, but V' = 2x - x^3 turns negative beyond
    # sqrt(2) < 2, where a falling V would let the state drift outward
    for coeffs in ([0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0, -0.25]):
        V = build_scalar_form({"form": "polynomial", "coeffs": coeffs})
        (res,) = find_sampling_time(integrator_problem(V=V), 1.0, [0.01])
        assert res.verdict == "undecided" and res.diagnosis.startswith("clf_inadequate")
    assert res.details["alpha"] > 0.19


def test_find_sampling_time_certified_loop_enters_ball():
    # x' = u is solved exactly by x + eta u: from dyadic states of the
    # annulus the loop under clf_feedback loses at least eta eps of V per
    # interval, stays inside |x| <= R and enters the target ball
    prob, eps = integrator_problem(), 0.01
    eta = Fraction(find_sampling_time(prob, 1.0, [eps])[0].eta)
    r = Fraction(prob.target_radius)
    for k in range(-256, 257):
        x = Fraction(k, 256)
        for _ in range(20):
            if abs(x) < r:
                break
            u = Fraction(float(clf_feedback(prob, np.array([float(x)]), eps)[0][0]))
            y = x + eta * u
            assert x * x - y * y >= eta * Fraction(eps) and abs(y) <= 1
            x = y
        assert abs(x) < r


def _shh_config(name):
    base = {"dynamics": "integrator", "control_box": [-1, 1], "state_box": [-2, 2],
            "target_radius": 0.1, "overshoot_radius": 1.0, "eta_max": 1.0}
    if name == "example":
        return json.loads((Path(__file__).parents[1] / "examples" / "shh.json").read_text())
    if name == "asymmetric":
        return {**base, "control_box": [-0.8, 0.6], "target_radius": 0.15,
                "overshoot_radius": 0.9, "optimizer_eps": 0.03}
    return {**base, "optimizer_eps": 0.05}  # the audit's


def _shh_sampling_time(config, eps=None):
    problem = cli._shh_problem(config)
    eps = config["optimizer_eps"] if eps is None else eps
    (res,) = find_sampling_time(problem, config["eta_max"], [eps])
    return problem, problem.V, res


def test_shh_example_decreases_at_the_inner_rim():
    # x = 0.1 + 2^-20 lies just outside the target ball, where no annulus
    # mesh node is; clf_feedback holds u = -1 there
    config = _shh_config("example")
    problem, _, res = _shh_sampling_time(config)
    eps, x = config["optimizer_eps"], 0.1 + 2.0**-20
    u = clf_feedback(problem, np.array([x]), eps)[0][0]
    assert u == -1.0
    X, eta = Fraction(x), Fraction(res.eta)
    assert (X + eta * Fraction(u)) ** 2 - X**2 <= -eta * Fraction(eps)


@pytest.mark.parametrize("name", ["example", "asymmetric", "audit"])
def test_sampling_time_holds_at_every_dyadic_annulus_state(name):
    config = _shh_config(name)
    problem, V, res = _shh_sampling_time(config)
    assert res.ok
    eps, r, R = config["optimizer_eps"], config["target_radius"], config["overshoot_radius"]
    radii = {r, math.nextafter(r, math.inf), r + 2.0**-20}
    radii |= {k / 512 for k in range(513) if r <= k / 512 <= R}
    xs = np.array(sorted(s * rho for rho in radii for s in (1.0, -1.0)))
    box = (problem.control_box.lo[0], problem.control_box.hi[0])
    for x in xs:
        u = clf_feedback(problem, np.array([x]), eps)[0][0]
        for surplus, inside in sample_hold_step(V.coeffs, box, R, res.eta, eps, x, u):
            assert surplus >= 0 and inside, (x, u)


@pytest.mark.parametrize("name", ["example", "asymmetric", "audit"])
def test_sampling_time_does_not_grow_with_eps(name):
    config = _shh_config(name)
    etas = [_shh_sampling_time(config, e)[2].eta or 0.0 for e in np.linspace(1e-3, 0.2, 41)]
    assert etas[0] > 0 and etas[-1] == 0.0
    assert all(b <= a for a, b in zip(etas, etas[1:]))


@pytest.mark.parametrize("name", ["example", "asymmetric", "audit"])
def test_reaching_bound_covers_the_exact_closed_loop(name):
    # from dyadic states of |x| <= R, the loop x <- x + eta u under
    # clf_feedback, in exact arithmetic, is inside |x| <= r within
    # reaching_steps steps; 0 steps from inside the ball
    config = _shh_config(name)
    problem, V, res = _shh_sampling_time(config)
    eps, r, R = config["optimizer_eps"], config["target_radius"], config["overshoot_radius"]
    eta = Fraction(res.eta)
    starts = [s * k / 64 for k in range(65) if k / 64 <= R for s in (1.0, -1.0)] + [R, -R]
    for x0 in starts:
        bound = reaching_steps(problem, res, eps, x0)
        x, steps = Fraction(x0), 0
        while abs(x) > Fraction(r):
            u = clf_feedback(problem, np.array([float(x)]), eps)[0][0]
            x, steps = x + eta * Fraction(float(u)), steps + 1
            assert steps <= bound and abs(x) <= R, (x0, steps, bound)
        if abs(x0) <= r:
            assert bound == 0


def test_reaching_bound_needs_a_certified_eta_and_a_start_within_R():
    config = _shh_config("audit")
    problem, V, res = _shh_sampling_time(config)
    with pytest.raises(ArgumentError):
        reaching_steps(problem, res, 0.05, math.nextafter(1.0, 2.0))
    _, _, refuted = _shh_sampling_time(config, 0.5)
    with pytest.raises(ArgumentError):
        reaching_steps(problem, refuted, 0.5, 1.0)
