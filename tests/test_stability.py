import math
from fractions import Fraction

import numpy as np
import pytest

import certctrl.stability as stability
from certctrl.core import (
    ArgumentError,
    ContractError,
    DomainExitError,
    Hypercube,
    ResourceBudgetError,
    build_mesh,
)
from certctrl.stability import (
    CLFProblem,
    Comparator,
    LyapunovData,
    certify,
    check_decay,
    check_linear_growth,
    check_sandwich,
    clf_feedback,
    find_sampling_time,
    _annulus_nodes,
    _simulate_closed_loop,
)
from certctrl.forms import build_comparator
from certctrl.trajectories import ControlledDynamics, RegularRHS, picard_solve

BOX = Hypercube(np.array([0.0]), 2.0)  # [-1, 1]


def comparator(coeffs, name=""):
    return build_comparator({"form": "radial_poly", "coeffs": coeffs}, name)


W_HALF_SQ = comparator([0.0, 0.5], "x^2/2")
W_TWO_SQ = comparator([0.0, 2.0], "2x^2")
W_TWO_ABS = comparator([2.0], "2|x|")
W_ABS = comparator([1.0], "|x|")
W_SQ = comparator([0.0, 1.0], "x^2")
W_QUARTIC = comparator([0.0, 0.0, 0.0, 1.0], "x^4")


def lyapunov(f, w1=W_HALF_SQ, w2=W_TWO_ABS, w3=W_SQ, V=(0.0, 0.0, 1.0)):
    """V (x^2 by default) along x' = f(x), both by their coefficients."""
    return LyapunovData(V=V, f=f, w1=w1, w2=w2, w3=w3, xi=1.0)


def lyapunov_decay(vdot_factor=-2.0, w3=W_SQ):
    # V = x^2 along x' = (vdot_factor/2) x
    return lyapunov((0.0, vdot_factor / 2.0), w3=w3)


def _poly(coeffs, x):
    return sum(Fraction(c) * x**k for k, c in enumerate(coeffs))


def _conditions(data, x):
    """V - w1, w2 - V and -V'f - w3 at the rational x, exactly."""
    V, r = _poly(data.V, x), abs(x)
    dV = _poly([k * Fraction(c) for k, c in enumerate(data.V)][1:], x)
    return V - data.w1.exact(r), data.w2.exact(r) - V, -dV * _poly(data.f, x) - data.w3.exact(r)


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
    monkeypatch.setattr(stability, "_BERNSTEIN_BOXES", 1)
    res = check_sandwich(data, half)
    assert res.verdict == "undecided" and res.margin == 0.0625  # the two open halves


def test_lyapunov_data_rejects_bad_coefficients_and_xi():
    for V, f in (((0.0, math.inf), (0.0, -1.0)), ((0.0, 0.0, 1.0), (math.nan,))):
        with pytest.raises(ArgumentError):
            LyapunovData(V, f, W_HALF_SQ, W_TWO_ABS, W_SQ, 1.0)
    for xi in (0.0, math.nan):
        with pytest.raises(ArgumentError):
            LyapunovData((0.0, 0.0, 1.0), (0.0, -1.0), W_HALF_SQ, W_TWO_ABS, W_SQ, xi)


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
    V, f = _on_grid(data.V, n), _on_grid(data.f, n)
    dV = _on_grid([k * Fraction(c) for k, c in enumerate(data.V)][1:], n)
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
    x0s = cert.x0_set.sample(rng, BOX, 20)
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

def integrator_problem(r=0.1, R=1.0, state_box=Hypercube(np.array([0.0]), 4.0)):
    dyn = ControlledDynamics(
        f=lambda xs, u: np.broadcast_to(u, xs.shape).copy(),
        state_box=state_box,
        lip_x=0.0,
        lip_u=1.0,
        sup_bound=1.0,
    )
    return CLFProblem(
        dynamics=dyn,
        control_box=Hypercube(np.array([0.0]), 2.0),  # [-1, 1]
        V=lambda xs: xs[:, 0] ** 2,
        grad_V=lambda x: 2.0 * x,
        v_lipschitz=4.0,
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


def test_clf_feedback_control_affine_example():
    # x' = x + u x^2, V = x^2 at x = 0.5, U = [-4, 0]: minimize 2x(x + u x^2)
    dyn = ControlledDynamics(
        f=lambda xs, us: xs + us[:, :1] * xs ** 2,
        state_box=Hypercube(np.array([0.0]), 4.0),
        lip_x=1.0,
        lip_u=1.0,
        sup_bound=10.0,
    )
    prob = CLFProblem(
        dynamics=dyn,
        control_box=Hypercube(np.array([-2.0]), 4.0),  # [-4, 0]
        V=lambda xs: xs[:, 0] ** 2,
        grad_V=lambda x: 2.0 * x,
        v_lipschitz=4.0,
        target_radius=0.1,
        overshoot_radius=1.0,
    )
    u, val = clf_feedback(prob, np.array([0.5]), 0.05)
    # DERIVED: 2x(x + u x^2) = 0.5 + 0.25 u, minimized at u = -4
    assert u[0] == pytest.approx(-4.0)
    assert val.value == pytest.approx(0.5 + 0.25 * -4.0, abs=1e-9)


def test_clf_feedback_consistency_in_eps():
    prob = integrator_problem()
    x = np.array([0.7])
    _, v1 = clf_feedback(prob, x, 0.4)
    _, v2 = clf_feedback(prob, x, 0.05)
    assert v2.value <= v1.value + 1e-9


# ---------------------------------------------------------------------------
# sampling time
# ---------------------------------------------------------------------------

def test_find_sampling_time_integrator_certifies():
    prob = integrator_problem()
    eps = 0.01
    kappa = lambda x: clf_feedback(prob, x, eps)[0]
    res = find_sampling_time(prob, kappa, 1.0, eps, mesh_eps=0.1, resolution=1e-3)
    assert res.ok
    assert res.eta is not None and res.eta > 0
    assert res.margin is not None


def test_find_sampling_time_uncontrollable_failure():
    dyn = ControlledDynamics(
        f=lambda xs, u: xs.copy(),  # x' = x regardless of control
        state_box=Hypercube(np.array([0.0]), 4.0),
        lip_x=1.0,
        lip_u=0.0,
        sup_bound=2.0,
    )
    prob = CLFProblem(
        dynamics=dyn,
        control_box=Hypercube(np.array([0.0]), 1e-6),
        V=lambda xs: xs[:, 0] ** 2,
        grad_V=lambda x: 2.0 * x,
        v_lipschitz=4.0,
        target_radius=0.1,
        overshoot_radius=1.0,
    )
    kappa = lambda x: clf_feedback(prob, x, 0.01)[0]
    res = find_sampling_time(prob, kappa, 0.5, 0.01, mesh_eps=0.1, resolution=1e-2)
    assert not res.ok
    assert res.diagnosis.startswith("clf_inadequate")


def test_find_sampling_time_certified_loop_enters_ball():
    prob = integrator_problem()
    eps = 0.01
    kappa = lambda x: clf_feedback(prob, x, eps)[0]
    res = find_sampling_time(prob, kappa, 1.0, eps, mesh_eps=0.1, resolution=1e-3)
    assert res.ok
    for x0 in _annulus_nodes(prob, 0.1):
        ok, _, samples = _simulate_closed_loop(
            prob, kappa, x0, res.eta, eps, 1e-9, max_steps=200
        )
        assert ok
        assert min(np.linalg.norm(s) for s in samples) <= 0.1 + 1e-6


def test_annulus_is_meshed_around_the_origin():
    # the state box [-1, 3] is centred at 1; the annulus 0.1 <= |x| <= 0.8
    # is centred at the origin
    prob = integrator_problem(0.1, 0.8, Hypercube(np.array([1.0]), 4.0))
    mesh_eps = 0.1
    nodes = _annulus_nodes(prob, mesh_eps)[:, 0]
    assert np.all((np.abs(nodes) >= 0.1) & (np.abs(nodes) <= 0.8 + 1e-12))
    assert sorted(nodes) == sorted(-nodes)
    xs = np.linspace(-0.8, 0.8, 3201)
    xs = xs[np.abs(xs) >= 0.1]
    dist = np.abs(xs[:, None] - nodes[None, :]).min(axis=1)
    # within mesh_eps of the inner sphere the nearest mesh node may lie in
    # the target ball, where no node runs
    assert np.all(dist[np.abs(xs) >= 0.1 + mesh_eps] <= mesh_eps)


def test_clf_problem_needs_the_origin_centred_cube_in_the_state_box():
    with pytest.raises(ArgumentError, match=r"\[-R, R\]"):
        integrator_problem(0.1, 1.5, Hypercube(np.array([2.5]), 4.0))  # [0.5, 4.5]
    with pytest.raises(ArgumentError):
        integrator_problem(0.1, 1.2, Hypercube(np.array([1.0]), 4.0))  # [-1, 3]
    integrator_problem(0.1, 1.0, Hypercube(np.array([1.0]), 4.0))


def _counting_search(monkeypatch, prob, kappa, *args, **kwargs):
    """find_sampling_time with every build_mesh call and kappa call
    recorded: returns (result, control mesh division counts, kappa inputs)."""
    divisions, inputs = [], []

    def counted_mesh(box, eps, *a, **k):
        if box == prob.control_box:
            divisions.append(stability.mesh_divisions(box, eps))
        return build_mesh(box, eps, *a, **k)

    def counted_kappa(x):
        inputs.append(np.array(x, copy=True))
        return kappa(x)

    monkeypatch.setattr(stability, "build_mesh", counted_mesh)
    res = find_sampling_time(prob, counted_kappa, *args, **kwargs)
    return res, divisions, inputs


@pytest.mark.parametrize("eps", [0.01, 0.5])
def test_sampling_time_search_reuses_meshes_and_kappa_at_the_nodes(monkeypatch, eps):
    prob = integrator_problem(0.1, 0.9)  # the annulus mesh box is not the control box
    kappa = lambda x: clf_feedback(prob, x, eps)[0]
    res, divisions, inputs = _counting_search(
        monkeypatch, prob, kappa, 1.0, eps, mesh_eps=0.1, resolution=5e-4
    )
    assert res.ok == (eps < 0.5)  # the failure runs the diagnosis as well
    assert len(divisions) == len(set(divisions)) == len(prob.control_meshes) > 1
    nodes = _annulus_nodes(prob, 0.1)
    assert sum(x.shape == nodes.shape and np.array_equal(x, nodes) for x in inputs) == 1
    assert res.details["probes"] > 1
    assert res.details["kappa_calls"] == len(inputs) < res.details["intervals"]
    assert res.details["control_meshes_built"] == len(divisions)
    # a second search on the same problem builds no control mesh
    again, divisions, _ = _counting_search(
        monkeypatch, prob, kappa, 1.0, eps, mesh_eps=0.1, resolution=5e-4
    )
    assert (again.verdict, again.eta, again.margin) == (res.verdict, res.eta, res.margin)
    assert divisions == [] and again.details["control_meshes_built"] == 0


def test_sampling_time_search_skips_kappa_when_no_probe_starts():
    # the reserve eta * eps exceeds the target radius for every probe eta
    prob = integrator_problem()
    calls = []
    kappa = lambda x: calls.append(x) or clf_feedback(prob, x, 20.0)[0]
    res = find_sampling_time(prob, kappa, 1.0, 20.0, mesh_eps=0.1, resolution=1e-2)
    assert not res.ok and calls == []
    assert res.details["probes"] == 7
    assert res.details["kappa_calls"] == res.details["intervals"] == 0


def test_find_sampling_time_propagates_dynamics_faults():
    # clf_feedback evaluates f on all (state, control node) rows at once and
    # the Picard step on whole grids: a dynamics that breaks on more than one
    # row is a bug, not a failed eta
    def one_state_only(xs, us):
        if xs.shape[0] != 1:
            raise TypeError("dynamics written for a single state row")
        return us.copy()

    dyn = ControlledDynamics(
        f=one_state_only,
        state_box=Hypercube(np.array([0.0]), 4.0),
        lip_x=1.0,  # an overestimate for the integrator; gives a multi-node grid
        lip_u=1.0,
        sup_bound=1.0,
    )
    prob = CLFProblem(
        dynamics=dyn,
        control_box=Hypercube(np.array([0.0]), 2.0),
        V=lambda xs: xs[:, 0] ** 2,
        grad_V=lambda x: 2.0 * x,
        v_lipschitz=4.0,
        target_radius=0.1,
        overshoot_radius=1.0,
    )
    kappa = lambda x: clf_feedback(prob, x, 0.01)[0]
    with pytest.raises(TypeError, match="single state row"):
        find_sampling_time(prob, kappa, 1.0, 0.01, mesh_eps=0.1, resolution=1e-2)


# ---------------------------------------------------------------------------
# batched clf_feedback against the per-control-node loop
# ---------------------------------------------------------------------------

def _feedback_one_by_one(problem, x, eps):
    """clf_feedback for one state, one dynamics call per control node."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = np.asarray(problem.grad_V(x[None, :]), dtype=float)[0]
    lip_g = float(np.linalg.norm(g)) * problem.dynamics.lip_u
    if lip_g == 0.0:
        mesh = build_mesh(problem.control_box, problem.control_box.diameter)
    else:
        mesh = build_mesh(problem.control_box, (eps / 2.0) / lip_g)
    vals = np.empty(len(mesh))
    for j in range(len(mesh)):
        f = problem.dynamics.f(x[None, :], mesh.points[j][None, :])
        vals[j] = float(g @ f[0])
    r_g = 1e-12 * (1.0 + float(np.abs(vals).max()))
    cut = vals.min() + eps / 2.0 - 2.0 * r_g
    idx = int(np.argmax(vals <= cut))
    return mesh.points[idx], vals[idx], eps / 2.0 + 2.0 * r_g


def planar_problem():
    # x1' = x2 + u1 x1, x2' = -x1 + u2 + 0.3 u1 x2 on [-1, 1]^2, V = x1^2 + 2 x2^2
    def f(xs, us):
        return np.stack(
            [xs[:, 1] + us[:, 0] * xs[:, 0], -xs[:, 0] + us[:, 1] + 0.3 * us[:, 0] * xs[:, 1]],
            axis=1,
        )

    dyn = ControlledDynamics(
        f=f, state_box=Hypercube(np.zeros(2), 2.0), lip_x=2.0, lip_u=1.5, sup_bound=4.0
    )
    return CLFProblem(
        dynamics=dyn,
        control_box=Hypercube(np.array([0.0, 0.25]), 1.5),
        V=lambda xs: xs[:, 0] ** 2 + 2.0 * xs[:, 1] ** 2,
        grad_V=lambda xs: np.stack([2.0 * xs[:, 0], 4.0 * xs[:, 1]], axis=1),
        v_lipschitz=6.0,
        target_radius=0.1,
        overshoot_radius=1.0,
    )


def test_clf_feedback_batch_matches_per_node_loop(monkeypatch):
    prob = planar_problem()
    rng = np.random.default_rng(17)
    xs = np.vstack([
        rng.uniform(-1.0, 1.0, size=(9, 2)),
        [[0.0, 0.0]],  # grad V = 0: the single-node mesh
        [[0.6, 0.0]],  # value 2 x1^2 u1 ignores u2: a tie along u2
        [[-0.6, 0.0]],  # the same mesh as the row above
    ])
    eps = 0.2
    ref = [_feedback_one_by_one(prob, x, eps) for x in xs]
    assert len(build_mesh(prob.control_box, prob.control_box.diameter)) == 1
    u_tie, v_tie, _ = ref[10]
    mesh = build_mesh(prob.control_box, (eps / 2.0) / (1.2 * 1.5)).points
    ties = np.flatnonzero(mesh[:, 0] == u_tie[0])
    assert ties.size > 1 and mesh[ties[0], 1] == u_tie[1]  # lowest index of the tie
    for pairs in (stability._FEEDBACK_PAIRS, 7, 1):  # one block, several, one row each
        monkeypatch.setattr(stability, "_FEEDBACK_PAIRS", pairs)
        us, certs = clf_feedback(prob, xs, eps)
        assert us.shape == (len(xs), 2) and len(certs) == len(xs)
        for (u, value, radius), ub, cert in zip(ref, us, certs):
            assert ub.tobytes() == u.tobytes()
            assert (cert.value, cert.radius) == (value, radius)
    for x, (u, value, radius) in zip(xs, ref):
        u1, cert = clf_feedback(prob, x, eps)
        assert u1.tobytes() == u.tobytes()
        assert (cert.value, cert.radius) == (value, radius)


# ---------------------------------------------------------------------------
# lockstep closed loop against the node-by-node reference
# ---------------------------------------------------------------------------

def _one_node(problem, kappa, x0, eta, eps, eps_loc, max_steps):
    """The closed loop of one node with one picard_solve per interval;
    returns (ok, margin, steps taken)."""
    dyn = problem.dynamics
    reserve = eta * eps
    entry_cut = problem.target_radius - reserve - 2.0 * eps_loc
    if entry_cut <= 0:
        return False, -math.inf, 0
    x = np.asarray(x0, dtype=float).copy()
    margin = math.inf
    for step in range(max_steps):
        if np.linalg.norm(x) <= entry_cut:
            return True, margin, step
        u = np.atleast_1d(np.asarray(kappa(x), dtype=float))
        rhs = RegularRHS.single(
            lambda xs, ts, u=u: dyn.f(xs, np.repeat(u[None, :], xs.shape[0], axis=0)),
            eta, dyn.state_box, dyn.lip_x, dyn.sup_bound,
        )
        try:
            sol = picard_solve(rhs, x, eta, eps_loc)
        except (DomainExitError, ResourceBudgetError, ContractError):
            return False, -math.inf, step
        x_new = sol.endpoint
        v0 = float(problem.V(x[None, :])[0])
        v1 = float(problem.V(x_new[None, :])[0])
        slack = problem.v_lipschitz * sol.error_bound.value + 2.0 * problem.v_radius
        entered = np.linalg.norm(x_new) <= entry_cut
        dec = v0 - v1
        if not entered:
            need = reserve + slack
            if dec < need:
                return False, dec - need, step
            margin = min(margin, dec - need)
        x = x_new
    return False, -math.inf, max_steps


def _nodes_one_by_one(problem, kappa, nodes, eta, eps, eps_loc, max_steps):
    """On failure the margin of the lowest-index node among those failing
    at the earliest failing step; otherwise the worst margin."""
    outcomes = [_one_node(problem, kappa, x0, eta, eps, eps_loc, max_steps) for x0 in nodes]
    failing = [(steps, i) for i, (ok, _, steps) in enumerate(outcomes) if not ok]
    if failing:
        return False, outcomes[min(failing)[1]][1]
    worst = math.inf
    for _, margin, _ in outcomes:
        worst = min(worst, margin)
    return True, worst


def _sampling_time_one_by_one(problem, kappa, eta_max, eps, mesh_eps, resolution, eps_loc=None):
    """find_sampling_time running the annulus nodes one by one and probing
    the diagnosis one node at a time."""
    nodes = _annulus_nodes(problem, mesh_eps)

    def certified(eta):
        max_steps = max(20, math.ceil(6.0 * problem.overshoot_radius / eta))
        el = eps_loc if eps_loc is not None else max(1e-12, eta * eps / 100.0)
        return _nodes_one_by_one(problem, kappa, nodes, eta, eps, el, max_steps)

    eta_lo = margin_lo = None
    probe = eta_max
    while probe >= resolution:
        ok, margin = certified(probe)
        if ok:
            eta_lo, margin_lo = probe, margin
            break
        probe /= 2.0
    if eta_lo is None:
        worst_rate = -math.inf
        for x0 in nodes:
            _, val = clf_feedback(problem, x0, min(eps, 1e-3))
            worst_rate = max(worst_rate, val.value + val.radius)
        if worst_rate >= 0:
            diagnosis = (
                f"clf_inadequate: no certified decay direction at some annulus node "
                f"(best certified rate {worst_rate:+.3g})"
            )
        else:
            diagnosis = (
                f"optimizer_tolerance: decay exists (worst certified rate {worst_rate:+.3g}) "
                f"but the optimizer tolerance eps={eps} consumes the decrease reserve"
            )
        return "failure", None, None, diagnosis
    if eta_lo == eta_max:
        return "certified", eta_max, margin_lo, ""
    lo, hi = eta_lo, min(2.0 * eta_lo, eta_max)
    best_margin = margin_lo
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        ok, margin = certified(mid)
        if ok:
            lo, best_margin = mid, margin
        else:
            hi = mid
    return "certified", lo, best_margin, ""


def _same_sampling_time(prob, kappa, eta_max, eps, mesh_eps, resolution, eps_loc=None):
    res = find_sampling_time(prob, kappa, eta_max, eps, mesh_eps=mesh_eps,
                             resolution=resolution, eps_loc=eps_loc)
    ref = _sampling_time_one_by_one(prob, kappa, eta_max, eps, mesh_eps, resolution, eps_loc)
    assert (res.verdict, res.eta, res.margin, res.diagnosis) == ref
    return res


def _same_closed_loop(prob, kappa, nodes, eta, eps, eps_loc, max_steps):
    ok, margin, samples = _simulate_closed_loop(prob, kappa, nodes, eta, eps, eps_loc, max_steps)
    assert (ok, margin) == _nodes_one_by_one(prob, kappa, nodes, eta, eps, eps_loc, max_steps)
    return ok, margin


@pytest.mark.parametrize("eps", [0.01, 0.1, 0.5])
def test_lockstep_sampling_time_integrator(eps):
    prob = integrator_problem()
    kappa = lambda x: clf_feedback(prob, x, eps)[0]
    res = _same_sampling_time(prob, kappa, 1.0, eps, 0.1, 5e-4)
    assert res.ok == (eps < 0.5)
    nodes = _annulus_nodes(prob, 0.1)
    for eta in (1.0, 0.3, 0.05):
        _same_closed_loop(prob, kappa, nodes, eta, eps, max(1e-12, eta * eps / 100.0), 200)


def affine_problem(r):
    # x' = x + u x |x| on [-1.5, 1.5], U = [-6, 0]: lip_x = 1, so every
    # Picard step iterates, and the rows stop at different iterations; the
    # field is odd, so the nodes below 0 mirror those above it
    dyn = ControlledDynamics(
        f=lambda xs, us: xs + us[:, :1] * xs * np.abs(xs),
        state_box=Hypercube(np.array([0.0]), 3.0),
        lip_x=1.0,
        lip_u=2.25,
        sup_bound=15.0,
    )
    return CLFProblem(
        dynamics=dyn,
        control_box=Hypercube(np.array([-3.0]), 6.0),
        V=lambda xs: xs[:, 0] ** 2,
        grad_V=lambda xs: 2.0 * xs,
        v_lipschitz=3.0,
        target_radius=r,
        overshoot_radius=0.75,
    )


@pytest.mark.parametrize("r,verdict", [(0.25, "certified"), (0.2, "failure")])
def test_lockstep_sampling_time_control_affine(r, verdict):
    prob = affine_problem(r)
    eps = 0.02
    kappa = lambda x: clf_feedback(prob, x, eps)[0]
    res = _same_sampling_time(prob, kappa, 1.0, eps, 0.05, 4e-3, eps_loc=1e-3)
    assert res.verdict == verdict
    nodes = _annulus_nodes(prob, 0.05)
    for eta in (1.0, 0.5, 0.125):
        _same_closed_loop(prob, kappa, nodes, eta, eps, 1e-3, 40)


def _stalling_kappa(zones):
    """-0.3 sign(x), except a near-zero push inside the given intervals,
    where V cannot fall by the reserve."""
    def kappa(x):
        x = np.asarray(x, dtype=float)
        u = -0.3 * np.sign(x)
        for lo, hi in zones:
            u = np.where((lo <= x) & (x <= hi), -1e-4 * np.sign(x) * (1.0 + x * x), u)
        return u
    return kappa


def test_lockstep_reports_lowest_node_of_earliest_failing_interval():
    prob = integrator_problem()
    nodes = _annulus_nodes(prob, 0.1)
    kappa = _stalling_kappa([(-0.62, -0.5), (0.95, 1.0)])
    eta, eps, el = 0.2, 1e-3, 2e-6
    outcomes = [_one_node(prob, kappa, x0, eta, eps, el, 200) for x0 in nodes]
    # the last node fails at once, alone; the first one only after several
    # steps, with a different margin
    assert [i for i, (ok, _, steps) in enumerate(outcomes) if not ok and steps == 0] == [
        len(nodes) - 1
    ]
    assert not outcomes[0][0] and outcomes[0][2] > 2
    assert outcomes[0][1] != outcomes[-1][1]
    # the loop stops in the first interval, so it reports the last node
    ok, margin = _same_closed_loop(prob, kappa, nodes, eta, eps, el, 200)
    assert (ok, margin) == (False, outcomes[-1][1])
    calls = []
    counted = lambda x: calls.append(len(x)) or kappa(x)
    assert _simulate_closed_loop(prob, counted, nodes, eta, eps, el, 200)[:2] == (ok, margin)
    assert calls == [len(nodes)]  # no interval after the failing one
    for eta in (1.0, 0.5, 0.35, 0.1):
        _same_closed_loop(prob, kappa, nodes, eta, eps, el, 200)
    _same_sampling_time(prob, kappa, 1.0, eps, 0.1, 1e-2)


def test_lockstep_domain_exit():
    dyn = ControlledDynamics(
        f=lambda xs, us: xs + us,
        state_box=Hypercube(np.array([0.0]), 4.0),
        lip_x=1.0,
        lip_u=1.0,
        sup_bound=2.1,
    )
    prob = CLFProblem(
        dynamics=dyn,
        control_box=Hypercube(np.array([0.0]), 0.2),
        V=lambda xs: xs[:, 0] ** 2,
        grad_V=lambda xs: 2.0 * xs,
        v_lipschitz=4.0,
        target_radius=0.1,
        overshoot_radius=1.0,
    )
    eps = 0.01
    kappa = lambda x: clf_feedback(prob, x, eps)[0]
    nodes = _annulus_nodes(prob, 0.1)
    u0 = kappa(nodes[0])
    rhs = RegularRHS.single(lambda xs, ts: xs + u0, 1.0, dyn.state_box, 1.0, 2.1)
    with pytest.raises(DomainExitError):  # the first node leaves the box
        picard_solve(rhs, nodes[0], 1.0, 1e-4)
    assert _same_closed_loop(prob, kappa, nodes, 1.0, eps, 1e-4, 20) == (False, -math.inf)
    for eta in (0.5, 0.2):
        _same_closed_loop(prob, kappa, nodes, eta, eps, 1e-4, 20)
    res = _same_sampling_time(prob, kappa, 1.0, eps, 0.1, 1e-2)
    assert res.diagnosis.startswith("clf_inadequate")


def test_lockstep_max_steps_exhaustion():
    prob = integrator_problem()
    nodes = _annulus_nodes(prob, 0.1)
    kappa = lambda x: -0.02 * np.sign(np.asarray(x, dtype=float))
    eps = 1e-4
    # V falls by more than the reserve every interval, but too slowly to
    # reach the target ball within the step budget
    assert _same_closed_loop(prob, kappa, nodes, 0.25, eps, 1e-9, 24) == (False, -math.inf)
    assert _same_closed_loop(prob, kappa, nodes, 0.25, eps, 1e-9, 400)[0]
    assert _same_closed_loop(prob, kappa, nodes[:1], 0.25, eps, 1e-9, 0) == (False, -math.inf)
    res = _same_sampling_time(prob, kappa, 1.0, eps, 0.1, 1e-2)
    assert not res.ok
