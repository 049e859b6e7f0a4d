import math

import numpy as np
import pytest

from certctrl.core import ArgumentError, ContractError, Hypercube, Modulus
from certctrl.stability import (
    CLFProblem,
    Comparator,
    LyapunovData,
    SublevelSet,
    certify,
    check_decay,
    check_linear_growth,
    check_sandwich,
    clf_feedback,
    find_sampling_time,
)
from certctrl.trajectories import ControlledDynamics, RegularRHS, picard_solve

BOX = Hypercube(np.array([0.0]), 2.0)  # [-1, 1]


def comparator(fn, lip, name=""):
    def nu(x, y, f=fn):
        wy = float(f(np.atleast_2d(y))[0])
        wx = float(f(np.atleast_2d(x))[0])
        return 0.5 * (wy - wx)

    return Comparator(fn, Modulus.lipschitz(lip), nu=nu, name=name)


W_HALF_SQ = comparator(lambda xs: 0.5 * xs[:, 0] ** 2, 1.0, "x^2/2")
W_TWO_SQ = comparator(lambda xs: 2.0 * xs[:, 0] ** 2, 4.0, "2x^2")
W_TWO_ABS = comparator(lambda xs: 2.0 * np.abs(xs[:, 0]), 2.0, "2|x|")
W_ABS = comparator(lambda xs: np.abs(xs[:, 0]), 1.0, "|x|")
W_SQ = comparator(lambda xs: xs[:, 0] ** 2, 2.0, "x^2")
W_QUARTIC = comparator(lambda xs: xs[:, 0] ** 4, 4.0, "x^4")


def lyapunov_decay(vdot_factor=-2.0, w3=W_SQ):
    # V = x^2 along x' = (vdot_factor/2) x
    return LyapunovData(
        V=lambda xs, t: xs[:, 0] ** 2,
        Vdot=lambda xs, t, c=vdot_factor: c * xs[:, 0] ** 2,
        w1=W_HALF_SQ,
        w2=W_TWO_ABS,
        w3=w3,
        xi=1.0,
        v_modulus_x=Modulus.lipschitz(2.0),
        v_modulus_t=Modulus.lipschitz(0.0),
        vdot_modulus_x=Modulus.lipschitz(2.0 * abs(vdot_factor)),
    )


# ---------------------------------------------------------------------------
# sandwich
# ---------------------------------------------------------------------------

def test_sandwich_certified_quadratic():
    data = LyapunovData(
        V=lambda xs, t: xs[:, 0] ** 2,
        Vdot=lambda xs, t: -2.0 * xs[:, 0] ** 2,
        w1=W_HALF_SQ,
        w2=W_TWO_SQ,
        w3=W_SQ,
        xi=1.0,
        v_modulus_x=Modulus.lipschitz(2.0),
        v_modulus_t=Modulus.lipschitz(0.0),
        vdot_modulus_x=Modulus.lipschitz(4.0),
    )
    res = check_sandwich(data, BOX, 0.002, [0.0])
    assert res.verdict == "certified"
    assert res.margin > 0
    assert res.covered_radius is not None and res.covered_radius <= 0.5


def test_sandwich_counterexample_lower_bound_too_big():
    data = LyapunovData(
        V=lambda xs, t: xs[:, 0] ** 2,
        Vdot=lambda xs, t: -2.0 * xs[:, 0] ** 2,
        w1=W_TWO_SQ,  # 2x^2 > x^2: violated at every nonzero node
        w2=W_TWO_SQ,
        w3=W_SQ,
        xi=1.0,
        v_modulus_x=Modulus.lipschitz(2.0),
        v_modulus_t=Modulus.lipschitz(0.0),
        vdot_modulus_x=Modulus.lipschitz(4.0),
    )
    res = check_sandwich(data, BOX, 0.01, [0.0])
    assert res.verdict == "counterexample"
    x = res.counterexample["point"]
    # counterexample re-evaluated: violation exceeds 10x the radius
    v = float(x[0] ** 2)
    w1v = 2.0 * float(x[0] ** 2)
    assert v - w1v < -10 * 1e-12


def test_sandwich_time_varying_family():
    data = LyapunovData(
        V=lambda xs, t: xs[:, 0] ** 2 * (1.0 + 0.1 * math.sin(t)),
        Vdot=lambda xs, t: -2.0 * xs[:, 0] ** 2,
        w1=comparator(lambda xs: 0.8 * xs[:, 0] ** 2, 1.6, "0.8x^2"),
        w2=comparator(lambda xs: 1.2 * xs[:, 0] ** 2, 2.4, "1.2x^2"),
        w3=W_SQ,
        xi=1.0,
        v_modulus_x=Modulus.lipschitz(2.2),
        v_modulus_t=Modulus.lipschitz(0.1),
        vdot_modulus_x=Modulus.lipschitz(4.0),
    )
    # DERIVED: extrema of sin bound the family within [0.9 x^2, 1.1 x^2]
    t_samples = np.arange(0.0, 2 * math.pi + 0.05, 0.05)
    res = check_sandwich(data, BOX, 0.002, t_samples)
    assert res.verdict == "certified"


def test_sandwich_undecided_on_coarse_mesh():
    data = lyapunov_decay()
    res = check_sandwich(data, BOX, 0.5, [0.0])
    assert res.verdict == "undecided"
    assert "hint" in res.details


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------

def test_decay_certified_linear_system():
    res = check_decay(lyapunov_decay(-2.0, W_SQ), BOX, 0.002, [0.0])
    assert res.verdict == "certified"


def test_decay_counterexample_unstable_system():
    res = check_decay(lyapunov_decay(+2.0, W_SQ), BOX, 0.01, [0.0])
    assert res.verdict == "counterexample"


def test_decay_cubic_system_quartic_rate():
    # x' = -x^3, V = x^2: Vdot = -2x^4 <= -x^4 on [-1, 1]
    data = LyapunovData(
        V=lambda xs, t: xs[:, 0] ** 2,
        Vdot=lambda xs, t: -2.0 * xs[:, 0] ** 4,
        w1=W_HALF_SQ,
        w2=W_TWO_ABS,
        w3=W_QUARTIC,
        xi=1.0,
        v_modulus_x=Modulus.lipschitz(2.0),
        v_modulus_t=Modulus.lipschitz(0.0),
        vdot_modulus_x=Modulus.lipschitz(8.0),
    )
    res = check_decay(data, BOX, 0.002, [0.0])
    assert res.verdict == "certified"


# ---------------------------------------------------------------------------
# linear growth
# ---------------------------------------------------------------------------

def test_linear_growth_certified():
    res = check_linear_growth(W_TWO_ABS, 1.0, BOX, 0.05)
    assert res.verdict == "certified"
    assert res.margin == pytest.approx(1.0, abs=1e-6)


def test_linear_growth_counterexample_quadratic_flatness():
    # DERIVED: pairs with small norms violate (slope x + y < 1 near 0)
    res = check_linear_growth(W_SQ, 1.0, BOX, 0.05)
    assert res.verdict == "counterexample"


def test_linear_growth_boundary_case_undecided():
    res = check_linear_growth(W_ABS, 1.0, BOX, 0.05)
    assert res.verdict == "undecided"
    assert abs(res.margin) <= 1e-9


def test_linear_growth_rejects_bad_xi():
    with pytest.raises(ArgumentError):
        check_linear_growth(W_TWO_ABS, 0.0, BOX, 0.05)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_decay_instance_with_abs_upper_bound():
    cert = certify(lyapunov_decay(-2.0), BOX, 0.002, [0.0])
    assert cert.verdict == "certified"
    # DERIVED: X0 level solves 2|x| <= min w1 on the unit sphere = 1/2
    assert cert.x0_set is not None
    assert cert.x0_set.level == pytest.approx(0.5, abs=0.01)
    assert cert.x0_set.contains(np.array([0.24]))
    assert not cert.x0_set.contains(np.array([0.26]))


def test_certify_rejects_unstable_with_counterexample():
    cert = certify(lyapunov_decay(+2.0), BOX, 0.01, [0.0])
    assert cert.verdict == "counterexample"
    assert cert.counterexample["check"] == "decay"


def test_certify_undecided_with_quadratic_w2_growth():
    # w2 = 2x^2 fails the linear-growth condition near 0 (counterexample)
    data = LyapunovData(
        V=lambda xs, t: xs[:, 0] ** 2,
        Vdot=lambda xs, t: -2.0 * xs[:, 0] ** 2,
        w1=W_HALF_SQ,
        w2=W_TWO_SQ,
        w3=W_SQ,
        xi=1.0,
        v_modulus_x=Modulus.lipschitz(2.0),
        v_modulus_t=Modulus.lipschitz(0.0),
        vdot_modulus_x=Modulus.lipschitz(4.0),
    )
    cert = certify(data, BOX, 0.002, [0.0])
    assert cert.verdict == "counterexample"
    assert cert.counterexample["check"] == "linear_growth"


def test_certified_instance_trajectories_decrease_v():
    cert = certify(lyapunov_decay(-2.0), BOX, 0.002, [0.0])
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


def test_witness_validation_catches_bad_nu():
    bad = Comparator(
        lambda xs: np.abs(xs[:, 0]),
        Modulus.lipschitz(1.0),
        nu=lambda x, y: 10.0,  # absurd gap claim
        name="bad",
    )
    with pytest.raises(ContractError):
        bad.validate_witness(np.random.default_rng(0), BOX)


# ---------------------------------------------------------------------------
# CLF feedback
# ---------------------------------------------------------------------------

def integrator_problem(r=0.1, R=1.0):
    dyn = ControlledDynamics(
        f=lambda xs, u: np.broadcast_to(u, xs.shape).copy(),
        state_box=Hypercube(np.array([0.0]), 4.0),
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
        f=lambda xs, u: xs + u[0] * xs ** 2,
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
    from certctrl.stability import _annulus_nodes, _simulate_closed_loop

    for x0 in _annulus_nodes(prob, 0.1):
        ok, _, samples = _simulate_closed_loop(
            prob, kappa, x0, res.eta, eps, 1e-9, max_steps=200
        )
        assert ok
        assert min(np.linalg.norm(s) for s in samples) <= 0.1 + 1e-6


def test_find_sampling_time_propagates_dynamics_faults():
    # clf_feedback evaluates f one state at a time, the Picard step on a
    # whole grid: a dynamics that breaks on the grid is a bug, not a failed eta
    def one_state_only(xs, u):
        if xs.shape[0] != 1:
            raise TypeError("dynamics written for a single state row")
        return np.broadcast_to(u, xs.shape).copy()

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


def test_checks_require_moduli():
    data = LyapunovData(
        V=lambda xs, t: xs[:, 0] ** 2,
        Vdot=lambda xs, t: -2.0 * xs[:, 0] ** 2,
        w1=W_HALF_SQ,
        w2=W_TWO_ABS,
        w3=W_SQ,
        xi=1.0,
        v_modulus_x=None,
        v_modulus_t=Modulus.lipschitz(0.0),
        vdot_modulus_x=None,
    )
    with pytest.raises(ContractError):
        check_sandwich(data, BOX, 0.01, [0.0])
    with pytest.raises(ContractError):
        check_decay(data, BOX, 0.01, [0.0])
