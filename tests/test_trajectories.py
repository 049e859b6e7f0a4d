import math
from fractions import Fraction

import numpy as np
import pytest

from certctrl.core import ArgumentError, ContractError, DomainExitError, Hypercube, Modulus
from certctrl.trajectories import (
    ControlledDynamics,
    RegularRHS,
    SampleHoldPolicy,
    TimeBlockRHS,
    dependence_modulus,
    picard_plan,
    picard_rows,
    picard_solve,
    sample_hold_trajectory,
)

BOX2 = Hypercube(np.array([0.0]), 4.0)  # [-2, 2]


def decay_rhs(T=1.0):
    return RegularRHS.single(lambda xs, ts: -xs, T, BOX2, lip_x=1.0, sup_bound=2.0)


def test_exponential_decay_endpoint():
    sol = picard_solve(decay_rhs(), np.array([1.0]), 1.0, 1e-6)
    assert abs(sol.endpoint[0] - math.exp(-1.0)) <= 1e-6
    assert sol.error_bound.value <= 1e-6


def test_zero_rhs_constant_trajectory():
    rhs = RegularRHS.single(lambda xs, ts: 0.0 * xs, 2.0, BOX2, lip_x=0.0, sup_bound=0.0)
    sol = picard_solve(rhs, np.array([0.7]), 2.0, 1e-9)
    assert np.all(sol.values == 0.7)
    assert sol.error_bound.value <= 1e-12


def test_tent_piecewise_rhs():
    blocks = (
        TimeBlockRHS(0, 1, lambda xs, ts: np.ones_like(xs), 0.0, Modulus.lipschitz(0.0), 1.0),
        TimeBlockRHS(1, 2, lambda xs, ts: -np.ones_like(xs), 0.0, Modulus.lipschitz(0.0), 1.0),
    )
    rhs = RegularRHS(blocks, BOX2)
    sol = picard_solve(rhs, np.array([0.0]), 2.0, 1e-9)
    # DERIVED: piecewise closed form x(1) = 1, x(2) = 0
    assert abs(sol.at(1.0)[0] - 1.0) <= 1e-9
    assert abs(sol.endpoint[0] - 0.0) <= 1e-9
    # validity excludes a neighborhood of the internal boundary t = 1
    J = sol.validity.exception(Fraction(1, 100))
    assert J.contains([Fraction(1)])
    assert J.volume_exact() <= Fraction(1, 100)


def test_validity_exception_width_does_not_move_endpoints():
    blocks = (
        TimeBlockRHS(0, 1, lambda xs, ts: np.ones_like(xs), 0.0, Modulus.lipschitz(0.0), 1.0),
        TimeBlockRHS(1, 2, lambda xs, ts: -np.ones_like(xs), 0.0, Modulus.lipschitz(0.0), 1.0),
    )
    rhs = RegularRHS(blocks, BOX2)
    sol = picard_solve(rhs, np.array([0.0]), 2.0, 1e-9)
    e1 = sol.endpoint[0]
    # halving the excluded width is a descriptive change only
    J1 = sol.validity.exception(Fraction(1, 64))
    J2 = sol.validity.exception(Fraction(1, 128))
    assert J2.volume_exact() <= J1.volume_exact()
    assert sol.endpoint[0] == e1


def test_residual_reintegration_within_bound():
    rhs = decay_rhs()
    sol = picard_solve(rhs, np.array([1.0]), 1.0, 1e-5)
    defect = sol.residual_check(rhs)
    assert defect <= 2.0 * max(sol.error_bound.value, 1e-5)


def test_domain_exit_raises_with_time():
    # x' = 1 from x0 = 1.9 leaves [-2, 2] at t = 0.1
    rhs = RegularRHS.single(lambda xs, ts: np.ones_like(xs), 1.0, BOX2, 0.0, 1.0)
    with pytest.raises(DomainExitError) as ei:
        picard_solve(rhs, np.array([1.9]), 1.0, 1e-6)
    assert ei.value.exit_time == pytest.approx(0.1, abs=0.05)


def test_picard_contraction_certificate():
    # consecutive iterates contract by <= 1/2 per window by construction;
    # verify via the dependence of the tail on the window length
    rhs = RegularRHS.single(lambda xs, ts: -xs, 1.0, BOX2, lip_x=1.0, sup_bound=2.0)
    sol = picard_solve(rhs, np.array([1.0]), 1.0, 1e-4)
    assert sol.error_bound.value <= 1e-4


def test_dependence_modulus_gronwall():
    rhs = RegularRHS.single(lambda xs, ts: xs, 1.0, BOX2, lip_x=1.0, sup_bound=2.0)
    mod = dependence_modulus(rhs, 1.0)
    dx0 = 0.1
    a = picard_solve(rhs, np.array([0.5]), 1.0, 1e-5)
    b = picard_solve(rhs, np.array([0.5 + dx0]), 1.0, 1e-5)
    div = abs(a.endpoint[0] - b.endpoint[0])
    # DERIVED: closed form e^t dx0 = 0.2718...
    assert div == pytest.approx(math.e * dx0, abs=1e-4)
    assert div <= mod.bound(dx0) + 2e-5


def test_dependence_modulus_identity_for_zero_lipschitz():
    rhs = RegularRHS.single(lambda xs, ts: np.ones_like(xs), 1.0, BOX2, 0.0, 1.0)
    mod = dependence_modulus(rhs, 1.0)
    assert mod.bound(0.25) == pytest.approx(0.25)


def test_gronwall_never_violated_random_systems():
    rng = np.random.default_rng(101)
    for _ in range(25):
        L = float(rng.uniform(0.2, 1.5))
        a_coef = float(rng.uniform(-L, L))
        b_coef = float(rng.uniform(-0.5, 0.5))
        box = Hypercube(np.array([0.0]), 8.0)
        rhs = RegularRHS.single(
            lambda xs, ts, a=a_coef, b=b_coef: a * xs + b * np.sin(ts)[..., None]
            if xs.ndim > 1
            else a * xs + b * np.sin(ts),
            1.0,
            box,
            lip_x=abs(a_coef),
            sup_bound=abs(a_coef) * 4.0 + abs(b_coef),
            t_modulus=Modulus.lipschitz(abs(b_coef)),
        )
        mod = dependence_modulus(rhs, 1.0)
        x0 = float(rng.uniform(-0.5, 0.5))
        dx = float(rng.uniform(0.01, 0.2))
        eps = 1e-3
        s0 = picard_solve(rhs, np.array([x0]), 1.0, eps)
        s1 = picard_solve(rhs, np.array([x0 + dx]), 1.0, eps)
        div = float(np.abs(s0.values[-1] - s1.values[-1]).max())
        assert div <= mod.bound(dx) + 2 * eps


# ---------------------------------------------------------------------------
# sample-and-hold
# ---------------------------------------------------------------------------

def integrator() -> ControlledDynamics:
    def f(xs, u):
        return np.broadcast_to(u, xs.shape).copy()

    return ControlledDynamics(f, BOX2, lip_x=0.0, lip_u=1.0, sup_bound=1.0)


def test_sample_hold_matches_exact_recursion():
    # x' = u, u held at -x(k eta): exact recursion x_{k+1} = x_k (1 - eta)
    dyn = integrator()
    eta = 0.1
    sh = SampleHoldPolicy(lambda x: -x, eta, lipschitz=1.0)
    sol = sample_hold_trajectory(dyn, sh, np.array([1.0]), 1.0, 1e-8)
    xk = 1.0
    for k in range(1, 11):
        xk *= 1.0 - eta
        assert abs(sol.at(k * eta)[0] - xk) <= 1e-8 + sol.error_bound.value


def test_sample_hold_zero_policy_constant():
    dyn = integrator()
    sh = SampleHoldPolicy(lambda x: np.zeros(1), 0.25)
    sol = sample_hold_trajectory(dyn, sh, np.array([0.3]), 1.0, 1e-9)
    assert np.all(np.abs(sol.values - 0.3) <= 1e-12)


def test_sample_hold_eta_beyond_horizon_single_interval():
    dyn = integrator()
    sh = SampleHoldPolicy(lambda x: -np.sign(x), 5.0)
    sol = sample_hold_trajectory(dyn, sh, np.array([1.0]), 1.0, 1e-9)
    # one held control over the whole horizon: x(t) = 1 - t
    assert abs(sol.endpoint[0] - 0.0) <= 1e-9
    assert np.unique(sol.controls).size == 1


def test_sample_hold_records_controls():
    dyn = integrator()
    sh = SampleHoldPolicy(lambda x: -x, 0.5, lipschitz=1.0)
    sol = sample_hold_trajectory(dyn, sh, np.array([1.0]), 1.0, 1e-8)
    assert sol.controls is not None
    assert sol.controls.shape[0] == sol.grid.size
    assert sol.controls[0, 0] == pytest.approx(-1.0)


def test_solution_csv_includes_controls_and_cumulative_error():
    from certctrl.trajectories import solution_to_csv

    dyn = integrator()
    sh = SampleHoldPolicy(lambda x: -x, 0.25, lipschitz=1.0)
    sol = sample_hold_trajectory(dyn, sh, np.array([1.0]), 1.0, 1e-8)
    text = solution_to_csv(sol)
    lines = text.strip().splitlines()
    assert lines[0] == "t,x1,u1,error_bound"
    errs = [float(ln.split(",")[-1]) for ln in lines[1:]]
    assert all(b <= a + 1e-15 for a, b in zip(errs[1:], errs)) or all(
        a <= b + 1e-15 for a, b in zip(errs, errs[1:])
    )  # cumulative: non-decreasing
    assert errs[-1] == sol.error_bound.value


def test_picard_budget_error_mentions_nodes():
    from certctrl.core import ResourceBudgetError

    rhs = decay_rhs()
    with pytest.raises(ResourceBudgetError) as ei:
        picard_solve(rhs, np.array([1.0]), 1.0, 1e-6, grid_budget=100)
    assert "grid nodes" in str(ei.value)


def test_picard_contraction_oracle():
    # independent replication of the discrete Picard map on one window:
    # successive iterate gaps must contract by <= 1/2 once L dt <= 1/2
    L = 1.0
    span = 0.5  # window length = 1/(2L)
    m = 2001
    t = np.linspace(0.0, span, m)
    h = t[1] - t[0]
    x0 = 1.0
    x = np.full(m, x0)
    gaps = []
    for _ in range(12):
        mid = 0.5 * (x[1:] + x[:-1])
        x_new = np.concatenate([[x0], x0 + np.cumsum(-mid * h)])
        gaps.append(float(np.abs(x_new - x).max()))
        x = x_new
    ratios = [b / a for a, b in zip(gaps, gaps[1:]) if a > 1e-14]
    assert max(ratios) <= 0.5 + 1e-6


def test_error_bound_sound_against_affine_closed_forms():
    # x' = a x + b has closed form (x0 + b/a) e^(a t) - b/a; the certified
    # bound must enclose the true endpoint error for every instance
    rng = np.random.default_rng(909)
    for _ in range(20):
        a = float(rng.uniform(-1.5, 1.5))
        if abs(a) < 0.05:
            a = 0.5
        b = float(rng.uniform(-0.5, 0.5))
        x0 = float(rng.uniform(-0.3, 0.3))
        box = Hypercube(np.array([0.0]), 12.0)
        rhs = RegularRHS.single(
            lambda xs, ts, a=a, b=b: a * xs + b, 1.0, box,
            lip_x=abs(a), sup_bound=abs(a) * 6.0 + abs(b),
        )
        eps = 1e-4
        sol = picard_solve(rhs, np.array([x0]), 1.0, eps)
        exact = (x0 + b / a) * math.exp(a) - b / a
        err = abs(sol.endpoint[0] - exact)
        assert err <= sol.error_bound.value + 1e-12
        assert sol.error_bound.value <= eps


def _row_outcomes(rhs, x0s, T, eps):
    """picard_rows on all rows against one picard_solve per row."""
    res = picard_rows(picard_plan(rhs, T, eps), x0s)
    for i, x0 in enumerate(x0s):
        try:
            sol = picard_solve(rhs, x0, T, eps)
        except (DomainExitError, ContractError) as exc:
            got = res.failures[i]
            assert type(got) is type(exc) and str(got) == str(exc)
            assert getattr(got, "exit_time", None) == getattr(exc, "exit_time", None)
            yield type(exc).__name__
            continue
        assert res.failures[i] is None
        assert res.endpoints[i].tobytes() == sol.endpoint.tobytes()
        assert res.error_bound[i] == sol.error_bound.value
        yield "ok"


def test_picard_rows_match_one_row_solves():
    # two blocks and five windows; the rows stop iterating at different
    # iterations (x0 = 0 is a fixed point of the first block and stops
    # after one), and x0 = 1.99 leaves the box in the second block
    blocks = (
        TimeBlockRHS(Fraction(0), Fraction(1, 3), lambda xs, ts: -2.0 * xs + 0.5 * np.sin(3.0 * xs),
                     3.5, Modulus.lipschitz(0.0), 5.0),
        TimeBlockRHS(Fraction(1, 3), Fraction(2), lambda xs, ts: 0.4 * xs + 0.3 * np.cos(ts)[:, None],
                     0.4, Modulus.lipschitz(0.3), 1.1),
    )
    rhs = RegularRHS(blocks, BOX2)
    x0s = np.array([[0.0], [0.3], [-1.2], [1.99], [1.0], [-0.05]])
    outcomes = list(_row_outcomes(rhs, x0s, 2.0, 0.05))
    assert outcomes == ["ok", "ok", "ok", "DomainExitError", "ok", "ok"]
    # an understated Lipschitz constant: the rows at rest converge, the
    # moving one fails to contract
    fast = RegularRHS.single(lambda xs, ts: 40.0 * xs, 1.0, Hypercube(np.array([0.0]), 1e9), 0.1, 10.0)
    outcomes = list(_row_outcomes(fast, np.array([[0.0], [1.0], [0.0]]), 1.0, 1e-2))
    assert outcomes == ["ok", "ContractError", "ok"]
