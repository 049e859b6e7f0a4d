import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from certctrl.core import (
    ArgumentError,
    ContractError,
    DomainExitError,
    Hypercube,
    Modulus,
    ResourceBudgetError,
)
from certctrl.trajectories import (
    COARSE_INTERVALS,
    DEFAULT_GRID_BUDGET,
    MAX_PICARD,
    WARM_RATIO,
    ControlledDynamics,
    RegularRHS,
    TimeBlockRHS,
    picard_plan,
    picard_solve,
    sample_hold_trajectory,
    _defect,
    _run_plan,
    _window_plan,
)
from oracles import residual_check, solution_at, solution_csv

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
    assert abs(solution_at(sol, 1.0)[0] - 1.0) <= 1e-9
    assert abs(sol.endpoint[0] - 0.0) <= 1e-9


def test_residual_reintegration_within_bound():
    rhs = decay_rhs()
    sol = picard_solve(rhs, np.array([1.0]), 1.0, 1e-5)
    defect = residual_check(sol, rhs)
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
    dx0 = 0.1
    a = picard_solve(rhs, np.array([0.5]), 1.0, 1e-5)
    b = picard_solve(rhs, np.array([0.5 + dx0]), 1.0, 1e-5)
    div = abs(a.endpoint[0] - b.endpoint[0])
    # DERIVED: closed form e^t dx0 = 0.2718...
    assert div == pytest.approx(math.e * dx0, abs=1e-4)
    # Grönwall: initial perturbations grow by at most exp(L T)
    assert div <= math.exp(1.0 * 1.0) * dx0 + 2e-5


def test_gronwall_never_violated_random_systems():
    rng = np.random.default_rng(101)
    for _ in range(25):
        L = float(rng.uniform(0.2, 1.5))
        a_coef = float(rng.uniform(-L, L))
        b_coef = float(rng.uniform(-0.5, 0.5))
        box = Hypercube(np.array([0.0]), 8.0)
        block = TimeBlockRHS(
            0, 1,
            lambda xs, ts, a=a_coef, b=b_coef: a * xs + b * np.sin(ts)[..., None]
            if xs.ndim > 1
            else a * xs + b * np.sin(ts),
            abs(a_coef),
            Modulus.lipschitz(abs(b_coef)),
            abs(a_coef) * 4.0 + abs(b_coef),
        )
        rhs = RegularRHS((block,), box)
        x0 = float(rng.uniform(-0.5, 0.5))
        dx = float(rng.uniform(0.01, 0.2))
        eps = 1e-3
        s0 = picard_solve(rhs, np.array([x0]), 1.0, eps)
        s1 = picard_solve(rhs, np.array([x0 + dx]), 1.0, eps)
        div = float(np.abs(s0.values[-1] - s1.values[-1]).max())
        assert div <= math.exp(abs(a_coef) * 1.0) * dx + 2 * eps


# ---------------------------------------------------------------------------
# sample-and-hold
# ---------------------------------------------------------------------------

def integrator() -> ControlledDynamics:
    def f(xs, u):
        return np.broadcast_to(u, xs.shape).copy()

    return ControlledDynamics(f, BOX2, lip_x=0.0, sup_bound=1.0)


def test_sample_hold_matches_exact_recursion():
    # x' = u, u held at -x(k eta): exact recursion x_{k+1} = x_k (1 - eta)
    dyn = integrator()
    eta = 0.1
    sol = sample_hold_trajectory(dyn, lambda x: -x, eta, np.array([1.0]), 10, 1e-8, 0.0)
    xk = 1.0
    for k in range(1, 11):
        xk *= 1.0 - eta
        assert abs(solution_at(sol, k * eta)[0] - xk) <= 1e-8 + sol.error_bound.value


def test_sample_hold_zero_policy_constant():
    dyn = integrator()
    sol = sample_hold_trajectory(dyn, lambda x: np.zeros(1), 0.25, np.array([0.3]), 4, 1e-9, 0.0)
    assert np.all(np.abs(sol.values - 0.3) <= 1e-12)


def test_sample_hold_one_held_step():
    dyn = integrator()
    sol = sample_hold_trajectory(dyn, lambda x: -np.sign(x), 1.0, np.array([1.0]), 1, 1e-9, 0.0)
    # one held control over the one step: x(t) = 1 - t
    assert abs(sol.endpoint[0] - 0.0) <= 1e-9
    assert np.unique(sol.controls).size == 1


def test_sample_hold_records_controls():
    dyn = integrator()
    sol = sample_hold_trajectory(dyn, lambda x: -x, 0.5, np.array([1.0]), 2, 1e-8, 0.0)
    assert sol.controls is not None
    assert sol.controls.shape[0] == sol.grid.size
    assert sol.controls[0, 0] == pytest.approx(-1.0)


def test_solution_csv_includes_controls_and_cumulative_error():
    from certctrl.trajectories import solution_to_csv

    dyn = integrator()
    sol = sample_hold_trajectory(dyn, lambda x: -x, 0.25, np.array([1.0]), 4, 1e-8, 0.0)
    text = solution_to_csv(sol)
    lines = text.strip().splitlines()
    assert lines[0] == "t,x1,u1,error_bound"
    errs = [float(ln.split(",")[-1]) for ln in lines[1:]]
    assert all(b <= a + 1e-15 for a, b in zip(errs[1:], errs)) or all(
        a <= b + 1e-15 for a, b in zip(errs, errs[1:])
    )  # cumulative: non-decreasing
    assert errs[-1] == sol.error_bound.value


SPECIAL_FLOATS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -3.3e-320,
                           1e308, -1e308, np.finfo(float).max, np.nan, 1.0 / 3.0, -0.1])


def _special_array(rng, shape):
    """Random floats over many decades, a fifth of them special values."""
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 308, shape)
    pick = rng.random(shape) < 0.2
    a[pick] = rng.choice(SPECIAL_FLOATS, int(pick.sum()))
    return a


@pytest.mark.parametrize("m, n, p, max_rows", [(1, 1, 0, 2000), (7, 2, 1, 2000), (2000, 1, 1, 2000),
                                                (5001, 3, 2, 2000), (300, 1, 0, 7)])
def test_solution_csv_matches_the_value_by_value_formatter(m, n, p, max_rows):
    # rows go through tolist() and repr; the text equals repr(float(v)) of
    # each numpy scalar, -0.0, subnormals, +-1e308 and nan included
    from certctrl.trajectories import ExtendedSolution, solution_to_csv

    rng = np.random.default_rng(m * 31 + n)
    for _ in range(3):
        sol = ExtendedSolution(
            _special_array(rng, m), _special_array(rng, (m, n)), None,
            error_profile=_special_array(rng, m),
            controls=_special_array(rng, (m, p)) if p else None,
        )
        assert solution_to_csv(sol, max_rows) == solution_csv(sol, max_rows)


def test_defect_without_f2_is_the_first_order_term_bit_for_bit():
    # sup_f2 = inf: the plan is the first-order one, h halved from the
    # shortest window until sum span (L M h / 2 + w_t(h / 2)) e^(L (T - a))
    # <= eps / 2, with each window's defect recomputed at its own step
    rot = lambda xs, ts: np.stack([-xs[:, 1], xs[:, 0]], axis=1)
    cases = [
        (decay_rhs(), 1.0, 1e-5),
        (RegularRHS((
            TimeBlockRHS(Fraction(0), Fraction(1, 3), lambda xs, ts: -2.0 * xs,
                         3.5, Modulus.lipschitz(0.0), 5.0),
            TimeBlockRHS(Fraction(1, 3), Fraction(2), lambda xs, ts: 0.4 * xs + 0.3 * np.cos(ts)[:, None],
                         0.4, Modulus.lipschitz(0.3), 1.1),
        ), BOX2), 1.7, 1e-3),
        (RegularRHS.single(rot, 1.0, Hypercube(np.zeros(2), 4.0), 1.0, 2.0 * math.sqrt(2.0)), 1.0, 1e-4),
    ]
    for rhs, T, eps in cases:
        plan = picard_plan(rhs, T, eps)
        windows = _window_plan(rhs, T, DEFAULT_GRID_BUDGET)
        L = max(blk.lip_x for *_, blk in windows)

        def first_order(blk, span, h):
            return span * (blk.lip_x * blk.sup_bound * h / 2.0 + blk.t_modulus.forward_bound(h / 2.0))

        h = min(span for _, _, span, _ in windows)
        while sum(first_order(blk, span, h) * math.exp(L * (T - a))
                  for a, _, span, blk in windows) > eps / 2.0:
            h /= 2.0
        assert plan.grid_step == h
        assert len(plan.windows) == len(windows)
        for w, (_, _, span, blk) in zip(plan.windows, windows):
            assert w.t.size == max(2, math.ceil(span / h) + 1)
            assert w.order == 1 and w.defect == first_order(blk, span, w.hw)
        # the same blocks with f'' = 0 take the second-order term
        flat = RegularRHS(tuple(replace(b, sup_f2=0.0) for b in rhs.blocks), rhs.state_box)
        plan2 = picard_plan(flat, T, eps)
        assert all(w.order == 2 for w in plan2.windows)
        assert plan2.grid_step >= plan.grid_step


def test_defect_of_a_zero_field_is_zero_not_nan():
    # M = 0: the polygon is constant, and inf * 0 must not enter the defect
    for L, f2 in [(0.0, math.inf), (0.0, 5.0), (1.0, math.inf), (1.0, 0.0)]:
        rhs = RegularRHS.single(lambda xs, ts: np.zeros_like(xs), 1.0, BOX2, L, 0.0)
        rhs = RegularRHS(tuple(replace(b, sup_f2=f2) for b in rhs.blocks), BOX2)
        plan = picard_plan(rhs, 1.0, 1e-6)
        assert all(math.isfinite(w.defect) for w in plan.windows)
        sol = picard_solve(rhs, np.array([0.5]), 1.0, 1e-6)
        assert np.all(sol.values == 0.5) and sol.error_bound.value <= 1e-6


def test_window_budget_is_checked_before_the_windows_are_built():
    # 2e7 contraction windows need 4e7 nodes: refused without building one
    rhs = RegularRHS.single(lambda xs, ts: -1e7 * xs, 1.0, BOX2, 1e7, 2e7)
    with pytest.raises(ResourceBudgetError, match="grid nodes"):
        picard_plan(rhs, 1.0, 1e-3)
    huge = RegularRHS.single(lambda xs, ts: xs, 1.0, BOX2, math.inf, math.inf)
    with pytest.raises(ResourceBudgetError):
        picard_plan(huge, 1.0, 1e-3)
    # windows after the horizon do not count
    late = RegularRHS((
        TimeBlockRHS(0, 1, lambda xs, ts: -xs, 1.0, Modulus.lipschitz(0.0), 2.0),
        TimeBlockRHS(1, 2, lambda xs, ts: -1e7 * xs, 1e7, Modulus.lipschitz(0.0), 2e7),
    ), BOX2)
    assert picard_plan(late, 1.0, 1e-3).windows


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


# ---------------------------------------------------------------------------
# Picard runner: time-contiguous layout and coarse-grid warm start
# ---------------------------------------------------------------------------

def _reference_picard_row(plan, x0):
    """The cold-start kernel for one state in the (m, n) layout: every
    window starts from the constant initial state.  Returns the values,
    error profile and error bound of _run_plan, or raises its contraction
    or domain-exit error."""
    from certctrl.trajectories import _exit_error

    box = plan.state_box
    start = np.asarray(x0, dtype=float)
    n = start.size
    margin = 1e-12 * (1.0 + box.side)
    lo, hi = box.lo[None, :] - margin, box.hi[None, :] + margin
    err = 0.0
    values, profile = [], []
    for j, w in enumerate(plan.windows):
        x = np.repeat(start[None, :], w.t.size, axis=0)
        for _ in range(MAX_PICARD):
            mid_x = 0.5 * (x[1:] + x[:-1])
            f = w.block.f(mid_x, w.mid_t)
            x_new = start + np.concatenate([np.zeros((1, n)), np.cumsum(f * w.hw, axis=0)])
            gap = np.linalg.norm(x_new - x, axis=1).max()
            x = x_new
            tail = 0.0 if w.contraction == 0.0 else gap * w.contraction / (1.0 - w.contraction)
            if tail <= plan.stop_tail:
                break
        if tail > plan.tail_budget:
            raise ContractError("Picard iteration failed to contract; Lipschitz data unsound")
        inside = np.all(x >= lo, axis=1) & np.all(x <= hi, axis=1)
        if not inside.all():
            raise _exit_error(box, w.t, x, inside)
        err = err * w.growth + (w.defect + tail) * w.growth
        start = x[-1]
        values.append(x[1:] if j else x)
        profile.append(np.full(w.t.size - 1 if j else w.t.size, err))
    return np.vstack(values), np.concatenate(profile), err


def _is_warm(w):
    return w.t.size - 1 >= WARM_RATIO * COARSE_INTERVALS


def _row_outcomes(plan, x0s):
    """_run_plan against the cold reference, row by row: "ok", or the name
    of the error both raise.  On a cold plan every number, message and exit
    time agrees bit for bit; on a warm one both certify the same solution,
    so their endpoints lie within the sum of their bounds."""
    warm = any(_is_warm(w) for w in plan.windows)
    for x0 in x0s:
        try:
            values, profile, bound = _reference_picard_row(plan, x0)
        except (DomainExitError, ContractError) as exc:
            with pytest.raises(type(exc)) as got:
                _run_plan(plan, x0)
            assert type(got.value) is type(exc)
            if not warm:
                assert str(got.value) == str(exc)
                assert getattr(got.value, "exit_time", None) == getattr(exc, "exit_time", None)
            yield type(exc).__name__
            continue
        grid, got_values, got_profile, sweeps, got_bound = _run_plan(plan, x0)
        assert grid.size == values.shape[0] == got_values.shape[0]
        assert sweeps.shape == (len(plan.windows), 2)
        if warm:
            assert np.linalg.norm(got_values[-1] - values[-1]) <= got_bound + bound
        else:
            assert np.ascontiguousarray(got_values).tobytes() == values.tobytes()
            assert got_profile.tobytes() == profile.tobytes()
            assert got_bound == bound
            assert not sweeps[:, 0].any()  # below the warm threshold every window starts cold
        yield "ok"


TWO_BLOCKS = (
    TimeBlockRHS(Fraction(0), Fraction(1, 3), lambda xs, ts: -2.0 * xs + 0.5 * np.sin(3.0 * xs),
                 3.5, Modulus.lipschitz(0.0), 5.0),
    TimeBlockRHS(Fraction(1, 3), Fraction(2), lambda xs, ts: 0.4 * xs + 0.3 * np.cos(ts)[:, None],
                 0.4, Modulus.lipschitz(0.3), 1.1),
)


def test_picard_runner_matches_cold_reference_row_by_row():
    # two blocks and five windows; the rows stop iterating at different
    # sweeps (x0 = 0 is a fixed point of the first block and stops after
    # one), and x0 = 1.99 leaves the box in the second block
    rhs = RegularRHS(TWO_BLOCKS, BOX2)
    plan = picard_plan(rhs, 2.0, 0.05)
    assert len(plan.windows) == 5 and all(_is_warm(w) for w in plan.windows)
    x0s = np.array([[0.0], [0.3], [-1.2], [1.99], [1.0], [-0.05]])
    assert list(_row_outcomes(plan, x0s)) == ["ok", "ok", "ok", "DomainExitError", "ok", "ok"]
    sweeps = picard_solve(rhs, x0s[0], 2.0, 0.05).sweeps
    first_block = np.array([w.block is TWO_BLOCKS[0] for w in plan.windows])
    # coarse and fine pass each stop after one sweep at rest, not after it
    assert np.all(sweeps[first_block] == 1) and np.all(sweeps[~first_block, 0] > 1)
    # an understated Lipschitz constant: the states at rest converge, the
    # moving one fails to contract
    fast = RegularRHS.single(lambda xs, ts: 40.0 * xs, 1.0, Hypercube(np.array([0.0]), 1e9), 0.1, 10.0)
    fast_plan = picard_plan(fast, 1.0, 1e-2)
    assert list(_row_outcomes(fast_plan, np.array([[0.0], [1.0], [0.0]]))) == ["ok", "ContractError", "ok"]


def test_picard_runner_cold_bit_identical_to_reference_1d():
    # two blocks, a time-dependent f, one row that leaves the box
    plan = picard_plan(RegularRHS(TWO_BLOCKS, BOX2), 2.0, 0.5)
    assert not any(_is_warm(w) for w in plan.windows)
    x0s = np.array([[0.0], [0.3], [-1.2], [1.99], [1.0], [-0.05]])
    assert list(_row_outcomes(plan, x0s)) == ["ok"] * 3 + ["DomainExitError"] + ["ok"] * 2


def test_picard_runner_cold_bit_identical_to_reference_2d():
    box = Hypercube(np.zeros(2), 4.0)

    def f1(xs, ts):
        return np.stack([-xs[:, 1] + 0.2 * np.sin(ts), xs[:, 0] - 0.3 * xs[:, 1]], axis=1)

    def f2(xs, ts):
        return np.stack([-0.5 * xs[:, 0] * np.cos(ts), 0.25 * xs[:, 0] + 0.1 * xs[:, 1]], axis=1)

    blocks = (
        TimeBlockRHS(Fraction(0), Fraction(1, 2), f1, 1.3, Modulus.lipschitz(0.2), 3.5),
        TimeBlockRHS(Fraction(1, 2), Fraction(3, 2), f2, 0.6, Modulus.lipschitz(0.5), 1.5),
    )
    plan = picard_plan(RegularRHS(blocks, box), 1.5, 2e-3)
    assert not any(_is_warm(w) for w in plan.windows)
    x0s = np.array([[1.0, 0.0], [0.0, 0.0], [-0.4, 1.3], [1.9, 1.9], [0.7, -0.2]])
    assert list(_row_outcomes(plan, x0s)) == ["ok"] * 3 + ["DomainExitError", "ok"]


def test_warm_start_rotation_within_error_bound():
    box = Hypercube(np.zeros(2), 4.0)
    rhs = RegularRHS.single(
        lambda xs, ts: np.stack([-xs[:, 1], xs[:, 0]], axis=1), 1.0, box,
        lip_x=1.0, sup_bound=2.0 * math.sqrt(2.0),
    )
    plan = picard_plan(rhs, 1.0, 1e-4)
    assert len(plan.windows) == 2 and all(_is_warm(w) for w in plan.windows)
    x0 = np.array([0.8, -0.3])
    sol = picard_solve(rhs, x0, 1.0, 1e-4)
    c, s = math.cos(1.0), math.sin(1.0)
    exact = np.array([c * x0[0] - s * x0[1], s * x0[0] + c * x0[1]])
    assert np.linalg.norm(sol.endpoint - exact) <= sol.error_bound.value
    assert sol.error_bound.value <= 1e-4
    assert np.all(sol.sweeps[:, 0] > 0) and np.all(sol.sweeps[:, 1] <= 2)
    # the warm bound is not looser than the cold reference's
    _, _, cold_bound = _reference_picard_row(plan, x0)
    assert sol.error_bound.value <= cold_bound


def test_warm_start_affine_closed_forms_within_cold_tail():
    # one window (|a| T <= 1/2): warm and cold iterates approximate the same
    # discrete fixed point, each within its own tail
    rng = np.random.default_rng(4242)
    box = Hypercube(np.array([0.0]), 12.0)
    for _ in range(4):
        a = float(rng.uniform(0.1, 0.5)) * float(rng.choice([-1.0, 1.0]))
        b = float(rng.uniform(-0.5, 0.5))
        x0 = float(rng.uniform(-1.0, 1.0))
        rhs = RegularRHS.single(
            lambda xs, ts, a=a, b=b: a * xs + b, 1.0, box, lip_x=abs(a), sup_bound=abs(a) * 6.0 + abs(b),
        )
        eps = 2e-5
        plan = picard_plan(rhs, 1.0, eps)
        assert len(plan.windows) == 1 and all(_is_warm(w) for w in plan.windows)
        w = plan.windows[0]
        _, values, _, sweeps, bound = _run_plan(plan, np.array([x0]))
        assert sweeps[0, 0] > 0
        cold_values, _, cold_bound = _reference_picard_row(plan, np.array([x0]))
        warm_tail = bound / w.growth - w.defect
        cold_tail = cold_bound / w.growth - w.defect
        assert abs(values[-1, 0] - cold_values[-1, 0]) <= warm_tail + cold_tail
        exact = (x0 + b / a) * math.exp(a) - b / a
        assert abs(values[-1, 0] - exact) <= bound
        assert bound <= eps


def test_warm_start_lying_lipschitz_still_contract_error():
    # f = 40 x claimed 0.1-Lipschitz: the coarse pass misses its tolerance,
    # so the fine pass starts cold and fails to contract
    rhs = RegularRHS.single(lambda xs, ts: 40.0 * xs, 1.0, Hypercube(np.array([0.0]), 1e9), 0.1, 200.0)
    plan = picard_plan(rhs, 1.0, 1e-3)
    assert all(_is_warm(w) for w in plan.windows)
    _, values, _, sweeps, _ = _run_plan(plan, np.array([0.0]))
    assert np.all(values == 0.0) and np.all(sweeps[:, 0] > 0)
    with pytest.raises(ContractError, match="failed to contract"):
        _run_plan(plan, np.array([1.0]))
    with pytest.raises(ContractError):
        picard_solve(rhs, np.array([1.0]), 1.0, 1e-3)


def test_slope_above_the_sup_bound_is_a_contract_error():
    # f = x + 5 from 0 reaches slope 5 e ~ 13.6; a sup bound of 1e-3 sizes a
    # grid whose error bound (4.8e-4) misses the endpoint by 0.07
    box = Hypercube(np.array([0.0]), 40.0)
    lying = RegularRHS.single(lambda xs, ts: xs + 5.0, 1.0, box, lip_x=1.0, sup_bound=1e-3)
    with pytest.raises(ContractError, match="sup bound"):
        picard_solve(lying, [0.0], 1.0, 1e-3)
    # a true sup bound certifies the closed form 5 (e - 1)
    honest = RegularRHS.single(lambda xs, ts: xs + 5.0, 1.0, box, lip_x=1.0, sup_bound=25.0)
    sol = picard_solve(honest, [0.0], 1.0, 1e-3)
    assert abs(sol.endpoint[0] - 5.0 * math.expm1(1.0)) <= sol.error_bound.value <= 1e-3
    # leaving the box comes first: the verdict stays a domain exit
    small = RegularRHS.single(lambda xs, ts: xs + 5.0, 1.0, BOX2, lip_x=1.0, sup_bound=1e-3)
    with pytest.raises(DomainExitError):
        picard_solve(small, [0.0], 1.0, 1e-3)
    # every window stores the S its defect was sized with
    plan = picard_plan(lying, 1.0, 1e-3)
    windows = _window_plan(lying, 1.0, DEFAULT_GRID_BUDGET)
    for w, (_, _, span, blk) in zip(plan.windows, windows):
        assert w.slope > 1e-3 and w.slope == _defect(blk, span, w.hw, plan.tail_budget)[2]


def _sample_hold_reference(dyn, policy, eta, x0, steps, eps, target_radius):
    """sample_hold_trajectory with one picard_solve per held step of
    exactly eta: the tolerance split eps_loc (1 + g + ... + g^(steps-1))
    <= 0.9 eps in closed form, the Grönwall recursion rounded up, the
    instants (k + 1) eta, and the stop at the first sampled state with
    |x_k| + err_k <= target_radius."""
    from certctrl.core import CertifiedReal, _up

    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    a = dyn.lip_x * eta
    growth = _up(math.exp(a)) if a else 1.0
    amplification = float(steps) if a == 0 else _up(
        _up(math.expm1(_up(steps * a))) / math.nextafter(math.expm1(a), 0.0))
    eps_loc = eps / amplification * 0.9
    grid, vals, ctrl, errs = [np.array([0.0])], [x0[None, :]], [], [np.array([0.0])]
    x, err, entry = x0.copy(), 0.0, None
    for k in range(steps):
        u = np.atleast_1d(np.asarray(policy(x), dtype=float))
        rhs = RegularRHS.single(
            lambda xs, ts, u=u: dyn.f(xs, np.repeat(u[None, :], xs.shape[0], axis=0)),
            eta, dyn.state_box, dyn.lip_x, dyn.sup_bound,
        )
        sol = picard_solve(rhs, x, eta, eps_loc)
        local = sol.error_bound.value
        err = _up(err * growth + local) if err or local else 0.0
        grid.append(np.append(sol.grid[1:-1] + k * eta, (k + 1) * eta))
        vals.append(sol.values[1:])
        errs.append(np.full(sol.grid.size - 1, err))
        ctrl.append(np.repeat(u[None, :], sol.grid.size if k == 0 else sol.grid.size - 1, axis=0))
        x = sol.endpoint.copy()
        if Fraction(float(np.abs(x).max())) + Fraction(err) <= Fraction(target_radius):
            entry = k + 1
            break
    return (np.concatenate(grid), np.vstack(vals), np.vstack(ctrl), np.concatenate(errs),
            CertifiedReal(err, 0.0), entry)


def _assert_sample_hold_matches_reference(dyn, policy, eta, x0, steps, eps, target_radius=0.0):
    from certctrl.trajectories import solution_to_csv

    sol = sample_hold_trajectory(dyn, policy, eta, x0, steps, eps, target_radius)
    grid, values, controls, profile, bound, entry = _sample_hold_reference(
        dyn, policy, eta, x0, steps, eps, target_radius)
    assert sol.grid.tobytes() == grid.tobytes()
    assert sol.values.tobytes() == values.tobytes()
    assert sol.controls.tobytes() == controls.tobytes()
    assert sol.error_profile.tobytes() == profile.tobytes()
    assert sol.error_bound == bound
    assert sol.entry_step == entry
    ref = type(sol)(grid, values, bound, controls=controls, error_profile=profile)
    assert solution_to_csv(sol) == solution_to_csv(ref)
    return sol


def test_sample_hold_matches_per_interval_solves():
    # a contracting linear plant x' = -x + u: several Picard windows per
    # held step
    def f(xs, us):
        return -xs + us

    dyn = ControlledDynamics(f, BOX2, lip_x=1.5, sup_bound=3.0)
    half = lambda x: -0.5 * x
    assert _assert_sample_hold_matches_reference(dyn, half, 0.7, np.array([1.2]), 3, 1e-4).entry_step is None
    # the same plant stops at the ball, with a nonzero error in the test
    sol = _assert_sample_hold_matches_reference(dyn, half, 0.7, np.array([1.2]), 3, 1e-4, 0.5)
    assert sol.entry_step == 1 and 0 < sol.error_bound.value <= 1e-4
    sol = _assert_sample_hold_matches_reference(integrator(), lambda x: -x, 0.1, np.array([1.0]), 10, 1e-8)
    assert sol.entry_step is None
    # 0.9^7 = 0.478... is the first sampled state within 0.5
    sol = _assert_sample_hold_matches_reference(integrator(), lambda x: -x, 0.1, np.array([1.0]), 10, 1e-8, 0.5)
    assert sol.entry_step == 7 and sol.grid[-1] == 7 * 0.1


def test_sample_hold_builds_one_plan_per_run(monkeypatch):
    # every held step spans exactly eta, so one Picard plan serves them all
    from certctrl import trajectories

    built = []
    plan = trajectories.picard_plan
    monkeypatch.setattr(trajectories, "picard_plan", lambda *a, **k: built.append(a) or plan(*a, **k))

    def f(xs, us):
        return -xs + us

    dyn = ControlledDynamics(f, BOX2, lip_x=1.5, sup_bound=3.0)
    sol = sample_hold_trajectory(dyn, lambda x: -0.5 * x, 0.7, np.array([1.2]), 3, 1e-4, 0.0)
    assert len(built) == 1 and built[0][1] == 0.7 and sol.grid[-1] == 3 * 0.7
    sol = sample_hold_trajectory(integrator(), lambda x: -x, 0.1, np.array([1.0]), 10, 1e-8, 0.0)
    assert len(built) == 2 and sol.grid.size == 11


def test_sample_hold_keeps_no_view_into_the_policy_output():
    # a policy may return a row of a larger array: a held control kept as
    # that view would pin the whole array for the rest of the run
    import weakref

    meshes = []

    def policy(x):
        mesh = np.full((1000, 1), -0.1)
        meshes.append(weakref.ref(mesh))
        return mesh[0]

    sol = sample_hold_trajectory(integrator(), policy, 0.1, np.array([1.0]), 5, 1e-8, 0.0)
    assert len(meshes) == 5 and all(ref() is None for ref in meshes)
    assert np.all(sol.controls == -0.1)


def test_sample_hold_rejects_a_bad_period_or_step_count():
    for eta, steps in ((0.0, 1), (-0.1, 1), (math.nan, 1), (0.1, 0)):
        with pytest.raises(ArgumentError):
            sample_hold_trajectory(integrator(), lambda x: -x, eta, np.array([1.0]), steps, 1e-8, 0.0)


def test_sample_hold_stops_at_the_ball_with_the_rows_of_the_full_horizon():
    # the stop changes nothing before it: the rows up to the entry are
    # those of the run that never stops, and no earlier sampled state is in
    # the ball; the integrator's error column keeps its exact zeros
    bang = lambda x: np.where(x > 0, -1.0, 1.0)
    full = sample_hold_trajectory(integrator(), bang, 0.28, np.array([1.0]), 10, 1e-8, 0.0)
    sol = sample_hold_trajectory(integrator(), bang, 0.28, np.array([1.0]), 10, 1e-8, 0.15)
    assert full.entry_step is None and sol.entry_step == 4
    m = sol.grid.size
    assert m < full.grid.size
    assert sol.grid.tobytes() == full.grid[:m].tobytes()
    assert sol.values.tobytes() == full.values[:m].tobytes()
    assert sol.controls.tobytes() == full.controls[:m].tobytes()
    assert sol.error_profile.tobytes() == full.error_profile[:m].tobytes()
    assert np.all(sol.error_profile == 0.0) and sol.error_bound.value == 0.0
    assert abs(sol.values[-1, 0]) <= 0.15 and np.all(np.abs(sol.values[:-1, 0]) > 0.15)
    # past the entry the chattering state leaves the ball again
    assert abs(full.values[m, 0]) > 0.15


def test_sample_hold_validity_blocks_end_at_the_sampling_instants():
    # the time blocks on which the ODE holds end at the sampling instants
    # k eta, and the grid holds each of them exactly: a plant with several
    # Picard nodes per held step, and the integrator stopped at the ball
    def f(xs, us):
        return -xs + us

    dyn = ControlledDynamics(f, BOX2, lip_x=1.5, sup_bound=3.0)
    cases = [
        (sample_hold_trajectory(dyn, lambda x: -0.5 * x, 0.7, np.array([1.2]), 3, 1e-4, 0.0), 0.7, 3),
        (sample_hold_trajectory(integrator(), lambda x: -x, 0.1, np.array([1.0]), 10, 1e-8, 0.5), 0.1, 7),
    ]
    for sol, eta, steps in cases:
        instants = [k * eta for k in range(steps + 1)]
        assert set(instants) <= set(sol.grid.tolist()) and sol.grid[-1] == instants[-1]
    assert cases[0][0].grid.size > 2 * cases[0][2]


def test_sample_hold_initial_state_outside_box():
    with pytest.raises(DomainExitError) as ei:
        sample_hold_trajectory(integrator(), lambda x: -x, 0.1, np.array([2.5]), 10, 1e-6, 0.0)
    assert ei.value.exit_time == 0.0


def test_shh_closed_loop_csv_matches_per_interval_solves(tmp_path):
    import json
    from pathlib import Path

    from certctrl import cli
    from certctrl import stability as stab
    from certctrl.trajectories import ExtendedSolution, solution_to_csv

    config = json.loads((Path(__file__).parents[1] / "examples" / "shh.json").read_text())
    config["sweep"] = []
    cfg = tmp_path / "shh.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["shh", "--config", str(cfg), "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    record = json.loads((tmp_path / "out" / "certificate.json").read_text())
    eta, reach = record["numeric"]["eta"], record["payload"]["reach"]
    # the demo closed loop of the shh task, one picard_solve per held
    # step, over N* steps and stopped at the same entry test
    problem = cli._shh_problem(config)
    eps = config["optimizer_eps"]
    grid, values, controls, profile, bound, entry = _sample_hold_reference(
        problem.dynamics, lambda x: stab.clf_feedback(problem, x, eps)[0], eta,
        np.array([problem.overshoot_radius]), reach["bound_steps"], max(1e-9, eps * eta / 100.0),
        problem.target_radius,
    )
    assert entry == reach["step"] and grid[-1] == reach["time"]
    ref = ExtendedSolution(grid, values, bound, controls=controls, error_profile=profile)
    assert (tmp_path / "out" / "closed_loop.csv").read_text() == solution_to_csv(ref)
