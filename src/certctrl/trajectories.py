"""Carathéodory trajectories by constructive Picard iteration, plus
sample-and-hold trajectory generation.

The right-hand side is block-regular in time: continuous (Lipschitz in the
state) on each rational time block, with possible jumps at block
boundaries.  Each block is split into contraction windows of length at
most 1/(2 L); within a window the Picard map is iterated on a uniform grid
of step h with composite midpoint quadrature, and the last iterate is
certified through its residual.

Window error.  Let y be the polygon through the last iterate on a window
[a, b] of length span, started from x_a, and P the exact Picard map,
P(y)(t) = x_a + int_a^t f(y(s), s) ds.  If |y - P(y)| <= r on the window,
then |y(t) - x(t)| <= r + L int_a^t |y - x|, so by Grönwall the window
adds at most r e^(L span), and an error e at x_a leaves as e e^(L span).
On cell k, y has slope s_k = f(y'_k, m_k): the field at the midpoint y'_k
of the previous iterate, which is within the last gap g of the polygon's
midpoint y_k.  At t in cell k, y(t) - P(y)(t) collects

- the gap: sum_j h (f(y'_j) - f(y_j)), at most (t - a) L g <= q g with
  q = L span, which the Picard tail q / (1 - q) g covers;
- the time modulus: f(., m_j) against f(., s), at most (t - a) w_t(h/2)
  <= span w_t(h/2) over the finished cells and the open one together;
- the midpoint rule on the finished cells j < k, applied to
  phi(s) = f(y(s), m_j): at most L |s_j| h^2 / 4 per cell, or
  sup|f''| |s_j|^2 h^3 / 24 (the midpoint remainder, Atkinson, An
  Introduction to Numerical Analysis, 1989, 5.2);
- the open cell: int_{t_k}^t |f(y_k, m_k) - f(y(s), m_k)| <= L |s_k| h^2 / 4.

Why |s_k| <= S = M + L g: the last iterate lies in the state box (it is
checked, up to a rounding margin), and y'_k is within g of y_k.  Where y'_k
is in the box, |s_k| <= M; where it is not, |f(y'_k)| <= |f(y_k)| + L g.
A window is kept only if q / (1 - q) g <= the tail budget, which bounds g
a priori.  The bound is checked, not assumed: after the box check, the
last sweep's slopes are compared with S wherever S enters the defect
(L > 0, or the second-order term), and a slope above S is a ContractError
naming the sup bound, as a failed contraction names the Lipschitz data.
Summed over at most span / h cells, the first-order residual is
span L S h / 4, which the historical span L M h / 2 covers while
S <= 2 M; the second-order one is
span sup|f''| S^2 h^2 / 24 + L S h^2 / 4, whose open-cell term does not
accumulate.  So the defect of a window is

    span w_t(h/2) + min(span L max(M, S/2) h / 2,
                        span sup|f''| S^2 h^2 / 24 + L S h^2 / 4),

and a block with no bound on f'' (sup_f2 = inf: pwl forms, sample-and-hold,
plain callables) keeps the first-order term bit for bit.  Validated ODE
solvers bound their defects the same way (Nedialkov, Jackson and Corliss,
Appl. Math. Comput. 105(1), 1999).  Window errors propagate through the
Grönwall factor exp(L (T - t)).

The tail bound holds whatever iterate a sweep starts from: if P is a
q-contraction with fixed point x*, then for any y, |P y - x*| <= q |y - x*|
<= q (|y - P y| + |P y - x*|), so |P y - x*| <= q / (1 - q) |P y - y|.  Long
windows therefore start from a cold Picard solve on a coarse grid of the
same window, interpolated onto the fine nodes; it is close to the fine
fixed point, so one or two fine sweeps meet the tolerance.  The coarse
iterates only pick the start and certify nothing.  With the second-order
defect a field with a small sup|f''| needs a few thousand nodes, so the
warm start runs only for first-order blocks and for fields whose f'' is
large: a window needs at least WARM_RATIO * COARSE_INTERVALS intervals.

Solutions are extended-sense: the differential equation holds inside each
time block, whose ends are the right-hand side's block boundaries or the
sampling instants, and the field may jump at those ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Callable, Optional

import numpy as np

from .core import (
    ArgumentError,
    CertifiedReal,
    ContractError,
    DomainExitError,
    Hypercube,
    Modulus,
    ResourceBudgetError,
    _up,
)

__all__ = [
    "TimeBlockRHS",
    "RegularRHS",
    "ExtendedSolution",
    "ControlledDynamics",
    "PicardPlan",
    "picard_plan",
    "picard_solve",
    "sample_hold_trajectory",
]

DEFAULT_GRID_BUDGET = 20_000_000

# Warm start: a window whose fine grid has at least WARM_RATIO times
# COARSE_INTERVALS intervals first converges on a grid of COARSE_INTERVALS.
COARSE_INTERVALS = 4096
WARM_RATIO = 4

# Picard sweeps a window may take before its tail is judged
MAX_PICARD = 80


@dataclass(frozen=True)
class TimeBlockRHS:
    """One time block: x' = f(x, t) with Lipschitz data on the block."""

    t_lo: Fraction
    t_hi: Fraction
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (states (m,n), times (m,)) -> (m,n)
    lip_x: float
    t_modulus: Modulus
    sup_bound: float  # bound on |f| over the state box and the block
    sup_f2: float = math.inf  # bound on |d2f/dx2| over the box; inf: unknown

    def __post_init__(self):
        object.__setattr__(self, "t_lo", Fraction(self.t_lo))
        object.__setattr__(self, "t_hi", Fraction(self.t_hi))
        if self.t_lo >= self.t_hi:
            raise ArgumentError("time block must have positive length")
        if not (self.lip_x >= 0 and self.sup_bound >= 0 and self.sup_f2 >= 0):
            raise ArgumentError("Lipschitz constant and sup bounds must be >= 0")


@dataclass(frozen=True)
class RegularRHS:
    """Blocks partitioning [0, T] plus the state box the solution must
    stay inside."""

    blocks: tuple  # tuple[TimeBlockRHS]
    state_box: Hypercube

    def __post_init__(self):
        bs = tuple(sorted(self.blocks, key=lambda b: b.t_lo))
        if not bs:
            raise ArgumentError("need at least one time block")
        for a, b in zip(bs, bs[1:]):
            if a.t_hi != b.t_lo:
                raise ArgumentError("time blocks must partition the horizon exactly")
        object.__setattr__(self, "blocks", bs)

    @property
    def t_end(self) -> Fraction:
        return self.blocks[-1].t_hi

    @classmethod
    def single(cls, f, T, state_box: Hypercube, lip_x: float, sup_bound: float) -> "RegularRHS":
        """One autonomous block on [0, T]."""
        block = TimeBlockRHS(Fraction(0), Fraction(T), f, lip_x, Modulus.lipschitz(0.0), sup_bound)
        return cls((block,), state_box)


@dataclass(frozen=True)
class ExtendedSolution:
    """Trajectory on a grid with a certified sup-norm error bound; the
    differential equation holds inside each time block."""

    grid: np.ndarray  # (m,)
    values: np.ndarray  # (m, n)
    error_bound: CertifiedReal
    error_profile: np.ndarray  # (m,) cumulative certified bound
    controls: Optional[np.ndarray] = None  # (m, p) for sample-and-hold runs
    sweeps: Optional[np.ndarray] = None  # (windows, 2) coarse and fine Picard sweeps
    grid_step: Optional[float] = None  # the step the Picard defect was sized for
    defect_order: Optional[list] = None  # per time block: 1 or 2, see picard_plan
    entry_step: Optional[int] = None  # sample-and-hold: the held step that ended in the target ball

    @property
    def endpoint(self) -> np.ndarray:
        return self.values[-1]


def _window_plan(rhs: RegularRHS, T: float, grid_budget: int) -> list:
    """(t_start, t_end, span, block) windows up to T, as floats of the
    exact rational ends: contraction L dt <= 1/2, split exactly at the
    rational block boundaries.  Each window needs at least two grid nodes,
    so a plan with more than grid_budget / 2 windows is refused before any
    window is built.  The last window ends at T itself."""
    T_q = Fraction(T)
    used = [b for b in rhs.blocks if float(b.t_lo) < T]
    least = 0.0  # a lower bound on the number of windows before T
    for b in used:
        span = float(b.t_hi - b.t_lo)
        least += max(1.0, span * b.lip_x / 0.5 * min(1.0, (T - float(b.t_lo)) / span))
    if 2.0 * least > grid_budget:
        raise ResourceBudgetError(
            f"certified solve needs at least {2.0 * least:.3g} grid nodes "
            f"(two per contraction window); budget is {grid_budget}"
        )
    windows = []
    for b in used:
        span = b.t_hi - b.t_lo
        if b.lip_x == 0:
            parts = 1
        else:
            parts = max(1, math.ceil(float(span) * b.lip_x / 0.5))
        step = span / parts
        for j in range(parts):
            a = b.t_lo + j * step
            if float(a) >= T:
                break
            end = min(a + step, T_q)
            windows.append((float(a), float(end), float(end - a), b))
    return windows


def _defect(blk: TimeBlockRHS, span: float, h: float, tail_budget: float):
    """Residual bound of a window's last polygon at grid step h, the order
    (1 or 2) of the quadrature term that gives it, and the slope bound S
    it assumes (module docstring)."""
    L, M = blk.lip_x, blk.sup_bound
    q = min(0.5, L * span)
    slope = M + (L * tail_budget * (1.0 - q) / q if q > 0 else 0.0)  # S = M + L g
    w = blk.t_modulus.forward_bound(h / 2.0)
    first = span * (L * max(M, slope / 2.0) * h / 2.0 + w)
    if slope == 0.0 or blk.sup_f2 == math.inf:  # constant polygon, or no f''
        return first, 1, slope
    second = span * (blk.sup_f2 * slope * slope * h * h / 24.0 + w) + L * slope * h * h / 4.0
    return (second, 2, slope) if second < first else (first, 1, slope)


@dataclass(frozen=True)
class PicardWindow:
    """One contraction window of a plan: its grid, quadrature nodes and
    the certified quadrature defect."""

    block: TimeBlockRHS
    t: np.ndarray  # (m,) grid
    mid_t: np.ndarray  # (m - 1,) midpoints
    hw: float  # grid step
    contraction: float
    defect: float
    growth: float  # Grönwall factor exp(L_x span)
    order: int  # 1 or 2: the quadrature term behind the defect
    slope: float  # S, the bound on the polygon's slopes the defect assumes


@dataclass(frozen=True)
class PicardPlan:
    """Windows and grid of a certified solve on [0, T] at tolerance eps.
    Nothing in it depends on the initial state, so one plan serves every
    solve with the same block data, horizon and tolerance."""

    windows: tuple  # tuple[PicardWindow], positive spans only
    state_box: Hypercube
    tail_budget: float  # Picard tail a window may leave unconverged
    stop_tail: float  # tail at which a window stops iterating
    grid_step: float  # the step h the defect was sized for


def picard_plan(
    rhs: RegularRHS, T: float, eps: float, grid_budget: int = DEFAULT_GRID_BUDGET
) -> PicardPlan:
    """Window plan and grid step of picard_solve; reads only the blocks'
    Lipschitz, sup, sup|f''| and time-modulus data, never their f.

    The grid step is chosen a priori so the accumulated window defects
    (module docstring), amplified by the Grönwall factor, stay below
    eps/2; Picard tails are bounded by the contraction certificate and
    consume the other half.
    """
    if eps <= 0:
        raise ArgumentError("eps must be positive")
    T = float(T)
    if not (0 < T <= float(rhs.t_end) + 1e-12):
        raise ArgumentError("horizon must lie within the block partition")

    windows = _window_plan(rhs, T, grid_budget)
    L = max(blk.lip_x for *_, blk in windows)
    if L * T > 700.0:  # e^(L T) > 1e304: no float grid can meet eps
        raise ResourceBudgetError(f"Grönwall factor e^(L T) = e^{L * T:.4g} is out of float range")
    growth_T = math.exp(L * T)
    tail_budget = eps / 2.0 / max(1, len(windows))
    live = [(a, b, span, blk, math.exp(L * (T - a))) for a, b, span, blk in windows if span > 0]

    def total_defect(h: float) -> float:
        d = 0.0
        for _, _, span, blk, transport in live:
            d += _defect(blk, span, h, tail_budget)[0] * transport
        return d

    h = min(span for _, _, span, _, _ in live)
    for _ in range(80):
        if total_defect(h) <= eps / 2.0:
            break
        h /= 2.0
    else:
        raise ResourceBudgetError("could not meet eps with a finite grid step")
    n_nodes_total = sum(max(2, math.ceil(span / h) + 1) for _, _, span, _ in windows)
    if n_nodes_total > grid_budget:
        raise ResourceBudgetError(
            f"certified solve needs about {n_nodes_total} grid nodes for eps={eps}; "
            f"budget is {grid_budget}"
        )

    planned = []
    for a, b, span, blk, _ in live:
        m = max(2, math.ceil(span / h) + 1)
        t = np.linspace(a, b, m)
        hw = t[1] - t[0]
        defect, order, slope = _defect(blk, span, hw, tail_budget)
        planned.append(PicardWindow(
            blk, t, 0.5 * (t[1:] + t[:-1]), hw,
            min(0.5, blk.lip_x * span), defect, math.exp(blk.lip_x * span), order, slope,
        ))
    return PicardPlan(tuple(planned), rhs.state_box, tail_budget, tail_budget / growth_T, h)


def _exit_error(box: Hypercube, t: np.ndarray, x: np.ndarray, ok: np.ndarray) -> DomainExitError:
    """The error for grid values x (m, n) that leave the box first at the
    first False of ok, with the time and state where the polygon crosses
    the box boundary."""
    bad = int(np.argmin(ok))
    t_exit, state = float(t[bad]), x[bad]
    if bad > 0:
        # interpolate the crossing along the polygon segment
        fracs = [1.0]
        for d in range(x.shape[1]):
            for bound, sgn in ((box.hi[d], 1.0), (box.lo[d], -1.0)):
                a0 = sgn * (x[bad - 1][d] - bound)
                a1 = sgn * (x[bad][d] - bound)
                if a0 < 0.0 <= a1 and a1 > a0:
                    fracs.append(-a0 / (a1 - a0))
        frac = min(fracs)
        t_exit = float(t[bad - 1] + frac * (t[bad] - t[bad - 1]))
        state = x[bad - 1] + frac * (x[bad] - x[bad - 1])
    return DomainExitError(
        f"trajectory left the state box at t={t_exit:.6g}", exit_time=t_exit, state=state
    )


def _sup_norm(d: np.ndarray) -> float:
    """The sup over the grid of the Euclidean norm of d (n, m);
    sqrt(d * d) = |d|, so n = 1 takes |d|."""
    return np.abs(d[0]).max() if d.shape[0] == 1 else np.sqrt((d * d).sum(axis=0)).max()


def _iterate(field, start, x, mid_t, hw, q, stop_tail):
    """Picard sweeps x <- start + cumsum(hw * field(midpoints of x)) on one
    window grid, in the time-contiguous (n, m) layout, from the iterate x.
    Stops once the tail gap * q / (1 - q) is at most stop_tail, or after
    MAX_PICARD sweeps.  Returns the last iterate, its tail, the sweep
    count and the sup of the last sweep's slopes |f|."""
    for sweeps in range(1, MAX_PICARD + 1):
        mid = x[:, 1:] + x[:, :-1]
        mid *= 0.5
        f = np.reshape(field(mid.T, mid_t), mid.T.shape).T
        x_new = np.empty_like(x)
        x_new[:, 0] = 0.0
        np.cumsum(f * hw, axis=1, out=x_new[:, 1:])
        x_new += start
        d = x_new - x  # kept to the next sweep: freeing it here raised peak RSS
        gap = _sup_norm(d)
        x = x_new
        tail = 0.0 if q == 0.0 else gap * q / (1.0 - q)
        if tail <= stop_tail:
            break
    return x, tail, sweeps, _sup_norm(f)


def _warm_start(field, w: PicardWindow, start, stop_tail):
    """First iterate (n, m) of a window from start (n, 1): the constant
    start, or, on a fine grid with at least WARM_RATIO times
    COARSE_INTERVALS intervals, the converged iterate of a cold coarse grid
    on the same window interpolated onto the fine nodes.  If the coarse
    pass misses stop_tail the window starts cold.  Returns the iterate and
    the coarse sweep count."""
    x = np.repeat(start, w.t.size, axis=1)
    if w.contraction == 0.0 or w.t.size - 1 < WARM_RATIO * COARSE_INTERVALS:
        return x, 0
    tc = np.linspace(w.t[0], w.t[-1], COARSE_INTERVALS + 1)
    xc, tail, coarse, _ = _iterate(
        field, start, np.repeat(start, tc.size, axis=1),
        0.5 * (tc[1:] + tc[:-1]), tc[1] - tc[0], w.contraction, stop_tail,
    )
    if tail <= stop_tail:
        for d in range(x.shape[0]):
            x[d] = np.interp(w.t, tc, xc[d])
    return x, coarse


def _run_plan(plan: PicardPlan, x0: np.ndarray, f: Optional[Callable] = None):
    """Run a plan's windows from x0 (n,).

    f(states (k, n), times (k,)) -> (k, n) is the right-hand side at the
    quadrature nodes; by default each window's block.f.  Returns the grid,
    the (m, n) values, the error profile, the (windows, 2) coarse and fine
    Picard sweep counts (coarse 0: the window started cold) and the
    certified sup error at the end.  Raises ContractError at the window
    whose iterate fails to contract or whose slopes exceed the slope bound
    the defect was sized for, and DomainExitError at the window whose last
    iterate leaves the state box.
    """
    box = plan.state_box
    margin = 1e-12 * (1.0 + box.side)
    lo, hi = box.lo - margin, box.hi + margin
    start = np.asarray(x0, dtype=float)[:, None]
    err = 0.0
    grid, values, profile, sweeps = [], [], [], []
    for j, w in enumerate(plan.windows):
        field = f if f is not None else w.block.f
        x, coarse = _warm_start(field, w, start, plan.stop_tail)
        x, tail, fine, steepest = _iterate(field, start, x, w.mid_t, w.hw, w.contraction, plan.stop_tail)
        if tail > plan.tail_budget:
            raise ContractError("Picard iteration failed to contract; Lipschitz data unsound")
        # hard domain check on the final fine iterate, no extrapolation
        if not (np.all(x.min(axis=1) >= lo) and np.all(x.max(axis=1) <= hi)):
            at = np.all(x >= lo[:, None], axis=0) & np.all(x <= hi[:, None], axis=0)
            raise _exit_error(box, w.t, x.T, at)
        # the defect holds only while every slope is within S (module docstring)
        if (w.block.lip_x > 0 or w.order == 2) and not steepest <= w.slope:
            raise ContractError(
                f"Picard polygon slope {steepest:.6g} exceeds the slope bound {w.slope:.6g}; "
                "sup bound unsound"
            )
        # window defect: quadrature + Picard tail, then Grönwall transport
        err = err * w.growth + (w.defect + tail) * w.growth
        start = x[:, -1:]
        first = 1 if j else 0  # the node shared with the previous window
        grid.append(w.t[first:])
        values.append(x.T[first:])
        profile.append(np.full(w.t.size - first, err))
        sweeps.append((coarse, fine))
    return np.concatenate(grid), np.vstack(values), np.concatenate(profile), np.array(sweeps), err


def picard_solve(
    rhs: RegularRHS,
    x0,
    T: float,
    eps: float,
    grid_budget: int = DEFAULT_GRID_BUDGET,
) -> ExtendedSolution:
    """Certified solve of x' = f(x, t), x(0) = x0 up to time T (see
    picard_plan for the grid and tolerance split).

    Raises DomainExitError the moment an iterate leaves the state box,
    and ContractError when the Lipschitz or sup data prove unsound.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if not rhs.state_box.contains(x0):
        raise DomainExitError("initial state outside the state box", exit_time=0.0, state=x0)
    plan = picard_plan(rhs, T, eps, grid_budget)
    grid, values, profile, sweeps, err = _run_plan(plan, x0)
    orders = [max(w.order for w in ws) for _, ws in groupby(plan.windows, key=lambda w: id(w.block))]
    return ExtendedSolution(grid, values, CertifiedReal(float(err), 0.0),
                            error_profile=profile, sweeps=sweeps,
                            grid_step=plan.grid_step, defect_order=orders)


# ---------------------------------------------------------------------------
# sample-and-hold
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlledDynamics:
    """x' = f(x, u) with Lipschitz data in both arguments; f pairs row i
    of the states with row i of the controls."""

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (states (m,n), controls (m,p)) -> (m,n)
    state_box: Hypercube
    lip_x: float
    lip_u: float
    sup_bound: float


def sample_hold_trajectory(
    dyn: ControlledDynamics,
    policy: Callable[[np.ndarray], np.ndarray],
    eta: float,
    x0,
    steps: int,
    eps: float,
    target_radius: float,
    grid_budget: int = DEFAULT_GRID_BUDGET,
) -> ExtendedSolution:
    """Closed-loop trajectory under sample-and-hold feedback: the control
    u_k = policy(x_k) is held for exactly eta, for `steps` held steps or up
    to the first sampled state whose enclosure is in the target ball,
    |x_k| + err_k <= target_radius in the sup norm; entry_step is that k,
    or None when the loop ran all its steps without entering.

    Every step runs one Picard plan on [0, eta] with u_k as the field.  The
    grid holds the sampling instants as the floats k eta, and a step's
    inner nodes at k eta plus the plan's offsets.  Per-step solver errors
    accumulate through the Grönwall factor, err_k = err_(k-1) e^(L eta) +
    local_k, rounded outward (an exact 0 stays 0): the bound certifies the
    trajectory of the computed control sequence.  The tolerance is split
    so that eps_loc (1 + g + ... + g^(steps-1)) <= 0.9 eps, g = e^(L eta);
    the reserve covers the outward roundings.
    """
    if not (eta > 0 and eps > 0 and steps >= 1 and target_radius >= 0):
        raise ArgumentError("eta, eps and the step count must be positive, and the target radius >= 0")
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    a = dyn.lip_x * eta
    if a * steps > 700.0:  # e^(L T) > 1e304, T = steps eta
        raise ResourceBudgetError(f"Grönwall factor e^(L T) = e^{a * steps:.4g} is out of float range")
    growth = _up(math.exp(a)) if a else 1.0
    # 1 + g + ... + g^(n-1) = expm1(n a) / expm1(a), rounded up
    amplification = float(steps) if a == 0 else _up(
        _up(math.expm1(_up(steps * a))) / math.nextafter(math.expm1(a), 0.0))
    rhs = RegularRHS.single(dyn.f, eta, dyn.state_box, dyn.lip_x, dyn.sup_bound)
    plan = picard_plan(rhs, eta, eps / amplification * 0.9, grid_budget)

    vals, us, errs = [x[None, :]], [], []
    err, entry = 0.0, None
    for k in range(steps):
        if not dyn.state_box.contains(x):
            raise DomainExitError("initial state outside the state box", exit_time=k * eta, state=x)
        u = np.array(policy(x), dtype=float, ndmin=1)  # a copy: a view could pin the policy's arrays
        g, v, _, _, local = _run_plan(
            plan, x, lambda s, ts, u=u: dyn.f(s, np.repeat(u[None, :], s.shape[0], axis=0))
        )
        # transport: prior state error grows, plus the local solver error
        err = _up(err * growth + float(local)) if err or local else 0.0
        vals.append(v[1:])
        us.append(u)
        errs.append(err)
        x = v[-1].copy()
        reach = float(np.abs(x).max()) + err
        if (_up(reach) if err else reach) <= target_radius:
            entry = k + 1
            break

    ks = np.arange(len(us))[:, None]
    grid = ks * eta + g[1:]
    grid[:, -1] = (ks[:, 0] + 1) * eta
    rows = [1] + [g.size - 1] * len(us)  # the first row holds x0, under u_0
    return ExtendedSolution(
        np.concatenate([[0.0], grid.ravel()]), np.vstack(vals), CertifiedReal(err, 0.0),
        controls=np.repeat([us[0]] + us, rows, axis=0), error_profile=np.repeat([0.0] + errs, rows),
        entry_step=entry,
    )


def solution_to_csv(sol: ExtendedSolution, max_rows: int = 2000) -> str:
    """CSV export: t, state coordinates, held control (when present),
    cumulative certified error bound."""
    n = sol.values.shape[1]
    cols = ["t"] + [f"x{i+1}" for i in range(n)]
    if sol.controls is not None:
        cols += [f"u{i+1}" for i in range(sol.controls.shape[1])]
    cols.append("error_bound")
    stride = max(1, sol.grid.size // max_rows)
    idx = list(range(0, sol.grid.size, stride))
    if idx[-1] != sol.grid.size - 1:
        idx.append(sol.grid.size - 1)
    lines = [",".join(cols)]
    for i in idx:
        row = [sol.grid[i], *sol.values[i]]
        if sol.controls is not None:
            row.extend(sol.controls[i])
        row.append(sol.error_profile[i])
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
