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
is in the box, |s_k| <= M; where it is not, |f(y'_k)| <= |f(y_k)| + L g,
with the Lipschitz data taken across the gap, as the box check's margin
already takes them.  A row is kept only if q / (1 - q) g <= the tail
budget, which bounds g a priori.  Summed over at most span / h cells, the
first-order residual is span L S h / 4, which the historical
span L M h / 2 covers while S <= 2 M; the second-order one is
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

Solutions are extended-sense: the differential equation is certified off
arbitrarily thin neighborhoods of the block boundaries, produced by the
validity domain's exception generator.
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
)
from .selector import Block, RepresentableDomain, _facet_exception_generator

__all__ = [
    "TimeBlockRHS",
    "RegularRHS",
    "ExtendedSolution",
    "SampleHoldPolicy",
    "ControlledDynamics",
    "PicardPlan",
    "PicardRows",
    "picard_plan",
    "picard_rows",
    "picard_solve",
    "sample_hold_trajectory",
]

DEFAULT_GRID_BUDGET = 20_000_000

# Warm start: a window whose fine grid has at least WARM_RATIO times
# COARSE_INTERVALS intervals first converges on a grid of COARSE_INTERVALS.
COARSE_INTERVALS = 4096
WARM_RATIO = 4


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
    def single(
        cls,
        f,
        T,
        state_box: Hypercube,
        lip_x: float,
        sup_bound: float,
        t_modulus: Optional[Modulus] = None,
    ) -> "RegularRHS":
        mod = t_modulus if t_modulus is not None else Modulus.lipschitz(0.0)
        return cls((TimeBlockRHS(Fraction(0), Fraction(T), f, lip_x, mod, sup_bound),), state_box)


@dataclass(frozen=True)
class ExtendedSolution:
    """Trajectory on a grid with a certified sup-norm error bound; the
    differential equation holds off the validity domain's exceptions."""

    grid: np.ndarray  # (m,)
    values: np.ndarray  # (m, n)
    error_bound: CertifiedReal
    validity: RepresentableDomain
    controls: Optional[np.ndarray] = None  # (m, p) for sample-and-hold runs
    error_profile: Optional[np.ndarray] = None  # (m,) cumulative certified bound
    sweeps: Optional[np.ndarray] = None  # (windows, 2) coarse and fine Picard sweeps
    grid_step: Optional[float] = None  # the step the Picard defect was sized for
    defect_order: Optional[list] = None  # per time block: 1 or 2, see picard_plan

    @property
    def endpoint(self) -> np.ndarray:
        return self.values[-1]


def _window_plan(rhs: RegularRHS, T: float, grid_budget: int) -> list:
    """(t_start, t_end, span, block) windows up to T, as floats of the
    exact rational ends: contraction L dt <= 1/2, split exactly at the
    rational block boundaries.  Each window needs at least two grid nodes,
    so a plan with more than grid_budget / 2 windows is refused before any
    window is built."""
    T_q = Fraction(T).limit_denominator(10 ** 12)
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
    """Residual bound of a window's last polygon at grid step h, and the
    order (1 or 2) of the quadrature term that gives it (module
    docstring)."""
    L, M = blk.lip_x, blk.sup_bound
    q = min(0.5, L * span)
    slope = M + (L * tail_budget * (1.0 - q) / q if q > 0 else 0.0)  # S = M + L g
    w = blk.t_modulus.forward_bound(h / 2.0)
    first = span * (L * max(M, slope / 2.0) * h / 2.0 + w)
    if slope == 0.0 or blk.sup_f2 == math.inf:  # constant polygon, or no f''
        return first, 1
    second = span * (blk.sup_f2 * slope * slope * h * h / 24.0 + w) + L * slope * h * h / 4.0
    return (second, 2) if second < first else (first, 1)


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


@dataclass(frozen=True)
class PicardPlan:
    """Windows and grid of a certified solve on [0, T] at tolerance eps.
    Nothing in it depends on the initial state, so one plan serves every
    solve with the same block data, horizon and tolerance."""

    windows: tuple  # tuple[PicardWindow], positive spans only
    state_box: Hypercube
    tail_budget: float  # Picard tail a window may leave unconverged
    stop_tail: float  # tail at which a row stops iterating
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
        defect, order = _defect(blk, span, hw, tail_budget)
        planned.append(PicardWindow(
            blk, t, 0.5 * (t[1:] + t[:-1]), hw,
            min(0.5, blk.lip_x * span), defect, math.exp(blk.lip_x * span), order,
        ))
    return PicardPlan(tuple(planned), rhs.state_box, tail_budget, tail_budget / growth_T, h)


@dataclass(frozen=True)
class PicardRows:
    """Result of picard_rows for B initial states.

    values[j], errors[j] and sweeps[j] hold, for the rows still running
    after window j, their (b_j, m_j, n) grid values, (b_j,) certified sup
    error at the window end and (b_j, 2) coarse and fine Picard sweep
    counts (coarse 0: the window started cold).  endpoints and error_bound
    are (B, n) and (B,); they are meaningful only for rows whose failures
    entry is None.
    """

    values: list
    errors: list
    endpoints: np.ndarray
    error_bound: np.ndarray
    failures: list  # per row: None, or the error a one-row solve raises
    sweeps: list


def _block_field(block, xs, ts, rows):
    """Every row follows the block's own f(states, times)."""
    b, k, n = xs.shape
    f = block.f(xs.reshape(b * k, n), ts if b == 1 else np.tile(ts, b))
    return np.reshape(f, xs.shape)


def _exit_error(box: Hypercube, t: np.ndarray, x: np.ndarray, ok: np.ndarray) -> DomainExitError:
    """The error for a row whose grid values x leave the box first at the
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


def _iterate(field, block, rows, starts, x, mid_t, hw, q, stop_tail, max_picard):
    """Picard sweeps x <- starts + cumsum(hw * field(midpoints of x)) on
    one window grid, in the time-contiguous (b, n, m) layout, from the
    iterates x (overwritten).  A row stops once its tail gap * q / (1 - q)
    is at most stop_tail, or after max_picard sweeps.  Returns the last
    iterates, the (b,) tails and the (b,) sweep counts."""
    b, n, _ = x.shape
    tail = np.full(b, math.inf)
    sweeps = np.zeros(b, dtype=int)
    cur, pos, cur_starts = x, np.arange(b), starts
    for _ in range(max_picard):
        mid = cur[:, :, 1:] + cur[:, :, :-1]
        mid *= 0.5
        f = np.swapaxes(field(block, mid.transpose(0, 2, 1), mid_t, rows[pos]), 1, 2)
        x_new = np.empty_like(cur)
        x_new[:, :, 0] = 0.0
        np.cumsum(f * hw, axis=2, out=x_new[:, :, 1:])
        x_new += cur_starts
        d = x_new - cur
        # the sup over the grid of the Euclidean gap; sqrt(d * d) = |d|
        gap = np.abs(d[:, 0]).max(axis=1) if n == 1 else np.sqrt((d * d).sum(axis=1)).max(axis=1)
        sweeps[pos] += 1
        cur = x_new
        if q == 0.0:
            tail[pos] = 0.0
            done = np.ones(pos.size, dtype=bool)
        else:
            tail[pos] = gap * q / (1.0 - q)
            done = tail[pos] <= stop_tail
        if done.all() and pos.size == b:  # all stop together: no copy
            return cur, tail, sweeps
        if done.any():
            x[pos[done]] = cur[done]
            cur, pos, cur_starts = cur[~done], pos[~done], cur_starts[~done]
            if not pos.size:
                return x, tail, sweeps
    x[pos] = cur  # out of sweeps: kept only if the tail is within budget
    return x, tail, sweeps


def _warm_start(field, w: PicardWindow, rows, starts, stop_tail, max_picard):
    """First iterates (b, n, m) of a window: the constant start, or, on a
    fine grid with at least WARM_RATIO times COARSE_INTERVALS intervals,
    the converged iterate of a cold coarse grid on the same window
    interpolated onto the fine nodes.  A row whose coarse pass misses
    stop_tail starts cold.  Returns the iterates and the (b,) coarse
    sweep counts."""
    x = np.repeat(starts, w.t.size, axis=2)
    coarse = np.zeros(starts.shape[0], dtype=int)
    if w.contraction == 0.0 or w.t.size - 1 < WARM_RATIO * COARSE_INTERVALS:
        return x, coarse
    tc = np.linspace(w.t[0], w.t[-1], COARSE_INTERVALS + 1)
    xc, tail, coarse = _iterate(
        field, w.block, rows, starts, np.repeat(starts, tc.size, axis=2),
        0.5 * (tc[1:] + tc[:-1]), tc[1] - tc[0], w.contraction, stop_tail, max_picard,
    )
    for p in np.flatnonzero(tail <= stop_tail):
        for d in range(x.shape[1]):
            x[p, d] = np.interp(w.t, tc, xc[p, d])
    return x, coarse


def picard_rows(
    plan: PicardPlan,
    x0s: np.ndarray,
    field: Optional[Callable] = None,
    max_picard: int = 80,
) -> PicardRows:
    """Run a plan's windows from every row of x0s (B, n) at once.

    field(block, states (b, k, n), times (k,), rows (b,)) -> (b, k, n) is
    the right-hand side at the quadrature nodes of rows `rows` (indices
    into x0s); by default every row follows the block's own f.  Each row
    stops iterating at its own tolerance and carries its own tail and
    error bound, so its numbers are those of a one-row solve.  A row whose
    iterate fails to contract or leaves the state box stops there, with
    the ContractError or DomainExitError a one-row solve would raise.
    Long windows start from a coarse-grid solution (see _warm_start).
    """
    field = field if field is not None else _block_field
    box = plan.state_box
    x0s = np.asarray(x0s, dtype=float)
    B = x0s.shape[0]
    failures = [None] * B
    live = np.arange(B)  # rows still running
    x_start = x0s.copy()
    err = np.zeros(B)  # certified sup error at the current window start
    margin = 1e-12 * (1.0 + box.side)
    lo, hi = box.lo - margin, box.hi + margin
    values, errors, sweeps = [], [], []
    for w in plan.windows:
        if not live.size:
            break
        starts = x_start[live][:, :, None]
        x, coarse = _warm_start(field, w, live, starts, plan.stop_tail, max_picard)
        x, tail, fine = _iterate(
            field, w.block, live, starts, x, w.mid_t, w.hw, w.contraction, plan.stop_tail, max_picard
        )
        ok_rows = ~(tail > plan.tail_budget)
        for p in np.flatnonzero(~ok_rows):
            failures[live[p]] = ContractError(
                "Picard iteration failed to contract; Lipschitz data unsound"
            )
        # hard domain check on the final fine iterate, no extrapolation
        inside = np.all(x.min(axis=2) >= lo, axis=1) & np.all(x.max(axis=2) <= hi, axis=1)
        for p in np.flatnonzero(ok_rows & ~inside):
            at = np.all(x[p] >= lo[:, None], axis=0) & np.all(x[p] <= hi[:, None], axis=0)
            failures[live[p]] = _exit_error(box, w.t, x[p].T, at)
            ok_rows[p] = False
        # window defect: quadrature + Picard tail, then Grönwall transport
        rows = live[ok_rows]
        err[rows] = err[rows] * w.growth + (w.defect + tail[ok_rows]) * w.growth
        x = x if ok_rows.all() else x[ok_rows]
        live = rows
        x_start[live] = x[:, :, -1]
        values.append(x.transpose(0, 2, 1))
        errors.append(err[live])
        sweeps.append(np.stack([coarse, fine], axis=1)[ok_rows])
    return PicardRows(values, errors, x_start, err, failures, sweeps)


def _stitch(plan: PicardPlan, res: PicardRows):
    """Grid, (m, n) values, error profile and (windows, 2) sweep counts of
    row 0 of a picard_rows result over all windows of its plan."""
    grid = np.concatenate([w.t[1:] if j else w.t for j, w in enumerate(plan.windows)])
    values = np.vstack([v[0, 1:] if j else v[0] for j, v in enumerate(res.values)])
    profile = np.concatenate([
        np.full(w.t.size - 1 if j else w.t.size, e[0])
        for j, (w, e) in enumerate(zip(plan.windows, res.errors))
    ])
    return grid, values, profile, np.array([s[0] for s in res.sweeps])


def picard_solve(
    rhs: RegularRHS,
    x0,
    T: float,
    eps: float,
    grid_budget: int = DEFAULT_GRID_BUDGET,
    max_picard: int = 80,
) -> ExtendedSolution:
    """Certified solve of x' = f(x, t), x(0) = x0 up to time T (see
    picard_plan for the grid and tolerance split).

    Raises DomainExitError the moment an iterate leaves the state box.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if not rhs.state_box.contains(x0):
        raise DomainExitError("initial state outside the state box", exit_time=0.0, state=x0)
    plan = picard_plan(rhs, T, eps, grid_budget)
    res = picard_rows(plan, x0[None, :], max_picard=max_picard)
    if res.failures[0] is not None:
        raise res.failures[0]

    grid, values, profile, sweeps = _stitch(plan, res)
    orders = [max(w.order for w in ws) for _, ws in groupby(plan.windows, key=lambda w: id(w.block))]
    T = float(T)
    time_blocks = tuple(
        Block.interval(a, min(b.t_hi, Fraction(T).limit_denominator(10 ** 12)))
        for a, b in [(blk.t_lo, blk) for blk in rhs.blocks]
        if float(a) < T
    )
    validity = RepresentableDomain(time_blocks, _facet_exception_generator(time_blocks))
    return ExtendedSolution(grid, values, CertifiedReal(float(res.error_bound[0]), 0.0), validity,
                            error_profile=profile, sweeps=sweeps,
                            grid_step=plan.grid_step, defect_order=orders)


# ---------------------------------------------------------------------------
# sample-and-hold
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleHoldPolicy:
    """Feedback evaluated at sampling instants k eta and held constant."""

    policy: Callable[[np.ndarray], np.ndarray]
    eta: float

    def __post_init__(self):
        if self.eta <= 0:
            raise ArgumentError("sampling period must be positive")


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
    sh: SampleHoldPolicy,
    x0,
    T: float,
    eps: float,
    grid_budget: int = DEFAULT_GRID_BUDGET,
) -> ExtendedSolution:
    """Closed-loop trajectory under sample-and-hold feedback.

    Per-interval solver errors accumulate through the Grönwall factor: the
    bound certifies the trajectory of the computed control sequence.
    """
    if eps <= 0:
        raise ArgumentError("eps must be positive")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    T = float(T)
    eta = sh.eta
    n_int = max(1, math.ceil(T / eta - 1e-12))
    growth = math.exp(dyn.lip_x * eta)
    # split the budget so the accumulated recursion stays below eps
    amp = 1.0
    amps = []
    for _ in range(n_int):
        amps.append(amp)
        amp = amp * growth
    eps_loc = eps / (sum(amps) + 1e-300) * 0.9

    grid = [np.array([0.0])]
    vals = [x0[None, :]]
    ctrl = []
    errs = [np.array([0.0])]
    x = x0.copy()
    n = x.size
    err = 0.0
    t0 = 0.0
    plans = {}  # one plan per distinct interval length; f enters as the field
    for k in range(n_int):
        t1 = min((k + 1) * eta, T)
        span = t1 - t0
        if span <= 0:
            break
        if not dyn.state_box.contains(x):
            raise DomainExitError("initial state outside the state box", exit_time=t0, state=x)
        u = np.atleast_1d(np.asarray(sh.policy(x), dtype=float))
        if span not in plans:
            plans[span] = picard_plan(
                RegularRHS.single(dyn.f, span, dyn.state_box, dyn.lip_x, dyn.sup_bound),
                span, eps_loc, grid_budget,
            )
        plan = plans[span]
        res = picard_rows(
            plan, x[None, :],
            field=lambda blk, s, ts, rows, u=u: np.reshape(
                dyn.f(s.reshape(-1, n), np.repeat(u[None, :], s.shape[0] * s.shape[1], axis=0)),
                s.shape,
            ),
        )
        if res.failures[0] is not None:
            raise res.failures[0]
        g, v, _, _ = _stitch(plan, res)
        # transport: prior state error grows, plus the local solver error
        err = err * growth + float(res.error_bound[0])
        grid.append(g[1:] + t0)
        vals.append(v[1:])
        errs.append(np.full(g.size - 1, err))  # end-of-interval bound
        rows = g.size if k == 0 else g.size - 1
        ctrl.append(np.repeat(u[None, :], rows, axis=0))
        x = res.endpoints[0].copy()
        t0 = t1

    grid = np.concatenate(grid)
    values = np.vstack(vals)
    controls = np.vstack(ctrl)
    profile = np.concatenate(errs)
    eta_q = Fraction(eta).limit_denominator(10 ** 9)
    T_q = Fraction(T).limit_denominator(10 ** 9)
    boundaries = tuple(
        Block.interval(k * eta_q, min((k + 1) * eta_q, T_q)) for k in range(n_int)
    )
    validity = RepresentableDomain(boundaries, _facet_exception_generator(boundaries))
    return ExtendedSolution(grid, values, CertifiedReal(err, 0.0), validity,
                            controls=controls, error_profile=profile)


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
    profile = sol.error_profile
    for i in idx:
        row = [sol.grid[i], *sol.values[i]]
        if sol.controls is not None:
            row.extend(sol.controls[i])
        row.append(profile[i] if profile is not None else sol.error_bound.value)
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
