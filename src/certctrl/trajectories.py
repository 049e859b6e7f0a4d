"""Carathéodory trajectories by constructive Picard iteration, plus
sample-and-hold trajectory generation.

The right-hand side is block-regular in time: continuous (Lipschitz in the
state) on each rational time block, with possible jumps at block
boundaries.  Each block is split into contraction windows of length at
most 1/(2 L_x); within a window the Picard map is iterated on a uniform
grid with composite midpoint quadrature, whose defect is certified from
the moduli, and the contraction factor <= 1/2 turns the last iterate gap
into a fixed-point error bound.  Window errors propagate through the
Grönwall factor exp(L_x (T - t)).

Solutions are extended-sense: the differential equation is certified off
arbitrarily thin neighborhoods of the block boundaries, produced by the
validity domain's exception generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
    "picard_solve",
    "dependence_modulus",
    "sample_hold_trajectory",
]

DEFAULT_GRID_BUDGET = 20_000_000


@dataclass(frozen=True)
class TimeBlockRHS:
    """One time block: x' = f(x, t) with Lipschitz data on the block."""

    t_lo: Fraction
    t_hi: Fraction
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (states (m,n), times (m,)) -> (m,n)
    lip_x: float
    t_modulus: Modulus
    sup_bound: float  # bound on |f| over the state box and the block

    def __post_init__(self):
        object.__setattr__(self, "t_lo", Fraction(self.t_lo))
        object.__setattr__(self, "t_hi", Fraction(self.t_hi))
        if self.t_lo >= self.t_hi:
            raise ArgumentError("time block must have positive length")
        if self.lip_x < 0 or self.sup_bound < 0:
            raise ArgumentError("Lipschitz constant and sup bound must be >= 0")


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

    @property
    def max_lip(self) -> float:
        return max(b.lip_x for b in self.blocks)

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

    def at(self, t: float) -> np.ndarray:
        t = float(np.clip(t, self.grid[0], self.grid[-1]))
        i = int(np.searchsorted(self.grid, t))
        if i == 0:
            return self.values[0]
        if self.grid[i - 1] == t:
            return self.values[i - 1]
        t0, t1 = self.grid[i - 1], self.grid[i]
        w = (t - t0) / (t1 - t0)
        return (1 - w) * self.values[i - 1] + w * self.values[i]

    @property
    def endpoint(self) -> np.ndarray:
        return self.values[-1]

    def residual_check(self, rhs: "RegularRHS") -> float:
        """Re-integrate the stored trajectory (trapezoid, independent of
        the midpoint path) and return the worst defect against the
        integral identity; must stay within twice the error bound."""
        worst = 0.0
        x = self.values[0].copy()
        for b in rhs.blocks:
            mask = (self.grid >= float(b.t_lo) - 1e-15) & (self.grid <= float(b.t_hi) + 1e-15)
            g = self.grid[mask]
            v = self.values[mask]
            f = b.f(v, g)
            dt = np.diff(g)
            inc = 0.5 * (f[1:] + f[:-1]) * dt[:, None]
            traj = np.vstack([x, x + np.cumsum(inc, axis=0)])
            worst = max(worst, float(np.linalg.norm(traj - v, axis=1).max()))
            x = traj[-1]
        return worst


def _window_plan(rhs: RegularRHS) -> list:
    """(t_start, t_end, block) windows: contraction L dt <= 1/2, split
    exactly at the rational block boundaries."""
    windows = []
    for b in rhs.blocks:
        span = b.t_hi - b.t_lo
        if b.lip_x == 0:
            parts = 1
        else:
            parts = max(1, math.ceil(float(span) * b.lip_x / 0.5))
        step = span / parts
        for j in range(parts):
            windows.append((b.t_lo + j * step, b.t_lo + (j + 1) * step, b))
    return windows


def picard_solve(
    rhs: RegularRHS,
    x0,
    T: float,
    eps: float,
    grid_budget: int = DEFAULT_GRID_BUDGET,
    max_picard: int = 80,
) -> ExtendedSolution:
    """Certified solve of x' = f(x, t), x(0) = x0 up to time T.

    The grid step is chosen a priori so the accumulated quadrature defect,
    amplified by the Grönwall factor, stays below eps/2; Picard tails are
    bounded by the contraction certificate and consume the other half.
    Raises DomainExitError the moment an iterate leaves the state box.
    """
    if eps <= 0:
        raise ArgumentError("eps must be positive")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if not rhs.state_box.contains(x0):
        raise DomainExitError("initial state outside the state box", exit_time=0.0, state=x0)
    T = float(T)
    if not (0 < T <= float(rhs.t_end) + 1e-12):
        raise ArgumentError("horizon must lie within the block partition")

    windows = [(a, min(b, Fraction(T).limit_denominator(10 ** 12)), blk)
               for a, b, blk in _window_plan(rhs) if float(a) < T]
    L = rhs.max_lip
    growth_T = math.exp(L * T)

    # grid step from the first-order quadrature defect:
    # defect(h) ~ T (L M + L_t) h / 2 amplified by e^(L T) <= eps / 2
    def total_defect(h: float) -> float:
        d = 0.0
        for a, b, blk in windows:
            span = float(b - a)
            if span <= 0:
                continue
            per_step = blk.lip_x * blk.sup_bound * h / 2.0 + blk.t_modulus.forward_bound(h / 2.0)
            d += span * per_step * math.exp(L * (T - float(a)))
        return d

    h = min(float(b - a) for a, b, blk in windows if float(b - a) > 0)
    for _ in range(80):
        if total_defect(h) <= eps / 2.0:
            break
        h /= 2.0
    else:
        raise ResourceBudgetError("could not meet eps with a finite grid step")
    n_nodes_total = sum(max(2, math.ceil(float(b - a) / h) + 1) for a, b, _ in windows)
    if n_nodes_total > grid_budget:
        raise ResourceBudgetError(
            f"certified solve needs about {n_nodes_total} grid nodes for eps={eps}; "
            f"budget is {grid_budget}"
        )

    grids = []
    vals = []
    errs = []
    err = 0.0  # certified sup error at the current window start
    x_start = x0.copy()
    tail_budget = eps / 2.0 / max(1, len(windows))
    for a, b, blk in windows:
        span = float(b - a)
        if span <= 0:
            continue
        m = max(2, math.ceil(span / h) + 1)
        t = np.linspace(float(a), float(b), m)
        hw = t[1] - t[0]
        x = np.repeat(x_start[None, :], m, axis=0)
        contraction = min(0.5, blk.lip_x * span)
        tail = math.inf
        for it in range(max_picard):
            mid_t = 0.5 * (t[1:] + t[:-1])
            mid_x = 0.5 * (x[1:] + x[:-1])
            f = blk.f(mid_x, mid_t)
            inc = np.vstack([np.zeros((1, x0.size)), np.cumsum(f * hw, axis=0)])
            x_new = x_start[None, :] + inc
            gap = float(np.linalg.norm(x_new - x, axis=1).max())
            x = x_new
            if contraction == 0.0:
                tail = 0.0
                break
            tail = gap * contraction / (1.0 - contraction)
            if tail <= tail_budget / growth_T:
                break
        else:
            if tail > tail_budget:
                raise ContractError(
                    "Picard iteration failed to contract; Lipschitz data unsound"
                )
        # hard domain check, no extrapolation
        margin = 1e-12 * (1.0 + rhs.state_box.side)
        ok = np.all(x >= rhs.state_box.lo[None, :] - margin, axis=1) & np.all(
            x <= rhs.state_box.hi[None, :] + margin, axis=1
        )
        if not np.all(ok):
            bad = int(np.argmin(ok))
            t_exit = float(t[bad])
            if bad > 0:
                # interpolate the crossing along the polygon segment
                fracs = [1.0]
                for d in range(x0.size):
                    for bound, sgn in ((rhs.state_box.hi[d], 1.0), (rhs.state_box.lo[d], -1.0)):
                        a0 = sgn * (x[bad - 1][d] - bound)
                        a1 = sgn * (x[bad][d] - bound)
                        if a0 < 0.0 <= a1 and a1 > a0:
                            fracs.append(-a0 / (a1 - a0))
                t_exit = float(t[bad - 1] + min(fracs) * (t[bad] - t[bad - 1]))
            raise DomainExitError(
                f"trajectory left the state box at t={t_exit:.6g}",
                exit_time=t_exit,
                state=x[bad],
            )
        # window defect: quadrature + Picard tail, then Grönwall transport
        defect = span * (blk.lip_x * blk.sup_bound * hw / 2.0 + blk.t_modulus.forward_bound(hw / 2.0))
        err = err * math.exp(blk.lip_x * span) + (defect + tail) * math.exp(blk.lip_x * span)
        grids.append(t if not grids else t[1:])
        vals.append(x if not vals else x[1:])
        errs.append(np.full(t.size if len(grids) == 1 else t.size - 1, err))
        x_start = x[-1].copy()

    grid = np.concatenate(grids)
    values = np.vstack(vals)
    profile = np.concatenate(errs)
    internal = [b.t_lo for b in rhs.blocks[1:] if float(b.t_lo) < T]
    time_blocks = tuple(
        Block.interval(a, min(b.t_hi, Fraction(T).limit_denominator(10 ** 12)))
        for a, b in [(blk.t_lo, blk) for blk in rhs.blocks]
        if float(a) < T
    )
    validity = RepresentableDomain(time_blocks, _facet_exception_generator(time_blocks))
    return ExtendedSolution(grid, values, CertifiedReal(err, 0.0), validity,
                            error_profile=profile)


def dependence_modulus(rhs: RegularRHS, T: float) -> Modulus:
    """Grönwall modulus: initial-condition perturbations grow by at most
    exp(L_x T)."""
    L = rhs.max_lip
    g = math.exp(L * float(T))
    return Modulus("mu", lambda t, g=g: g * t, lipschitz_constant=g)


# ---------------------------------------------------------------------------
# sample-and-hold
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleHoldPolicy:
    """Feedback evaluated at sampling instants k eta and held constant."""

    policy: Callable[[np.ndarray], np.ndarray]
    eta: float
    lipschitz: Optional[float] = None  # policy Lipschitz constant, if known

    def __post_init__(self):
        if self.eta <= 0:
            raise ArgumentError("sampling period must be positive")


@dataclass(frozen=True)
class ControlledDynamics:
    """x' = f(x, u) with Lipschitz data in both arguments."""

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (states (m,n), control (p,)) -> (m,n)
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

    Per-interval solver errors accumulate through the Grönwall factor; if
    the policy carries a Lipschitz constant, the control error induced by
    sampling a perturbed state is folded in as well (otherwise the bound
    certifies the trajectory of the computed control sequence).
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
    lk = sh.lipschitz if sh.lipschitz is not None else 0.0
    for _ in range(n_int):
        amps.append(amp)
        amp = amp * growth * (1.0 + eta * dyn.lip_u * lk)
    eps_loc = eps / (sum(amps) + 1e-300) * 0.9

    grid = [np.array([0.0])]
    vals = [x0[None, :]]
    ctrl = []
    errs = [np.array([0.0])]
    x = x0.copy()
    err = 0.0
    t0 = 0.0
    for k in range(n_int):
        t1 = min((k + 1) * eta, T)
        span = t1 - t0
        if span <= 0:
            break
        u = np.atleast_1d(np.asarray(sh.policy(x), dtype=float))
        rhs = RegularRHS.single(
            lambda xs, ts, u=u: dyn.f(xs, u),
            span,
            dyn.state_box,
            dyn.lip_x,
            dyn.sup_bound,
        )
        sol = picard_solve(rhs, x, span, eps_loc, grid_budget)
        # transport: prior state error grows, plus control error from the
        # perturbed sample, plus the local solver error
        err = err * growth * (1.0 + span * dyn.lip_u * lk) + sol.error_bound.value
        grid.append(sol.grid[1:] + t0)
        vals.append(sol.values[1:])
        errs.append(np.full(sol.grid.size - 1, err))  # end-of-interval bound
        rows = sol.grid.size if k == 0 else sol.grid.size - 1
        ctrl.append(np.repeat(u[None, :], rows, axis=0))
        x = sol.endpoint.copy()
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
