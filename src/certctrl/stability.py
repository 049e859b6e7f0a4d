"""Lyapunov certificate checking, CLF optimization feedback and certified
sample-and-hold sampling-time search.

Margin semantics: the sandwich w1(x) <= V(x) <= w2(x) and the decay
V'(x) f(x) <= -w3(x) are decided exactly for one-dimensional polynomial
data.  On each half of the box, x = s r with s = +-1 and r = |x|, a
condition reads p(r) >= 0 for a polynomial p whose coefficients are the
exact rationals of the given floats, V'f included.  Positive-definite data
vanishes at the origin, so p is divided by its lowest power r^k (the order
k is reported in the check's details) and the quotient's sign is decided
from its Bernstein coefficients on the half, bisecting up to
_BERNSTEIN_BOXES boxes (Garloff 1986, LNCS 212).  A certified check holds
on the whole box, origin included: p(r) >= m r^k, where the margin m > 0
is the lowest Bernstein coefficient of the quotient, rounded down.  A
counterexample is a point where the exact p is negative (the origin only
when p(0) itself is).  A quotient that is exactly 0 somewhere, p
identically 0, or a spent budget leaves the check undecided.

The sampling-time search is a bisection certified at the annulus mesh
nodes only: a candidate eta is certified when every annulus mesh node,
under the sample-and-hold closed loop, decreases the Lyapunov function
each interval by more than the solver slack plus a reserve of eta * eps
(the optimizer tolerance per unit time) until it enters the target ball
with the same reserve.  The reserve is what makes certified sampling
times shrink as the optimizer tolerance grows, and fail once the
tolerance eats the decay margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .core import (
    ArgumentError,
    CertifiedReal,
    ContractError,
    DomainExitError,
    Hypercube,
    ResourceBudgetError,
    _float_up,
    build_mesh,
    mesh_divisions,
)
from .trajectories import ControlledDynamics, RegularRHS, picard_plan, picard_rows

__all__ = [
    "Comparator",
    "LyapunovData",
    "CheckResult",
    "StabilityCertificate",
    "SublevelSet",
    "CLFProblem",
    "SamplingTimeResult",
    "check_sandwich",
    "check_decay",
    "check_linear_growth",
    "certify",
    "clf_feedback",
    "find_sampling_time",
]

# Bernstein boxes examined per quotient before its sign is left undecided
_BERNSTEIN_BOXES = 512


def _horner(coeffs, r):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * r + c
    return acc


def _float_down(q: Fraction) -> float:
    return -_float_up(-q) + 0.0  # 0.0, not -0.0, for q = 0


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
class LyapunovData:
    """One-dimensional polynomial data: V(x) = sum_k V[k] x^k for
    x' = f(x) = sum_k f[k] x^k, the comparators w1, w2, w3 and the
    linear-growth constant xi.  The coefficients are finite floats, read as
    the rationals they are."""

    V: tuple
    f: tuple
    w1: Comparator
    w2: Comparator
    w3: Comparator
    xi: float

    def __post_init__(self):
        for name in ("V", "f"):
            coeffs = tuple(float(c) for c in getattr(self, name)) or (0.0,)
            if not all(map(math.isfinite, coeffs)):
                raise ArgumentError(f"{name} needs finite coefficients")
            object.__setattr__(self, name, coeffs)
        if not self.xi > 0:
            raise ArgumentError("xi must be positive")


@dataclass(frozen=True)
class CheckResult:
    verdict: str  # "certified" | "counterexample" | "undecided"
    margin: float  # see the module docstring; the slope surplus c_1 - xi for the growth check
    counterexample: object = None
    details: dict = field(default_factory=dict)


def _bernstein(coeffs: list, a: Fraction, b: Fraction) -> list:
    """Bernstein coefficients on [a, b] of sum_i coeffs[i] r^i."""
    c, n = list(coeffs), len(coeffs) - 1
    for i in range(n):  # Taylor shift: the coefficients of p(a + r)
        for j in range(n - 1, i - 1, -1):
            c[j] += a * c[j + 1]
    c = [cj * (b - a) ** j for j, cj in enumerate(c)]  # p(a + (b - a) t), t in [0, 1]
    return [sum(Fraction(math.comb(k, j), math.comb(n, j)) * c[j] for j in range(k + 1))
            for k in range(n + 1)]


def _halve(bern: list) -> tuple[list, list]:
    """de Casteljau at t = 1/2: the Bernstein coefficients of both halves."""
    left, right, row = [bern[0]], [bern[-1]], bern
    while len(row) > 1:
        row = [(u + v) / 2 for u, v in zip(row, row[1:])]
        left.append(row[0])
        right.append(row[-1])
    return left, right[::-1]


def _decide(p: list, k: int, s: int, a: Fraction, b: Fraction):
    """The sign of p(r) = sum_j p[j] r^j on [a, b], 0 <= a < b, where
    p[k] is the lowest nonzero coefficient and x = s r.

    Returns (verdict, value, x): certified with the lowest Bernstein
    coefficient of the quotient p / r^k; counterexample at a float x where
    the exact p is the negative value; undecided with the lowest
    coefficient of the boxes left open, or 0 when p is 0 at a box end,
    where it holds with equality (that box is dropped when no coefficient
    is negative, since p >= 0 on it)."""
    boxes = [(a, b, _bernstein(p[k:], a, b))]
    leaves, touched, examined = [], False, 0
    while boxes and examined < _BERNSTEIN_BOXES:
        examined += 1
        lo, hi, bern = boxes.pop()
        m = min(bern)
        if m > 0:
            leaves.append(m)
            continue
        for r, q in ((lo, bern[0]), (hi, bern[-1])):  # the quotient at the ends
            if q < 0:
                x = float(s * r)
                value = _horner(p, abs(Fraction(x)))
                if value < 0:
                    return "counterexample", value, x
        if bern[0] == 0 or bern[-1] == 0:
            touched = True
            if m == 0:
                continue
        left, right = _halve(bern)
        mid = (lo + hi) / 2
        boxes += [(mid, hi, right), (lo, mid, left)]
    if touched or boxes:
        return "undecided", min([Fraction(0)] * touched + [min(bern) for _, _, bern in boxes]), None
    return "certified", min(leaves), None


def _halves(box: Hypercube) -> list:
    """(s, a, b) for each half of a 1-D box: x = s r with a <= r <= b."""
    if box.dim != 1:
        raise ArgumentError("the sandwich and decay checks take a one-dimensional box")
    lo, hi = Fraction(float(box.lo[0])), Fraction(float(box.hi[0]))
    halves = [(1, max(lo, Fraction(0)), hi)] if hi > 0 else []
    return halves + ([(-1, max(-hi, Fraction(0)), -lo)] if lo < 0 else [])


def _check(conditions: list, box: Hypercube) -> CheckResult:
    """Decide P(x) - W(|x|) >= 0 on the box for every (name, P, W): exact
    coefficients of P in powers of x and of W in powers of |x|."""
    orders, results = {}, []
    for name, P, W in conditions:
        orders[name] = {}
        for s, a, b in _halves(box):
            p = [c * s**j for j, c in enumerate(P)] + [Fraction(0)] * (len(W) - len(P))
            for j, c in enumerate(W):
                p[j] -= c
            k = next((j for j, c in enumerate(p) if c), None)
            orders[name]["+" if s > 0 else "-"] = k
            # p identically 0 holds with equality everywhere: undecided
            verdict = ("undecided", Fraction(0), None) if k is None else _decide(p, k, s, a, b)
            results.append((name, *verdict))
    details = {"orders": orders}
    for name, verdict, value, x in results:
        if verdict == "counterexample":
            margin = _float_down(value)
            ce = {"point": np.array([x]), "margin": margin, "condition": name}
            return CheckResult("counterexample", margin, ce, details)
    open_ = [value for _, verdict, value, _ in results if verdict == "undecided"]
    if open_:
        return CheckResult("undecided", _float_down(min(open_)), details=details)
    return CheckResult("certified", _float_down(min(r[2] for r in results)), details=details)


def check_sandwich(data: LyapunovData, box: Hypercube) -> CheckResult:
    """w1(x) <= V(x) <= w2(x) on the box, decided exactly."""
    V = [Fraction(c) for c in data.V]
    return _check([
        ("V - w1", V, data.w1.radial),
        ("w2 - V", [-c for c in V], [-c for c in data.w2.radial]),
    ], box)


def check_decay(data: LyapunovData, box: Hypercube) -> CheckResult:
    """V'(x) f(x) <= -w3(x) on the box, decided exactly."""
    dV = [j * Fraction(c) for j, c in enumerate(data.V)][1:] or [Fraction(0)]
    f = [Fraction(c) for c in data.f]
    vdot = [Fraction(0)] * (len(dV) + len(f) - 1)
    for i, u in enumerate(dV):
        for j, v in enumerate(f):
            vdot[i + j] += u * v
    return _check([("-V'f - w3", [-c for c in vdot], data.w3.radial)], box)


def check_linear_growth(w2: Comparator, xi: float, box: Hypercube) -> CheckResult:
    """w2(x) - w2(y) >= xi (|x| - |y|) for all |x| >= |y|, decided exactly.

    w2 = phi(|x|) with phi(r) = sum_k c_k r^k, c_k >= 0, is convex on
    r >= 0, so the infimum of (phi(r) - phi(s)) / (r - s) over r > s >= 0
    is phi'(0) = c_1, and the margin is the slope surplus c_1 - xi.  Zero
    surplus (w2 = xi |x|) is the boundary case and stays undecided.  When
    c_1 < xi the counterexample is a pair (0, r e_1) in the box with
    phi(r) < xi r, checked in exact rational arithmetic; without such a
    pair (the box misses the origin, or no double r > 0 violates) the
    verdict is undecided.
    """
    if not xi > 0:
        raise ArgumentError("xi must be positive")
    margin = w2.coeffs[0] - xi
    if w2.coeffs[0] > xi:
        return CheckResult("certified", margin)
    if w2.coeffs[0] == xi:
        return CheckResult("undecided", margin, details={"hint": "zero slope margin"})
    if not (np.all(box.lo <= 0.0) and np.all(box.hi >= 0.0)):
        return CheckResult(
            "undecided", margin, details={"hint": "the box does not contain the origin"}
        )
    # phi(r) < xi r holds on an interval (0, r*): halve r from the far end
    # of the box along +e_1 or -e_1, whichever reaches further
    sign = 1.0 if box.hi[0] >= -box.lo[0] else -1.0
    r = float(max(box.hi[0], -box.lo[0]))
    while r > 0:
        q = Fraction(r)
        surplus = sum(Fraction(c) * q ** k for k, c in enumerate(w2.coeffs)) - Fraction(xi)
        if surplus < 0:  # phi(r) - xi r = r * surplus
            y = np.zeros(box.dim)
            y[0] = sign * r
            return CheckResult(
                "counterexample", margin,
                {"pair": (np.zeros(box.dim), y), "slope_margin": float(surplus)},
            )
        r /= 2.0
    return CheckResult("undecided", margin, details={"hint": "no violating pair in floating point"})


@dataclass(frozen=True)
class SublevelSet:
    """X0 = {x : w2(x) <= level} of a one-dimensional certificate:
    forward-invariant by the comparison argument (level <= w1 on a sphere
    about the origin inside the box)."""

    w2: Comparator
    level: float

    def contains(self, x) -> bool:
        """Exact membership of a one-dimensional point."""
        (r,) = np.atleast_1d(np.asarray(x, dtype=float))
        return self.w2.exact(abs(Fraction(float(r)))) <= self.level

    def sample(self, rng: np.random.Generator, box: Hypercube, n: int) -> np.ndarray:
        out = []
        guard = 0
        while len(out) < n and guard < 2000 * n:
            guard += 1
            x = box.sample(rng, 1)[0]
            if self.contains(x):
                out.append(x)
        if len(out) < n:
            raise ContractError("sublevel set too small to sample; raise the level")
        return np.array(out)


@dataclass(frozen=True)
class StabilityCertificate:
    verdict: str
    x0_set: Optional[SublevelSet]
    checks: dict
    witness: object = None
    counterexample: object = None


def certify(data: LyapunovData, box: Hypercube) -> StabilityCertificate:
    """Combine the three condition checks; on success construct
    X0 = {w2 <= w1(rho)}, rho = min(-lo, hi) the radius of the largest
    sphere about the origin inside the box (one valid choice, not claimed
    maximal), with the level w1(rho) computed exactly and rounded down;
    undecided when the origin is not strictly inside the box."""
    checks = {
        "sandwich": check_sandwich(data, box),
        "decay": check_decay(data, box),
        "linear_growth": check_linear_growth(data.w2, data.xi, box),
    }
    for name, res in checks.items():
        if res.verdict == "counterexample":
            return StabilityCertificate(
                "counterexample", None, checks, counterexample={"check": name, **res.counterexample}
            )
    if any(res.verdict == "undecided" for res in checks.values()):
        return StabilityCertificate("undecided", None, checks)
    rho = min(-Fraction(float(box.lo[0])), Fraction(float(box.hi[0])))
    level = _float_down(data.w1.exact(rho)) if rho > 0 else 0.0
    if level <= 0:
        return StabilityCertificate("undecided", None, checks)
    witness = {"level": level, "sphere_radius": float(rho)}
    return StabilityCertificate("certified", SublevelSet(data.w2, level), checks, witness=witness)


# ---------------------------------------------------------------------------
# CLF feedback and sampling time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CLFProblem:
    """The annulus r <= |x| <= R is centred at the origin, so the state box
    must contain [-R, R]^n.  control_meshes holds the control-box mesh nodes
    of each division count clf_feedback has used (they depend on the box and
    the count only), so every search and closed loop on this problem builds
    each mesh once."""

    dynamics: ControlledDynamics
    control_box: Hypercube
    V: Callable[[np.ndarray], np.ndarray]  # (B, n) -> (B,)
    grad_V: Callable[[np.ndarray], np.ndarray]  # (B, n) -> (B, n)
    v_lipschitz: float
    target_radius: float  # r
    overshoot_radius: float  # R
    v_radius: float = 1e-12
    control_meshes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 < self.target_radius < self.overshoot_radius):
            raise ArgumentError("need 0 < r < R")
        box, R = self.dynamics.state_box, self.overshoot_radius
        if np.any(box.lo > -R + 1e-12) or np.any(box.hi < R - 1e-12):
            raise ArgumentError("the state box must contain [-R, R]^n")


# (state, control node) pairs per dynamics evaluation in clf_feedback; bounds
# the memory a batch of fine control meshes takes
_FEEDBACK_PAIRS = 1 << 13


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row: a stacked matmul runs the same BLAS dot
    per row, so each value equals the one-row product bit for bit."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_norms(xs: np.ndarray) -> np.ndarray:
    """np.linalg.norm of every row, bit for bit (it is sqrt(x @ x))."""
    return np.sqrt(_rowdot(xs, xs))


def clf_feedback(problem: CLFProblem, x, eps: float):
    """eps-minimize u -> <grad V(x), f(x, u)> over the control box mesh.

    x is one state (n,) or a batch of states (B, n).  For each state the
    result is the lowest-index mesh node whose certified value reaches the
    certified minimum within eps (any such node is a legitimate
    eps-optimizer; the deterministic tie-break makes runs reproducible and
    realizes the worst-case freedom an approximate optimizer has).
    Returns (u (p,), CertifiedReal) for one state and (U (B, p), list of
    B CertifiedReal) for a batch.

    The mesh resolution depends on |grad V(x)|; states whose meshes have
    the same divisions share one mesh, kept in problem.control_meshes, and
    dynamics.f runs once over the (state, mesh node) pairs of as many
    states as fit in _FEEDBACK_PAIRS pairs.  Each row's result depends on
    that row alone, bit for bit, whatever the batch around it: the
    reductions run per row (_rowdot, reduceat segments), so a feedback
    evaluated once on a batch may be reused on any subset of its rows.
    """
    if eps <= 0:
        raise ArgumentError("eps must be positive")
    x = np.asarray(x, dtype=float)
    xs = x.reshape(1, -1) if x.ndim <= 1 else x
    g = np.asarray(problem.grad_V(xs), dtype=float).reshape(xs.shape)
    lip_g = _row_norms(g) * problem.dynamics.lip_u
    box = problem.control_box
    with np.errstate(divide="ignore"):
        res = np.where(lip_g == 0.0, box.diameter, (eps / 2.0) / lip_g).tolist()
    ks = [mesh_divisions(box, r) for r in res]
    sizes = [(k + 1) ** box.dim for k in ks]
    B = xs.shape[0]
    us = np.empty((B, box.dim))
    vals_at = np.empty(B)
    radii = np.empty(B)
    meshes = problem.control_meshes
    lo = 0
    while lo < B:
        hi, pairs = lo + 1, sizes[lo]
        while hi < B and pairs + sizes[hi] <= _FEEDBACK_PAIRS:
            pairs += sizes[hi]
            hi += 1
        for i in range(lo, hi):
            if ks[i] not in meshes:
                meshes[ks[i]] = build_mesh(box, res[i]).points
        nodes = np.concatenate([meshes[k] for k in ks[lo:hi]])
        cnt = np.array([len(meshes[k]) for k in ks[lo:hi]])
        f = problem.dynamics.f(np.repeat(xs[lo:hi], cnt, axis=0), nodes)
        vals = _rowdot(np.repeat(g[lo:hi], cnt, axis=0), np.asarray(f, dtype=float))
        starts = np.concatenate(([0], np.cumsum(cnt)[:-1]))
        r_g = 1e-12 * (1.0 + np.maximum.reduceat(np.abs(vals), starts))
        cut = np.minimum.reduceat(vals, starts) + eps / 2.0 - 2.0 * r_g
        # first node at or below the cut; the first node when none is
        hit = np.where(vals <= np.repeat(cut, cnt), np.arange(vals.size), vals.size)
        first = np.minimum.reduceat(hit, starts)
        idx = np.where(first < vals.size, first, starts)
        us[lo:hi] = nodes[idx]
        vals_at[lo:hi] = vals[idx]
        radii[lo:hi] = eps / 2.0 + 2.0 * r_g
        lo = hi
    certs = [CertifiedReal(float(v), float(r)) for v, r in zip(vals_at, radii)]
    if x.ndim <= 1:
        return us[0], certs[0]
    return us, certs


@dataclass(frozen=True)
class SamplingTimeResult:
    verdict: str  # "certified" | "failure"
    eta: Optional[float]
    margin: Optional[float]
    diagnosis: str = ""
    details: dict = field(default_factory=dict)  # resolution and work counters

    @property
    def ok(self) -> bool:
        return self.verdict == "certified"


def _annulus_nodes(problem: CLFProblem, mesh_eps: float) -> np.ndarray:
    """The nodes with r <= |x| <= R of the mesh of [-R, R]^n."""
    R = problem.overshoot_radius
    mesh = build_mesh(Hypercube(np.zeros(problem.dynamics.state_box.dim), 2.0 * R), mesh_eps)
    norms = np.linalg.norm(mesh.points, axis=1)
    keep = (norms >= problem.target_radius) & (norms <= R + 1e-12)
    return mesh.points[keep]


def _simulate_closed_loop(
    problem: CLFProblem,
    kappa,
    x0: np.ndarray,
    eta: float,
    eps: float,
    eps_loc: float,
    max_steps: int,
    kappa_x0=None,
):
    """Run the SH loop from every row of x0 (B, n) in lockstep; a 1-D x0
    is one node.  A node succeeds by entering the target ball with reserve
    while V decreases each interval by more than the reserve plus solver
    slack.  The run stops at the first interval in which a node fails.
    Returns (ok, margin, samples): on success the worst node margin;
    otherwise the margin of the lowest-index node that fails in that
    interval, -inf when it left the state box, its Picard step exceeded the
    budget or contract, or it ran out of steps.  samples lists the states
    after each interval of the nodes that completed it (1-D states for a
    1-D x0).

    One kappa call (kappa maps (b, n) states to (b, p) controls) and one
    batched Picard step per interval serve all running nodes.  kappa_x0,
    when given, returns the (B, p) controls kappa gives the rows of x0; the
    first interval takes the rows of its running nodes instead of calling
    kappa.  Any error other than the DomainExitError, ResourceBudgetError
    and ContractError of a Picard step is a fault and propagates."""
    dyn = problem.dynamics
    box = dyn.state_box
    one = np.ndim(x0) == 1
    xs = np.atleast_2d(np.asarray(x0, dtype=float))
    n = xs.shape[1]
    reserve = eta * eps
    entry_cut = problem.target_radius - reserve - 2.0 * eps_loc
    samples = [xs.copy()]
    if entry_cut <= 0:
        return False, -math.inf, [xs[0]] if one else samples
    try:
        # the plan reads only the Lipschitz and sup data; each node's held
        # control enters through the field of its Picard step
        plan = picard_plan(
            RegularRHS.single(dyn.f, eta, box, dyn.lip_x, dyn.sup_bound), eta, eps_loc
        )
    except ResourceBudgetError:
        plan = None  # every Picard step of this eta exceeds its budget
    node = np.arange(xs.shape[0])  # node index of each running row
    margins = np.full(xs.shape[0], math.inf)
    fail_margin = None
    for step in range(max_steps):
        running = ~(_row_norms(xs) <= entry_cut)
        xs, node = xs[running], node[running]
        if not node.size:
            break
        if step == 0 and kappa_x0 is not None:
            us = kappa_x0()[node]
        else:
            us = np.asarray(kappa(xs), dtype=float).reshape(node.size, -1)
        stepped = np.all(xs >= box.lo, axis=1) & np.all(xs <= box.hi, axis=1)
        x_new = xs.copy()
        err = np.zeros(node.size)
        if plan is None:
            stepped[:] = False
        elif stepped.any():
            rows = np.flatnonzero(stepped)
            held = us[rows]
            sol = picard_rows(
                plan, xs[rows],
                field=lambda blk, s, ts, k: np.reshape(
                    dyn.f(s.reshape(-1, n), np.repeat(held[k], s.shape[1], axis=0)), s.shape
                ),
            )
            stepped[rows] = [f is None for f in sol.failures]
            x_new[rows] = sol.endpoints
            err[rows] = sol.error_bound
        fails = ~stepped
        step_margin = np.full(node.size, -math.inf)
        if stepped.any():
            v0 = np.asarray(problem.V(xs[stepped]), dtype=float)
            v1 = np.asarray(problem.V(x_new[stepped]), dtype=float)
            slack = problem.v_lipschitz * err[stepped] + 2.0 * problem.v_radius
            entered = _row_norms(x_new[stepped]) <= entry_cut
            dec = v0 - v1
            need = reserve + slack
            short = ~entered & (dec < need)
            rows = np.flatnonzero(stepped)
            fails[rows[short]] = True
            step_margin[rows[short]] = (dec - need)[short]
            on = ~entered & ~short
            m, at = (dec - need)[on], node[rows[on]]
            margins[at] = np.where(m < margins[at], m, margins[at])
            samples.append(x_new[stepped])
        if fails.any():  # rows are in node order
            fail_margin = float(step_margin[int(np.argmax(fails))])
            break
        xs = x_new
    else:
        if node.size:  # still outside the ball after max_steps intervals
            fail_margin = -math.inf
    if one:
        samples = [s[0] for s in samples]
    if fail_margin is not None:
        return False, fail_margin, samples
    worst = math.inf
    for m in margins:  # node order, as a one-by-one loop
        worst = min(worst, float(m))
    return True, worst, samples


def find_sampling_time(
    problem: CLFProblem,
    kappa,
    eta_max: float,
    eps: float,
    mesh_eps: float = 0.1,
    resolution: Optional[float] = None,
    eps_loc: Optional[float] = None,
) -> SamplingTimeResult:
    """Largest sampling time certified at the annulus mesh nodes, by a
    downward geometric probe and bisection.

    The certificate covers the mesh nodes only, not the states between
    them: kappa is discontinuous, so no modulus carries a node's decrease
    to its neighbours (an annulus-wide one-step decrease bound is an open
    item of the ROADMAP).

    kappa is the (eps-tolerance) feedback, typically built from
    clf_feedback, mapping (B, n) states to (B, p) controls, each row
    depending on that row alone.  All annulus nodes run in lockstep (see
    _simulate_closed_loop), and every probe starts at the same nodes, so
    kappa runs on the whole node array once per search, when a probe first
    needs it.  eps enters the certificates as the per-unit-time reserve the
    observed decrease must dominate.  On failure the diagnosis
    distinguishes an inadequate CLF (no certified decay direction at some
    node even with a fine optimizer) from a too-large optimizer tolerance.
    details counts the work: probes (closed-loop simulations), lockstep
    intervals, kappa calls and the control meshes built in
    problem.control_meshes.
    """
    if eta_max <= 0:
        raise ArgumentError("eta_max must be positive")
    if resolution is None:
        resolution = eta_max / 256.0
    nodes = _annulus_nodes(problem, mesh_eps)
    if nodes.shape[0] == 0:
        raise ArgumentError("annulus mesh empty; refine mesh_eps")
    work = {"resolution": resolution, "probes": 0, "intervals": 0, "kappa_calls": 0}
    meshes_before = len(problem.control_meshes)
    at_nodes = []

    def counted_kappa(xs):
        work["intervals"] += 1
        work["kappa_calls"] += 1
        return kappa(xs)

    def kappa_at_nodes():
        work["intervals"] += 1
        if not at_nodes:
            work["kappa_calls"] += 1
            at_nodes.append(np.asarray(kappa(nodes), dtype=float).reshape(len(nodes), -1))
        return at_nodes[0]

    def certified(eta: float):
        work["probes"] += 1
        max_steps = max(20, math.ceil(6.0 * problem.overshoot_radius / eta))
        # solver tolerance well under the eta*eps reserve it must not mask
        el = eps_loc if eps_loc is not None else max(1e-12, eta * eps / 100.0)
        ok, margin, _ = _simulate_closed_loop(
            problem, counted_kappa, nodes, eta, eps, el, max_steps, kappa_at_nodes
        )
        return ok, margin

    def result(verdict, eta, margin, diagnosis=""):
        work["control_meshes_built"] = len(problem.control_meshes) - meshes_before
        return SamplingTimeResult(verdict, eta, margin, diagnosis, details=work)

    # geometric probe downward for a certifiable eta
    eta_lo, margin_lo = None, None
    probe = eta_max
    while probe >= resolution:
        ok, margin = certified(probe)
        if ok:
            eta_lo, margin_lo = probe, margin
            break
        probe /= 2.0
    if eta_lo is None:
        return result("failure", None, None, _diagnose(problem, nodes, eps))
    if eta_lo == eta_max:
        return result("certified", eta_max, margin_lo)
    lo, hi = eta_lo, min(2.0 * eta_lo, eta_max)
    best_margin = margin_lo
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        ok, margin = certified(mid)
        if ok:
            lo, best_margin = mid, margin
        else:
            hi = mid
    return result("certified", lo, best_margin)


def _diagnose(problem: CLFProblem, nodes: np.ndarray, eps: float) -> str:
    """Separate CLF inadequacy from optimizer-tolerance starvation.

    The probe only needs the sign of the best certified decay rate, so a
    moderate optimizer tolerance suffices.
    """
    fine = min(eps, 1e-3)
    worst_rate = -math.inf
    for val in clf_feedback(problem, nodes, fine)[1]:
        worst_rate = max(worst_rate, val.value + val.radius)
    if worst_rate >= 0:
        return (
            f"clf_inadequate: no certified decay direction at some annulus node "
            f"(best certified rate {worst_rate:+.3g})"
        )
    return (
        f"optimizer_tolerance: decay exists (worst certified rate {worst_rate:+.3g}) "
        f"but the optimizer tolerance eps={eps} consumes the decrease reserve"
    )
