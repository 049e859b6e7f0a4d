"""Lyapunov certificate checking, CLF optimization feedback and certified
sample-and-hold sampling-time search.

Margin semantics: positive-definite data vanishes at the origin, so the
sandwich and decay inequalities cannot carry a uniform margin there; the
exact origin node is excluded (its equality is structural) and the
certificate reports the annulus radius from which node margins dominate
the inter-node modulus slack.  Equality within the evaluation radius at
any other node yields `undecided`, never `certified`.

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
    Modulus,
    ResourceBudgetError,
    build_mesh,
    mesh_divisions,
    poly_eval,
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


@dataclass(frozen=True)
class Comparator:
    """Radial polynomial comparator w(x) = sum_k coeffs[k-1] |x|^k (k >= 1)
    with finite, non-negative coefficients, not all zero: positive definite
    and strictly increasing in |x|.  The modulus covers inter-node slack."""

    coeffs: tuple
    modulus: Modulus
    eval_radius: float = 1e-12
    name: str = ""

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not all(math.isfinite(c) and c >= 0 for c in coeffs) or not any(coeffs):
            raise ArgumentError(
                f"comparator {self.name!r} needs finite non-negative coefficients, not all zero"
            )
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        return poly_eval((0.0,) + self.coeffs, np.linalg.norm(np.atleast_2d(xs), axis=1))


@dataclass(frozen=True)
class LyapunovData:
    """Candidate V with comparators and the along-system derivative.

    Vdot is user-supplied (analytic <grad V, f> plus any explicit time
    term); a finite-difference audit in the tests cross-checks it.
    """

    V: Callable[[np.ndarray, float], np.ndarray]  # (B, n), t -> (B,)
    Vdot: Callable[[np.ndarray, float], np.ndarray]
    w1: Comparator
    w2: Comparator
    w3: Comparator
    xi: float
    v_modulus_x: Modulus
    v_modulus_t: Modulus
    vdot_modulus_x: Modulus
    v_radius: float = 1e-12

    def __post_init__(self):
        if self.xi <= 0:
            raise ArgumentError("xi must be positive")


@dataclass(frozen=True)
class CheckResult:
    verdict: str  # "certified" | "counterexample" | "undecided"
    margin: float  # worst node margin; the slope surplus c_1 - xi for the growth check
    counterexample: object = None
    covered_radius: Optional[float] = None  # annulus from which moduli cover gaps
    details: dict = field(default_factory=dict)


def _origin_excluded_nodes(box: Hypercube, mesh_eps: float):
    mesh = build_mesh(box, mesh_eps)
    pts = mesh.points
    norms = np.linalg.norm(pts, axis=1)
    keep = norms > 0.0  # the origin node is structural equality, not data
    return pts[keep], norms[keep]


def _covered_radius(norms: np.ndarray, margins: np.ndarray, slack: float):
    """Smallest annulus radius from which every node margin dominates the
    inter-node slack; None when even the outermost nodes fail."""
    order = np.argsort(norms)[::-1]
    rho = None
    for i in order:
        if margins[i] >= slack:
            rho = float(norms[i])
        else:
            break
    return rho


def _two_sided_verdict(
    pts, norms, margins, eval_radius, slack, box, inner_fraction=0.5, t_of=None
):
    bad = int(np.argmin(margins))
    if margins[bad] < -eval_radius:
        point = pts[bad]
        ce = {"point": point, "margin": float(margins[bad])}
        if t_of is not None:
            ce["t"] = t_of[bad]
        return CheckResult("counterexample", float(margins[bad]), ce)
    if margins[bad] <= eval_radius:
        # equality within the certificate radius: constructively undecided
        return CheckResult(
            "undecided",
            float(margins[bad]),
            details={"hint": "margin within evaluation radius; refine the mesh"},
        )
    rho = _covered_radius(norms, margins, slack)
    inscribed = box.side / 2.0
    if rho is None or rho > inner_fraction * inscribed:
        return CheckResult(
            "undecided",
            float(margins[bad]),
            covered_radius=rho,
            details={"hint": f"mesh too coarse for margins; slack {slack}"},
        )
    return CheckResult("certified", float(margins[bad]), covered_radius=rho)


def check_sandwich(data: LyapunovData, box: Hypercube, mesh_eps: float, t_samples) -> CheckResult:
    """w1(x) <= V(x, t) <= w2(x) at mesh nodes and t-samples, with moduli
    covering the gaps on the reported annulus."""
    t_samples = list(t_samples)
    if not t_samples:
        raise ArgumentError("need at least one t sample")
    if data.v_modulus_x is None or data.v_modulus_t is None:
        raise ContractError("sandwich check needs V's x- and t-moduli")
    if data.w1.modulus is None or data.w2.modulus is None:
        raise ContractError("comparators need moduli for inter-node slack")
    pts, norms = _origin_excluded_nodes(box, mesh_eps)
    w1 = data.w1(pts)
    w2 = data.w2(pts)
    margins = np.full(pts.shape[0], np.inf)
    worst_t = np.zeros(pts.shape[0])
    for t in t_samples:
        v = np.asarray(data.V(pts, t), dtype=float)
        m = np.minimum(v - w1, w2 - v)
        upd = m < margins
        worst_t[upd] = t
        margins = np.minimum(margins, m)
    eval_r = data.v_radius + data.w1.eval_radius + data.w2.eval_radius
    t_gap = max(
        (b - a) for a, b in zip(sorted(t_samples), sorted(t_samples)[1:])
    ) if len(t_samples) > 1 else 0.0
    slack = (
        data.v_modulus_x.forward_bound(mesh_eps)
        + max(data.w1.modulus.forward_bound(mesh_eps), data.w2.modulus.forward_bound(mesh_eps))
        + data.v_modulus_t.forward_bound(t_gap / 2.0)
        + eval_r
    )
    return _two_sided_verdict(pts, norms, margins, eval_r, slack, box, t_of=worst_t)


def check_decay(data: LyapunovData, box: Hypercube, mesh_eps: float, t_samples) -> CheckResult:
    """Vdot(x, t) <= -w3(x) with the same margin semantics."""
    t_samples = list(t_samples)
    if not t_samples:
        raise ArgumentError("need at least one t sample")
    if data.vdot_modulus_x is None or data.w3.modulus is None:
        raise ContractError("decay check needs Vdot's x-modulus and w3's modulus")
    pts, norms = _origin_excluded_nodes(box, mesh_eps)
    w3 = data.w3(pts)
    margins = np.full(pts.shape[0], np.inf)
    worst_t = np.zeros(pts.shape[0])
    for t in t_samples:
        vd = np.asarray(data.Vdot(pts, t), dtype=float)
        m = -vd - w3
        upd = m < margins
        worst_t[upd] = t
        margins = np.minimum(margins, m)
    eval_r = data.v_radius + data.w3.eval_radius
    slack = (
        data.vdot_modulus_x.forward_bound(mesh_eps)
        + data.w3.modulus.forward_bound(mesh_eps)
        + eval_r
    )
    return _two_sided_verdict(pts, norms, margins, eval_r, slack, box, t_of=worst_t)


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
    """X0 = {x : w2(x) <= level}: forward-invariant by the comparison
    argument (w2 <= min of w1 on a sphere about the origin inside the box)."""

    w2: Comparator
    level: float

    def contains(self, x) -> bool:
        val = float(self.w2(np.atleast_2d(np.asarray(x, dtype=float)))[0])
        return val + self.w2.eval_radius <= self.level

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
    mesh_eps: float
    tolerances: dict
    checks: dict
    witness: object = None
    counterexample: object = None


def certify(data: LyapunovData, box: Hypercube, mesh_eps: float, t_samples) -> StabilityCertificate:
    """Combine the three condition checks; on success construct
    X0 = {w2 <= min of w1 on the largest sphere about the origin inside the
    box} (one valid choice, not claimed maximal); undecided when the origin
    is not strictly inside the box."""
    checks = {
        "sandwich": check_sandwich(data, box, mesh_eps, t_samples),
        "decay": check_decay(data, box, mesh_eps, t_samples),
        "linear_growth": check_linear_growth(data.w2, data.xi, box),
    }
    tolerances = {"mesh_eps": mesh_eps, "xi": data.xi}
    for name, res in checks.items():
        if res.verdict == "counterexample":
            return StabilityCertificate(
                "counterexample", None, mesh_eps, tolerances, checks,
                counterexample={"check": name, **(res.counterexample or {})},
            )
    if any(res.verdict == "undecided" for res in checks.values()):
        return StabilityCertificate("undecided", None, mesh_eps, tolerances, checks)

    # sublevel construction on the largest origin-centered sphere in the box
    rho = float(np.minimum(-box.lo, box.hi).min())
    if rho <= 0:
        return StabilityCertificate("undecided", None, mesh_eps, tolerances, checks)
    pts, norms = _origin_excluded_nodes(box, mesh_eps)
    near = np.abs(norms - rho) <= mesh_eps
    if not np.any(near):
        return StabilityCertificate("undecided", None, mesh_eps, tolerances, checks)
    w1_near = data.w1(pts[near])
    level = float(w1_near.min()) - data.w1.modulus.forward_bound(mesh_eps) - data.w1.eval_radius
    if level <= 0:
        return StabilityCertificate("undecided", None, mesh_eps, tolerances, checks)
    x0 = SublevelSet(data.w2, level)
    witness = {
        "level": level,
        "sphere_radius": rho,
        "annulus_radius": max(
            r for r in (checks["sandwich"].covered_radius, checks["decay"].covered_radius) if r
        ),
    }
    return StabilityCertificate("certified", x0, mesh_eps, tolerances, checks, witness=witness)


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
