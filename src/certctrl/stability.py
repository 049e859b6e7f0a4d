"""Lyapunov certificate checking, CLF optimization feedback and a certified
sample-and-hold sampling time.

Margin semantics: the sandwich w1(x) <= V(x) <= w2(x) and the decay
V'(x) f(x) <= -w3(x) are decided exactly for one-dimensional polynomial
data.  On each half of the box, x = s r with s = +-1 and r = |x|, a
condition reads p(r) >= 0 for a polynomial p built from the forms' exact
coefficients (V.coeffs, V.derivative.coeffs and f.coeffs), V'f included.
Positive-definite data vanishes at the origin, so p is divided by its
lowest power r^k (the order k is reported in the check's details) and the
quotient's sign is decided from its Bernstein coefficients on the half by
forms._decide, bisecting up to forms._BERNSTEIN_BOXES boxes (Garloff 1986,
LNCS 212).  A certified check holds on the whole box, origin included:
p(r) >= m r^k, where the margin m > 0 is the lowest Bernstein coefficient
of the quotient, rounded down.  A counterexample is a point where the
exact p is negative (the origin only when p(0) itself is).  A quotient
that is exactly 0 somewhere, p identically 0, or a spent budget leaves the
check undecided.

The sampling time of the integrator x' = u comes in closed form (see
find_sampling_time): from every state of the annulus r <= |x| <= R, every
eps-optimal control held for any t <= eta lowers V by at least t * eps
and keeps the state inside |x| <= R, so the sample-and-hold loop enters
the target ball, within the step count of reaching_steps.  The decay
bound alpha and the sign of x V'(x) are decided from V''s exact
coefficients as above; the reserve eps is what
makes the certified eta shrink as the optimizer tolerance grows, and
vanish once the tolerance eats the decay margin.  A problem with other
dynamics, or whose grad_V is not V's own derivative, is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    ArgumentError,
    CertifiedReal,
    Hypercube,
    _float_down,
    _float_up,
    build_mesh,
)
from .forms import Comparator, ScalarForm, _decide, _halves, _lower_bound
from .trajectories import ControlledDynamics

__all__ = [
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
    "reaching_steps",
    "integrator",
]

@dataclass(frozen=True)
class LyapunovData:
    """One-dimensional polynomial data: the polynomial forms V and f of
    x' = f(x), read through their exact coefficients, the comparators w1,
    w2, w3 and the linear-growth constant xi."""

    V: ScalarForm
    f: ScalarForm
    w1: Comparator
    w2: Comparator
    w3: Comparator
    xi: float

    def __post_init__(self):
        if self.V.coeffs is None or self.f.coeffs is None:
            raise ArgumentError("the Lyapunov checks take polynomial dynamics and V")
        if not self.xi > 0:
            raise ArgumentError("xi must be positive")


@dataclass(frozen=True)
class CheckResult:
    verdict: str  # "certified" | "counterexample" | "undecided"
    margin: float  # see the module docstring; the slope surplus c_1 - xi for the growth check
    counterexample: object = None
    details: dict = field(default_factory=dict)


def _check(conditions: list, box: Hypercube) -> CheckResult:
    """Decide P(x) - W(|x|) >= 0 on the box for every (name, P, W): exact
    coefficients of P in powers of x and of W in powers of |x|."""
    if box.dim != 1:
        raise ArgumentError("the sandwich and decay checks take a one-dimensional box")
    halves = _halves(Fraction(float(box.lo[0])), Fraction(float(box.hi[0])))
    orders, results = {}, []
    for name, P, W in conditions:
        orders[name] = {}
        for s, a, b in halves:
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
    V = data.V.coeffs
    return _check([
        ("V - w1", V, data.w1.radial),
        ("w2 - V", [-c for c in V], [-c for c in data.w2.radial]),
    ], box)


def check_decay(data: LyapunovData, box: Hypercube) -> CheckResult:
    """V'(x) f(x) <= -w3(x) on the box, decided exactly."""
    dV, f = data.V.derivative.coeffs, data.f.coeffs
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
        surplus = w2.exact(q) / q - Fraction(xi)
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
    must contain [-R, R]^n."""

    dynamics: ControlledDynamics
    control_box: Hypercube
    grad_V: Callable[[np.ndarray], np.ndarray]  # (1, n) -> (1, n)
    target_radius: float  # r
    overshoot_radius: float  # R

    def __post_init__(self):
        if not (0 < self.target_radius < self.overshoot_radius):
            raise ArgumentError("need 0 < r < R")
        box, R = self.dynamics.state_box, self.overshoot_radius
        if np.any(box.lo > -R) or np.any(box.hi < R):
            raise ArgumentError("the state box must contain [-R, R]^n")


# relative rounding radius of a clf_feedback value
_FEEDBACK_ROUNDING = 1e-12


def clf_feedback(problem: CLFProblem, x, eps: float):
    """eps-minimize u -> <grad V(x), f(x, u)> over the control box mesh at
    one state x (n,).

    The result is the lowest-index mesh node whose certified value reaches
    the certified minimum within eps (any such node is a legitimate
    eps-optimizer; the deterministic tie-break makes runs reproducible and
    realizes the worst-case freedom an approximate optimizer has).
    Returns (u (p,), CertifiedReal).  The mesh resolution depends on
    |grad V(x)|.
    """
    if eps <= 0:
        raise ArgumentError("eps must be positive")
    x, n = np.asarray(x, dtype=float), problem.dynamics.state_box.dim
    if x.shape != (n,):
        raise ArgumentError(f"clf_feedback takes one state of shape ({n},), not {x.shape}")
    g = np.asarray(problem.grad_V(x[None, :]), dtype=float).reshape(x.shape)
    lip_g = float(np.linalg.norm(g)) * problem.dynamics.lip_u
    box = problem.control_box
    res = box.diameter if lip_g == 0.0 else (eps / 2.0) / lip_g
    # the mesh is snapped to a dyadic lattice; the control must stay in the
    # box that M and S2 are taken on
    nodes = np.clip(build_mesh(box, res).points, box.lo, box.hi)
    f = np.asarray(problem.dynamics.f(np.repeat(x[None, :], len(nodes), axis=0), nodes), dtype=float)
    # one dot per node, as the per-node g @ f[j] computes it (f @ g, a
    # gemv, can differ in the last bit)
    vals = np.matmul(f[:, None, :], g[:, None])[:, 0, 0]
    r_g = _FEEDBACK_ROUNDING * (1.0 + float(np.abs(vals).max()))
    cut = vals.min() + eps / 2.0 - 2.0 * r_g
    idx = int(np.argmax(vals <= cut))  # the first node at or below the cut; 0 when none is
    return nodes[idx], CertifiedReal(float(vals[idx]), eps / 2.0 + 2.0 * r_g)


@dataclass(frozen=True)
class SamplingTimeResult:
    verdict: str  # "certified" | "failure" | "undecided"
    eta: Optional[float]
    margin: Optional[float]  # the decrease-rate surplus over eps at eta
    diagnosis: str = ""
    details: dict = field(default_factory=dict)  # the constants of the bound

    @property
    def ok(self) -> bool:
        return self.verdict == "certified"


def integrator(xs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """x' = u: the dynamics find_sampling_time decides."""
    return us.copy()


def find_sampling_time(problem: CLFProblem, V, eta_max: float, tolerances: Sequence[float]) -> list:
    """One sampling time for every state of the annulus and every
    eps-optimal control, for each optimizer tolerance eps in tolerances,
    in closed form, for the integrator x' = u with u in the control box
    [a, b] and the polynomial V (a polynomial form from `forms`).  Returns
    one SamplingTimeResult per tolerance, in order.  The problem must be
    that one: its dynamics.f is `integrator` on a one-dimensional state
    box, with lip_u >= 1, and its grad_V is V.derivative itself, so
    clf_feedback minimizes V'(x) u.  Any other problem is an
    ArgumentError.

    Hold an eps-optimal u from an annulus state x for a time t <= eta: by
    Taylor's theorem V(x + t u) - V(x) <= t (D(x) + eps') + t^2 S2 M^2 / 2,
    where D(x) = min(a V'(x), b V'(x)), eps' bounds V'(x) u - D(x) for
    every eps-optimal u in the box, clf_feedback's among them (eps plus
    twice clf_feedback's largest rounding radius), S2 >= |V''| on the state
    box and M = max(|a|, |b|).  With alpha <= -D on r <= |x| <= R, decided
    from V''s exact coefficients, V falls by at least t eps whenever

        eta = min(eta_max, 2 (alpha - eps' - eps) / (S2 M^2),
                  (R + r) / M, (box end - R) / M),

    computed exactly and rounded down (Clarke, Ledyaev, Sontag and
    Subbotin 1997, IEEE TAC 42(10), with the optimizer error explicit as
    in Osinenko, Beckenbach and Streif 2018, IEEE CSL 2(4)).  The last cap
    keeps every step inside the state box.  x V'(x) > 0, decided for
    r <= |x| <= the box end on each side, makes V grow with |x| there, so
    a step that falls in V and stays on its side ends inside |x| <= R; the
    (R + r) / M cap keeps a step that crosses the origin inside it too.
    Only eps and eps' depend on the tolerance, so alpha, the sign of x V',
    S2 and M are decided once for the whole sequence.

    The verdict is certified when eta > 0 and x V' > 0 is decided;
    failure when u = 0 is in the box and eps-optimal (-D(x) <= eps) at an
    annulus state |x| > r (sought at the float above r and at R on each
    side), so that no eta makes V fall there; undecided otherwise.
    details holds alpha, eps', S2 and M, and, when alpha does not exceed
    eps' + eps, the missing margin.
    """
    if eta_max <= 0:
        raise ArgumentError("eta_max must be positive")
    if not all(eps > 0 for eps in tolerances):
        raise ArgumentError("eps must be positive")
    dyn = problem.dynamics
    if V.coeffs is None:
        raise ArgumentError("the sampling time takes a polynomial V")
    if not (dyn.f is integrator and dyn.state_box.dim == 1 and problem.control_box.dim == 1
            and dyn.lip_u >= 1 and problem.grad_V is V.derivative):
        raise ArgumentError("the sampling time takes x' = u (stability.integrator) on "
                            "one-dimensional boxes, with grad_V = V.derivative")
    lo, hi = dyn.state_box.lo[0], dyn.state_box.hi[0]
    a, b = Fraction(float(problem.control_box.lo[0])), Fraction(float(problem.control_box.hi[0]))
    r, R = Fraction(problem.target_radius), Fraction(problem.overshoot_radius)
    dV = V.derivative.coeffs
    M = max(abs(a), abs(b))
    G = Fraction(V.derivative.sup_abs(lo, hi))
    S2 = Fraction(V.derivative.derivative.sup_abs(lo, hi))
    rounding = 2 * Fraction(_FEEDBACK_ROUNDING) * (1 + G * M)
    ends = {1: Fraction(float(hi)), -1: -Fraction(float(lo))}
    # -u V'(s r) for the inward end u of the box on the half x = s r
    alpha = min(_lower_bound([-u * c * s**j for j, c in enumerate(dV)], s, r, R)
                for s, u in ((1, a), (-1, b)))
    inward = all(
        _lower_bound([Fraction(0)] + [c * s ** (j + 1) for j, c in enumerate(dV)], s, r, ends[s]) > 0
        for s in (1, -1)
    )
    cap = min(Fraction(eta_max), (R + r) / M, (min(ends.values()) - R) / M)
    # -D(x) where u = 0 is in the box: at the float above r and at R on each side
    rates = []
    if a <= 0 <= b:
        r_above = math.nextafter(problem.target_radius, math.inf)
        for x in (r_above, problem.overshoot_radius, -r_above, -problem.overshoot_radius):
            slope = V.derivative.exact(Fraction(x))
            rates.append((x, max(-a * slope, -b * slope)))
    constants = {"alpha": _float_down(alpha), "curvature": _float_up(S2), "control_bound": float(M)}
    results = []
    for eps in tolerances:
        e = Fraction(eps)
        eps_p = e + rounding
        surplus = alpha - eps_p - e
        eta = _float_down(min(cap, 2 * surplus / (S2 * M * M)) if S2 else cap)
        details = {"eps_prime": _float_up(eps_p), **constants}
        if surplus > 0 and inward and eta > 0:
            margin = _float_down(surplus - Fraction(eta) * S2 * M * M / 2)
            results.append(SamplingTimeResult("certified", eta, margin, details=details))
            continue
        if surplus <= 0:
            details["missing_margin"] = _float_up(-surplus)
        x, rate = next(((x, rate) for x, rate in rates if rate <= e), (None, None))
        if x is not None:
            details["witness"] = x
            diagnosis = (f"optimizer_tolerance: u = 0 is eps-optimal at x = {x!r} "
                         f"(-D(x) = {float(rate):.3g} <= eps = {eps}), so V need not fall there")
        elif alpha <= 0:
            diagnosis = (f"clf_inadequate: no certified decay direction on the annulus "
                         f"(alpha >= {float(alpha):+.3g})")
        elif not inward:
            diagnosis = ("clf_inadequate: x V'(x) > 0 is not decided on r <= |x| <= the box end, "
                         "so a falling V need not keep the state inside |x| <= R")
        elif surplus <= 0:
            diagnosis = (f"optimizer_tolerance: the decay rate alpha >= {float(alpha):.3g} "
                         f"does not exceed eps' + eps = {float(eps_p + e):.3g}")
        else:
            diagnosis = "state_box: the state box ends at R, leaving no room for a step"
        verdict = "undecided" if x is None else "failure"
        results.append(SamplingTimeResult(verdict, None, None, diagnosis, details))
    return results


def reaching_steps(problem: CLFProblem, V, res: SamplingTimeResult, eps: float, x0: float) -> int:
    """N*, the number of held steps within which the sample-and-hold loop
    certified by res (find_sampling_time's result on problem and V for the
    tolerance eps) takes the sampled state from x0, |x0| <= R, into
    |x| <= r:

        N* = ceil((V(x0) - min(V(r), V(-r))) / (eta (eps + margin))),

    and 0 when V(x0) is already below the minimum, computed exactly from
    V's coefficients and the floats x0, eta, eps and margin.

    Each held step from an annulus state lowers V by at least
    eta (eps + margin): the Taylor bound of find_sampling_time at t = eta
    is -eta (alpha - eps' - eta S2 M^2 / 2), and the margin is that
    surplus over eps rounded down.  The step ends inside |x| <= R.
    x V'(x) > 0 is decided from r out to each box end, so V(x) > V(+-r)
    for r < |x| <= R on each side, and a state with |x| <= R and
    V <= min(V(r), V(-r)) lies in |x| <= r.  So V cannot fall N* times in
    the annulus without the state reaching the ball.
    """
    if not res.ok:
        raise ArgumentError("the reaching bound needs a certified sampling time")
    if not abs(x0) <= problem.overshoot_radius:
        raise ArgumentError("the reaching bound starts inside |x| <= R")
    r = Fraction(problem.target_radius)
    drop = V.exact(Fraction(x0)) - min(V.exact(r), V.exact(-r))
    return max(0, math.ceil(drop / (Fraction(res.eta) * (Fraction(eps) + Fraction(res.margin)))))
