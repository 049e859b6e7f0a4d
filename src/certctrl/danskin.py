"""Certified directional derivatives of pointwise maxima.

For psi(x) = max over theta of phi(x, theta), the directional derivative
is approached through the sets of near-optimizers rather than exact
argmaxes: the returned value is the maximum of <grad_x phi, v> over a
sound outer approximation of the delta-optimizer set, with an explicit
slack certificate derived from the gradient modulus over the optimizer
set's diameter.  A finite-difference audit brackets the certified value
between modulus-derived envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Callable

import numpy as np

from .core import (
    ArgumentError,
    CertifiedReal,
    FiniteMesh,
    Hypercube,
    Modulus,
    build_mesh,
)

__all__ = [
    "ParametricObjective",
    "ThetaDomain",
    "DeltaOptimizerSet",
    "psi",
    "delta_optimizers",
    "directional_derivative",
    "finite_difference_audit",
    "AuditReport",
]


@dataclass(frozen=True)
class ParametricObjective:
    """A continuously differentiable phi(x, theta) with certificate data.

    value(x, thetas) -> (B,) array over a theta batch;
    grad_x(x, thetas) -> (B, n) array of x-gradients.
    modulus_theta bounds phi in theta; grad_modulus bounds grad_x phi in
    (x, theta) jointly.
    eval_radius / grad_radius are sound rounding bounds for the two
    evaluators.
    """

    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    modulus_theta: Modulus
    grad_modulus: Modulus
    eval_radius: float = 1e-12
    grad_radius: float = 1e-12
    name: str = ""


@dataclass(frozen=True)
class ThetaDomain:
    """Compact parameter domain, realized by its mesh generator."""

    box: Hypercube
    budget: int = 4_000_000

    def mesh(self, eps: float) -> FiniteMesh:
        return build_mesh(self.box, eps, self.budget)


@dataclass(frozen=True)
class DeltaOptimizerSet:
    """Sound outer approximation of the delta-optimizers at x, restricted
    to a finite mesh: contains every mesh node that truly is a
    delta-optimizer."""

    x: np.ndarray
    points: np.ndarray  # (k, p)
    psi_hat: CertifiedReal

    def __len__(self):
        return self.points.shape[0]

    @property
    def diameter(self) -> float:
        """The largest distance between two members, in O(k) memory."""
        pts = self.points
        if len(pts) <= 1:
            return 0.0
        if pts.shape[1] == 1:  # rounding is monotone, and sqrt(fl(d * d)) == |d| unless
            return float(pts.max() - pts.min())  # d * d underflows: the pairwise maximum
        rows = max(1, (1 << 16) // len(pts))  # rows of pairwise differences at once
        return float(max(np.linalg.norm(pts[i:i + rows, None, :] - pts[None, :, :], axis=2).max()
                         for i in range(0, len(pts), rows)))


def _as_point(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float))


def psi(obj: ParametricObjective, theta_dom: ThetaDomain, xs, eps: float) -> list[CertifiedReal]:
    """Certified pointwise maximum over theta at each point of xs, all on
    one theta mesh."""
    if eps <= 0:
        raise ArgumentError("psi requires eps > 0")
    d_theta = min(obj.modulus_theta.step(eps / 2.0), theta_dom.box.diameter)
    thetas = theta_dom.mesh(d_theta).points
    radius = eps / 2.0 + obj.eval_radius
    return [CertifiedReal(float(np.asarray(obj.value(_as_point(x), thetas), dtype=float).max()), radius)
            for x in xs]


def delta_optimizers(
    obj: ParametricObjective,
    theta_dom: ThetaDomain,
    x,
    delta: float,
    eps: float,
) -> DeltaOptimizerSet:
    """All mesh nodes certifiably possibly within delta of the maximum.

    Include-on-doubt: a node is kept when its certified value interval
    reaches psi_hat.lower - delta, so the true delta-optimizer mesh nodes
    are always a subset of the returned set.
    """
    if delta <= 0:
        raise ArgumentError("delta must be positive")
    if eps <= 0:
        raise ArgumentError("mesh eps must be positive")
    x = _as_point(x)
    mesh = theta_dom.mesh(min(eps, theta_dom.box.diameter))
    vals = np.asarray(obj.value(x, mesh.points), dtype=float)
    v = float(vals.max())
    psi_hat = CertifiedReal(v, obj.modulus_theta.forward_bound(eps) + obj.eval_radius)
    cut = psi_hat.value - psi_hat.radius - delta
    keep = vals + obj.eval_radius >= cut
    return DeltaOptimizerSet(x, mesh.points[keep], psi_hat)


def _member_gradients(obj, dset: DeltaOptimizerSet, v: np.ndarray) -> np.ndarray:
    g = np.asarray(obj.grad_x(dset.x, dset.points), dtype=float)
    if g.ndim == 1:
        g = g.reshape(-1, 1)
    return g @ v


def directional_derivative(
    obj: ParametricObjective,
    theta_dom: ThetaDomain,
    x,
    v,
    delta: float,
) -> CertifiedReal:
    """max over the delta-optimizer set of <grad_x phi(x, theta), v>.

    The radius combines the gradient modulus over the optimizer set's
    diameter (which covers the spread of member derivatives, the honest
    delta-dependent part) with the mesh gap and evaluator rounding.  The
    certified claim is |D_v psi(x) - value| <= delta + radius.
    """
    if delta <= 0:
        raise ArgumentError("delta must be positive")
    x = _as_point(x)
    v = _as_point(v)
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        return CertifiedReal(0.0, 0.0)
    mesh_eps = min(
        obj.grad_modulus.step(delta / 4.0),
        obj.modulus_theta.step(delta / 4.0),
        theta_dom.box.diameter / 8.0,
    )
    dset = delta_optimizers(obj, theta_dom, x, delta, mesh_eps)
    dirs = _member_gradients(obj, dset, v)
    val = float(dirs.max())
    slack = vnorm * (
        obj.grad_modulus.forward_bound(dset.diameter + mesh_eps)
        + obj.grad_modulus.forward_bound(mesh_eps)
    ) + vnorm * obj.grad_radius
    return CertifiedReal(val, slack)


def member_spread(obj: ParametricObjective, dset: DeltaOptimizerSet, v) -> tuple[float, float]:
    """Observed spread of member directional derivatives and the certified
    slack that must dominate it (gradient modulus over the set diameter)."""
    v = _as_point(v)
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0 or len(dset) == 0:
        return 0.0, 0.0
    dirs = _member_gradients(obj, dset, v)
    spread = float(dirs.max() - dirs.min())
    slack = vnorm * obj.grad_modulus.forward_bound(dset.diameter) + 2.0 * vnorm * obj.grad_radius
    return spread, slack


@dataclass(frozen=True)
class AuditReport:
    derivative: CertifiedReal
    rows: list  # (h, quotient, lower, upper)

    @property
    def all_bracketed(self) -> bool:
        return all(lo <= q <= hi for _, q, lo, hi in self.rows)

    def to_csv(self) -> str:
        rows = "".join(f"{h!r},{q!r},{lo!r},{hi!r}\n" for h, q, lo, hi in self.rows)
        return "h,quotient,lower,upper\n" + rows


def finite_difference_audit(
    obj: ParametricObjective,
    theta_dom: ThetaDomain,
    x,
    v,
    delta: float,
    h_sequence,
) -> AuditReport:
    """Numerical check of the quotient sandwich around the certified
    directional derivative.

    For each step h (clamped to (0, 1]) the quotient
    (psi(x + h v) - psi(x)) / h must lie within
    [D - delta - slack(h), D + slack(h)] where slack(h) combines the
    derivative certificate radius, the segment variation of the gradient
    and the psi evaluation noise at step h.
    """
    hs = sorted({float(h) for h in h_sequence}, reverse=True)
    if not hs or hs[-1] <= 0:
        raise ArgumentError("h-sequence must be positive and decreasing")
    hs = [min(h, 1.0) for h in hs]
    x = _as_point(x)
    v = _as_point(v)
    vnorm = float(np.linalg.norm(v))
    D = directional_derivative(obj, theta_dom, x, v, delta)
    # floor on the psi precision so the theta mesh stays within budget;
    # the looser precision is reported through the noise envelope
    box = theta_dom.box
    d_min = box.diameter * math.sqrt(box.dim) / 2.0 * (theta_dom.budget / 4.0) ** (-1.0 / box.dim)
    eps_floor = 2.0 * obj.modulus_theta.forward_bound(d_min)
    rows = []
    # hs decreases, so the psi precision never rises and the steps that share
    # one sit next to each other: each run shares a theta mesh and psi(x)
    for eps_psi, run in groupby(hs, key=lambda h: max(h * delta / 8.0, eps_floor, 1e-12)):
        run = list(run)
        p0, *p1s = psi(obj, theta_dom, [x, *(x + h * v for h in run)], eps_psi)
        for h, p1 in zip(run, p1s):
            q = (p1.value - p0.value) / h
            noise = (p1.radius + p0.radius) / h
            segment = vnorm * obj.grad_modulus.forward_bound(h * vnorm)
            upper = D.value + D.radius + segment + noise
            lower = D.value - delta - D.radius - segment - noise
            rows.append((h, q, lower, upper))
    return AuditReport(D, rows)
