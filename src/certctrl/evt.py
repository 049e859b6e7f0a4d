"""Epsilon-optimal policies over equi-Lipschitz, equi-bounded function
classes.

The class is made totally bounded by sampling the domain on a finite node
mesh and the value ball on a finite value mesh, enumerating the
Lipschitz-compatible assignments, and extending each assignment to the
whole domain by a per-coordinate lower McShane extension.  Minimizing a
uniformly continuous functional over that finite net yields a certified
epsilon-optimizer.

The net is one (members, nodes, m) value tensor (PolicyNet).  A
Functional is evaluated on a fixed grid: epsilon_minimize streams blocks
of members' grid values through `Functional.evaluate`, and only the
minimizer is built as a PiecewisePolicy.
"""

from __future__ import annotations

import io
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    ArgumentError,
    CertifiedReal,
    ContractError,
    FiniteMesh,
    Hypercube,
    LocatedSet,
    Modulus,
    ResourceBudgetError,
    build_mesh,
)

__all__ = [
    "PolicyClass",
    "PiecewisePolicy",
    "PolicyNet",
    "Functional",
    "enumerate_policy_net",
    "epsilon_minimize",
    "net_values_on_grid",
    "policy_to_text",
    "policy_from_text",
    "DEFAULT_NET_BUDGET",
]

DEFAULT_NET_BUDGET = 2_000_000


@dataclass(frozen=True)
class PolicyClass:
    """Functions domain -> R^m with a common Lipschitz constant and a
    common sup-norm bound.

    With per_coordinate_budget the net is built with per-coordinate
    constant L/sqrt(m), so extended members certify vector Lipschitz
    constant <= L (exact class membership) at the cost of a finer net.
    """

    domain: Hypercube
    output_dim: int
    lipschitz: float
    bound: float
    per_coordinate_budget: bool = False

    def __post_init__(self):
        if self.lipschitz < 0 or self.bound < 0:
            raise ArgumentError("L and K must be non-negative")
        if self.output_dim < 1:
            raise ArgumentError("output_dim must be >= 1")

    @property
    def coordinate_lipschitz(self) -> float:
        if self.per_coordinate_budget:
            return self.lipschitz / math.sqrt(self.output_dim)
        return self.lipschitz

    @property
    def extension_vector_lipschitz(self) -> float:
        return self.coordinate_lipschitz * math.sqrt(self.output_dim)


@dataclass(frozen=True)
class PiecewisePolicy:
    """A net member: values on dyadic value-mesh nodes over a domain node
    mesh, extended by the clamped lower McShane rule."""

    nodes: FiniteMesh
    values: np.ndarray  # (N, m)
    coordinate_lipschitz: float
    bound: float
    extension_rule: str = "lower_mcshane_clamped"
    index: int = -1

    def __post_init__(self):
        object.__setattr__(self, "values", np.atleast_2d(np.asarray(self.values, dtype=float)))

    @property
    def output_dim(self) -> int:
        return self.values.shape[1]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        xs = np.atleast_2d(x)
        if xs.shape[1] != self.nodes.dim:
            xs = xs.reshape(-1, self.nodes.dim)
        dist = np.linalg.norm(xs[:, None, :] - self.nodes.points[None, :, :], axis=2)
        out = np.max(self.values[None, :, :] - self.coordinate_lipschitz * dist[:, :, None], axis=1)
        np.clip(out, -self.bound, self.bound, out=out)
        if x.ndim <= 1 and xs.shape[0] == 1:
            return out[0]
        return out

    def sup_distance(self, other: "PiecewisePolicy", grid: np.ndarray) -> float:
        a = self(grid)
        b = other(grid)
        return float(np.linalg.norm(a - b, axis=-1).max())


@dataclass(frozen=True)
class Functional:
    """Uniformly continuous cost functional on a policy class, evaluated
    on a fixed grid of the domain.

    evaluate maps a (c, G, m) block - the values of c net members at the G
    points of `grid` - to ``(values, radius)``: the c values J[k] and one
    radius with |J[k] - value| <= radius for every member of the block.
    modulus bounds |J[k] - J[k']| in terms of the sup-norm distance of the
    policies.
    """

    evaluate: Callable[[np.ndarray], tuple]
    modulus: Modulus
    grid: np.ndarray
    name: str = ""


@dataclass(frozen=True)
class PolicyNet(Sequence):
    """A finite policy net as one value tensor: member k takes the values
    values[k] on the shared node mesh.

    The net is a read-only sequence of PiecewisePolicy; a member is built
    only when it is accessed, with its enumeration index as `index`.  A
    slice gives a list of members.
    """

    nodes: FiniteMesh
    values: np.ndarray  # (M, N, m)
    coordinate_lipschitz: float
    bound: float

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        k = operator.index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError(f"net member {k} out of range for {len(self)} members")
        return PiecewisePolicy(self.nodes, self.values[k], self.coordinate_lipschitz, self.bound, index=k)


def _value_mesh(pclass: PolicyClass, spacing: float, budget: int) -> np.ndarray:
    """Mesh of the value ball B_K with per-axis spacing <= `spacing`."""
    K = pclass.bound
    m = pclass.output_dim
    if K == 0.0:
        return np.zeros((1, m))
    # covering the circumscribed cube with spacing h corresponds to
    # resolution h sqrt(m) / 2; from_ball meshes the cube at eps/2
    eps = spacing * math.sqrt(m)
    ball = LocatedSet.from_ball(np.zeros(m), K, budget)
    return ball.mesh(eps).points


def enumerate_policy_net(
    pclass: PolicyClass,
    eps: float,
    budget: int = DEFAULT_NET_BUDGET,
) -> PolicyNet:
    """Finite eps-net of the policy class in sup-norm.

    The budget is split three ways: node gaps, extension variation and
    value snapping each consume about a third of eps.  Raises
    ResourceBudgetError with the count formula when the assignment count
    |K0|^N would exceed the budget.

    Members are the Lipschitz-compatible assignments of value-mesh points
    to the domain nodes, in lexicographic order of their value indices
    (the order of a depth-first enumeration).
    """
    if eps <= 0:
        raise ArgumentError("net resolution must be positive")
    L = pclass.lipschitz
    K = pclass.bound
    m = pclass.output_dim
    Lc = pclass.coordinate_lipschitz

    # single-node members are constants, so Lipschitz constant 0
    center_mesh = FiniteMesh(
        pclass.domain.center.reshape(1, -1), pclass.domain.diameter / 2.0, pclass.domain
    )

    if K == 0.0 or eps >= 2.0 * K:
        # any member is eps-optimal for any functional; the zero policy
        # suffices (certificate radius K)
        return PolicyNet(center_mesh, np.zeros((1, 1, m)), 0.0, K)

    value_spacing = eps / 3.0
    values = _value_mesh(pclass, value_spacing, budget)

    if L == 0.0:
        return PolicyNet(center_mesh, values[:, None, :], 0.0, K)

    L_eff = L + pclass.extension_vector_lipschitz
    # 3.05 instead of 3: keeps the adjacent-node value window strictly
    # under two value-mesh steps, which trims the assignment branching
    # factor while leaving the eps/3 budget split sound
    delta_x = eps / (3.05 * L_eff)
    nodes = build_mesh(pclass.domain, delta_x, budget)
    N = len(nodes)
    n_vals = values.shape[0]
    theoretical = n_vals ** N
    if theoretical > budget * 10_000:
        # hopeless even with aggressive Lipschitz filtering
        raise ResourceBudgetError(
            f"policy net needs up to |K0|^N = {n_vals}^{N} = {theoretical} "
            f"assignments (Lipschitz-filtered) against a budget of {budget}. "
            "Coarsen eps or raise the budget."
        )

    # pairwise distances once; compatibility slack absorbs two value snaps
    D = np.linalg.norm(nodes.points[:, None, :] - nodes.points[None, :, :], axis=2)
    slack = eps / 3.0 + 1e-12
    # gap[a, b] = max_j |K0[a, j] - K0[b, j]|, the left side of every
    # compatibility test
    gap = np.abs(values[:, None, :] - values[None, :, :]).max(axis=2)

    # rows: the compatible assignments to nodes 0..i-1, as value indices in
    # lexicographic order.  Each level extends every row by every
    # compatible value; np.nonzero lists (row, value) pairs row-major, so
    # the order stays lexicographic.
    rows = np.empty((1, 0), dtype=np.intp)
    for i in range(N):
        ok = np.ones((rows.shape[0], n_vals), dtype=bool)
        for j in range(i):
            ok &= gap[rows[:, j]] <= Lc * D[i, j] + slack
        parent, v = np.nonzero(ok)
        rows = np.column_stack([rows[parent], v])
        # The budget is checked on partial counts.  On a 1-D mesh the count
        # never falls from one level to the next (repeating the previous
        # value always extends a row, as D[i, j] >= D[i-1, j] on sorted
        # nodes), so this refuses exactly the nets whose member count
        # exceeds the budget; on higher-dimensional meshes it may also
        # refuse a net whose final count would fit.
        if rows.shape[0] > budget:
            raise ResourceBudgetError(
                f"policy net exceeds the member budget {budget} "
                f"(|K0|^N = {n_vals}^{N} before filtering). "
                "Coarsen eps or raise the budget."
            )
    if rows.shape[0] == 0:
        raise ContractError("net enumeration produced no members; inconsistent meshes")
    return PolicyNet(nodes, values[rows], Lc, K)


# members per evaluation block: a (128, G, m) block of extended values and
# the temporaries of its last node stay within a 2 MB L2 cache at G = 401
# (256 measured slower)
_CHUNK = 128


def _grid_blocks(net: PolicyNet, grid):
    """Yield (start, block): the clamped lower McShane extensions of
    members start .. start + c - 1 on `grid`, shape (c, G, m).

    Same arithmetic as PiecewisePolicy.__call__ (the max over nodes is
    exact in any order), with the grid-to-node distances computed once.
    The partial maximum max_{i <= j} (v_i - L d(g, x_i)) depends only on
    a member's values at nodes 0..j, so within a block it is computed
    once per distinct prefix (consecutive members compared bit for bit),
    and each prefix extends its parent's row by one np.maximum.  Members
    come in lexicographic order, so prefixes are long runs.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1, net.nodes.dim)
    dist = np.linalg.norm(grid[:, None, :] - net.nodes.points[None, :, :], axis=2)
    drop = (net.coordinate_lipschitz * dist).T[:, :, None].copy()  # (N, G, 1)
    N = net.values.shape[1]
    for s in range(0, len(net), _CHUNK):
        v = np.ascontiguousarray(net.values[s : s + _CHUNK], dtype=float)  # (c, N, m)
        # new[k, j]: member k starts a prefix of length j + 1 (the integer
        # view tells -0.0 from 0.0, which != does not)
        bits = v.view(np.int64)
        new = np.ones(v.shape[:2], dtype=bool)
        np.logical_or.accumulate((bits[1:] != bits[:-1]).any(axis=2), axis=1, out=new[1:])
        # owner[k, j]: the row of the level-j partial maxima holding member
        # k's prefix
        owner = np.cumsum(new, axis=0) - 1
        part = v[new[:, 0], None, 0, :] - drop[0]
        for j in range(1, N):
            rows = np.flatnonzero(new[:, j]) if j < N - 1 else slice(None)
            step = v[rows, None, j, :] - drop[j]
            np.maximum(part[owner[rows, j - 1]], step, out=step)
            part = step
        block = part if N > 1 else part[owner[:, 0]]
        np.clip(block, -net.bound, net.bound, out=block)
        yield s, block


def epsilon_minimize(
    J: Functional,
    pclass: PolicyClass,
    eps: float,
    budget: int = DEFAULT_NET_BUDGET,
    net: Optional[PolicyNet] = None,
) -> tuple[PiecewisePolicy, CertifiedReal]:
    """Certified eps-minimization: J[k*] - eps <= inf over the class.

    Enumerates a delta-net with delta = J.modulus.step(eps/2),
    evaluates it block by block through J.evaluate on J.grid and picks a
    member of minimal value (ties by lowest enumeration index).  The
    returned certificate radius covers both the evaluator radius and the
    eps/2 net slack, so `value - radius <= inf` holds.

    A caller may pass a prebuilt `net` (from enumerate_policy_net at the
    same delta) to amortize enumeration across functionals.
    """
    if eps <= 0:
        raise ArgumentError("eps must be positive")
    delta = J.modulus.step(eps / 2.0)
    if net is None:
        net = enumerate_policy_net(pclass, delta, budget)
    values = np.empty(len(net))
    radius = 0.0
    for s, block in _grid_blocks(net, J.grid):
        vals, r = J.evaluate(block)
        if not (math.isfinite(r) and r >= 0.0):
            raise ArgumentError(f"functional radius {r} must be finite and >= 0")
        values[s : s + len(block)] = vals
        radius = max(radius, float(r))
    if not np.isfinite(values).all():
        raise ArgumentError("functional values must be finite")
    best = int(np.argmin(values))  # first minimum: lowest enumeration index
    if radius > eps / 4.0:
        raise ContractError(
            f"functional evaluator radius {radius} exceeds eps/4 = {eps / 4.0}; "
            "tighten the evaluator to keep the certificate sound"
        )
    cert = CertifiedReal(float(values[best]), radius + eps / 2.0)
    return net[best], cert


def net_values_on_grid(net: PolicyNet, grid: np.ndarray) -> np.ndarray:
    """(members, G, m) array of the members' extended values on `grid`."""
    grid = np.asarray(grid, dtype=float).reshape(-1, net.nodes.dim)
    out = np.empty((len(net), grid.shape[0], net.values.shape[2]))
    for s, block in _grid_blocks(net, grid):
        out[s : s + len(block)] = block
    return out


# ---------------------------------------------------------------------------
# Serialization: flat text table, bit-exact round trip
# ---------------------------------------------------------------------------

def policy_to_text(policy: PiecewisePolicy) -> str:
    buf = io.StringIO()
    n = policy.nodes.dim
    m = policy.output_dim
    N = len(policy.nodes)
    Lc = policy.coordinate_lipschitz
    buf.write(f"policy n={n} m={m} N={N} Lc={Lc!r} K={policy.bound!r} rule={policy.extension_rule}\n")
    for i in range(N):
        coords = " ".join(repr(float(c)) for c in policy.nodes.points[i])
        vals = " ".join(repr(float(v)) for v in policy.values[i])
        buf.write(f"{coords} | {vals}\n")
    return buf.getvalue()


def policy_from_text(text: str) -> PiecewisePolicy:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    header = lines[0].split()
    if header[0] != "policy":
        raise ArgumentError("not a policy table")
    meta = dict(kv.split("=", 1) for kv in header[1:])
    n, m, N = int(meta["n"]), int(meta["m"]), int(meta["N"])
    Lc, K = float(meta["Lc"]), float(meta["K"])
    rule = meta.get("rule", "lower_mcshane_clamped")
    pts = np.empty((N, n))
    vals = np.empty((N, m))
    for i, ln in enumerate(lines[1 : N + 1]):
        left, right = ln.split("|")
        pts[i] = [float(t) for t in left.split()]
        vals[i] = [float(t) for t in right.split()]
    mesh = FiniteMesh(pts, math.nan, None)
    return PiecewisePolicy(mesh, vals, Lc, K, extension_rule=rule)
