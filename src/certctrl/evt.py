"""Epsilon-optimal policies over equi-Lipschitz, equi-bounded function
classes.

The class is made totally bounded by sampling the domain on a finite node
mesh and the value ball on a finite value mesh, enumerating the
Lipschitz-compatible assignments, and extending each assignment to the
whole domain by a per-coordinate lower McShane extension.  Minimizing a
uniformly continuous functional over that finite net yields a certified
epsilon-optimizer.

The net is one (members, nodes, m) value tensor (PolicyNet).  A
Functional is evaluated on a fixed grid.  epsilon_minimize does not score
every member: it walks the net's prefix tree (members sharing their values
at nodes 0..j), gives each prefix a float envelope [lo, hi] that holds on
the grid for every member below it, and asks `Functional.evaluate` for a
lower bound on those members' values.  A prefix whose bound is strictly
above the best value found so far is dropped with its subtree (branch and
bound, Land and Doig 1960), so the minimizer, and the certificate, are the
full scan's bit for bit.  Only the minimizer is built as a
PiecewisePolicy.
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


@dataclass(frozen=True)
class Functional:
    """Uniformly continuous cost functional on a policy class, evaluated
    on a fixed grid of the domain.

    evaluate takes one argument, an envelope ``(lo, hi)`` of two (c, G, m)
    arrays on the G points of `grid`, and returns ``(bounds, radius)``.
    Row k of the envelope stands for a set of net members whose values
    lie in [lo[k], hi[k]] at every grid point; bounds[k] must be at most
    the value the evaluator computes for each of them, and the radius
    must bound |J - computed value| for each of them.  A single member is
    passed with lo and hi the same array, and its bound is its value, so
    the evaluator has one path.  Monotone float formulas on the row give
    such bounds: for sup_k |k - t| the distance from t to [lo, hi], for a
    mean the mean of lo.  modulus bounds |J[k] - J[k']| in terms of the
    sup-norm distance of the policies.
    """

    evaluate: Callable[[tuple], tuple]
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
    # resolution h sqrt(m) / 2; the nodes outside the ball are dropped, and
    # the origin stands in when none is left
    cube = build_mesh(Hypercube(np.zeros(m), 2.0 * K), spacing * math.sqrt(m) / 2.0, budget)
    pts = cube.points[np.linalg.norm(cube.points, axis=1) <= K]
    return pts if len(pts) else np.zeros((1, m))


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


# rows per envelope block: small blocks keep the temporaries in cache and
# let a leaf found in one block prune the next; on the synthesis evt-min
# jobs (G = 401) 32 ran fastest, 128 took 1.6 times as long
_CHUNK = 32


class _PrefixTree:
    """The prefix tree of a net, with a float envelope on a grid for every
    prefix.

    A level-j prefix is a maximal run of consecutive members whose values
    at nodes 0..j agree bit for bit (the integer view tells -0.0 from 0.0,
    which != does not); the root is level -1.  In lexicographic order the
    runs are the subtrees of the enumeration, and on any net they
    partition every level, each run inside one run of the level above.

    Every member below a prefix lies in its envelope [lo, hi] on the grid:
    - lo is the clipped partial lower McShane maximum
      max_{i <= j} (v_i - L d(g, x_i)), which the later nodes can only
      raise.  Each level extends its parent's row by one np.maximum with
      the operands of PiecewisePolicy.__call__, so at the last level lo is
      the member's value row bit for bit;
    - hi is the clipped maximum of that partial maximum and
      max_{i > j} (cap_i - L d(g, x_i)), where cap_i is the largest value
      any member of the prefix takes at node i, so cap_i >= v_i bounds
      each later term, and float subtraction, maximum and clip are
      monotone.  At the last level hi is lo.
    """

    def __init__(self, net: PolicyNet, grid: np.ndarray):
        grid = np.asarray(grid, dtype=float).reshape(-1, net.nodes.dim)
        dist = np.linalg.norm(grid[:, None, :] - net.nodes.points[None, :, :], axis=2)
        self.drop = (net.coordinate_lipschitz * dist).T[:, :, None].copy()  # (N, G, 1)
        self.values = np.ascontiguousarray(net.values, dtype=float)  # (M, N, m)
        self.bound = net.bound
        M, N, _ = self.values.shape
        self.depth = N
        bits = self.values.view(np.int64)
        new = np.ones((M, N), dtype=bool)
        np.logical_or.accumulate((bits[1:] != bits[:-1]).any(axis=2), axis=1, out=new[1:])
        # first[j][p]: the first member of level-j prefix p, with M appended,
        # so its members are first[j][p] .. first[j][p + 1] - 1
        self.first = [np.append(np.flatnonzero(new[:, j]), M) for j in range(N)]
        # kids[j][p] .. kids[j][p + 1] - 1: the level-j children of
        # level-(j - 1) prefix p
        self.kids = [np.array([0, len(self.first[0]) - 1])]
        self.kids += [np.searchsorted(self.first[j], self.first[j - 1]) for j in range(1, N)]
        # cap[j][p, i]: the largest value at node j + 1 + i among the members
        # of level-j prefix p, gathered from its children bottom up
        self.cap = [None] * N
        self.cap[N - 1] = np.empty((len(self.first[N - 1]) - 1, 0, self.values.shape[2]))
        for j in range(N - 2, -1, -1):
            below = np.concatenate(
                [self.values[self.first[j + 1][:-1], j + 1 : j + 2], self.cap[j + 1]], axis=1
            )
            self.cap[j] = np.maximum.reduceat(below, self.kids[j + 1][:-1], axis=0)

    def blocks(self, j: int, parents: np.ndarray):
        """Yield (ids, owner): the level-j children of level-(j - 1)
        prefixes `parents`, in order and at most _CHUNK at a time, and for
        each child the position of its parent in `parents`."""
        lo, hi = self.kids[j][parents], self.kids[j][parents + 1]
        counts = hi - lo
        owner = np.repeat(np.arange(len(parents)), counts)
        ids = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)
        for s in range(0, len(ids), _CHUNK):
            yield ids[s : s + _CHUNK], owner[s : s + _CHUNK]

    def envelope(self, j: int, ids: np.ndarray, parents_part: Optional[np.ndarray], owner: np.ndarray):
        """(part, lo, hi) of level-j prefixes `ids`, each (c, G, m): part
        extends the unclipped partial maxima of their parents, row owner[k]
        of parents_part (None at level 0)."""
        part = self.values[self.first[j][ids], None, j, :] - self.drop[j]
        if j:
            np.maximum(parents_part[owner], part, out=part)
        lo = np.clip(part, -self.bound, self.bound)
        if j == self.depth - 1:
            return part, lo, lo
        cap = self.cap[j][ids]
        hi = cap[:, None, 0, :] - self.drop[j + 1]
        for i in range(1, cap.shape[1]):
            np.maximum(hi, cap[:, None, i, :] - self.drop[j + 1 + i], out=hi)
        np.maximum(hi, part, out=hi)
        np.clip(hi, -self.bound, self.bound, out=hi)
        return part, lo, hi


def _descend(tree: _PrefixTree, score, j: int, parents, part, best: tuple) -> tuple:
    """Branch and bound below level-(j - 1) prefixes `parents`, whose
    partial maxima are `part`: the least (value, member index) among
    `best` and the members below them.  A prefix whose bound is strictly
    above the best value so far is dropped with its subtree."""
    for ids, owner in tree.blocks(j, parents):
        p, bounds = score(j, ids, part, owner)
        if j == tree.depth - 1:
            k = int(np.argmin(bounds))
            best = min(best, (bounds[k], int(tree.first[j][ids[k]])))
            continue
        keep = np.ones(len(ids), dtype=bool)
        if best[1] < 0:
            # no leaf yet: the child of lowest bound first (a greedy dive),
            # whose leaf becomes the incumbent
            k = int(np.argmin(bounds))
            best = _descend(tree, score, j + 1, ids[k : k + 1], p[k : k + 1], best)
            keep[k] = False
        keep &= bounds <= best[0]
        if keep.any():
            best = _descend(tree, score, j + 1, ids[keep], p[keep], best)
    return best


def epsilon_minimize(
    J: Functional,
    pclass: PolicyClass,
    eps: float,
    budget: int = DEFAULT_NET_BUDGET,
    net: Optional[PolicyNet] = None,
    work: Optional[dict] = None,
) -> tuple[PiecewisePolicy, CertifiedReal]:
    """Certified eps-minimization: J[k*] - eps <= inf over the class.

    Enumerates a delta-net with delta = J.modulus.step(eps/2) and returns
    a member of minimal value on J.grid (ties by lowest enumeration
    index).  The returned certificate radius covers both the evaluator
    radius and the eps/2 net slack, so `value - radius <= inf` holds.

    The minimum is found by branch and bound on the net's prefix tree
    (_PrefixTree): J.evaluate maps each prefix's envelope to a lower
    bound on the value of every member below it.  The depth-first walk
    (_descend) first follows the child of lowest bound down to a leaf,
    whose value is the incumbent; from then on it drops every prefix
    whose bound is strictly above the incumbent, subtree and all, and
    lowers the incumbent at each better leaf.  Every member of minimal
    value survives, so the result is the full scan's, bit for bit.

    A caller may pass a prebuilt `net` (from enumerate_policy_net at the
    same delta) to amortize enumeration across functionals.  A `work`
    dict receives `prefix_rows`, the envelope rows built, and `scored`,
    the leaf rows whose value was computed.  The certificate takes the
    largest radius J.evaluate returned, pruned envelopes included, so it
    covers every member of the net.
    """
    if eps <= 0:
        raise ArgumentError("eps must be positive")
    delta = J.modulus.step(eps / 2.0)
    if net is None:
        net = enumerate_policy_net(pclass, delta, budget)
    tree = _PrefixTree(net, J.grid)
    radius = 0.0
    counts = {"prefix_rows": 0, "scored": 0}

    def score(j, ids, parents_part, owner):
        """Partial maxima and bounds of level-j prefixes `ids`."""
        nonlocal radius
        part, lo, hi = tree.envelope(j, ids, parents_part, owner)
        bounds, r = J.evaluate((lo, hi))
        if not (math.isfinite(r) and r >= 0.0):
            raise ArgumentError(f"functional radius {r} must be finite and >= 0")
        if not np.isfinite(bounds).all():
            raise ArgumentError("functional values must be finite")
        radius = max(radius, float(r))
        counts["prefix_rows"] += len(ids)
        counts["scored"] += len(ids) if j == tree.depth - 1 else 0
        return part, bounds

    # ties keep the lowest member index: (value, index) tuples compare so
    root = np.zeros(1, dtype=np.intp)
    value, index = _descend(tree, score, 0, root, None, (math.inf, -1))
    if radius > eps / 4.0:
        raise ContractError(
            f"functional evaluator radius {radius} exceeds eps/4 = {eps / 4.0}; "
            "tighten the evaluator to keep the certificate sound"
        )
    if work is not None:
        work.update(counts)
    cert = CertifiedReal(float(value), radius + eps / 2.0)
    return net[index], cert


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
