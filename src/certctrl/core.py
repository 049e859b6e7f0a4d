"""Certified scalar/vector arithmetic, continuity moduli and finite
meshes.

Everything downstream consumes these primitives: a real number is a float
together with an explicit error radius, a continuous function carries a
modulus certificate, and a totally bounded set is an algorithm producing a
finite mesh at every resolution.  All types are immutable after
construction and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ArgumentError",
    "ResourceBudgetError",
    "ContractError",
    "InternalConsistencyError",
    "DomainExitError",
    "CertifiedReal",
    "Modulus",
    "Hypercube",
    "FiniteMesh",
    "build_mesh",
    "mesh_divisions",
    "mesh_node",
    "snap_dyadic",
    "DEFAULT_MESH_BUDGET",
    "SNAP_BITS",
]


class ArgumentError(ValueError):
    """Raised when an argument violates a precondition."""


class ResourceBudgetError(RuntimeError):
    """Raised when an operation would exceed a configured resource budget.

    The message always names the required count so callers can decide
    whether to raise the budget or coarsen the tolerance.
    """


class ContractError(RuntimeError):
    """Raised when supplied data fails a stated contract (missing modulus,
    inconsistent generator, evaluator too imprecise)."""


class InternalConsistencyError(RuntimeError):
    """Raised when an internal invariant that should hold by construction
    fails; indicates unsound input certificates rather than bad arguments."""


class DomainExitError(RuntimeError):
    """Raised when a trajectory leaves its stated state domain."""

    def __init__(self, msg, exit_time=None, state=None):
        super().__init__(msg)
        self.exit_time = exit_time
        self.state = state


# Radius arithmetic is itself done in floats; the safety factor covers the
# handful of roundings incurred while computing a radius.
_RADIUS_SAFETY = 1.0 + 1e-12

SNAP_BITS = 44
_SNAP_SCALE = float(1 << SNAP_BITS)

DEFAULT_MESH_BUDGET = 4_000_000
_FLOAT_MAX = 1.7976931348623157e308  # the largest double


def _inflate(value: float, raw_radius: float) -> float:
    """One-ulp rounding inflation on top of the propagated radius."""
    return raw_radius * _RADIUS_SAFETY + math.ulp(abs(value))


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _float_up(q: Fraction) -> float:
    """The least float >= the rational q: outward rounding as in Moore,
    Kearfott and Cloud, Introduction to Interval Analysis (SIAM 2009): the
    nearest float by int true division, one ulp up if it lies below q."""
    try:
        f = q.numerator / q.denominator
    except OverflowError:
        return math.inf if q > 0 else -_FLOAT_MAX
    fn, fd = f.as_integer_ratio()
    return f if fn * q.denominator >= q.numerator * fd else _up(f)


def _float_down(q: Fraction) -> float:
    """The greatest float <= the rational q (0.0, not -0.0, for q = 0)."""
    return -_float_up(-q) + 0.0


def _nearest_floats(num: np.ndarray, den: int):
    """(f, exact): num / den rounded to the nearest float elementwise, as
    Fraction.__float__ rounds it, and where f equals num / den."""
    e = den.bit_length() - 1
    if den == 1 << e and num.dtype != object and np.abs(num).max(initial=0) < 1 << 53:
        f = np.ldexp(num.astype(float), -e)  # num is a float: one rounding, if subnormal
        return f, np.ldexp(f, e) == num
    f = [n / den for n in num.tolist()]  # int / int rounds to nearest
    exact = [n * q == p * den for n, (p, q) in zip(num.tolist(), (x.as_integer_ratio() for x in f))]
    return np.array(f, dtype=float), np.array(exact, dtype=bool)


def _sub_up(x: np.ndarray, y: np.ndarray):
    """(u, exact): u = x - y rounded up to a float, elementwise, exact where
    exact is set: TwoSum (Knuth; Shewchuk 1997) gives x - y = s + err
    exactly while nothing overflows."""
    s = x - y
    z = s - x
    err = (x - (s - z)) - (y + z)
    return np.where(err > 0, np.nextafter(s, np.inf), s), np.isfinite(err)


def snap_dyadic(x) -> np.ndarray:
    """Round every entry of x to the dyadic lattice 2^-SNAP_BITS (exact in
    binary64 at desk scale), so node equality is exactly decidable.

    Bit-identical to the scalar ``round(x * 2**SNAP_BITS) / 2**SNAP_BITS``:
    ``np.rint`` rounds half to even like ``round``, and adding ``0.0`` turns
    the ``-0.0`` that ``rint`` gives small negatives into ``round``'s ``0.0``.
    Raises ArgumentError on NaN, or where x * 2**SNAP_BITS overflows.
    """
    with np.errstate(over="ignore"):  # reported below as ArgumentError
        out = np.rint(np.asarray(x, dtype=float) * _SNAP_SCALE) / _SNAP_SCALE + 0.0
    if not np.all(np.isfinite(out)):
        raise ArgumentError("cannot snap a non-finite coordinate to the dyadic lattice")
    return out


@dataclass(frozen=True)
class CertifiedReal:
    """A real number as an approximation plus a sound error radius.

    The invariant is |true - value| <= radius.  Every arithmetic operation
    propagates input radii soundly and inflates by one ulp of the result to
    absorb its own rounding.
    """

    value: float
    radius: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ArgumentError("CertifiedReal value must be finite")
        if not (self.radius >= 0.0 and math.isfinite(self.radius)):
            raise ArgumentError("CertifiedReal radius must be finite and >= 0")

    # -- interval endpoints ------------------------------------------------
    @property
    def lower(self) -> float:
        return self.value - self.radius

    @property
    def upper(self) -> float:
        return self.value + self.radius

    def contains(self, exact) -> bool:
        """Exact containment test; `exact` may be a Fraction for an
        authoritative rational check."""
        if isinstance(exact, Fraction):
            return abs(exact - Fraction(self.value)) <= Fraction(self.radius)
        return abs(exact - self.value) <= self.radius

    # -- arithmetic --------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "CertifiedReal":
        if isinstance(other, CertifiedReal):
            return other
        return CertifiedReal(float(other), 0.0)

    def __add__(self, other):
        o = self._coerce(other)
        v = self.value + o.value
        return CertifiedReal(v, _inflate(v, self.radius + o.radius))

    __radd__ = __add__

    def __neg__(self):
        return CertifiedReal(-self.value, self.radius)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        v = self.value * o.value
        raw = abs(self.value) * o.radius + abs(o.value) * self.radius + self.radius * o.radius
        return CertifiedReal(v, _inflate(v, raw))

    __rmul__ = __mul__

    def __abs__(self):
        v = abs(self.value)
        return CertifiedReal(v, _inflate(v, self.radius))

    def __repr__(self):
        return f"CertifiedReal({self.value!r} ± {self.radius!r})"


class Modulus:
    """A continuity certificate in mu-format: a positive-definite monotone
    map bounding the output distance, |f(x) - f(y)| <= mu(|x - y|).
    Stepping it inverts mu, exactly for a Lipschitz modulus and otherwise
    by monotone bisection (64 iterations), a conservative
    under-approximation.
    """

    __slots__ = ("_fn", "lipschitz_constant")

    def __init__(self, fn: Callable[[float], float], lipschitz_constant: Optional[float] = None):
        self._fn = fn
        self.lipschitz_constant = lipschitz_constant

    @classmethod
    def lipschitz(cls, L: float) -> "Modulus":
        if L < 0:
            raise ArgumentError("Lipschitz constant must be >= 0")
        return cls(lambda t, L=L: L * t, lipschitz_constant=L)

    @classmethod
    def mu(cls, fn: Callable[[float], float]) -> "Modulus":
        return cls(fn)

    def forward_bound(self, t: float) -> float:
        """Output distance guaranteed at input gap t."""
        return 0.0 if t <= 0 else self._fn(t)

    def step(self, eps: float) -> float:
        """Largest certified input distance for output precision eps."""
        if eps <= 0:
            raise ArgumentError("modulus step requires eps > 0")
        if self.lipschitz_constant is not None:
            if self.lipschitz_constant == 0.0:
                return math.inf
            return eps / self.lipschitz_constant
        # monotone bisection for the largest t with mu(t) <= eps
        lo, hi, grow = 0.0, 1.0, 0
        while self._fn(hi) <= eps and grow < 80:
            lo = hi
            hi *= 2.0
            grow += 1
        if grow >= 80:
            return lo
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if self._fn(mid) <= eps:
                lo = mid
            else:
                hi = mid
        if lo <= 0.0:
            # mu is positive away from 0, so a tiny positive step always exists
            lo = hi * 0.5 ** 64
        return lo


@dataclass(frozen=True)
class Hypercube:
    """Closed axis-aligned hypercube: center plus total side length.

    The corners lo and hi are center -+ side / 2, except for a box built
    by `interval`, which keeps the end points it is given.
    """

    center: np.ndarray
    side: float
    lo: np.ndarray = field(init=False, repr=False, compare=False)
    hi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))
        if not (math.isfinite(self.side) and self.side > 0):
            raise ArgumentError(f"hypercube side must be positive and finite, got {self.side}")
        if self.center.ndim != 1 or self.center.size < 1:
            raise ArgumentError("hypercube center must be a 1-D point")
        self._corners(self.center - 0.5 * self.side, self.center + 0.5 * self.side)

    def _corners(self, lo: np.ndarray, hi: np.ndarray) -> None:
        for name, corner in (("lo", lo), ("hi", hi)):
            corner.setflags(write=False)
            object.__setattr__(self, name, corner)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "Hypercube":
        """The 1-D box [lo, hi] with its end points exactly: the center
        (lo + hi) / 2 and the side hi - lo may round, and center -+ side / 2
        with them (for [-0.2, 1.8], lo would be -0.19999999999999996)."""
        box = cls(np.array([(lo + hi) / 2.0]), hi - lo)
        box._corners(np.array([lo], dtype=float), np.array([hi], dtype=float))
        return box

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def diameter(self) -> float:
        return self.side * math.sqrt(self.dim)

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(size, self.dim))


@dataclass(frozen=True)
class FiniteMesh:
    """A finite epsilon-net: the output of a total-boundedness algorithm.

    points: (N, n) array of pairwise distinct nodes lying in the parent set.
    resolution: every parent point is within `resolution` of a node.
    """

    points: np.ndarray
    resolution: float
    parent: object = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def covering_check(self, rng: np.random.Generator, n_samples: int = 10_000) -> float:
        """Sample the parent set and return the worst min-distance found.

        Assumes a `build_mesh` grid: the nodes are every combination of the
        per-axis node coordinates (ContractError otherwise), and the parent
        is a Hypercube (or exposes .sample).  The nearest node to a sample
        is then the per-axis nearest node, one of the two nodes of its grid
        cell that searchsorted finds: every other node lies beyond one of
        them, so its rounded coordinate difference is no smaller, and the
        rounded norm is monotone in each difference.  The distance to that
        node is the brute-force norm expression, so the worst is the same
        float as over every node.
        """
        if self.parent is None or not hasattr(self.parent, "sample"):
            raise ContractError("covering check needs a sampleable parent set")
        axes = [np.unique(col) for col in self.points.T]
        if math.prod(len(g) for g in axes) != len(self):
            raise ContractError("covering check needs a product-grid mesh")
        xs = self.parent.sample(rng, n_samples)
        nearest = np.empty_like(xs)
        for j, g in enumerate(axes):
            # the cell's lower and upper node; the end node outside the grid
            hi = np.searchsorted(g, xs[:, j])
            below, above = g[np.maximum(hi - 1, 0)], g[np.minimum(hi, len(g) - 1)]
            closer = np.abs(xs[:, j] - below) <= np.abs(xs[:, j] - above)
            nearest[:, j] = np.where(closer, below, above)
        return float(np.linalg.norm(xs[:, None, :] - nearest[:, None, :], axis=2).max())


def mesh_divisions(box: Hypercube, eps: float) -> int:
    """Divisions k per axis of build_mesh(box, eps), 0 for the single
    center node; the nodes depend on box and k only."""
    if eps <= 0:
        raise ArgumentError("mesh resolution must be positive")
    if 0.5 * box.diameter <= eps:
        return 0
    # shave a hair off eps so dyadic snapping cannot break the cover
    h_max = 2.0 * eps * (1.0 - 2.0 ** -20) / math.sqrt(box.dim)
    return max(1, math.ceil(box.side / h_max))


def build_mesh(box: Hypercube, eps: float, budget: int = DEFAULT_MESH_BUDGET) -> FiniteMesh:
    """Uniform dyadic grid covering `box` at resolution eps.

    Grid spacing h <= 2 eps / sqrt(n) guarantees the covering property;
    node coordinates are snapped to the dyadic lattice so node equality is
    exactly decidable.  A single node (the center) suffices once eps
    reaches half the box diameter.
    """
    n = box.dim
    k = mesh_divisions(box, eps)
    if k == 0:
        pts = snap_dyadic(box.center)[None, :]
        return FiniteMesh(pts, eps, box)
    count = (k + 1) ** n
    if count > budget:
        raise ResourceBudgetError(
            f"mesh at resolution {eps} needs {count} nodes "
            f"((k+1)^n with k={k}, n={n}) but the budget is {budget}"
        )
    axes = snap_dyadic(box.lo[:, None] + box.side * np.arange(k + 1) / k)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return FiniteMesh(pts, eps, box)


def mesh_node(box: Hypercube, k: int, j: int) -> float:
    """Node j of the one-dimensional build_mesh(box, eps), k =
    mesh_divisions(box, eps), bit for bit; nodes do not decrease with j."""
    x = float(box.center[0]) if k == 0 else float(box.lo[0]) + float(box.side) * j / k
    scaled = x * _SNAP_SCALE
    if not math.isfinite(scaled):
        raise ArgumentError("cannot snap a non-finite coordinate to the dyadic lattice")
    return round(scaled) / _SNAP_SCALE + 0.0
