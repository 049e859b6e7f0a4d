"""Measurable-selector machinery on rational block algebra.

Blocks are closed hyperrectangles with rational vertices, so emptiness,
intersection, set difference and volume are all exactly decidable.  A
regular set-valued function (finitely many chunks per domain block with
continuous boundary functions) is first frozen into a simple set-valued
function on a refined partition, then a piecewise-constant selector is
extracted by the staged mesh recursion: at stage k the candidate values
form a dyadic mesh on [0, 1], the sets

    C_i = {x : |r_i - Fhat(x)| <= 2^-k - margin}
    D_i = {x : |r_i - f_{k-1}(x)| <= 2^-(k-1) - margin}

are computed exactly (both functions are block-constant), and f_k takes
on each piece the first r_i whose C_i and D_i contain it.  The pieces are
interior-disjoint, so this is what countable reduction of the C_i & D_i
gives, without splitting a piece.

The recursion is seeded with the codomain midpoint: seeding with 0 (the
bottom endpoint) strands chunks with values above 3/4 because the stage-2
conditions |r - 1| < 1/4 and |r - 0| < 1/2 cannot both hold.  The
midpoint start satisfies dist(f_0, Fhat(x)) <= 1/2 for every nonempty
value set, which is exactly the induction hypothesis the first stage
needs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    ArgumentError,
    ContractError,
    InternalConsistencyError,
    Modulus,
    ResourceBudgetError,
    _float_up,
    _up,
)

__all__ = [
    "Block",
    "GeneralizedBlock",
    "RepresentableDomain",
    "Chunk",
    "RegularSVF",
    "SimpleSVF",
    "Selector",
    "countable_reduction",
    "simple_approx",
    "extract_selector",
    "certify_selector",
]

STRICTNESS_MARGIN_SHIFT = 4  # strict sets realized as closed sets shrunk by 2^-(k+4)


@dataclass(frozen=True)
class Block:
    """Closed hyperrectangle with rational vertices; may be empty."""

    intervals: tuple  # tuple[(Fraction lo, Fraction hi), ...]

    @classmethod
    def make(cls, *bounds) -> "Block":
        return cls(tuple((Fraction(lo), Fraction(hi)) for lo, hi in bounds))

    @classmethod
    def interval(cls, lo, hi) -> "Block":
        return cls.make((lo, hi))

    @property
    def dim(self) -> int:
        return len(self.intervals)

    @property
    def is_empty(self) -> bool:
        return any(lo > hi for lo, hi in self.intervals)

    def volume(self) -> Fraction:
        if self.is_empty:
            return Fraction(0)
        return math.prod((hi - lo for lo, hi in self.intervals), start=Fraction(1))

    def intersect(self, other: "Block") -> "Block":
        return Block(tuple((max(a_lo, b_lo), min(a_hi, b_hi))
                           for (a_lo, a_hi), (b_lo, b_hi) in zip(self.intervals, other.intervals)))

    def interior_overlaps(self, other: "Block") -> bool:
        return all(
            max(a_lo, b_lo) < min(a_hi, b_hi)
            for (a_lo, a_hi), (b_lo, b_hi) in zip(self.intervals, other.intervals)
        )

    def contains(self, x) -> bool:
        # a Fraction on the left compares exactly with ints, floats and Fractions
        return all(lo <= xi and hi >= xi for (lo, hi), xi in zip(self.intervals, x))

    def subtract(self, other: "Block") -> list:
        """Closure of self minus other as interior-disjoint closed blocks."""
        if self.is_empty:
            return []
        if not self.interior_overlaps(other):
            return [self]
        c = self.intersect(other)
        pieces = []
        cur = list(self.intervals)
        for axis in range(self.dim):
            lo, hi = cur[axis]
            clo, chi = c.intervals[axis]
            if lo < clo:
                pieces.append(Block(tuple(cur[:axis] + [(lo, clo)] + cur[axis + 1 :])))
            if chi < hi:
                pieces.append(Block(tuple(cur[:axis] + [(chi, hi)] + cur[axis + 1 :])))
            cur[axis] = (clo, chi)
        return [p for p in pieces if p.volume() > 0]

    def center(self) -> tuple:
        return tuple((lo + hi) / 2 for lo, hi in self.intervals)

    def center_float(self) -> np.ndarray:
        return np.array([float((lo + hi) / 2) for lo, hi in self.intervals])

    def euclid_diameter(self) -> float:
        return math.sqrt(sum(float(hi - lo) ** 2 for lo, hi in self.intervals))

    def halve_longest(self) -> tuple["Block", "Block"]:
        axis = max(range(self.dim), key=lambda d: self.intervals[d][1] - self.intervals[d][0])
        lo, hi = self.intervals[axis]
        mid = (lo + hi) / 2
        left = Block(self.intervals[:axis] + ((lo, mid),) + self.intervals[axis + 1 :])
        right = Block(self.intervals[:axis] + ((mid, hi),) + self.intervals[axis + 1 :])
        return left, right

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        lo = np.array([float(a) for a, _ in self.intervals])
        hi = np.array([float(b) for _, b in self.intervals])
        return rng.uniform(lo, hi, size=(size, self.dim))


@dataclass(frozen=True)
class GeneralizedBlock:
    """Finite union of blocks; proper when the pieces are pairwise
    interior-disjoint (decided exactly)."""

    blocks: tuple

    @property
    def proper(self) -> bool:
        """Sweep along the first axis: with the non-empty blocks sorted by
        their first lower end, a block can only overlap the later blocks
        whose first lower end lies below its first upper end."""
        bs = sorted((b for b in self.blocks if not b.is_empty), key=lambda b: b.intervals[0][0])
        for i, a in enumerate(bs):
            a_hi = a.intervals[0][1]
            j = i + 1
            while j < len(bs) and bs[j].intervals[0][0] < a_hi:
                if a.interior_overlaps(bs[j]):
                    return False
                j += 1
        return True

    def volume_exact(self) -> Fraction:
        return sum((b.volume() for b in self.blocks), Fraction(0))

    def contains(self, x) -> bool:
        return any(b.contains(x) for b in self.blocks)


def countable_reduction(gbs: Sequence) -> list:
    """Convert a sequence of generalized blocks into pairwise
    interior-disjoint ones: each entry keeps what earlier entries have
    not already claimed.  Union preserved up to shared facets."""
    placed: list[Block] = []
    out = []
    for gb in gbs:
        blocks = gb.blocks if isinstance(gb, GeneralizedBlock) else tuple(gb)
        kept: list[Block] = []
        for blk in blocks:
            if blk.is_empty or blk.volume() == 0:
                continue
            frontier = [blk]
            for p in placed:
                frontier = [piece for f in frontier for piece in f.subtract(p)]
                if not frontier:
                    break
            kept.extend(frontier)
        placed.extend(kept)
        out.append(GeneralizedBlock(tuple(kept)))
    return out


@dataclass(frozen=True)
class RepresentableDomain:
    """Base blocks plus an exception generator: for any eps the generator
    returns a generalized block J with volume <= eps containing the
    boundary structure, and base \\ J is covered by the base blocks."""

    base: tuple  # tuple[Block]
    exception_generator: Callable[[Fraction], GeneralizedBlock]

    def exception(self, eps) -> GeneralizedBlock:
        eps = Fraction(eps)
        if eps <= 0:
            raise ArgumentError("exception budget must be positive")
        J = self.exception_generator(eps)
        if J.volume_exact() > eps:
            raise InternalConsistencyError("exception generator exceeded its volume budget")
        return J

    def sample_off_exception(self, rng: np.random.Generator, n: int, eps) -> np.ndarray:
        """Sample base points outside the exception block J(eps)."""
        J = self.exception(eps)
        vols = np.array([float(b.volume()) for b in self.base])
        if vols.sum() <= 0:
            raise ContractError("representable domain has no volume")
        probs = vols / vols.sum()
        out = []
        guard = 0
        while len(out) < n and guard < 100 * n:
            guard += 1
            b = self.base[int(rng.choice(len(self.base), p=probs))]
            x = b.sample(rng, 1)[0]
            if not J.contains([Fraction(float(v)) for v in x]):
                out.append(x)
        if len(out) < n:
            raise InternalConsistencyError("exception set rejected nearly every sample")
        return np.array(out)


def _ceil_log2(q: Fraction) -> int:
    """ceil(log2 q) for a rational q > 0, exactly: with m the difference of
    the bit lengths of numerator and denominator, 2^(m-1) < q < 2^(m+1)."""
    n, d = q.numerator, q.denominator
    m = n.bit_length() - d.bit_length()
    return m if (n <= d << m if m >= 0 else n << -m <= d) else m + 1


def _facet_exception_generator(blocks: Sequence[Block]) -> Callable[[Fraction], GeneralizedBlock]:
    """J(eps) = thin boxes around every block facet, width chosen so the
    total volume stays within eps (dyadic floor)."""
    facets = []  # (block, axis, coordinate, facet_area)
    total_area = Fraction(0)
    for b in blocks:
        if b.is_empty:
            continue
        for axis in range(b.dim):
            area = Fraction(1)
            for d, (lo, hi) in enumerate(b.intervals):
                if d != axis:
                    area *= hi - lo
            for coord in b.intervals[axis]:
                facets.append((b, axis, coord, area))
                total_area += area

    def gen(eps: Fraction) -> GeneralizedBlock:
        if not facets:
            return GeneralizedBlock(())
        w = eps / (2 * total_area)
        # dyadic floor keeps vertices rational with small denominators;
        # ceil(-log2 w) is worked out exactly, as w may underflow a float
        shift = max(0, _ceil_log2(1 / w)) + 1 if w > 0 else 1
        w = Fraction(math.floor(w * (1 << shift)), 1 << shift)
        if w == 0:
            w = eps / (4 * total_area)
        out = []
        for b, axis, coord, _ in facets:
            ivs = list(b.intervals)
            ivs[axis] = (coord - w, coord + w)
            out.append(Block(tuple(ivs)))
        return GeneralizedBlock(tuple(out))

    return gen


# ---------------------------------------------------------------------------
# Set-valued functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chunk:
    """One value chunk [alpha(x), beta(x)] with a shared modulus."""

    alpha: Callable[[np.ndarray], float]
    beta: Callable[[np.ndarray], float]
    modulus: Modulus
    eval_radius: float = 1e-9


@dataclass(frozen=True)
class RegularSVF:
    """Regular set-valued function: per domain block, finitely many chunks
    bounded by continuous functions with moduli."""

    domain_blocks: tuple  # tuple[Block]
    chunks_per_block: tuple  # tuple[tuple[Chunk, ...]]
    value_range: tuple = (Fraction(0), Fraction(1))

    def __post_init__(self):
        if len(self.domain_blocks) != len(self.chunks_per_block):
            raise ArgumentError("one chunk list per domain block required")
        gb = GeneralizedBlock(tuple(self.domain_blocks))
        if not gb.proper:
            raise ArgumentError("domain blocks must be pairwise interior-disjoint")
        lo, hi = self.value_range
        if not Fraction(lo) < Fraction(hi):
            raise ArgumentError("value range must be a nondegenerate interval")
        object.__setattr__(self, "value_range", (Fraction(lo), Fraction(hi)))

    def block_index(self, x) -> Optional[int]:
        for i, b in enumerate(self.domain_blocks):
            if b.contains(x):
                return i
        return None

    def value_intervals(self, x) -> list:
        """F(x) as float chunk intervals (for sampling-based checks)."""
        i = self.block_index([Fraction(float(v)) for v in np.atleast_1d(x)])
        if i is None:
            return []
        xx = np.atleast_1d(np.asarray(x, dtype=float))
        out = []
        for ch in self.chunks_per_block[i]:
            a, b = float(ch.alpha(xx)), float(ch.beta(xx))
            out.append((min(a, b), max(a, b)))
        return out

    def located_distance_to(self, x, y: float) -> float:
        ivs = self.value_intervals(x)
        if not ivs:
            return math.inf
        return min(max(0.0, lo - y, y - hi) for lo, hi in ivs)


@dataclass(frozen=True)
class SimpleSVF:
    """Block-constant set-valued function: rational value intervals per
    piece of a proper partition."""

    pieces: tuple  # tuple[(Block, tuple[(Fraction, Fraction), ...])]


@dataclass(frozen=True)
class Selector:
    """Piecewise-constant measurable selector with a located-distance
    certificate on a representable domain."""

    pieces: tuple  # tuple[(Block, Fraction value)]
    epsilon: float
    domain: RepresentableDomain
    stage: int = 0

    def __call__(self, x) -> Optional[float]:
        xf = [Fraction(float(v)) for v in np.atleast_1d(x)]
        for b, val in self.pieces:
            if b.contains(xf):
                return float(val)
        return None

    def proper(self) -> bool:
        return GeneralizedBlock(tuple(b for b, _ in self.pieces)).proper


# ---------------------------------------------------------------------------
# simple approximation
# ---------------------------------------------------------------------------

def _dyadic_floor(x: float, shift: int) -> Fraction:
    return Fraction(math.floor(x * (1 << shift)), 1 << shift)


def _dyadic_ceil(x: float, shift: int) -> Fraction:
    return Fraction(math.ceil(x * (1 << shift)), 1 << shift)


def simple_approx(F: RegularSVF, delta: float, max_blocks: int = 200_000):
    """Freeze F into a block-constant set-valued function within Hausdorff
    distance delta, on a representable domain.

    Each domain block is refined until every chunk boundary varies at most
    delta/2 (per its modulus), then each chunk is frozen to the rational
    interval [round-down min alpha, round-up max beta].
    """
    if delta <= 0:
        raise ArgumentError("delta must be positive")
    for chunks in F.chunks_per_block:
        for ch in chunks:
            if ch.modulus is None:
                raise ContractError("chunk boundary function without modulus")
    shift = max(3, _ceil_log2(8 / Fraction(delta)))
    too_many = f"simple approximation needs more than {max_blocks} blocks; coarsen delta"
    pieces = []
    for blk, chunks in zip(F.domain_blocks, F.chunks_per_block):
        if not chunks:
            raise ContractError("regular SVF block with no chunks")
        d_req = min(2.0 * ch.modulus.step(delta / 4.0) for ch in chunks)
        # leaves are at most d_req long: a block over 2 max_blocks d_req needs too many
        if blk.volume() > 0 and max(float(hi - lo) for lo, hi in blk.intervals) > 2.0 * max_blocks * d_req:
            raise ResourceBudgetError(too_many)
        # chunk ends are frozen as floats times 2^shift, which must be a float
        # (checked once a block has passed its budget, before any is refined)
        if shift >= sys.float_info.max_exp:
            raise ResourceBudgetError(f"chunk ends on a 2^-{shift} grid are finer than a float can scale")
        todo = [blk]
        leaves = []
        while todo:
            b = todo.pop()
            if b.euclid_diameter() <= d_req or b.volume() == 0:
                leaves.append(b)
            else:
                todo.extend(b.halve_longest())
            if len(leaves) + len(todo) > max_blocks:
                raise ResourceBudgetError(too_many)
        for b in leaves:
            c = b.center_float()
            rad = b.euclid_diameter() / 2.0
            vals = []
            for ch in chunks:
                var = ch.modulus.forward_bound(rad) + ch.eval_radius
                lo = _dyadic_floor(float(ch.alpha(c)) - var, shift)
                hi = _dyadic_ceil(float(ch.beta(c)) + var, shift)
                vals.append((lo, hi))
            pieces.append((b, tuple(vals)))
    base = tuple(b for b, _ in pieces)
    domain = RepresentableDomain(base, _facet_exception_generator(base))
    return SimpleSVF(tuple(pieces)), domain


# ---------------------------------------------------------------------------
# selector extraction
# ---------------------------------------------------------------------------

def _rescaled(F: RegularSVF):
    lo, hi = F.value_range
    scale = hi - lo

    def wrap(ch: Chunk) -> Chunk:
        s = float(scale)
        base_mod = ch.modulus
        return Chunk(
            alpha=lambda x, f=ch.alpha, l=float(lo), s=s: (f(x) - l) / s,
            beta=lambda x, f=ch.beta, l=float(lo), s=s: (f(x) - l) / s,
            modulus=Modulus.mu(lambda t, m=base_mod, s=s: m.forward_bound(t) / s),
            eval_radius=ch.eval_radius / s,
        )

    chunks = tuple(tuple(wrap(ch) for ch in chs) for chs in F.chunks_per_block)
    return RegularSVF(F.domain_blocks, chunks, (Fraction(0), Fraction(1))), lo, scale


def _clip_unit(iv):
    lo, hi = iv
    return (min(max(lo, Fraction(0)), Fraction(1)), min(max(hi, Fraction(0)), Fraction(1)))


def _run_stages(fhat: SimpleSVF, n_stages: int):
    """The staged recursion.  At stage k the candidate values are the
    dyadic mesh j / 2^(k+1) on [0, 1] (covering radius 2^-(k+2), strictly
    finer than the 2^-(k+1) the recursion needs).  The C/D conditions are
    constant per piece, so each piece keeps its block and takes the first
    qualifying mesh value; pieces are listed mesh value first, then in
    their previous order, as countable reduction of the C & D sets lists
    them.

    Every number is held exactly as a Python int numerator over one
    common denominator D, the least common multiple of 2^(n_stages +
    STRICTNESS_MARGIN_SHIFT) and the denominators of the clipped frozen
    chunk ends (a power of two, 2^M, for the dyadic ends simple_approx
    writes).  The mesh step is D / 2^(k+1), so the stage value is j times
    the step; t_c and t_d are differences of D / 2^i; and the mesh value
    r qualifies for an interval [lo, hi] when max(0, lo - r, r - hi) <=
    t_c, that is when r lies in [lo - t_c, hi + t_c].  The first
    qualifying index is then a floor or ceiling division by the step per
    interval.  Python ints never overflow, so a 61-stage recursion on a
    65-bit D runs the same way as a 3-stage one.
    """
    clipped = [(b, tuple(map(_clip_unit, vals))) for b, vals in fhat.pieces if b.volume() > 0]
    D = math.lcm(1 << (n_stages + STRICTNESS_MARGIN_SHIFT),
                 *(end.denominator for _, fvals in clipped for iv in fvals for end in iv))

    def over_d(q: Fraction) -> int:
        return q.numerator * (D // q.denominator)

    # current pieces: (block, frozen chunk intervals, their ends over D),
    # and their values over D
    pieces = [(b, fvals, [(over_d(lo), over_d(hi)) for lo, hi in fvals]) for b, fvals in clipped]
    values = [D // 2] * len(pieces)
    margin = D >> STRICTNESS_MARGIN_SHIFT
    for k in range(1, n_stages + 1):
        n = 1 << (k + 1)
        step = D >> (k + 1)
        t_c = (D >> k) - (margin >> k)
        t_d = (D >> (k - 1)) - (margin >> k)
        chosen = []
        for (b, _, ivs), fval in zip(pieces, values):
            # mesh indices j in [0, n] with |j step - fval| <= t_d
            js_lo = max(0, -((t_d - fval) // step))
            js_hi = min(n, (fval + t_d) // step)
            j = None
            for lo, hi in ivs:
                # the first j with lo - t_c <= j step <= hi + t_c
                first = max(js_lo, -((t_c - lo) // step))
                if first <= min(js_hi, (hi + t_c) // step) and (j is None or first < j):
                    j = first
            if j is None:
                raise InternalConsistencyError(
                    f"stage {k} lost domain volume {b.volume()}: a piece meets no mesh "
                    "value; simple approximation or moduli unsound"
                )
            chosen.append(j)
        order = sorted(range(len(pieces)), key=chosen.__getitem__)
        pieces = [pieces[i] for i in order]
        values = [chosen[i] * step for i in order]
    return [(b, Fraction(v, D), fvals) for (b, fvals, _), v in zip(pieces, values)]


def extract_selector(F: RegularSVF, eps: float) -> Selector:
    """Piecewise-constant selector with located distance <= eps to F on a
    representable domain; certify_selector checks it off J(budget)."""
    if eps <= 0:
        raise ArgumentError("eps must be positive")
    Fr, lo, scale = _rescaled(F)
    eps_scaled = eps / float(scale)
    if eps_scaled > 1.0:
        eps_scaled = 1.0
    fhat, domain = simple_approx(Fr, eps_scaled / 2.0)
    n_stages = max(1, _ceil_log2(2 / Fraction(eps_scaled)))
    pieces = _run_stages(fhat, n_stages)
    out = tuple((b, lo + r * scale) for b, r, _ in pieces)
    return Selector(out, eps, domain, stage=n_stages)


# ---------------------------------------------------------------------------
# located-distance certificate
# ---------------------------------------------------------------------------

def _radius_up(b: Block, c) -> float:
    """Upper bound on the distance from the point c to any point of b."""
    sq = sum(max(Fraction(ci) - lo, hi - Fraction(ci)) ** 2 for ci, (lo, hi) in zip(c, b.intervals))
    r = math.sqrt(sq)
    while Fraction(r) ** 2 < sq:
        r = _up(r)
    return r


def certify_selector(F: RegularSVF, s: Selector, budget) -> tuple:
    """Decide dist(s(x), F(x)) <= s.epsilon off J(budget) piece by piece.

    A piece B with value v lies in one domain block.  With c its center and
    r the largest distance from c to B, min over the block's chunks of
    dist(v, [alpha(c), beta(c)]) + modulus(r) + eval_radius, rounded
    upward, bounds dist(v, F) on all of B; off J(budget) every point of B
    is inside B and its domain block.  Returns (verdict, max_distance,
    witness): "certified" when the largest bound is <= eps and the pieces
    are proper with the domain's exact volume (so they cover it),
    "counterexample" with a piece center off J whose distance minus
    eval_radius exceeds eps as witness, else "undecided".
    """
    eps = Fraction(s.epsilon)
    J = s.domain.exception(budget)
    max_distance = 0.0
    witness = None
    for b, v in s.pieces:
        i = F.block_index(b.center())
        if i is None or F.domain_blocks[i].intersect(b) != b:
            max_distance = math.inf
            continue
        c = b.center_float()
        r = _radius_up(b, c)
        upper = lower = math.inf
        for ch in F.chunks_per_block[i]:
            a, e = float(ch.alpha(c)), float(ch.beta(c))
            gap = max(Fraction(0), Fraction(min(a, e)) - v, v - Fraction(max(a, e)))
            upper = min(upper, _up(_up(_float_up(gap) + _up(ch.modulus.forward_bound(r))) + ch.eval_radius))
            lower = min(lower, gap - Fraction(ch.eval_radius))
        max_distance = max(max_distance, upper)
        if witness is None and lower > eps and not J.contains([Fraction(x) for x in c]):
            witness = {"point": c.tolist(), "value": float(v), "distance_lower": float(lower)}
    if witness is not None:
        return "counterexample", max_distance, witness
    covered = sum(b.volume() for b, _ in s.pieces) == sum(d.volume() for d in F.domain_blocks)
    if max_distance <= s.epsilon and covered and s.proper():
        return "certified", max_distance, None
    return "undecided", max_distance, None
