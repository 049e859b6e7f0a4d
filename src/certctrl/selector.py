"""Measurable selectors of regular set-valued functions, on exact integer
piece arrays.

A regular set-valued function (finitely many chunks per domain interval,
with continuous boundary functions) is frozen into a block-constant one
on the 2^m equal pieces of each domain block, held as integer numerators
of their ends over one denominator.  The staged mesh recursion extracts
a piecewise-constant selector: at stage k, over a dyadic mesh r_i on
[0, 1], C_i = {x : |r_i - Fhat(x)| <= 2^-k - margin} and D_i = {x : |r_i
- f_{k-1}(x)| <= 2^-(k-1) - margin} are decided exactly per piece, and
f_k takes on each piece the first r_i whose C_i and D_i contain it, as
countable reduction of the C_i & D_i would.  It starts from the codomain
midpoint, within 1/2 of every nonempty value set (from 0, values above
3/4 are stranded: |r - 1| < 1/4 and |r - 0| < 1/2 cannot both hold).

Integer arrays are int64 while every number is below 2^61 in magnitude
(so a sum or difference of two is exact), Python ints past that.  Block,
GeneralizedBlock and countable_reduction stay rational and n-D.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .core import ArgumentError, ContractError, InternalConsistencyError, Modulus, ResourceBudgetError
from .core import _float_up, _nearest_floats, _sub_up, _up

__all__ = [
    "Block", "GeneralizedBlock", "RepresentableDomain", "FacetSet", "Chunk", "RegularSVF", "PieceTable",
    "SimpleSVF", "Selector", "countable_reduction", "simple_approx", "extract_selector", "certify_selector",
]

STRICTNESS_MARGIN_SHIFT = 4  # strict sets realized as closed sets shrunk by 2^-(k+4)
_INT64_BITS = 61  # int64 arrays hold integers below 2^61 in magnitude


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


def _ceil_log2(q: Fraction) -> int:
    """ceil(log2 q) for a rational q > 0, exactly: with m the difference of
    the bit lengths of numerator and denominator, 2^(m-1) < q < 2^(m+1)."""
    n, d = q.numerator, q.denominator
    m = n.bit_length() - d.bit_length()
    return m if (n <= d << m if m >= 0 else n << -m <= d) else m + 1


def _ints(values, bound: Optional[int] = None) -> np.ndarray:
    """Integers (an array, or an iterable of Python ints) as int64 when
    every magnitude, or `bound`, is below 2^61, else as Python ints."""
    x = values if isinstance(values, np.ndarray) else np.array(list(values), dtype=object)
    if bound is None:
        bound = int(np.abs(x).max(initial=0))
    if bound >> _INT64_BITS:
        return x if x.dtype == object else np.frompyfunc(int, 1, 1)(x)
    return x.astype(np.int64)


def _at(fn: Callable, xs: np.ndarray) -> np.ndarray:
    """A chunk end at the points xs, one float per point; inf and nan raise
    as a float-to-integer conversion does."""
    y = np.asarray(fn(xs), dtype=float)
    if y.shape != xs.shape:
        raise ContractError("a chunk end must return one float per point")
    bad = y[~np.isfinite(y)]
    if bad.size:
        raise (ValueError if np.isnan(bad[0]) else OverflowError)(f"chunk end {bad[0]} is not finite")
    return y


@dataclass(frozen=True, eq=False)
class PieceTable(Sequence):
    """Pieces [lo / den, hi / den] as integer arrays, with values (over vden)
    and frozen chunk intervals (rows of [lo, hi] over fden, nchunks in use)
    where known.  Row p reads (Block, value, chunk intervals) in Fractions,
    less the parts not held; a table equals a list with the same rows."""

    lo: np.ndarray
    hi: np.ndarray
    den: int
    value: Optional[np.ndarray] = None
    vden: int = 1
    frozen: Optional[np.ndarray] = None  # (pieces, chunks, 2)
    fden: int = 1
    nchunks: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.lo)

    def __getitem__(self, p):
        if isinstance(p, slice):
            return self.take(np.arange(len(self))[p])
        row = (Block(((Fraction(int(self.lo[p]), self.den), Fraction(int(self.hi[p]), self.den)),)),)
        if self.value is not None:
            row += (Fraction(int(self.value[p]), self.vden),)
        if self.frozen is not None:
            row += (tuple((Fraction(int(a), self.fden), Fraction(int(b), self.fden))
                          for a, b in self.frozen[p, : self.nchunks[p]]),)
        return row

    def __eq__(self, other) -> bool:
        return list(self) == list(other)

    def take(self, idx) -> "PieceTable":
        names = ("lo", "hi", "value", "frozen", "nchunks")
        return replace(self, **{n: getattr(self, n)[idx] for n in names if getattr(self, n) is not None})

    def float_rows(self) -> np.ndarray:
        """(lo, hi, value) per piece, each rounded to the nearest float."""
        pairs = ((self.lo, self.den), (self.hi, self.den), (self.value, self.vden))
        return np.column_stack([_nearest_floats(x, d)[0] for x, d in pairs])


def _table(pieces) -> PieceTable:
    """A selector's pieces as a table: its own, or one made of (Block, value) rows."""
    if isinstance(pieces, PieceTable):
        return pieces
    ends = [b.intervals[0] for b, _ in pieces]
    values = [Fraction(v) for _, v in pieces]
    den = math.lcm(1, *(q.denominator for iv in ends for q in iv))
    vden = math.lcm(1, *(v.denominator for v in values))
    return PieceTable(_ints(int(lo * den) for lo, _ in ends), _ints(int(hi * den) for _, hi in ends), den,
                      _ints(int(v * vden) for v in values), vden)


@dataclass(frozen=True)
class FacetSet:
    """The exception set J(eps) of a representable domain: the boxes
    [t - width, t + width] around both ends t of every non-empty base
    piece."""

    grid: tuple  # the domain's (lo, hi, m) per block
    width: Fraction

    def volume_exact(self) -> Fraction:
        return 4 * self.width * sum(1 << m for lo, hi, m in self.grid if lo <= hi)

    def contains(self, x) -> bool:
        x = Fraction(x[0])
        for lo, hi, m in (g for g in self.grid if g[0] <= g[1]):
            step = (hi - lo) / (1 << m)
            j = min(max(round((x - lo) / step), 0), 1 << m) if step else 0  # the nearest end
            if abs(x - lo - j * step) <= self.width:
                return True
        return False


@dataclass(frozen=True)
class RepresentableDomain:
    """Domain blocks [lo, hi], each split into 2^m equal base pieces (grid
    holds (lo, hi, m) per block), and for any eps an exception set J(eps)
    of volume <= eps around every piece end, made once per eps: off J, a
    point of a block lies inside one base piece."""

    grid: tuple
    _exceptions: dict = field(default_factory=dict, compare=False, repr=False)

    def exception(self, eps) -> FacetSet:
        eps = Fraction(eps)
        if eps <= 0:
            raise ArgumentError("exception budget must be positive")
        if eps not in self._exceptions:
            n = sum(1 << m for lo, hi, m in self.grid if lo <= hi)
            w = eps / (4 * n) if n else Fraction(0)
            if w:  # floored to a dyadic, exactly (w may underflow a float), halved where that is 0
                shift = max(0, _ceil_log2(1 / w)) + 1
                w = Fraction(math.floor(w * (1 << shift)), 1 << shift) or w / 2
            J = FacetSet(self.grid, w)
            if J.volume_exact() > eps:
                raise InternalConsistencyError("exception generator exceeded its volume budget")
            self._exceptions[eps] = J
        return self._exceptions[eps]

    def sample_off_exception(self, rng: np.random.Generator, n: int, eps) -> np.ndarray:
        """Sample points of the domain outside the exception set J(eps)."""
        J = self.exception(eps)
        blocks = [(float(lo), float(hi), float(hi - lo)) for lo, hi, _ in self.grid if hi > lo]
        if not blocks:
            raise ContractError("representable domain has no volume")
        lo, hi, vol = np.array(blocks).T
        i = rng.choice(len(blocks), size=100 * n, p=vol / vol.sum())
        out = list(itertools.islice((x for x in rng.uniform(lo[i], hi[i])[:, None] if not J.contains(x)), n))
        if len(out) < n:
            raise InternalConsistencyError("exception set rejected nearly every sample")
        return np.array(out)


@dataclass(frozen=True)
class Chunk:
    """One value chunk [alpha(x), beta(x)] with a shared modulus; alpha and
    beta take an array of points and return one float per point."""

    alpha: Callable[[np.ndarray], np.ndarray]
    beta: Callable[[np.ndarray], np.ndarray]
    modulus: Modulus
    eval_radius: float = 1e-9


@dataclass(frozen=True)
class RegularSVF:
    """Regular set-valued function: per domain block (an interval),
    finitely many chunks bounded by continuous functions with moduli."""

    domain_blocks: tuple  # tuple[Block]
    chunks_per_block: tuple  # tuple[tuple[Chunk, ...]]
    value_range: tuple = (Fraction(0), Fraction(1))

    def __post_init__(self):
        if len(self.domain_blocks) != len(self.chunks_per_block):
            raise ArgumentError("one chunk list per domain block required")
        if any(b.dim != 1 for b in self.domain_blocks):
            raise ArgumentError("domain blocks must be intervals")
        if not GeneralizedBlock(tuple(self.domain_blocks)).proper:
            raise ArgumentError("domain blocks must be pairwise interior-disjoint")
        lo, hi = self.value_range
        if not Fraction(lo) < Fraction(hi):
            raise ArgumentError("value range must be a nondegenerate interval")
        object.__setattr__(self, "value_range", (Fraction(lo), Fraction(hi)))

    def block_index(self, x) -> Optional[int]:
        return next((i for i, b in enumerate(self.domain_blocks) if b.contains(x)), None)

    def located_distance_to(self, x, y: float) -> float:
        """dist(y, F(x)) from the chunk ends at the point x, in floats."""
        i = self.block_index([Fraction(float(v)) for v in np.atleast_1d(x)])
        if i is None:
            return math.inf
        xx = np.atleast_1d(np.asarray(x, dtype=float))
        ivs = [(float(ch.alpha(xx)[0]), float(ch.beta(xx)[0])) for ch in self.chunks_per_block[i]]
        return min(max(0.0, min(a, b) - y, y - max(a, b)) for a, b in ivs)


@dataclass(frozen=True)
class SimpleSVF:
    """Block-constant set-valued function: the frozen rational chunk
    intervals of each piece of a proper partition."""

    pieces: PieceTable


@dataclass(frozen=True)
class Selector:
    """Piecewise-constant measurable selector with a located-distance
    certificate on a representable domain; pieces is a PieceTable or a
    sequence of (Block, value) rows."""

    pieces: Sequence
    epsilon: float
    domain: RepresentableDomain
    stage: int = 0

    def __call__(self, x) -> Optional[float]:
        xf = [Fraction(float(v)) for v in np.atleast_1d(x)]
        return next((float(val) for b, val in self.pieces if b.contains(xf)), None)

    def proper(self) -> bool:
        """Sorted by lower end, no piece of positive length starts below an earlier upper end."""
        t = _table(self.pieces)
        keep = t.hi > t.lo
        order = np.argsort(t.lo[keep], kind="stable")
        lo, hi = t.lo[keep][order], t.hi[keep][order]
        return bool(np.all(lo[1:] >= np.maximum.accumulate(hi)[:-1]))


def simple_approx(F: RegularSVF, delta: float, max_blocks: int = 200_000):
    """Freeze F into a block-constant set-valued function within Hausdorff
    distance delta, on a representable domain.  A domain block [lo, hi] is
    halved to the least depth m at which a piece is at most 2 step(delta /
    4) of each chunk's modulus long; its pieces are j = 2^m - 1, ..., 0 (as
    depth-first halving lists them).  At a piece's center c a chunk is
    frozen to [alpha(c) - var, beta(c) + var] rounded outward to 2^-shift,
    var its modulus at the half length plus its evaluation radius."""
    if delta <= 0:
        raise ArgumentError("delta must be positive")
    if any(ch.modulus is None for chunks in F.chunks_per_block for ch in chunks):
        raise ContractError("chunk boundary function without modulus")
    shift = max(3, _ceil_log2(8 / Fraction(delta)))
    too_many = f"simple approximation needs more than {max_blocks} blocks; coarsen delta"
    grid, ends, frozen, width = [], [], [], max(map(len, F.chunks_per_block), default=1)
    for blk, chunks in zip(F.domain_blocks, F.chunks_per_block):
        if not chunks:
            raise ContractError("regular SVF block with no chunks")
        d_req = min(2.0 * ch.modulus.step(delta / 4.0) for ch in chunks)
        ((lo, hi),) = blk.intervals
        # pieces are at most d_req long: a block over 2 max_blocks d_req needs too many
        if hi > lo and float(hi - lo) > 2.0 * max_blocks * d_req:
            raise ResourceBudgetError(too_many)
        # chunk ends are frozen as floats times 2^shift, which must be a float
        # (checked once a block has passed its budget, before any is refined)
        if shift >= sys.float_info.max_exp:
            raise ResourceBudgetError(f"chunk ends on a 2^-{shift} grid are finer than a float can scale")
        m = 0
        while 1 << m <= max_blocks and hi > lo and not math.sqrt(float((hi - lo) / (1 << m)) ** 2) <= d_req:
            m += 1
        if 1 << m > max_blocks:
            raise ResourceBudgetError(too_many)
        q = math.lcm(lo.denominator, hi.denominator) << m
        a, b = int(lo * q), int(hi * q)  # piece j is [a + j w, a + (j + 1) w] / q
        w, js = (b - a) >> m, range((1 << m) - 1, -1, -1)
        c, _ = _nearest_floats(_ints(2 * a + (2 * j + 1) * w for j in js), 2 * q)
        rad = math.sqrt(float((hi - lo) / (1 << m)) ** 2) / 2.0
        scaled = []
        for ch in chunks:
            var = ch.modulus.forward_bound(rad) + ch.eval_radius
            scaled += [np.floor((_at(ch.alpha, c) - var) * float(1 << shift)),
                       np.ceil((_at(ch.beta, c) + var) * float(1 << shift))]
        grid.append((lo, hi, m))
        ends.append((a, w, q, js))
        # with fewer chunks than another block, repeat the last: no stage choice changes
        scaled += scaled[-2:] * (width - len(chunks))
        frozen.append(_ints(np.stack(scaled, axis=1).reshape(len(c), width, 2)))
    den = math.lcm(1, *(q for _, _, q, _ in ends))
    lo_ends = _ints((a + j * w) * (den // q) for a, w, q, js in ends for j in js)
    hi_ends = _ints((a + (j + 1) * w) * (den // q) for a, w, q, js in ends for j in js)
    frozen = np.concatenate(frozen) if frozen else np.zeros((0, 1, 2), dtype=np.int64)
    nchunks = np.repeat([len(chunks) for chunks in F.chunks_per_block], [1 << m for _, _, m in grid])
    return SimpleSVF(PieceTable(lo_ends, hi_ends, den, None, 1, frozen, 1 << shift, nchunks)), \
        RepresentableDomain(tuple(grid))


def _rescaled(F: RegularSVF):
    lo, hi = F.value_range
    scale = hi - lo
    l, s = float(lo), float(scale)
    chunks = tuple(tuple(Chunk(lambda x, f=ch.alpha: (f(x) - l) / s, lambda x, f=ch.beta: (f(x) - l) / s,
                               Modulus.mu(lambda t, m=ch.modulus: m.forward_bound(t) / s), ch.eval_radius / s)
                         for ch in chs) for chs in F.chunks_per_block)
    return RegularSVF(F.domain_blocks, chunks, (Fraction(0), Fraction(1))), lo, scale


def _run_stages(fhat: SimpleSVF, n_stages: int) -> PieceTable:
    """The staged recursion on the pieces of positive length, returned with
    their values and their frozen intervals clipped to [0, 1].  Stage k's
    candidates are the mesh j / 2^(k+1) (covering radius 2^-(k+2), finer
    than the 2^-(k+1) needed); each piece takes the first qualifying one,
    and pieces are listed by it, then in their previous order, as countable
    reduction of the C & D sets lists them.  Every number is an integer over
    D = 2^M, the lcm of 2^(n_stages + STRICTNESS_MARGIN_SHIFT) and the
    clipped ends' denominators, so with mesh step 2^s the first index j
    with j 2^s in [lo - t_c, hi + t_c] is a shift, for all pieces and
    chunks at once; past D = 2^60 on Python ints (a 61-stage recursion)."""
    t = fhat.pieces.take(np.flatnonzero(fhat.pieces.hi > fhat.pieces.lo))
    F = t.fden
    ends = np.minimum(np.maximum(t.frozen, 0), F)
    D = math.lcm(1 << (n_stages + STRICTNESS_MARGIN_SHIFT), F // math.gcd(F, *set(ends.ravel().tolist())))
    M, f = D.bit_length() - 1, F.bit_length() - 1
    ends = _ints(ends, bound=max(D, F))
    ends = ends << (M - f) if M >= f else ends >> (f - M)
    values, perm = _ints(np.full(len(t), D // 2, dtype=object), bound=D), np.arange(len(t))
    margin = D >> STRICTNESS_MARGIN_SHIFT
    for k in range(1, n_stages + 1):
        s, none = M - k - 1, 1 << (k + 2)
        t_c = (D >> k) - (margin >> k)
        t_d = (D >> (k - 1)) - (margin >> k)
        # j in [0, 2^(k+1)] with |j 2^s - value| <= t_d and, per chunk, lo - t_c <= j 2^s <= hi + t_c
        first = np.maximum(np.maximum(0, -((t_d - values) >> s))[:, None], -((t_c - ends[..., 0]) >> s))
        last = np.minimum(np.minimum(1 << (k + 1), (values + t_d) >> s)[:, None], (ends[..., 1] + t_c) >> s)
        j = np.where(first <= last, first, none).min(axis=1, initial=none)
        lost = np.flatnonzero(j == none)
        if lost.size:
            p = perm[lost[0]]
            raise InternalConsistencyError(f"stage {k} lost domain volume {Fraction(int(t.hi[p] - t.lo[p]), t.den)}: "
                                           "a piece meets no mesh value; simple approximation or moduli unsound")
        order = np.argsort(j, kind="stable")
        perm, ends, values = perm[order], ends[order], j[order] << s
    return replace(t.take(perm), value=values, vden=D, frozen=ends, fden=D)


def extract_selector(F: RegularSVF, eps: float) -> Selector:
    """Piecewise-constant selector with located distance <= eps to F on a
    representable domain; certify_selector checks it off J(budget)."""
    if eps <= 0:
        raise ArgumentError("eps must be positive")
    Fr, lo, scale = _rescaled(F)
    eps_scaled = min(eps / float(scale), 1.0)
    fhat, domain = simple_approx(Fr, eps_scaled / 2.0)
    n_stages = max(1, _ceil_log2(2 / Fraction(eps_scaled)))
    t = _run_stages(fhat, n_stages)
    # lo + r scale = (a + value b) / vden
    a, b = lo.numerator * scale.denominator * t.vden, scale.numerator * lo.denominator
    values = _ints(t.value, bound=(int(np.abs(t.value).max(initial=0)) + 1) * abs(b) + abs(a)) * b + a
    pieces = PieceTable(t.lo, t.hi, t.den, values, lo.denominator * scale.denominator * t.vden)
    return Selector(pieces, eps, domain, stage=n_stages)


def _radius_up(d: Fraction) -> float:
    """The float r >= d the bound takes for a piece whose points lie within
    d of its center: the root of float(d^2), raised to d."""
    sq = d * d
    r = math.sqrt(sq)
    while Fraction(r) ** 2 < sq:
        r = _up(r)
    return r


def certify_selector(F: RegularSVF, s: Selector, budget, work: Optional[dict] = None) -> tuple:
    """Decide dist(s(x), F(x)) <= s.epsilon off J(budget) piece by piece.

    A piece B with value v must lie in the first domain block holding its
    center c (else its bound is inf).  With r the largest distance from c
    to B, min over the block's chunks of dist(v, [alpha(c), beta(c)]) +
    modulus(r) + eval_radius, rounded up, bounds dist(v, F) on B.  Returns
    (verdict, max_distance, witness): "certified" when the largest bound is
    <= eps and the pieces are proper with the domain's exact volume,
    "counterexample" with a piece center off J whose distance less
    eval_radius exceeds eps, else "undecided".  Where c and v are floats,
    one numpy pass takes each bound exactly (TwoSum gaps, one root per
    length) and an upper bound on that distance; the exact Fraction chain
    runs for the other pieces and where that bound exceeds eps
    (work["exact_chains"] counts the pieces)."""
    J = s.domain.exception(budget)
    t = _table(s.pieces)
    mid = t.lo + t.hi  # centers over 2 den
    c, c_exact = _nearest_floats(mid, 2 * t.den)
    v, v_exact = _nearest_floats(t.value, t.vden)
    # the first domain block holding each center, and whether it holds the
    # piece; block ends are clamped beyond every end and center of an int64 table
    where, inside = np.full(len(t), -1), np.zeros(len(t), dtype=bool)
    cap = 1 << (_INT64_BITS + 1) if mid.dtype != object else math.inf
    for i, blk in enumerate(F.domain_blocks):
        bl, bh = (x * t.den for x in blk.intervals[0])
        lo2, hi2, lo, hi = (min(max(x, -cap), cap) for x in (math.ceil(2 * bl), math.floor(2 * bh),
                                                             math.ceil(bl), math.floor(bh)))
        hit = (where < 0) & (lo2 <= mid) & (mid <= hi2)
        where[hit] = i
        inside |= hit & (lo <= t.lo) & (t.hi <= hi)
    # per piece and chunk (a block's last chunk repeated): ends at c, modulus
    # at r (from the half length, where c is the center), evaluation radius
    length = t.hi - t.lo
    lengths = sorted(set(length.tolist()))
    which = np.searchsorted(np.array(lengths, dtype=length.dtype), length)
    r = [_radius_up(Fraction(x, 2 * t.den)) for x in lengths]
    a, e, fb, er = (np.zeros((len(t), max(map(len, F.chunks_per_block), default=1))) for _ in range(4))
    for i, chunks in enumerate(F.chunks_per_block):
        p = np.flatnonzero(inside & (where == i))
        for k, ch in enumerate(chunks[min(j, len(chunks) - 1)] for j in range(a.shape[1])):
            a[p, k], e[p, k], er[p, k] = _at(ch.alpha, c[p]), _at(ch.beta, c[p]), ch.eval_radius
            fb[p, k] = np.array([_up(ch.modulus.forward_bound(x)) for x in r])[which[p]]
    (g1, ok1), (g2, ok2) = _sub_up(np.minimum(a, e), v[:, None]), _sub_up(v[:, None], np.maximum(a, e))
    g = np.maximum(0.0, np.maximum(g1, g2))
    upper = np.nextafter(np.nextafter(g + fb, np.inf) + er, np.inf).min(axis=1)
    lower_up = np.nextafter(g - er, np.inf).min(axis=1)
    decided = inside & c_exact & v_exact & (ok1 & ok2).all(axis=1)

    @functools.cache
    def exact(q):  # piece q's bound and least distance at c less eval_radius, exactly
        lo, hi, vq = Fraction(int(t.lo[q]), t.den), Fraction(int(t.hi[q]), t.den), Fraction(int(t.value[q]), t.vden)
        cq = Fraction(float(c[q]))
        rq, up_q, low_q = _radius_up(max(cq - lo, hi - cq)), math.inf, math.inf
        for ch in F.chunks_per_block[where[q]]:
            a, e = (float(_at(f, c[q : q + 1])[0]) for f in (ch.alpha, ch.beta))
            gap = max(Fraction(0), Fraction(min(a, e)) - vq, vq - Fraction(max(a, e)))
            up_q = min(up_q, _up(_up(_float_up(gap) + _up(ch.modulus.forward_bound(rq))) + ch.eval_radius))
            low_q = min(low_q, gap - Fraction(ch.eval_radius))
        return up_q, low_q

    max_distance, witness = math.inf, None
    if inside.all():
        max_distance = max([float(upper[decided].max(initial=0.0)), *(exact(q)[0] for q in np.flatnonzero(~decided))])
    lower_up[~decided] = np.inf
    for q in np.flatnonzero(inside & (lower_up > s.epsilon)):
        lower = exact(q)[1]
        if lower > Fraction(s.epsilon) and not J.contains([Fraction(float(c[q]))]):
            witness = {"point": [float(c[q])], "value": float(v[q]), "distance_lower": float(lower)}
            break
    if work is not None:
        work["exact_chains"] = exact.cache_info().currsize
    if witness is not None:
        return "counterexample", max_distance, witness
    covered = Fraction(sum(np.maximum(length, 0).tolist()), t.den) == sum(b.volume() for b in F.domain_blocks)
    if max_distance <= s.epsilon and covered and s.proper():
        return "certified", max_distance, None
    return "undecided", max_distance, None
