import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from certctrl.core import ArgumentError, ContractError, InternalConsistencyError, Modulus
from certctrl.selector import (
    STRICTNESS_MARGIN_SHIFT,
    Block,
    Chunk,
    GeneralizedBlock,
    RegularSVF,
    Selector,
    _ceil_log2,
    _rescaled,
    _run_stages,
    certify_selector,
    countable_reduction,
    extract_selector,
    simple_approx,
)
from oracles import certify_reference, exception_reference, simple_approx_reference

F12 = Fraction(1, 2)


def const_chunk(lo, hi, eval_radius=0.0):
    return Chunk(
        alpha=lambda x, v=float(lo): np.full_like(x, v),
        beta=lambda x, v=float(hi): np.full_like(x, v),
        modulus=Modulus.lipschitz(0.0),
        eval_radius=eval_radius,
    )


def linear_chunk():
    # [0, x] on the current block
    return Chunk(
        alpha=np.zeros_like,
        beta=lambda x: x,
        modulus=Modulus.lipschitz(1.0),
        eval_radius=0.0,
    )


def identity_chunk():
    return Chunk(
        alpha=lambda x: x,
        beta=lambda x: x,
        modulus=Modulus.lipschitz(1.0),
        eval_radius=0.0,
    )


# ---------------------------------------------------------------------------
# blocks and volume
# ---------------------------------------------------------------------------

def test_volume_two_disjoint_unit_intervals():
    gb = GeneralizedBlock((Block.interval(0, 1), Block.interval(2, 3)))
    assert gb.volume_exact() == 2


def test_volume_empty_block_is_zero():
    gb = GeneralizedBlock((Block.interval(1, 0),))
    assert gb.volume_exact() == 0


def test_volume_dyadic_sum_exact():
    gb = GeneralizedBlock((
        Block.make((0, F12)),
        Block.make((1, 1 + Fraction(1, 4))),
        Block.make((2, 2 + Fraction(1, 8))),
    ))
    assert gb.volume_exact() == Fraction(7, 8)


def test_block_subtract_carves_exactly():
    a = Block.make((0, 2), (0, 2))
    b = Block.make((1, 3), (1, 3))
    pieces = a.subtract(b)
    total = sum(p.volume() for p in pieces)
    assert total == 4 - 1  # area of a minus overlap
    gb = GeneralizedBlock(tuple(pieces))
    assert gb.proper


def pairwise_proper(blocks):
    """Every pair of non-empty blocks tested for interior overlap: the
    reference for the sweep in GeneralizedBlock.proper."""
    bs = [b for b in blocks if not b.is_empty]
    return not any(bs[i].interior_overlaps(bs[j]) for i in range(len(bs)) for j in range(i + 1, len(bs)))


def random_block_family(rng, dim):
    """A grid partition of [0, 4]^dim (so shared facets), edited at random
    with zero-width, empty (lo > hi), duplicated, shifted and free blocks,
    in shuffled order."""
    cuts = [sorted({0, 4, *rng.integers(1, 4, 2).tolist()}) for _ in range(dim)]
    cells = [()]
    for c in cuts:
        cells = [cell + ((Fraction(lo), Fraction(hi)),) for cell in cells for lo, hi in zip(c, c[1:])]
    blocks = [Block(cell) for cell in cells]
    for _ in range(int(rng.integers(0, 4))):
        kind, axis = int(rng.integers(5)), int(rng.integers(dim))
        ivs = list(blocks[int(rng.integers(len(blocks)))].intervals)
        lo, hi = ivs[axis]
        if kind == 0:  # zero width
            mid = (lo + hi) / 2
            ivs[axis] = (mid, mid)
        elif kind == 1:  # empty
            ivs[axis] = (hi, lo)
        elif kind == 3:  # shifted by a multiple of 1/2
            d = Fraction(int(rng.integers(-2, 3)), 2)
            ivs[axis] = (lo + d, hi + d)
        elif kind == 4:  # anywhere, in quarters
            a, b = sorted(Fraction(int(v), 4) for v in rng.integers(-2, 19, 2))
            ivs[axis] = (a, b)
        blocks.append(Block(tuple(ivs)))  # kind 2 duplicates the block
    rng.shuffle(blocks)
    return blocks


@pytest.mark.parametrize("dim", [1, 2])
def test_proper_sweep_matches_pairwise_reference(dim):
    rng = np.random.default_rng(40 + dim)
    verdicts = []
    for _ in range(400):
        blocks = random_block_family(rng, dim)
        verdicts.append(GeneralizedBlock(tuple(blocks)).proper)
        assert verdicts[-1] == pairwise_proper(blocks)
    assert 50 < sum(verdicts) < 350  # both verdicts well represented


# ---------------------------------------------------------------------------
# countable reduction
# ---------------------------------------------------------------------------

def test_reduction_overlapping_intervals():
    # DERIVED by hand: [0,2] and [1,3] reduce to a partition of total mu 3
    out = countable_reduction([
        GeneralizedBlock((Block.interval(0, 2),)),
        GeneralizedBlock((Block.interval(1, 3),)),
    ])
    assert out[0].volume_exact() == 2
    assert out[1].volume_exact() == 1
    all_blocks = GeneralizedBlock(out[0].blocks + out[1].blocks)
    assert all_blocks.proper
    assert all_blocks.volume_exact() == 3


def test_reduction_disjoint_input_unchanged():
    a = Block.interval(0, 1)
    b = Block.interval(2, 3)
    out = countable_reduction([GeneralizedBlock((a,)), GeneralizedBlock((b,))])
    assert out[0].blocks == (a,)
    assert out[1].blocks == (b,)


def test_reduction_duplicate_block_single_copy():
    a = Block.interval(0, 1)
    out = countable_reduction([GeneralizedBlock((a,)), GeneralizedBlock((a,))])
    assert out[0].volume_exact() == 1
    assert out[1].volume_exact() == 0
    total = GeneralizedBlock(out[0].blocks + out[1].blocks)
    assert total.volume_exact() == 1


def test_reduction_2d_overlaps_proper():
    gbs = [
        GeneralizedBlock((Block.make((0, 2), (0, 2)),)),
        GeneralizedBlock((Block.make((1, 3), (1, 3)),)),
        GeneralizedBlock((Block.make((0, 3), (0, 3)),)),
    ]
    out = countable_reduction(gbs)
    merged = GeneralizedBlock(tuple(b for gb in out for b in gb.blocks))
    assert merged.proper
    assert merged.volume_exact() == 9  # union is the full 3x3 square


# ---------------------------------------------------------------------------
# simple approximation
# ---------------------------------------------------------------------------

def test_simple_approx_constant_is_itself():
    F = RegularSVF(
        (Block.interval(0, 1),),
        ((const_chunk(0, F12),),),
    )
    fhat, dom = simple_approx(F, 0.25)
    assert len(fhat.pieces) == 1
    blk, vals = fhat.pieces[0]
    assert blk == Block.interval(0, 1)
    assert vals == ((Fraction(0), F12),)
    # domain = full X, unsplit
    assert dom.grid == ((0, 1, 0),)


def test_simple_approx_linear_chunk_hausdorff():
    F = RegularSVF((Block.interval(0, 1),), ((linear_chunk(),),))
    delta = 0.25
    fhat, dom = simple_approx(F, delta)
    assert len(fhat.pieces) >= 4
    rng = np.random.default_rng(23)
    # DERIVED oracle: direct evaluation on 10^3 samples
    for _ in range(1000):
        x = rng.uniform(0, 1)
        vals = next((v for b, v in fhat.pieces if b.contains([Fraction(x)])), None)
        if vals is None:
            continue
        lo, hi = vals[0]
        # Hausdorff between [0, x] and the frozen interval
        h = max(abs(float(lo) - 0.0), abs(float(hi) - x))
        assert h <= delta + 1e-12


def test_simple_approx_two_chunk_preserves_count():
    F = RegularSVF(
        (Block.interval(0, 1),),
        ((const_chunk(0, 0), Chunk(
            alpha=lambda x: x,
            beta=np.ones_like,
            modulus=Modulus.lipschitz(1.0),
        )),),
    )
    delta = 0.25
    fhat, _ = simple_approx(F, delta)
    rng = np.random.default_rng(5)
    for blk, vals in fhat.pieces:
        assert len(vals) == 2
    # sampled Hausdorff per chunk
    for _ in range(1000):
        x = rng.uniform(0, 1)
        (l0, h0), (l1, h1) = next(v for b, v in fhat.pieces if b.contains([Fraction(x)]))
        assert max(abs(float(l0)), abs(float(h0))) <= delta
        assert max(abs(float(l1) - x), abs(float(h1) - 1.0)) <= delta + 1e-12


def test_simple_approx_missing_modulus_contract_error():
    F = RegularSVF(
        (Block.interval(0, 1),),
        ((Chunk(alpha=np.zeros_like, beta=np.ones_like, modulus=None),),),
    )
    with pytest.raises(ContractError):
        simple_approx(F, 0.1)


# ---------------------------------------------------------------------------
# selector extraction
# ---------------------------------------------------------------------------

def test_extract_constant_full_interval():
    F = RegularSVF((Block.interval(0, 1),), ((const_chunk(0, 1),),))
    sel = extract_selector(F, 0.25)
    assert sel.proper()
    rng = np.random.default_rng(1)
    for x in rng.uniform(0, 1, 200):
        v = sel(np.array([x]))
        assert v is not None
        assert F.located_distance_to(np.array([x]), v) <= 1e-12


def test_extract_sign_dependent_chunks():
    # [0, 1/4] for x < 0 and [3/4, 1] for x > 0, eps = 1/8
    F = RegularSVF(
        (Block.interval(-1, 0), Block.interval(0, 1)),
        ((const_chunk(0, 0.25),), (const_chunk(0.75, 1),)),
    )
    eps = 0.125
    sel = extract_selector(F, eps)
    assert sel.proper()
    dom = sel.domain
    rng = np.random.default_rng(2)
    pts = dom.sample_off_exception(rng, 1000, Fraction(1, 100))
    for x in pts:
        v = sel(x)
        assert v is not None
        assert F.located_distance_to(x, v) <= eps + 1e-12
    # the exception generator straddles x = 0 (an internal facet)
    J = dom.exception(Fraction(1, 100))
    assert J.contains([Fraction(0)])


def test_extract_singleton_graph_staircase():
    F = RegularSVF((Block.interval(0, 1),), ((identity_chunk(),),))
    eps = 0.25
    sel = extract_selector(F, eps)
    rng = np.random.default_rng(3)
    pts = sel.domain.sample_off_exception(rng, 500, Fraction(1, 64))
    # DERIVED: direct comparison against the identity
    for x in pts:
        v = sel(x)
        assert v is not None
        assert abs(v - float(x[0])) <= eps + 1e-12


def test_extract_exception_volume_within_budget():
    F = RegularSVF((Block.interval(0, 1),), ((identity_chunk(),),))
    sel = extract_selector(F, 0.25)
    # 10^-330 and 2^-1100 underflow a float to 0: the generator's dyadic
    # width comes from the exact budget
    for budget in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000),
                   Fraction(1, 10**330), Fraction(1, 2**1100), Fraction(3, 2**1100)):
        J = sel.domain.exception(budget)
        assert J.volume_exact() <= budget


def test_extract_rescales_general_value_range():
    # F(x) = {4x - 2} on [0, 1], values in [-2, 2]
    F = RegularSVF(
        (Block.interval(0, 1),),
        ((Chunk(
            alpha=lambda x: 4.0 * x - 2.0,
            beta=lambda x: 4.0 * x - 2.0,
            modulus=Modulus.lipschitz(4.0),
        ),),),
        value_range=(Fraction(-2), Fraction(2)),
    )
    eps = 0.5
    sel = extract_selector(F, eps)
    rng = np.random.default_rng(4)
    pts = sel.domain.sample_off_exception(rng, 300, Fraction(1, 64))
    for x in pts:
        v = sel(x)
        assert abs(v - (4.0 * float(x[0]) - 2.0)) <= eps + 1e-12


def test_extract_rejects_bad_eps():
    F = RegularSVF((Block.interval(0, 1),), ((const_chunk(0, 1),),))
    with pytest.raises(ArgumentError):
        extract_selector(F, 0.0)


# ---------------------------------------------------------------------------
# refinement / Cauchy certificate
# ---------------------------------------------------------------------------

def stage_selectors(F, n_stages):
    """Selectors f_1 .. f_n of one staged recursion at the finest accuracy:
    _run_stages(fhat, k) for k = 1..n on one simple approximation.
    Consecutive stages differ by at most 2^-(k-1) on the shared domain
    (the Cauchy certificate of the corollary)."""
    Fr, lo, scale = _rescaled(F)
    fhat, domain = simple_approx(Fr, 0.5 ** (n_stages + 1))
    return [
        Selector(tuple((b, lo + r * scale) for b, r, _ in _run_stages(fhat, k)),
                 float(scale) * 2.0 ** -k, domain, stage=k)
        for k in range(1, n_stages + 1)
    ]


def test_refine_constant_stabilizes_after_stage_one():
    F = RegularSVF((Block.interval(0, 1),), ((const_chunk(0, 1),),))
    sels = stage_selectors(F, 4)
    xs = np.linspace(0.05, 0.95, 19)
    for k in range(1, len(sels)):
        for x in xs:
            assert sels[k](np.array([x])) == sels[0](np.array([x]))


def test_refine_identity_cauchy_and_convergence():
    F = RegularSVF((Block.interval(0, 1),), ((identity_chunk(),),))
    n = 6
    sels = stage_selectors(F, n)
    rng = np.random.default_rng(8)
    xs = rng.uniform(0.01, 0.99, 200)
    for k in range(1, n):
        bound = 2.0 ** -(k)  # |f_{k+1} - f_k| <= 2^-k (stage k+1 uses 2^-((k+1)-1))
        diffs = []
        for x in xs:
            a, b = sels[k](np.array([x])), sels[k - 1](np.array([x]))
            if a is not None and b is not None:
                diffs.append(abs(a - b))
        assert max(diffs) <= 2.0 ** -(k - 1) + 1e-12
    # final stage approximates the identity
    errs = [abs(sels[-1](np.array([x])) - x) for x in xs]
    assert max(errs) <= 2.0 ** -n + 2.0 ** -(n + 1) + 1e-9


def test_refine_two_point_set_stabilizes_branch():
    # F = {0} u {1}: DERIVED by running 6 stages and checking stabilization
    F = RegularSVF(
        (Block.interval(0, 1),),
        ((const_chunk(0, 0), const_chunk(1, 1)),),
    )
    sels = stage_selectors(F, 6)
    xs = np.linspace(0.1, 0.9, 9)
    last = [sels[-1](np.array([x])) for x in xs]
    prev = [sels[-2](np.array([x])) for x in xs]
    assert last == prev
    for v in last:
        assert min(abs(v - 0.0), abs(v - 1.0)) <= 2.0 ** -6 + 1e-12


def test_stage_domains_preserve_volume():
    F = RegularSVF(
        (Block.interval(-1, 0), Block.interval(0, 1)),
        ((const_chunk(0, 0.25),), (const_chunk(0.75, 1),)),
    )
    sels = stage_selectors(F, 5)
    vols = [sum((b.volume() for b, _ in s.pieces), Fraction(0)) for s in sels]
    assert all(v == vols[0] for v in vols)
    assert vols[0] == 2


# ---------------------------------------------------------------------------
# stage assignment against countable reduction
# ---------------------------------------------------------------------------

def shifted_chunk():
    # [x / 2, x / 2 + 1/2]
    return Chunk(
        alpha=lambda x: 0.5 * x,
        beta=lambda x: 0.5 * x + 0.5,
        modulus=Modulus.lipschitz(0.5),
        eval_radius=0.0,
    )


def upper_chunk():
    # [x, 1]
    return Chunk(
        alpha=lambda x: x,
        beta=np.ones_like,
        modulus=Modulus.lipschitz(1.0),
        eval_radius=0.0,
    )


def quadratic_svf(seed, n_blocks, n_chunks):
    """Quadratic chunk boundaries alpha <= beta on dyadic blocks of [0, 1],
    drawn like the benchmark's synthesis selector jobs."""
    rng = np.random.default_rng(seed)
    cuts = [0, *sorted(rng.choice(np.arange(1, 16), n_blocks - 1, replace=False).tolist()), 16]
    blocks = tuple(Block.interval(Fraction(a, 16), Fraction(b, 16)) for a, b in zip(cuts, cuts[1:]))
    chunks = []
    for _ in blocks:
        here = []
        for _ in range(n_chunks):
            lo, width = rng.uniform(0.25, 0.55), rng.uniform(0.02, 0.2)
            slope = rng.choice([-1.0, 1.0]) * rng.uniform(0.095, 0.105)
            curve = rng.choice([-1.0, 1.0]) * rng.uniform(0.045, 0.055)

            def alpha(x, lo=lo, s=slope, c=curve):
                return lo + s * x + c * x * x

            here.append(Chunk(
                alpha=alpha,
                beta=lambda x, a=alpha, w=width: a(x) + w,
                modulus=Modulus.lipschitz(abs(slope) + 2.0 * abs(curve)),
                eval_radius=1e-9,
            ))
        chunks.append(tuple(here))
    return RegularSVF(blocks, tuple(chunks))


I01 = Block.interval(0, 1)
IM10 = Block.interval(-1, 0)

# (name, F, eps): every SVF shape of this file and of the acceptance suite,
# plus quadratic chunks at the benchmark's eps levels
SVFS = [
    ("const_0_1", RegularSVF((I01,), ((const_chunk(0, 1),),)), 0.25),
    ("const_0_half", RegularSVF((I01,), ((const_chunk(0, F12),),)), 0.125),
    ("const_quarter_half", RegularSVF((I01,), ((const_chunk(0.25, 0.5),),)), 0.125),
    ("const_1", RegularSVF((I01,), ((const_chunk(1, 1),),)), 0.125),
    ("linear", RegularSVF((I01,), ((linear_chunk(),),)), 0.125),
    ("identity", RegularSVF((I01,), ((identity_chunk(),),)), 0.25),
    ("identity_fine", RegularSVF((I01,), ((identity_chunk(),),)), 0.06),
    ("shifted", RegularSVF((I01,), ((shifted_chunk(),),)), 0.125),
    ("zero_and_upper", RegularSVF((I01,), ((const_chunk(0, 0), upper_chunk()),)), 0.125),
    ("two_point", RegularSVF((I01,), ((const_chunk(0, 0), const_chunk(1, 1)),)), 0.125),
    ("sign_dependent", RegularSVF((IM10, I01), ((const_chunk(0, 0.25),), (const_chunk(0.75, 1),))), 0.125),
    ("half_and_linear", RegularSVF((IM10, I01), ((const_chunk(0.5, 0.5),), (linear_chunk(),))), 0.125),
    ("rescaled", RegularSVF(
        (I01,),
        ((Chunk(
            alpha=lambda x: 4.0 * x - 2.0,
            beta=lambda x: 4.0 * x - 2.0,
            modulus=Modulus.lipschitz(4.0),
        ),),),
        value_range=(Fraction(-2), Fraction(2)),
    ), 0.5),
    ("quadratic_2x1", quadratic_svf(1, 2, 1), 0.115),
    ("quadratic_3x1", quadratic_svf(2, 3, 1), 0.075),
    ("quadratic_4x2", quadratic_svf(3, 4, 2), 0.045),
]
SVF_IDS = [name for name, _, _ in SVFS]


def interval_distance(r, intervals):
    """Exact distance from r to the union of the intervals [lo, hi]."""
    return min(max(Fraction(0), lo - r, r - hi) for lo, hi in intervals)


def reference_stages(fhat, n_stages, snapshot=None):
    """The staged recursion as it ran through countable reduction, in
    Fraction arithmetic, kept as the reference for _run_stages."""
    pieces = [
        (b, Fraction(1, 2), tuple((min(max(lo, 0), 1), min(max(hi, 0), 1)) for lo, hi in vals))
        for b, vals in fhat.pieces
    ]
    for k in range(1, n_stages + 1):
        n = 1 << (k + 1)
        mesh = [Fraction(j, n) for j in range(n + 1)]
        t_c = Fraction(1, 1 << k) - Fraction(1, 1 << (k + STRICTNESS_MARGIN_SHIFT))
        t_d = Fraction(1, 1 << (k - 1)) - Fraction(1, 1 << (k + STRICTNESS_MARGIN_SHIFT))
        qualifying = [
            [i for i, (b, fval, fvals) in enumerate(pieces)
             if interval_distance(r, fvals) <= t_c and abs(r - fval) <= t_d]
            for r in mesh
        ]
        q_sets = countable_reduction(
            [GeneralizedBlock(tuple(pieces[i][0] for i in idxs)) for idxs in qualifying]
        )
        new_pieces = []
        for r, q, idxs in zip(mesh, q_sets, qualifying):
            lookup = {id(pieces[i][0]): pieces[i][2] for i in idxs}
            new_pieces.extend((blk, r, lookup[id(blk)]) for blk in q.blocks)
        old_vol = sum((p[0].volume() for p in pieces), Fraction(0))
        if sum((p[0].volume() for p in new_pieces), Fraction(0)) != old_vol:
            raise InternalConsistencyError(f"stage {k} lost domain volume")
        pieces = new_pieces
        if snapshot is not None:
            snapshot(k, pieces)
    return pieces


@pytest.mark.parametrize("name,F,eps", SVFS, ids=SVF_IDS)
def test_run_stages_matches_countable_reduction_reference(name, F, eps):
    Fr, _, scale = _rescaled(F)
    eps_scaled = min(eps / float(scale), 1.0)
    # the extract_selector recursion, then stage_selectors' at 5 stages
    for delta, n_stages in (
        (eps_scaled / 2.0, max(1, math.ceil(math.log2(2.0 / eps_scaled)))),
        (0.5 ** 6, 5),
    ):
        fhat, _ = simple_approx(Fr, delta)
        ref_snaps = []
        ref = reference_stages(fhat, n_stages,
                               snapshot=lambda k, pieces: ref_snaps.append((k, list(pieces))))
        assert [k for k, _ in ref_snaps] == list(range(1, n_stages + 1))
        for k, ref_pieces in ref_snaps:
            assert _run_stages(fhat, k) == ref_pieces
        assert _run_stages(fhat, n_stages) == ref


def scan_stages(fhat, n_stages):
    """The staged recursion piece by piece in Fraction arithmetic, scanning
    only the mesh indices within t_d of the piece's value: the reference
    for recursions too deep for reference_stages' full mesh."""
    pieces = [
        (b, Fraction(1, 2), tuple((min(max(lo, 0), 1), min(max(hi, 0), 1)) for lo, hi in vals))
        for b, vals in fhat.pieces if b.volume() > 0
    ]
    for k in range(1, n_stages + 1):
        n = 1 << (k + 1)
        t_c = Fraction(1, 1 << k) - Fraction(1, 1 << (k + STRICTNESS_MARGIN_SHIFT))
        t_d = Fraction(1, 1 << (k - 1)) - Fraction(1, 1 << (k + STRICTNESS_MARGIN_SHIFT))
        chosen = []
        for b, fval, fvals in pieces:
            js = range(max(0, math.ceil((fval - t_d) * n)), min(n, math.floor((fval + t_d) * n)) + 1)
            chosen.append(next(j for j in js if interval_distance(Fraction(j, n), fvals) <= t_c))
        order = sorted(range(len(pieces)), key=chosen.__getitem__)
        pieces = [(pieces[i][0], Fraction(chosen[i], n), pieces[i][2]) for i in order]
    return pieces


def test_deep_constant_chunk_selector_runs_on_python_ints():
    # eps = 1e-18 takes 61 stages, and the margin 2^-(61 + 4) puts the
    # common denominator at 2^65: no 64-bit integer holds the stage numbers
    F = RegularSVF((IM10, I01), ((const_chunk(0.3, 0.3),), (const_chunk(0.7, 0.9), const_chunk(0.1, 0.1))))
    s = extract_selector(F, 1e-18)
    assert s.stage >= 61 and s.stage + STRICTNESS_MARGIN_SHIFT > 64
    verdict, bound, witness = certify_selector(F, s, Fraction(1, 100))
    assert verdict == "certified" and bound <= 1e-18 and witness is None
    fhat, _ = simple_approx(_rescaled(F)[0], 1e-18 / 2.0)
    pieces = _run_stages(fhat, s.stage)
    assert pieces == scan_stages(fhat, s.stage)
    assert [(b, r) for b, r, _ in pieces] == list(s.pieces)
    assert max(r.denominator for _, r, _ in pieces) == 1 << (s.stage + 1)
    for k in range(1, 9):  # the scan agrees with countable reduction where both run
        assert scan_stages(fhat, k) == reference_stages(fhat, k)


def test_run_stages_raises_when_a_piece_meets_no_mesh_value():
    # an inverted frozen interval is at distance >= 1/2 from every value
    fhat, _ = simple_approx(RegularSVF((I01,), ((const_chunk(1, 0),),)), 0.25)
    assert list(fhat.pieces) == [(I01, ((Fraction(1), Fraction(0)),))]
    for stages in (_run_stages, reference_stages):
        with pytest.raises(InternalConsistencyError):
            stages(fhat, 3)


# ---------------------------------------------------------------------------
# the integer piece arrays against the per-piece Fraction reference
# ---------------------------------------------------------------------------

def reference_selector(F, eps):
    """extract_selector through simple_approx_reference and scan_stages:
    ((Block, value) rows, base blocks, stages)."""
    Fr, lo, scale = _rescaled(F)
    eps_scaled = min(eps / float(scale), 1.0)
    rows = simple_approx_reference(Fr, eps_scaled / 2.0)
    n = max(1, _ceil_log2(2 / Fraction(eps_scaled)))
    staged = scan_stages(SimpleNamespace(pieces=rows), n)
    return [(b, lo + r * scale) for b, r, _ in staged], [b for b, _ in rows], n


def assert_matches_reference(F, eps, rng):
    """Frozen pieces, selector pieces and values, exception volume and
    membership, and the certificate of the extracted selector and of hand
    edits of it (values moved, a piece dropped) equal the reference's."""
    Fr, _, scale = _rescaled(F)
    fhat, _ = simple_approx(Fr, min(eps / float(scale), 1.0) / 2.0)
    assert fhat.pieces == simple_approx_reference(Fr, min(eps / float(scale), 1.0) / 2.0)
    s = extract_selector(F, eps)
    rows, base, n = reference_selector(F, eps)
    assert s.pieces == rows and s.stage == n
    budget = Fraction(1, int(rng.choice([3, 100, 10**6])))
    J, J_ref = s.domain.exception(budget), exception_reference(base, budget)
    assert J.volume_exact() == J_ref.volume_exact()
    ends = [t for b in base for t in b.intervals[0]]
    for x in [*rng.choice(ends, 5), *(t + d * J.width for t in rng.choice(ends, 5) for d in (-1, 1, 2)),
              *map(Fraction, rng.uniform(-1, 3, 5))]:
        assert J.contains([x]) == any(j.contains([x]) for j in J_ref.blocks)
    edited = [(b, v + Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 60))) * scale
               if rng.random() < 0.2 else v) for b, v in rows]
    cases = [(s, rows), (Selector(tuple(edited), eps, s.domain), edited)]
    if len(rows) > 1:
        cases.append((Selector(s.pieces[1:], eps, s.domain), rows[1:]))
    for sel, ref_rows in cases:
        assert certify_selector(F, sel, budget) == certify_reference(F, ref_rows, eps, J_ref)
        assert sel.proper() == GeneralizedBlock(tuple(b for b, _ in ref_rows)).proper


@pytest.mark.parametrize("name,F,eps", SVFS, ids=SVF_IDS)
def test_integer_pipeline_matches_fraction_reference_on_the_svf_suite(name, F, eps):
    assert_matches_reference(F, eps, np.random.default_rng(len(name)))


def random_svf(rng):
    """One to four domain blocks between random rational cuts of [0, 3]
    (mostly non-dyadic), a random rational value range, and one to three
    quadratic chunks per block that may leave it; a quarter of the SVFs
    have constant chunks only, at eps down to 1e-18."""
    cuts = sorted({Fraction(int(a), int(b)) for a, b in zip(rng.integers(0, 18, 5), rng.integers(1, 7, 5))})
    cuts = cuts if len(cuts) > 1 else [Fraction(0), Fraction(1, 3)]
    lo = Fraction(int(rng.integers(-6, 4)), int(rng.integers(1, 8)))
    scale = Fraction(int(rng.integers(1, 12)), int(rng.integers(1, 8)))
    curved = rng.random() < 0.75
    chunks = []
    for _ in cuts[1:]:
        here = []
        for _ in range(int(rng.integers(1, 4))):
            c0, w = float(lo) + float(scale) * rng.uniform(-0.2, 1.2), float(scale) * rng.uniform(0, 0.3)
            c1, c2 = float(scale) * rng.uniform(-0.3, 0.3) * curved, float(scale) * rng.uniform(-0.1, 0.1) * curved
            here.append(Chunk(lambda x, c=(c0, c1, c2): c[0] + c[1] * x + c[2] * x * x,
                              lambda x, c=(c0 + w, c1, c2): c[0] + c[1] * x + c[2] * x * x,
                              Modulus.lipschitz(abs(c1) + 2 * abs(c2) * float(cuts[-1])),
                              eval_radius=float(rng.choice([0.0, 1e-9]))))
        chunks.append(tuple(here))
    blocks = tuple(Block.interval(a, b) for a, b in zip(cuts, cuts[1:]))
    eps = float(scale) * float(rng.choice([0.3, 0.1, 0.05] if curved else [1e-3, 1e-9, 1e-18]))
    return RegularSVF(blocks, tuple(chunks), (lo, lo + scale)), eps


def test_integer_pipeline_matches_fraction_reference_on_random_svfs():
    rng = np.random.default_rng(2026)
    for _ in range(24):
        F, eps = random_svf(rng)
        assert_matches_reference(F, eps, rng)


# ---------------------------------------------------------------------------
# per-piece located-distance certificate
# ---------------------------------------------------------------------------

def dense_distance(F, piece, v, n=1001):
    """Largest dist(v, F(x)) over n evenly spaced points of a 1-D piece,
    endpoints included, with F taken on the domain block holding it."""
    ((lo, hi),) = piece.intervals
    chunks = F.chunks_per_block[F.block_index([(lo + hi) / 2])]
    xs = np.linspace(float(lo), float(hi), n)
    ends = [(ch.alpha(xs), ch.beta(xs)) for ch in chunks]
    dist = np.min([np.maximum(0.0, np.maximum(np.minimum(a, b) - v, v - np.maximum(a, b))) for a, b in ends], axis=0)
    return float(dist.max())


@pytest.mark.parametrize("name,F,eps", SVFS, ids=SVF_IDS)
def test_certify_selector_bound_covers_dense_evaluation(name, F, eps):
    s = extract_selector(F, eps)
    verdict, bound, witness = certify_selector(F, s, Fraction(1, 100))
    assert verdict == "certified" and witness is None
    assert 0.0 <= bound <= eps
    for piece, v in s.pieces:
        assert dense_distance(F, piece, float(v)) <= bound


def _lying_identity():
    # the identity on [0, 1] declared constant (Lipschitz 0)
    return Chunk(
        alpha=lambda x: x,
        beta=lambda x: x,
        modulus=Modulus.lipschitz(0.0),
        eval_radius=0.0,
    )


def test_certify_selector_lying_modulus_undecided_then_refuted():
    eps = 0.125
    lying = RegularSVF((I01,), ((_lying_identity(),),))
    honest = RegularSVF((I01,), ((identity_chunk(),),))
    s = extract_selector(lying, eps)
    # the lie leaves one piece, whose center value is right
    assert len(s.pieces) == 1 and s.pieces[0][0] == I01
    verdict, bound, witness = certify_selector(honest, s, Fraction(1, 100))
    assert verdict == "undecided" and witness is None
    assert bound >= dense_distance(honest, I01, float(s.pieces[0][1])) > eps
    # the same value on both halves is refuted at the center of the first
    v = s.pieces[0][1]
    halves = Selector(((Block.interval(0, F12), v), (Block.interval(F12, 1), v)), eps, s.domain)
    verdict, bound, witness = certify_selector(honest, halves, Fraction(1, 100))
    assert verdict == "counterexample"
    assert witness["point"] == [0.25] and witness["value"] == float(v)
    assert witness["distance_lower"] == abs(0.25 - float(v)) > eps
    assert not s.domain.exception(Fraction(1, 100)).contains([Fraction(1, 4)])
    assert honest.located_distance_to(np.array(witness["point"]), witness["value"]) > eps
    assert bound >= witness["distance_lower"]


def test_certify_selector_finds_a_witness_whose_value_is_not_a_float():
    # v lies 0.4 ulp above the float 0.99, so its float gap to 0.9 falls
    # short of the exact one by more than the one ulp the float pass adds;
    # eps sits between them, and only the exact chain sees the witness
    F = RegularSVF((I01,), ((const_chunk(0, 0.9),),))
    gap = 0.99 - 0.9  # exact: the two are within a factor 2
    v = Fraction(0.99) + Fraction(2, 5) * Fraction(math.ulp(0.99))
    eps = gap + 2 * math.ulp(gap)
    s = Selector(((I01, v),), eps, extract_selector(F, 0.5).domain)
    verdict, bound, witness = certify_selector(F, s, Fraction(1, 100))
    assert verdict == "counterexample" and witness["point"] == [0.5]
    assert Fraction(witness["distance_lower"]) >= Fraction(eps) and bound >= witness["distance_lower"]


def test_certify_selector_undecided_without_coverage():
    F = RegularSVF((IM10, I01), ((const_chunk(0, 0.25),), (const_chunk(0.75, 1),)))
    s = extract_selector(F, 0.125)
    partial = Selector(s.pieces[1:], s.epsilon, s.domain)
    assert certify_selector(F, s, Fraction(1, 100))[0] == "certified"
    verdict, bound, witness = certify_selector(F, partial, Fraction(1, 100))
    assert verdict == "undecided" and witness is None
    assert bound <= 0.125
