import math
import random
from fractions import Fraction

import numpy as np
import pytest

from certctrl.core import (
    ArgumentError,
    CertifiedReal,
    ContractError,
    FiniteMesh,
    Hypercube,
    Modulus,
    ResourceBudgetError,
    build_mesh,
    mesh_divisions,
    mesh_node,
    snap_dyadic,
)


# ---------------------------------------------------------------------------
# CertifiedReal soundness: the exact rational evaluation of a random
# expression tree must always lie inside [value - radius, value + radius].
# The oracle is exact Fraction arithmetic, fully independent of the
# float path.
# ---------------------------------------------------------------------------

def _random_tree(rng, depth):
    if depth == 0:
        v = rng.uniform(-3.0, 3.0)
        return ("leaf", v)
    op = rng.choice(["add", "sub", "mul", "neg", "abs"])
    if op in ("neg", "abs"):
        return (op, _random_tree(rng, depth - 1))
    return (op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _eval_certified(node):
    kind = node[0]
    if kind == "leaf":
        return CertifiedReal(node[1], 0.0)
    if kind == "neg":
        return -_eval_certified(node[1])
    if kind == "abs":
        return abs(_eval_certified(node[1]))
    a = _eval_certified(node[1])
    b = _eval_certified(node[2])
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    raise AssertionError(kind)


def _eval_exact(node) -> Fraction:
    kind = node[0]
    if kind == "leaf":
        return Fraction(node[1])
    if kind == "neg":
        return -_eval_exact(node[1])
    if kind == "abs":
        return abs(_eval_exact(node[1]))
    a = _eval_exact(node[1])
    b = _eval_exact(node[2])
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    raise AssertionError(kind)


def test_interval_soundness_random_trees():
    rng = np.random.default_rng(20240901)
    n_trees = 100_000
    for i in range(n_trees):
        tree = _random_tree(rng, int(rng.integers(1, 4)))
        cert = _eval_certified(tree)
        exact = _eval_exact(tree)
        assert cert.contains(exact), f"tree {i}: {exact} outside {cert}"


def test_certified_real_basics():
    x = CertifiedReal(1.0, 0.1)
    y = CertifiedReal(2.0, 0.2)
    assert (x + y).radius >= 0.3
    assert (x * y).radius >= 1.0 * 0.2 + 2.0 * 0.1
    assert (-x).value == -1.0 and (-x).radius == 0.1
    assert abs(CertifiedReal(-2.0, 0.5)).value == 2.0
    with pytest.raises(ArgumentError):
        CertifiedReal(1.0, -0.5)
    with pytest.raises(ArgumentError):
        CertifiedReal(math.inf, 0.0)
    assert x.lower == 1.0 - 0.1 and x.upper == 1.0 + 0.1


# ---------------------------------------------------------------------------
# Moduli
# ---------------------------------------------------------------------------

def test_modulus_lipschitz_step():
    m = Modulus.lipschitz(2.0)
    # delta = eps / L
    assert m.step(0.1) == pytest.approx(0.05)


def test_modulus_mu_quadratic_bisection():
    m = Modulus.mu(lambda t: t * t)
    # largest t with t^2 <= 0.01 is 0.1
    assert m.step(0.01) == pytest.approx(0.1, rel=1e-9)
    # conservative: never overshoots
    d = m.step(0.01)
    assert d * d <= 0.01 + 1e-15


def test_modulus_step_rejects_bad_eps():
    with pytest.raises(ArgumentError):
        Modulus.lipschitz(1.0).step(0.0)
    with pytest.raises(ArgumentError):
        Modulus.lipschitz(1.0).step(-1.0)


def test_modulus_mu_generic_is_monotone_nondecreasing_in_eps():
    m = Modulus.mu(lambda t: math.sqrt(t))
    steps = [m.step(e) for e in (0.01, 0.1, 0.5, 1.0)]
    assert all(a <= b + 1e-15 for a, b in zip(steps, steps[1:]))


# ---------------------------------------------------------------------------
# Dyadic snapping: the array snap must equal the scalar round() reference
# bit for bit, signed zeros included.
# ---------------------------------------------------------------------------

def _snap_ref(x: float) -> float:
    return round(x * 2.0 ** 44) / 2.0 ** 44


_TIES = (np.arange(-2000, 2000) + 0.5) / 2.0 ** 44


@pytest.mark.parametrize(
    "xs",
    [
        np.random.default_rng(5).normal(scale=10.0, size=20_000),
        _TIES,  # exact halves: round() goes to even
        np.array([-1e-15, -2.0 ** -46, -0.4 * 2.0 ** -44, -0.0, 1e-15]),
        np.concatenate([  # |x| >= 512: x * 2**44 is beyond 2**53
            [512.0, -513.3, 1e6 / 3.0, -(2.0 ** 30) / 7.0],
            np.random.default_rng(6).uniform(-1e6, 1e6, size=2000),
        ]),
    ],
    ids=["random", "ties", "tiny", "large"],
)
def test_snap_dyadic_matches_scalar_round(xs):
    ref = np.array([_snap_ref(x) for x in xs.tolist()])
    assert snap_dyadic(xs).tobytes() == ref.tobytes()


@pytest.mark.parametrize("bad", [math.nan, 1e300, np.array([0.5, math.nan])])
def test_snap_dyadic_rejects_non_finite(bad):
    with pytest.raises(ArgumentError):
        snap_dyadic(bad)


# ---------------------------------------------------------------------------
# Meshes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "center, side, eps",
    [
        ([1.0 / 3.0], 0.7, 0.01),
        ([0.1, -2.0 / 7.0], 1.3, 0.05),
        ([math.pi, -math.e, 1e-3 / 3.0], 0.9, 0.2),
    ],
)
def test_build_mesh_matches_scalar_snap_loop(center, side, eps):
    box = Hypercube(np.array(center), side)
    mesh = build_mesh(box, eps)
    k = round(len(mesh) ** (1.0 / box.dim)) - 1
    axes = [
        np.array([_snap_ref(c) for c in box.lo[d] + box.side * np.arange(k + 1) / k])
        for d in range(box.dim)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    ref = np.stack([g.ravel() for g in grids], axis=1)
    assert mesh.points.tobytes() == ref.tobytes()


def test_mesh_node_matches_build_mesh():
    # every node of a one-dimensional mesh, one at a time: random centred
    # and interval boxes, non-dyadic, off the origin and far from it, and
    # the one-node mesh
    rng = np.random.default_rng(5)
    boxes = [Hypercube(np.array([rng.uniform(-3.0, 3.0)]), rng.uniform(1e-3, 4.0)) for _ in range(60)]
    boxes += [Hypercube.interval(*sorted(rng.uniform(-5.0, 5.0, 2).tolist())) for _ in range(60)]
    boxes += [Hypercube.interval(-0.8, 0.6), Hypercube.interval(-0.0, 1.0), Hypercube.interval(1e6 / 3.0, 1e6)]
    for box in boxes:
        for eps in (box.side, box.side / 2.0, *(box.side * 10.0 ** rng.uniform(-4.0, -0.5, 3))):
            k = mesh_divisions(box, eps)
            nodes = np.array([mesh_node(box, k, j) for j in range(k + 1)])
            assert nodes.tobytes() == build_mesh(box, eps).points[:, 0].tobytes(), (box, eps)


def test_mesh_node_refuses_what_build_mesh_refuses():
    # an end point that the 2^-44 lattice cannot scale
    box = Hypercube.interval(-1e300, 1e300)
    with pytest.raises(ArgumentError):
        build_mesh(box, 1e299)
    with pytest.raises(ArgumentError):
        mesh_node(box, mesh_divisions(box, 1e299), 0)


def test_build_mesh_1d_endpoints_and_midpoint():
    # H_1(0) in R^1 is [-0.5, 0.5]; eps = 0.5 is covered by 3 nodes or fewer
    box = Hypercube(np.array([0.0]), 1.0)
    mesh = build_mesh(box, 0.5)
    assert len(mesh) <= 3
    rng = np.random.default_rng(7)
    assert mesh.covering_check(rng, 2000) <= 0.5


def test_build_mesh_2d_covering_sampled():
    # H_2(0) in R^2, eps = 1: spacing <= sqrt(2), 3x3 grid suffices
    box = Hypercube(np.zeros(2), 2.0)
    mesh = build_mesh(box, 1.0)
    assert len(mesh) <= 9
    rng = np.random.default_rng(11)
    # DERIVED oracle: 10^4 uniform samples, min-distance <= eps
    assert mesh.covering_check(rng, 10_000) <= 1.0


def test_build_mesh_single_node_when_eps_huge():
    box = Hypercube(np.array([0.25, -0.5]), 1.0)
    mesh = build_mesh(box, box.diameter / 2.0 + 0.01)
    assert len(mesh) == 1
    assert mesh.points.tobytes() == np.array([[_snap_ref(0.25), _snap_ref(-0.5)]]).tobytes()


def test_build_mesh_nodes_are_dyadic_and_distinct():
    box = Hypercube(np.array([1.0 / 3.0]), 1.0)
    mesh = build_mesh(box, 0.05)
    scaled = mesh.points * 2.0 ** 44
    assert np.all(scaled == np.round(scaled))
    assert len(np.unique(mesh.points, axis=0)) == len(mesh)


class _FixedSamples:
    """A parent set whose samples are given points."""

    def __init__(self, xs):
        self.xs = xs

    def sample(self, rng, size):
        return self.xs[:size]


def _forced_samples(rng, box, mesh):
    """Nodes, cell midpoints and points on the box faces."""
    axes = [np.unique(col) for col in mesh.points.T]
    mids = [(g[:-1] + g[1:]) / 2 if len(g) > 1 else g for g in axes]
    grid = np.stack([m.ravel() for m in np.meshgrid(*mids, indexing="ij")], axis=1)
    faces = box.sample(rng, 60)
    axis = rng.integers(0, box.dim, 60)
    faces[np.arange(60), axis] = np.where(rng.uniform(size=60) < 0.5, box.lo[axis], box.hi[axis])
    return np.vstack([mesh.points, grid, faces, box.sample(rng, 100)])


@pytest.mark.parametrize("seed", range(12))
def test_covering_check_equals_the_brute_force_distance(seed):
    from oracles import mesh_min_distance

    rng = np.random.default_rng(seed)
    dim = 1 + seed % 3
    box = Hypercube(rng.uniform(-2, 2, dim), float(rng.uniform(0.1, 3.0)))
    k = seed % 7
    # k = 0 (and k = 1, whose eps reaches half the diameter) is the single centre node
    eps = box.diameter if k == 0 else 1.001 * box.side * math.sqrt(dim) / (2 * k)
    mesh = build_mesh(box, eps)
    assert len(mesh) == (k + 1 if k > 1 else 1) ** dim
    xs = _forced_samples(rng, box, mesh)
    for x in xs:
        fixed = FiniteMesh(mesh.points, mesh.resolution, _FixedSamples(x[None, :]))
        got = fixed.covering_check(rng, 1)
        assert got.hex() == float(mesh_min_distance(mesh.points, x[None, :])[0]).hex(), x
    ref_rng = np.random.default_rng(seed)
    want = float(mesh_min_distance(mesh.points, box.sample(ref_rng, 3000)).max())
    assert mesh.covering_check(np.random.default_rng(seed), 3000).hex() == want.hex()


def test_covering_check_refuses_a_mesh_that_is_not_a_grid():
    box = Hypercube(np.zeros(2), 2.0)
    points = np.array([[0.0, 0.0], [0.5, 0.5], [-0.5, 0.25]])
    with pytest.raises(ContractError):
        FiniteMesh(points, 1.0, box).covering_check(np.random.default_rng(0), 10)


def test_build_mesh_budget_error_names_count():
    box = Hypercube(np.zeros(3), 1.0)
    with pytest.raises(ResourceBudgetError) as ei:
        build_mesh(box, 1e-4, budget=1000)
    assert "nodes" in str(ei.value) and "1000" in str(ei.value)


@pytest.mark.parametrize("side", [0.0, -1.0, math.nan, math.inf])
def test_hypercube_rejects_bad_side(side):
    with pytest.raises(ArgumentError) as ei:
        Hypercube(np.zeros(1), side)
    assert "side" in str(ei.value)


def test_hypercube_interval_keeps_its_end_points():
    # center -+ side / 2 rounds -0.2 up to -0.19999999999999996
    plain = Hypercube(np.array([0.8]), 2.0)
    assert not plain.contains([-0.2])
    box = Hypercube.interval(-0.2, 1.8)
    assert box.lo.tolist() == [-0.2] and box.hi.tolist() == [1.8]
    assert box.contains([-0.2]) and box.contains([1.8])
    assert not box.contains([np.nextafter(-0.2, -1.0)]) and not box.contains([np.nextafter(1.8, 2.0)])
    assert box.center.tolist() == [0.8] and box.side == 2.0
    with pytest.raises(ValueError):
        box.lo[0] = 0.0  # the corners are read-only
    # a dyadic symmetric box is the same either way
    for lo, hi in [(-1.0, 1.0), (-2.0, 2.0), (0.0, 1.0)]:
        exact, old = Hypercube.interval(lo, hi), Hypercube(np.array([(lo + hi) / 2.0]), hi - lo)
        assert exact.lo.tobytes() == old.lo.tobytes() and exact.hi.tobytes() == old.hi.tobytes()


def test_build_mesh_rejects_nonpositive_eps():
    with pytest.raises(ArgumentError):
        build_mesh(Hypercube(np.zeros(1), 1.0), 0.0)
