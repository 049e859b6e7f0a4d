import math

import numpy as np
import pytest

from certctrl import evt
from certctrl.core import FiniteMesh, Hypercube, Modulus, ResourceBudgetError
from certctrl.evt import (
    Functional,
    PolicyClass,
    PolicyNet,
    enumerate_policy_net,
    epsilon_minimize,
    policy_from_text,
    policy_to_text,
)
from oracles import full_scan_minimum, mesh_min_distance, net_values_on_grid

UNIT = Hypercube(np.array([0.5]), 1.0)  # [0, 1]
GRID = np.linspace(0.0, 1.0, 401).reshape(-1, 1)


def _sup_dist_functional(target):
    """J[k] = sup_x |k(x) - target(x)| on a fine grid, with certified radius."""
    tvals = target(GRID[:, 0])

    def ev(env):
        # grid gap 1/400; both functions 1-Lipschitz
        return _dist(tvals, env).max(axis=1), 2.0 * (1.0 / 400.0) / 2.0 + 1e-12

    return Functional(ev, Modulus.lipschitz(1.0), GRID, name="sup-dist")


def _dist(t, env):
    """(c, G) distance from t to the envelope [lo, hi]; |V - t| bit for bit
    when lo is hi."""
    lo, hi = env
    return np.maximum(lo[:, :, 0] - t, 0.0) + np.maximum(t - hi[:, :, 0], 0.0)


def _random_lipschitz(rng, L=1.0, K=1.0, n_knots=12):
    """Random L-Lipschitz, K-bounded function on [0, 1] (admissible member)."""
    xs = np.linspace(0.0, 1.0, n_knots)
    ys = [rng.uniform(-K, K)]
    for i in range(1, n_knots):
        step = L * (xs[i] - xs[i - 1])
        lo = max(-K, ys[-1] - step)
        hi = min(K, ys[-1] + step)
        ys.append(rng.uniform(lo, hi))
    ys = np.array(ys)
    return lambda x: np.interp(x, xs, ys)


# ---------------------------------------------------------------------------
# enumerate_policy_net
# ---------------------------------------------------------------------------

def test_net_is_epsilon_cover_of_random_members():
    pclass = PolicyClass(UNIT, 1, 1.0, 1.0)
    eps = 1.2
    net = enumerate_policy_net(pclass, eps)
    assert len(net) >= 1
    V = net_values_on_grid(net, GRID)[:, :, 0]
    rng = np.random.default_rng(42)
    # DERIVED oracle: covering verified against 100 random admissible
    # functions via a sup-norm check on a fine grid
    for _ in range(100):
        f = _random_lipschitz(rng)
        fv = f(GRID[:, 0])
        best = float(np.abs(V - fv[None, :]).max(axis=1).min())
        assert best <= eps + 1e-9


def test_net_members_respect_class_bounds():
    pclass = PolicyClass(UNIT, 1, 1.0, 1.0)
    net = enumerate_policy_net(pclass, 0.9)
    xs = np.random.default_rng(0).uniform(0, 1, (200, 1))
    for p in net[:: max(1, len(net) // 50)]:
        vals = p(xs)
        assert np.abs(vals).max() <= 1.0 + 1e-9
        # Lipschitz compatibility across node pairs with slack
        pts = p.nodes.points
        D = np.abs(pts[:, None, 0] - pts[None, :, 0])
        V = np.abs(p.values[:, None, 0] - p.values[None, :, 0])
        assert np.all(V <= D + 0.9 / 3.0 + 1e-9)


def test_net_zero_bound_gives_zero_policy():
    pclass = PolicyClass(UNIT, 1, 1.0, 0.0)
    net = enumerate_policy_net(pclass, 0.5)
    assert len(net) == 1
    assert np.all(net[0](GRID) == 0.0)


def test_net_zero_lipschitz_gives_constants():
    pclass = PolicyClass(UNIT, 1, 0.0, 1.0)
    net = enumerate_policy_net(pclass, 0.9)
    assert len(net) >= 3
    for p in net:
        vals = p(GRID)[:, 0]
        assert np.ptp(vals) <= 1e-12


def test_net_degenerate_eps_returns_zero_policy():
    pclass = PolicyClass(UNIT, 1, 1.0, 1.0)
    net = enumerate_policy_net(pclass, 2.5)
    assert len(net) == 1
    assert np.all(net[0](GRID) == 0.0)


def test_net_budget_error_names_counts():
    pclass = PolicyClass(UNIT, 1, 1.0, 1.0)
    with pytest.raises(ResourceBudgetError) as ei:
        enumerate_policy_net(pclass, 0.05)
    msg = str(ei.value)
    assert "|K0|^N" in msg and "budget" in msg


def test_value_mesh_stays_in_ball_and_covers():
    from certctrl.evt import DEFAULT_NET_BUDGET, _value_mesh

    # spacing h covers the ball of radius K at resolution h sqrt(m)
    spacing = 0.1
    values = _value_mesh(PolicyClass(UNIT, 2, 1.0, 1.0), spacing, DEFAULT_NET_BUDGET)
    assert np.all(np.linalg.norm(values, axis=1) <= 1.0)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(20_000, 2))
    pts = pts[np.linalg.norm(pts, axis=1) <= 1.0][:5000]
    assert float(mesh_min_distance(values, pts).max()) <= spacing * math.sqrt(2)


def _reference_net(pclass, eps):
    """Node points and (members, N, m) values of the depth-first recursive
    enumeration, one node at a time: the reference the array enumeration
    must reproduce bit for bit, order included."""
    from certctrl.core import build_mesh
    from certctrl.evt import DEFAULT_NET_BUDGET, _value_mesh

    values = _value_mesh(pclass, eps / 3.0, DEFAULT_NET_BUDGET)
    L_eff = pclass.lipschitz + pclass.extension_vector_lipschitz
    nodes = build_mesh(pclass.domain, eps / (3.05 * L_eff), DEFAULT_NET_BUDGET)
    N, Lc = len(nodes), pclass.coordinate_lipschitz
    D = np.linalg.norm(nodes.points[:, None, :] - nodes.points[None, :, :], axis=2)
    slack = eps / 3.0 + 1e-12
    out, assignment = [], np.empty((N, pclass.output_dim))

    def feasible(i, vi):
        gaps = np.abs(vi[None, :] - assignment[:i]).max(axis=1)
        return bool(np.all(gaps <= Lc * D[i, :i] + slack))

    def rec(i):
        if i == N:
            out.append(assignment.copy())
            return
        for v in values:
            if feasible(i, v):
                assignment[i] = v
                rec(i + 1)

    rec(0)
    return nodes.points, np.array(out)


@pytest.mark.parametrize(
    "pclass,eps",
    [
        (PolicyClass(UNIT, 1, 1.0, 1.0), 0.615),
        (PolicyClass(UNIT, 1, 1.0, 1.0), 0.74),
        (PolicyClass(UNIT, 1, 1.0, 1.0), 1.0),
        (PolicyClass(UNIT, 1, 0.5, 1.0), 1.0),
        (PolicyClass(UNIT, 1, 2.0, 0.5), 0.99),
        (PolicyClass(UNIT, 2, 1.0, 1.0), 1.4),
        (PolicyClass(UNIT, 2, 1.0, 1.0, per_coordinate_budget=True), 1.6),
        (PolicyClass(Hypercube(np.zeros(2), 0.5), 1, 1.0, 1.0), 1.9),
    ],
    ids=["L1K1-0.615", "L1K1-0.74", "L1K1-1.0", "L0.5K1", "L2K0.5", "m2", "m2-per-coordinate", "2d-domain"],
)
def test_net_matches_recursive_enumeration(pclass, eps):
    net = enumerate_policy_net(pclass, eps)
    points, values = _reference_net(pclass, eps)
    assert len(net) == values.shape[0] > 1
    assert net.values.shape == values.shape
    assert net.values.tobytes() == values.tobytes()
    assert net.nodes.points.tobytes() == points.tobytes()
    assert net.coordinate_lipschitz == pclass.coordinate_lipschitz and net.bound == pclass.bound


@pytest.mark.parametrize(
    "pclass,eps,n_members",
    [
        (PolicyClass(UNIT, 2, 0.0, 1.0), 0.9, None),  # L = 0: one constant per value-mesh point
        (PolicyClass(UNIT, 1, 1.0, 0.0), 0.5, 1),  # K = 0
        (PolicyClass(UNIT, 2, 1.0, 1.0), 2.0, 1),  # eps >= 2K
    ],
)
def test_net_degenerate_branches_are_constants_on_the_center(pclass, eps, n_members):
    from certctrl.evt import _value_mesh

    net = enumerate_policy_net(pclass, eps)
    assert net.nodes.points.tolist() == [pclass.domain.center.tolist()]
    assert net.coordinate_lipschitz == 0.0
    if n_members is None:
        expected = _value_mesh(pclass, eps / 3.0, 2_000_000)[:, None, :]
    else:
        expected = np.zeros((1, 1, pclass.output_dim))
    assert net.values.tobytes() == expected.tobytes() and net.values.shape == expected.shape
    assert [p.index for p in net] == list(range(len(net)))


def test_net_member_budget_is_exact():
    # 17,329 members at eps = 0.615: the member budget refuses one less
    pclass = PolicyClass(UNIT, 1, 1.0, 1.0)
    assert len(enumerate_policy_net(pclass, 0.615, budget=17_329)) == 17_329
    with pytest.raises(ResourceBudgetError) as ei:
        enumerate_policy_net(pclass, 0.615, budget=17_328)
    msg = str(ei.value)
    assert "|K0|^N" in msg and "17328" in msg


def test_net_sequence_indexing():
    pclass = PolicyClass(UNIT, 1, 1.0, 1.0)
    net = enumerate_policy_net(pclass, 1.0)
    n = len(net)
    last = net[-1]
    assert last.index == n - 1 and np.array_equal(last.values, net.values[n - 1])
    assert net[-n].index == 0
    assert net[np.int64(3)].index == 3
    assert [p.index for p in net[2:9:3]] == [2, 5, 8]
    assert [p.index for p in net[::-1]][:2] == [n - 1, n - 2]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            net[bad]
    members = list(net)
    assert len(members) == n and [p.index for p in members] == list(range(n))
    p = net[n // 2]
    assert p.nodes is net.nodes and p.coordinate_lipschitz == 1.0 and p.bound == 1.0


# ---------------------------------------------------------------------------
# prefix tree: envelopes, leaf rows and the pruned walk
# ---------------------------------------------------------------------------

def _walk(tree):
    """Every prefix of a _PrefixTree, level by level and unpruned:
    yields (j, ids, lo, hi)."""
    parents, part = np.zeros(1, dtype=np.intp), None
    for j in range(tree.depth):
        ids, owner = map(np.concatenate, zip(*tree.blocks(j, parents)))
        part, lo, hi = tree.envelope(j, ids, part, owner)
        yield j, ids, lo, hi
        parents = ids


def _assert_grid_values_exact(net, grid):
    """The oracle's grid values are every member's own extension bit for
    bit, and the prefix tree's last-level rows are the oracle's."""
    V = net_values_on_grid(net, grid)
    for k in range(len(net)):
        assert V[k].tobytes() == net[k](grid).reshape(V.shape[1:]).tobytes(), k
    tree = evt._PrefixTree(net, grid)
    *_, (j, ids, lo, hi) = _walk(tree)
    assert lo is hi and j == net.values.shape[1] - 1
    first = tree.first[j]
    assert first[ids].tolist() == first[:-1].tolist()
    for row, a, b in zip(lo, first[:-1], first[1:]):
        assert all(V[k].tobytes() == row.tobytes() for k in range(a, b))
    return V


def _signed_zero_variants(net, rng):
    """The net, a copy with some values replaced by +0.0 or -0.0, and that
    copy in random member order (runs of equal prefixes broken up)."""
    values = net.values.copy()
    hit = rng.random(values.shape) < 0.15
    values[hit] = np.where(rng.random(values.shape) < 0.5, 0.0, -0.0)[hit]
    zeros = PolicyNet(net.nodes, values, net.coordinate_lipschitz, net.bound)
    shuffled = PolicyNet(net.nodes, values[rng.permutation(len(values))], net.coordinate_lipschitz, net.bound)
    return [net, zeros, shuffled]


def _envelope_functionals(target):
    """Lower bounds on the envelope (lo, hi) that are the value when lo is
    hi: the shapes the tests minimize, as (name, bounds) pairs."""
    return [
        ("sup-dist", lambda env: _dist(target, env).max(axis=1)),
        ("mean", lambda env: env[0][:, :, 0].mean(axis=1)),
        ("quad", lambda env: np.mean(_dist(GRID[:, 0], env) ** 2, axis=1) / 4.0),
        ("midpoint", lambda env: _dist(0.0, env)[:, 200]),
        ("const", lambda env: np.full(len(env[0]), 3.25)),
    ]


def _assert_pruned_is_full_scan(net, target, eps=1.3):
    pclass = PolicyClass(UNIT, 1, 1.0, 1.0)
    for name, bounds in _envelope_functionals(target):
        J = Functional(lambda env, b=bounds: (b(env), 1e-3), Modulus.lipschitz(1.0), GRID, name=name)
        work = {}
        policy, cert = epsilon_minimize(J, pclass, eps, net=net, work=work)
        k, value, radius = full_scan_minimum(J, net)
        assert policy.index == k, name
        assert np.float64(cert.value).tobytes() == np.float64(value).tobytes(), name
        assert cert.radius == radius + eps / 2.0
        assert np.array_equal(policy.values, net.values[k])
        assert 0 < work["scored"] <= work["prefix_rows"]


@pytest.mark.parametrize("seed", range(4))
def test_pruned_walk_matches_full_scan(seed):
    rng = np.random.default_rng(seed)
    delta = [0.7, 0.8, 0.9, 1.0][seed]
    net = enumerate_policy_net(PolicyClass(UNIT, 1, 1.0, 1.0), delta)
    for variant in _signed_zero_variants(net, rng):
        _assert_pruned_is_full_scan(variant, _random_lipschitz(rng)(GRID[:, 0]))


def test_pruned_walk_skips_most_of_the_net():
    net = enumerate_policy_net(PolicyClass(UNIT, 1, 1.0, 1.0), 0.7)
    J = _sup_dist_functional(_random_lipschitz(np.random.default_rng(1)))
    work = {}
    epsilon_minimize(J, None, 1.4, net=net, work=work)
    assert work["scored"] < len(net) // 10
    # every member ties: nothing is pruned
    J = Functional(lambda env: (np.zeros(len(env[0])), 0.0), Modulus.lipschitz(1.0), GRID)
    epsilon_minimize(J, None, 1.4, net=net, work=work)
    assert work["scored"] >= len(net) and work["prefix_rows"] > work["scored"]


@pytest.mark.parametrize(
    "pclass,eps,grid",
    [
        (PolicyClass(UNIT, 1, 1.0, 1.0), 0.8, GRID),
        (PolicyClass(UNIT, 2, 1.0, 1.0), 1.4, np.linspace(-0.25, 1.25, 37).reshape(-1, 1)),
        (
            PolicyClass(Hypercube(np.zeros(2), 0.5), 1, 1.0, 1.0),
            1.9,
            np.random.default_rng(3).uniform(-0.5, 0.5, (29, 2)),
        ),
    ],
)
def test_prefix_envelopes_hold_every_member_below(pclass, eps, grid):
    rng = np.random.default_rng(11)
    for net in _signed_zero_variants(enumerate_policy_net(pclass, eps), rng):
        V = net_values_on_grid(net, grid)
        tree = evt._PrefixTree(net, grid)
        for j, ids, lo, hi in _walk(tree):
            # below[k]: the level-j prefix of member k
            below = np.repeat(ids, np.diff(tree.first[j]))
            assert np.all(lo <= hi)
            assert np.all(lo[below] <= V) and np.all(V <= hi[below]), j
            # the members below a prefix share its values at nodes 0..j
            assert (net.values[:, : j + 1] == net.values[tree.first[j][below], : j + 1]).all()


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_kernel_prefix_groups_split_across_blocks(monkeypatch, chunk):
    # envelope blocks of 1, 3 or 7 rows split the children of a prefix
    monkeypatch.setattr(evt, "_CHUNK", chunk)
    net = enumerate_policy_net(PolicyClass(UNIT, 1, 1.0, 1.0), 0.74)
    assert net.values.shape[1] > 2
    _assert_grid_values_exact(net, GRID)
    _assert_pruned_is_full_scan(net, 0.3 * np.sin(3.0 * GRID[:, 0]))


@pytest.mark.parametrize(
    "pclass,eps,grid",
    [
        (PolicyClass(UNIT, 1, 1.0, 1.0), 0.74, GRID),
        # m = 2, with grid points outside the domain
        (PolicyClass(UNIT, 2, 1.0, 1.0), 1.4, np.linspace(-0.25, 1.25, 37).reshape(-1, 1)),
        # 2-D domain
        (
            PolicyClass(Hypercube(np.zeros(2), 0.5), 1, 1.0, 1.0),
            1.9,
            np.random.default_rng(3).uniform(-0.5, 0.5, (29, 2)),
        ),
        # one node: constant members
        (PolicyClass(UNIT, 1, 0.0, 1.0), 0.5, GRID),
    ],
)
def test_net_values_on_grid_match_members(pclass, eps, grid):
    _assert_grid_values_exact(enumerate_policy_net(pclass, eps), grid)


def _hand_built_net(values, points=((0.0,), (0.5,), (1.0,))):
    nodes = FiniteMesh(np.array(points), 0.25, UNIT)
    return PolicyNet(nodes, np.array(values, dtype=float), 1.0, 1.0)


@pytest.mark.parametrize("chunk", [4, 128])
def test_kernel_unordered_net_with_repeated_rows(monkeypatch, chunk):
    monkeypatch.setattr(evt, "_CHUNK", chunk)
    rng = np.random.default_rng(5)
    rows = rng.choice([-0.5, 0.0, 0.25, 0.5], size=(30, 3, 1))
    values = np.concatenate([rows, rows[::-1], rows[:5], rows[:5]])
    values = values[rng.permutation(len(values))]
    assert len(np.unique(values, axis=0)) < len(values)
    net = _hand_built_net(values)
    _assert_grid_values_exact(net, GRID)
    _assert_pruned_is_full_scan(net, 0.3 * np.sin(3.0 * GRID[:, 0]))


def test_kernel_tells_signed_zeros_apart():
    # rows that differ only in the sign of a zero are different prefixes:
    # at x = 0 member 1 is +0.0 and its neighbours -0.0, which == cannot see
    values = [
        [[-0.0], [-0.5]],
        [[0.0], [-0.5]],
        [[-0.0], [-0.5]],
        [[-0.0], [0.0]],
        [[0.0], [0.0]],
    ]
    net = _hand_built_net(values, points=((0.0,), (1.0,)))
    grid = np.array([[0.0], [0.5], [1.0]])
    V = _assert_grid_values_exact(net, grid)
    assert [math.copysign(1.0, x) for x in V[:, 0, 0]] == [-1.0, 1.0, -1.0, -1.0, 1.0]
    assert len(evt._PrefixTree(net, grid).first[0]) - 1 == 4


_TARGET = 0.3 * np.sin(3.0 * GRID[:, 0])
_BRUTE_FUNCTIONALS = {
    "sup-dist": (
        lambda env: _dist(_TARGET, env).max(axis=1),
        lambda p: float(np.abs(p(GRID)[:, 0] - _TARGET).max()),
    ),
    "mean": (lambda env: env[0][:, :, 0].mean(axis=1), lambda p: float(p(GRID)[:, 0].mean())),
    # |k(1/2)| takes few distinct values on the net: ties go to the lowest index
    "midpoint": (lambda env: _dist(0.0, env)[:, 200], lambda p: abs(float(p(GRID)[200, 0]))),
    "quad": (
        lambda env: np.mean(_dist(GRID[:, 0], env) ** 2, axis=1) / 4.0,
        lambda p: float(np.mean((p(GRID)[:, 0] - GRID[:, 0]) ** 2)) / 4.0,
    ),
}


@pytest.mark.parametrize("kind", sorted(_BRUTE_FUNCTIONALS))
def test_minimize_matches_per_member_brute_force(kind):
    bounds, member_value = _BRUTE_FUNCTIONALS[kind]
    pclass = PolicyClass(UNIT, 1, 1.0, 1.0)
    eps = 1.3
    J = Functional(lambda env: (bounds(env), 1e-3), Modulus.lipschitz(1.0), GRID, name=kind)
    policy, cert = epsilon_minimize(J, pclass, eps)
    net = enumerate_policy_net(pclass, eps / 2.0)
    vals = [member_value(p) for p in net]
    best = min(range(len(vals)), key=lambda i: (vals[i], i))
    assert policy.index == best
    assert cert.value == vals[best]
    assert cert.radius == 1e-3 + eps / 2.0
    assert np.array_equal(policy.values, net.values[best])


# ---------------------------------------------------------------------------
# epsilon_minimize
# ---------------------------------------------------------------------------

def test_minimize_sup_norm_objective():
    # J[k] = sup |k|; true inf = 0 at k == 0.  The spec's eps = 0.1 instance
    # exceeds the combinatorial budget of exhaustive net enumeration (see
    # test below); at a feasible eps the guarantee is exact.
    pclass = PolicyClass(UNIT, 1, 1.0, 1.0)
    J = _sup_dist_functional(lambda x: 0.0 * x)
    eps = 1.2
    policy, cert = epsilon_minimize(J, pclass, eps)
    assert cert.value - cert.radius <= 0.0 + 1e-12  # value - eps <= inf
    assert cert.value <= eps + 1e-9


def test_minimize_stated_small_eps_raises_budget():
    pclass = PolicyClass(UNIT, 1, 1.0, 1.0)
    J = _sup_dist_functional(lambda x: 0.0 * x)
    with pytest.raises(ResourceBudgetError) as ei:
        epsilon_minimize(J, pclass, 0.1)
    assert "eps" in str(ei.value).lower()


def test_minimize_quadratic_tracking_objective():
    # J[k] = (1/4) integral (k(x) - x)^2 dx, true inf = 0 at the identity;
    # the 1/4 scaling keeps the functional 1-Lipschitz in sup-norm so the
    # delta-net stays within the enumeration budget.
    pclass = PolicyClass(UNIT, 1, 1.0, 1.0)
    tvals = GRID[:, 0]

    def ev(env):
        return np.mean(_dist(tvals, env) ** 2, axis=1) / 4.0, (1.0 / 400.0) / 2.0 + 1e-12

    J = Functional(ev, Modulus.lipschitz(1.0), GRID, name="quad")
    eps = 1.2
    policy, cert = epsilon_minimize(J, pclass, eps)
    assert cert.value - cert.radius <= 0.0 + 1e-12
    # DERIVED oracle: brute-force over the same net confirms net-minimality
    net = enumerate_policy_net(pclass, J.modulus.step(eps / 2.0))
    vals = [float(np.mean((p(GRID)[:, 0] - tvals) ** 2)) / 4.0 for p in net]
    assert cert.value == pytest.approx(min(vals))
    assert vals.index(min(vals)) == policy.index


def test_minimize_constant_functional_returns_any_member():
    pclass = PolicyClass(UNIT, 1, 1.0, 1.0)
    c = 3.25
    J = Functional(lambda env: (np.full(len(env[0]), c), 1e-12), Modulus.lipschitz(1e-9), GRID, name="const")
    policy, cert = epsilon_minimize(J, pclass, 0.5)
    assert abs(cert.value - c) <= 0.5


def test_minimize_monotone_in_eps():
    pclass = PolicyClass(UNIT, 1, 1.0, 1.0)
    rng = np.random.default_rng(9)
    f = _random_lipschitz(rng)
    J = _sup_dist_functional(f)
    _, c1 = epsilon_minimize(J, pclass, 1.5)
    _, c2 = epsilon_minimize(J, pclass, 1.1)
    # shrinking eps never raises the certified value by more than the old eps
    assert c2.value <= c1.value + 1.5 + 1e-9


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_policy_text_round_trip_bit_exact():
    pclass = PolicyClass(UNIT, 1, 1.0, 1.0)
    net = enumerate_policy_net(pclass, 1.0)
    p = net[len(net) // 2]
    text = policy_to_text(p)
    q = policy_from_text(text)
    assert np.array_equal(p.nodes.points, q.nodes.points)
    assert np.array_equal(p.values, q.values)
    assert q.coordinate_lipschitz == p.coordinate_lipschitz
    assert q.bound == p.bound
    xs = np.linspace(0, 1, 50).reshape(-1, 1)
    assert np.array_equal(p(xs), q(xs))


@pytest.mark.parametrize("L,K,eps", [(0.5, 1.0, 1.0), (2.0, 0.5, 1.2)])
def test_net_covering_other_class_constants(L, K, eps):
    pclass = PolicyClass(UNIT, 1, L, K)
    net = enumerate_policy_net(pclass, eps)
    V = net_values_on_grid(net, GRID)[:, :, 0]
    rng = np.random.default_rng(77)
    for _ in range(40):
        f = _random_lipschitz(rng, L=L, K=K)
        fv = f(GRID[:, 0])
        best = float(np.abs(V - fv[None, :]).max(axis=1).min())
        assert best <= eps + 1e-9


def test_net_covering_vector_output():
    # m = 2: vector-valued members, covering in the vector sup-norm
    pclass = PolicyClass(UNIT, 2, 1.0, 1.0)
    eps = 1.4
    net = enumerate_policy_net(pclass, eps)
    grid = np.linspace(0, 1, 101).reshape(-1, 1)
    V = net_values_on_grid(net, grid)
    rng = np.random.default_rng(5)
    for _ in range(30):
        c = rng.uniform(-0.4, 0.4, 2)
        v = rng.uniform(-1, 1, 2)
        v = v / np.linalg.norm(v) * rng.uniform(0.2, min(1.0, 1.0 - np.linalg.norm(c)))
        xs = np.linspace(0, 1, 9)
        g = np.interp(grid[:, 0], xs, np.cumsum(rng.uniform(-0.125, 0.125, 9)))
        f = c[None, :] + v[None, :] * g[:, None]  # admissible member
        dist = float(np.linalg.norm(V - f[None, :, :], axis=2).max(axis=1).min())
        assert dist <= eps + 1e-9
