"""Independent re-checks that tests compare certctrl's certificates
against; no task uses them, so they live with the tests."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from certctrl.core import CertifiedReal, build_mesh


def residual_check(sol, rhs) -> float:
    """Re-integrate the stored trajectory of an ExtendedSolution
    (trapezoid, independent of the midpoint path) and return the worst
    defect against the integral identity; must stay within twice the
    error bound."""
    worst = 0.0
    x = sol.values[0].copy()
    for b in rhs.blocks:
        mask = (sol.grid >= float(b.t_lo) - 1e-15) & (sol.grid <= float(b.t_hi) + 1e-15)
        g = sol.grid[mask]
        v = sol.values[mask]
        f = b.f(v, g)
        dt = np.diff(g)
        inc = 0.5 * (f[1:] + f[:-1]) * dt[:, None]
        traj = np.vstack([x, x + np.cumsum(inc, axis=0)])
        worst = max(worst, float(np.linalg.norm(traj - v, axis=1).max()))
        x = traj[-1]
    return worst


def residual_recheck_mp(A, pair, dps: int = 34) -> float:
    """Doubled-precision re-evaluation of ||A v - lambda v|| (mpmath)."""
    with mp.workdps(dps):
        a = np.asarray(A, dtype=complex)
        n = a.shape[0]
        v = [mp.mpc(complex(x)) for x in pair.v_hat]
        lam = mp.mpc(complex(pair.lambda_hat))
        total = mp.mpf(0)
        for i in range(n):
            s = mp.mpc(0)
            for j in range(n):
                s += mp.mpc(complex(a[i, j])) * v[j]
            s -= lam * v[i]
            total += (s.real ** 2 + s.imag ** 2)
        return float(mp.sqrt(total))


def net_values_on_grid(net, grid, chunk: int = 128) -> np.ndarray:
    """(members, G, m) grid values of every member of a PolicyNet: the
    full scan that the pruned prefix walk of evt.epsilon_minimize must
    agree with.  One subtract and one np.maximum per node, node 0 first,
    then the clip, for every member in blocks of `chunk`."""
    grid = np.asarray(grid, dtype=float).reshape(-1, net.nodes.dim)
    dist = np.linalg.norm(grid[:, None, :] - net.nodes.points[None, :, :], axis=2)
    drop = net.coordinate_lipschitz * dist
    out = np.empty((len(net), grid.shape[0], net.values.shape[2]))
    for s in range(0, len(net), chunk):
        v = net.values[s : s + chunk]
        block = v[:, None, 0, :] - drop[None, :, 0, None]
        for i in range(1, v.shape[1]):
            np.maximum(block, v[:, None, i, :] - drop[None, :, i, None], out=block)
        np.clip(block, -net.bound, net.bound, out=block)
        out[s : s + len(v)] = block
    return out


def full_scan_minimum(J, net):
    """(member index, value, evaluator radius) of the first member of
    minimal value, with every member scored as the envelope (row, row)."""
    V = net_values_on_grid(net, J.grid)
    values, radius = J.evaluate((V, V))
    k = int(np.argmin(values))
    return k, values[k], radius


def solution_at(sol, t: float) -> np.ndarray:
    """The grid polygon of an ExtendedSolution at time t, clipped to its
    grid."""
    t = float(np.clip(t, sol.grid[0], sol.grid[-1]))
    i = int(np.searchsorted(sol.grid, t))
    if i == 0:
        return sol.values[0]
    if sol.grid[i - 1] == t:
        return sol.values[i - 1]
    t0, t1 = sol.grid[i - 1], sol.grid[i]
    w = (t - t0) / (t1 - t0)
    return (1 - w) * sol.values[i - 1] + w * sol.values[i]


def sample_sublevel(x0_set, rng, box, n: int) -> np.ndarray:
    """n states of the box inside a certificate's X0 set, by rejection."""
    out = []
    for _ in range(2000 * n):
        if len(out) == n:
            break
        x = box.sample(rng, 1)[0]
        if x0_set.contains(x):
            out.append(x)
    assert len(out) == n, "sublevel set too small to sample"
    return np.array(out)


def sample_hold_step(coeffs, control_box, R, eta, eps, x, u_feedback) -> list:
    """The one-step claims of a sampling time for x' = u, u in
    control_box = (a, b), V = sum_k coeffs[k] x^k, in exact arithmetic.

    For both ends of the eps-optimal interval {u in [a, b] : V'(x) u <=
    min(a V'(x), b V'(x)) + eps} and for u_feedback, each held from x for
    eta, returns (V(x) - V(x + eta u) - eta eps, |x + eta u| <= R)."""
    V = [Fraction(c) for c in coeffs]
    a, b = (Fraction(float(v)) for v in control_box)
    x, eta, eps, R = (Fraction(float(v)) for v in (x, eta, eps, R))

    def value(y):
        return sum(c * y**k for k, c in enumerate(V))

    g = sum(k * c * x ** (k - 1) for k, c in enumerate(V) if k)
    if g > 0:
        ends = (a, min(b, a + eps / g))
    elif g < 0:
        ends = (max(a, b + eps / g), b)
    else:
        ends = (a, b)
    steps = [x + eta * u for u in (*ends, Fraction(float(u_feedback)))]
    return [(value(x) - value(y) - eta * eps, abs(y) <= R) for y in steps]


# ---------------------------------------------------------------------------
# the Bernstein sign decider in Fraction arithmetic: the reference that
# forms' integer kernel must match exactly
# ---------------------------------------------------------------------------

BERNSTEIN_BOXES = 512


def horner(coeffs, r):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * r + c
    return acc


def bernstein(coeffs: list, a: Fraction, b: Fraction) -> list:
    """Bernstein coefficients on [a, b] of sum_i coeffs[i] r^i."""
    c, n = list(coeffs), len(coeffs) - 1
    for i in range(n):  # Taylor shift: the coefficients of p(a + r)
        for j in range(n - 1, i - 1, -1):
            c[j] += a * c[j + 1]
    c = [cj * (b - a) ** j for j, cj in enumerate(c)]  # p(a + (b - a) t), t in [0, 1]
    return [sum(Fraction(math.comb(k, j), math.comb(n, j)) * c[j] for j in range(k + 1))
            for k in range(n + 1)]


def halve(bern: list) -> tuple:
    """de Casteljau at t = 1/2: the Bernstein coefficients of both halves."""
    left, right, row = [bern[0]], [bern[-1]], bern
    while len(row) > 1:
        row = [(u + v) / 2 for u, v in zip(row, row[1:])]
        left.append(row[0])
        right.append(row[-1])
    return left, right[::-1]


def decide(p: list, k: int, s: int, a: Fraction, b: Fraction):
    """(verdict, value, x) as forms._decide defines them."""
    boxes = [(a, b, bernstein(p[k:], a, b))]
    leaves, touched, examined = [], False, 0
    while boxes and examined < BERNSTEIN_BOXES:
        examined += 1
        lo, hi, bern = boxes.pop()
        m = min(bern)
        if m > 0:
            leaves.append(m)
            continue
        for r, q in ((lo, bern[0]), (hi, bern[-1])):  # the quotient at the ends
            if q < 0:
                x = float(s * r)
                value = horner(p, abs(Fraction(x)))
                if value < 0:
                    return "counterexample", value, x
        if bern[0] == 0 or bern[-1] == 0:
            touched = True
            if m == 0:
                continue
        left, right = halve(bern)
        mid = (lo + hi) / 2
        boxes += [(mid, hi, right), (lo, mid, left)]
    if touched or boxes:
        return "undecided", min([Fraction(0)] * touched + [min(bern) for _, _, bern in boxes]), None
    return "certified", min(leaves), None


def lower_bound(p: list, s: int, a: Fraction, b: Fraction) -> Fraction:
    """forms._lower_bound: a lower bound on p over 0 < a <= r <= b."""
    verdict, value, _ = decide(p, 0, s, a, b)
    if verdict == "certified":
        return value
    return min(bernstein(p, a, b))


def csv_line(row) -> str:
    """The CSV formatter the tasks used to call on each value: repr of
    float(v), one value at a time."""
    return ",".join(repr(float(v)) for v in row)


def solution_csv(sol, max_rows: int = 2000) -> str:
    """trajectories.solution_to_csv, row by row through csv_line."""
    cols = ["t"] + [f"x{i+1}" for i in range(sol.values.shape[1])]
    if sol.controls is not None:
        cols += [f"u{i+1}" for i in range(sol.controls.shape[1])]
    cols.append("error_bound")
    stride = max(1, sol.grid.size // max_rows)
    idx = list(range(0, sol.grid.size, stride))
    if idx[-1] != sol.grid.size - 1:
        idx.append(sol.grid.size - 1)
    lines = [",".join(cols)]
    for i in idx:
        row = [sol.grid[i], *sol.values[i]]
        if sol.controls is not None:
            row.extend(sol.controls[i])
        row.append(sol.error_profile[i])
        lines.append(csv_line(row))
    return "\n".join(lines) + "\n"


def clf_feedback_mesh_scan(problem, x, eps):
    """stability.clf_feedback as a scan of the whole control mesh: build
    the mesh at resolution eps / 2 / |V'(x)| (the one-node mesh when
    V'(x) = 0), clip it to the box, take every node's value V'(x) u as a
    one-term dot product and the first node within the cut."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(problem.V.derivative(x[None, :]), dtype=float).reshape(x.shape)
    lip_g = float(np.linalg.norm(g))
    box = problem.control_box
    res = box.diameter if lip_g == 0.0 else (eps / 2.0) / lip_g
    nodes = np.clip(build_mesh(box, res).points, box.lo, box.hi)
    vals = np.matmul(nodes[:, None, :], g[:, None])[:, 0, 0]
    r_g = 1e-12 * (1.0 + float(np.abs(vals).max()))
    cut = vals.min() + eps / 2.0 - 2.0 * r_g
    idx = int(np.argmax(vals <= cut))  # the first node at or below the cut; 0 when none is
    return nodes[idx].copy(), CertifiedReal(float(vals[idx]), eps / 2.0 + 2.0 * r_g)


def mesh_min_distance(points, xs) -> np.ndarray:
    """Distance from each row of xs to the nearest of the mesh nodes
    `points`, by brute force over every node: the reference the per-axis
    nearest-node search of FiniteMesh.covering_check must equal bit for
    bit."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    return np.linalg.norm(xs[:, None, :] - points[None, :, :], axis=2).min(axis=1)


def all_pairs_worst_gap(a, b, c, r) -> tuple[int, int]:
    """The largest exact soundness gap of the audit's products, with every
    pair decided exactly, in order: the reference of the filtered search."""
    from certctrl.cli import _soundness_gap

    worst = None
    for args in zip(*(x.tolist() for x in (a, b, c, r))):
        n, d = _soundness_gap(*args)
        if worst is None or n * worst[1] > worst[0] * d:
            worst = n, d
    return worst


def merge_disks_per_group(centers, rho, up):
    """eigen._merge_disks with every pass, the first included, taking each
    group's mean center and enclosing radius one group at a time."""
    from certctrl.eigen import _EPS, _overlap_components

    groups = [[i] for i in range(len(centers))]
    while True:
        mid = np.array([centers[idx].mean() for idx in groups])
        rad = up * np.array([(np.abs(centers[idx] - m) + rho[idx]).max()
                             for idx, m in zip(groups, mid)])
        merged = _overlap_components(mid, rad, 4 * _EPS * (np.abs(mid).max() + rad.max()))
        if len(merged) == len(groups):
            return mid, rad, groups
        groups = [sorted(i for c in comp for i in groups[c]) for comp in merged]


def tau_greedy_eigenpairs(A, eps, tau=1e-6):
    """(pairs, achieved, proven) of the heuristic that eigen.approx_eigenpairs
    replaced: LAPACK's columns cluster by cluster, each kept while the Gram
    matrix of the kept ones keeps its least eigenvalue >= tau, with residual
    norms taken unscaled; achieved needs all n columns kept.  Wherever it
    keeps all n and the enclosure proves the basis, approx_eigenpairs must
    return the same pairs bit for bit."""
    from certctrl.eigen import _EPS, ApproxEigenPair, _eig_clusters

    a = np.asarray(A, dtype=complex)
    n = a.shape[0]
    lam, X, _, groups, proven = _eig_clusters(a)
    pairs, achieved = [], True
    for i in (i for idxs in groups for i in idxs):
        V = np.array([p.v_hat for p in pairs] + [X[:, i]])
        if float(np.linalg.eigvalsh(V.conj() @ V.T).min()) < tau:
            continue
        v = X[:, i]
        val = float(np.linalg.norm(a @ v - lam[i] * v))
        err = (np.abs(a) @ np.abs(v) + abs(lam[i]) * np.abs(v)) * ((n + 4) * _EPS)
        rad = float(np.linalg.norm(err)) + (n + 4) * _EPS * val + math.ulp(max(val, 1e-300))
        cert = CertifiedReal(val, rad)
        achieved = achieved and cert.value + cert.radius <= eps
        pairs.append(ApproxEigenPair(complex(lam[i]), v, cert))
    return pairs, achieved and len(pairs) == n, proven


# ---------------------------------------------------------------------------
# the selector pipeline on Block and Fraction objects, piece by piece: the
# reference that the integer piece arrays of certctrl.selector must match
# ---------------------------------------------------------------------------

def simple_approx_reference(F, delta: float) -> list:
    """selector.simple_approx by depth-first halving of Block objects:
    rows (Block, frozen chunk intervals), each chunk frozen at the leaf's
    center to its dyadic outward rounding."""
    from certctrl.selector import Block, _ceil_log2

    shift = max(3, _ceil_log2(8 / Fraction(delta)))
    rows = []
    for blk, chunks in zip(F.domain_blocks, F.chunks_per_block):
        d_req = min(2.0 * ch.modulus.step(delta / 4.0) for ch in chunks)
        todo, leaves = [blk], []
        while todo:
            b = todo.pop()
            ((lo, hi),) = b.intervals
            if math.sqrt(float(hi - lo) ** 2) <= d_req or b.volume() == 0:
                leaves.append(b)
            else:
                todo += [Block(((lo, (lo + hi) / 2),)), Block((((lo + hi) / 2, hi),))]
        for b in leaves:
            ((lo, hi),) = b.intervals
            c = np.array([float((lo + hi) / 2)])
            rad = math.sqrt(float(hi - lo) ** 2) / 2.0
            vals = []
            for ch in chunks:
                var = ch.modulus.forward_bound(rad) + ch.eval_radius
                vals.append((Fraction(math.floor((float(ch.alpha(c)[0]) - var) * (1 << shift)), 1 << shift),
                             Fraction(math.ceil((float(ch.beta(c)[0]) + var) * (1 << shift)), 1 << shift)))
            rows.append((b, tuple(vals)))
    return rows


def exception_reference(base, eps):
    """J(eps) as a GeneralizedBlock: boxes [t - w, t + w] around both ends
    t of every non-empty base block, w = eps / (4 n) floored to a dyadic
    (eps / (8 n) where that floor is 0)."""
    from certctrl.selector import Block, GeneralizedBlock, _ceil_log2

    ends = [b.intervals[0] for b in base if not b.is_empty]
    if not ends:
        return GeneralizedBlock(())
    w = Fraction(eps) / (4 * len(ends))
    shift = max(0, _ceil_log2(1 / w)) + 1
    w = Fraction(math.floor(w * (1 << shift)), 1 << shift) or Fraction(eps) / (8 * len(ends))
    return GeneralizedBlock(tuple(Block(((t - w, t + w),)) for iv in ends for t in iv))


def certify_reference(F, pieces, eps: float, J):
    """selector.certify_selector piece by piece in Fraction arithmetic on
    (Block, value) rows: (verdict, max_distance, witness)."""
    from certctrl.core import _float_up, _up
    from certctrl.selector import GeneralizedBlock

    max_distance, witness = 0.0, None
    for b, v in pieces:
        ((lo, hi),) = b.intervals
        i = F.block_index([(lo + hi) / 2])
        if i is None or F.domain_blocks[i].intersect(b) != b:
            max_distance = math.inf
            continue
        c = float((lo + hi) / 2)
        sq = max(Fraction(c) - lo, hi - Fraction(c)) ** 2
        r = math.sqrt(sq)
        while Fraction(r) ** 2 < sq:
            r = _up(r)
        upper = lower = math.inf
        for ch in F.chunks_per_block[i]:
            a, e = float(ch.alpha(np.array([c]))[0]), float(ch.beta(np.array([c]))[0])
            gap = max(Fraction(0), Fraction(min(a, e)) - v, v - Fraction(max(a, e)))
            upper = min(upper, _up(_up(_float_up(gap) + _up(ch.modulus.forward_bound(r))) + ch.eval_radius))
            lower = min(lower, gap - Fraction(ch.eval_radius))
        max_distance = max(max_distance, upper)
        if witness is None and lower > Fraction(eps) and not any(j.contains([Fraction(c)]) for j in J.blocks):
            witness = {"point": [c], "value": float(v), "distance_lower": float(lower)}
    if witness is not None:
        return "counterexample", max_distance, witness
    covered = sum(b.volume() for b, _ in pieces) == sum(d.volume() for d in F.domain_blocks)
    if max_distance <= eps and covered and GeneralizedBlock(tuple(b for b, _ in pieces)).proper:
        return "certified", max_distance, None
    return "undecided", max_distance, None
