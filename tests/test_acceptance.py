"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them)."""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from certctrl.cli import main
from certctrl.core import Hypercube, Modulus
from certctrl import danskin as dk
from certctrl import eigen as eig
from certctrl import evt
from certctrl import selector as sel
from certctrl import stability as stab
from certctrl import trajectories as traj
from certctrl.forms import build_comparator, build_scalar_form
from oracles import (
    net_values_on_grid,
    residual_recheck_mp,
    sample_hold_step,
    sample_sublevel,
    solution_at,
)

UNIT = Hypercube(np.array([0.5]), 1.0)
GRID = np.linspace(0.0, 1.0, 401).reshape(-1, 1)


def _report(n, label, ok, budget_s, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} [{status}] {label} ({elapsed:.1f}s / budget {budget_s}s)")
    assert ok, f"criterion {n} failed: {label}"
    assert elapsed <= budget_s, f"criterion {n} exceeded runtime budget"


def _random_lipschitz(rng, L=1.0, K=1.0, n_knots=12):
    xs = np.linspace(0.0, 1.0, n_knots)
    ys = [rng.uniform(-K, K)]
    for i in range(1, n_knots):
        step = L * (xs[i] - xs[i - 1])
        ys.append(rng.uniform(max(-K, ys[-1] - step), min(K, ys[-1] + step)))
    return np.interp(GRID[:, 0], xs, np.array(ys))


def _dist(g, lo, hi):
    return np.maximum(lo - g[None, :], 0.0) + np.maximum(g[None, :] - hi, 0.0)


# ---------------------------------------------------------------------------
# 1. EVT guarantee (50 randomized functionals, certified comparison +
#    exhaustive net-minimality, <= 60 s)
# ---------------------------------------------------------------------------

def test_acceptance_1_evt_guarantee():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250801)
    pclass = evt.PolicyClass(UNIT, 1, 1.0, 1.0)
    # all functionals below are 1-Lipschitz in sup-norm, so the delta-net
    # is eps/2; cache nets and their grid values per eps level
    eps_pool = (1.1, 1.25, 1.4, 1.55)
    cache = {}
    for e in eps_pool:
        net = evt.enumerate_policy_net(pclass, e / 2.0)
        cache[e] = (net, net_values_on_grid(net, GRID)[:, :, 0])
    rad = 2.0 * (1.0 / 400.0) / 2.0 + 1e-12
    ok = True
    for trial in range(50):
        eps = eps_pool[int(rng.integers(len(eps_pool)))]
        net, V = cache[eps]
        kind = trial % 3
        # ev_values scores member rows; bounds scores envelopes [lo, hi] from
        # below (the distance from g to [lo, hi] is |V - g| when lo is hi)
        if kind == 0:
            target = _random_lipschitz(rng)
            true_inf = 0.0  # the target is an admissible member
            ev_values = lambda M, g=target: np.abs(M - g[None, :]).max(axis=1)
            bounds = lambda lo, hi, g=target: _dist(g, lo, hi).max(axis=1)
        elif kind == 1:
            true_inf = -1.0  # constant -K is admissible
            ev_values = lambda M: M.mean(axis=1)
            bounds = lambda lo, hi: lo.mean(axis=1)
        else:
            target = _random_lipschitz(rng)
            true_inf = 0.0
            ev_values = lambda M, g=target: ((M - g[None, :]) ** 2).mean(axis=1) / 4.0
            bounds = lambda lo, hi, g=target: (_dist(g, lo, hi) ** 2).mean(axis=1) / 4.0

        def evaluate(env, bounds=bounds):
            return bounds(env[0][:, :, 0], env[1][:, :, 0]), rad

        J = evt.Functional(evaluate, Modulus.lipschitz(1.0), GRID)
        policy, cert = evt.epsilon_minimize(J, pclass, eps, net=net)
        # certified-value comparison: J[k*] - eps <= inf, exactly
        if not cert.value + rad - eps <= true_inf + 1e-12:
            ok = False
            break
        # exhaustive (independent) net evaluation confirms net-minimality
        vals = ev_values(V)
        if int(np.argmin(vals)) != policy.index or not math.isclose(
            float(vals.min()), cert.value, rel_tol=0, abs_tol=1e-12
        ):
            ok = False
            break
    _report(1, "EVT epsilon-guarantee and net-minimality over 50 functionals",
            ok, 60, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 2. Danskin sandwich (5 analytic objectives incl. the tent at x = 0,
#    h in {1e-1..1e-4}, member-spread invariant, <= 10 s)
# ---------------------------------------------------------------------------

def _danskin_cases():
    # modest mesh budgets: the audit envelopes carry the implied looser
    # psi precision through their noise terms
    theta11 = dk.ThetaDomain(Hypercube(np.array([0.0]), 2.0), budget=60_000)
    theta0pi = dk.ThetaDomain(Hypercube(np.array([np.pi / 2]), np.pi), budget=60_000)
    bilinear = dk.ParametricObjective(
        value=lambda x, th: th[:, 0] * x[0],
        grad_x=lambda x, th: th[:, :1].copy(),
        modulus_theta=Modulus.lipschitz(2.0),
        grad_modulus=Modulus.lipschitz(1.0),
        name="tent",
    )
    negquad = dk.ParametricObjective(
        value=lambda x, th: -((th[:, 0] - x[0]) ** 2),
        grad_x=lambda x, th: (2.0 * (th[:, 0] - x[0]))[:, None],
        modulus_theta=Modulus.lipschitz(4.0),
        grad_modulus=Modulus.lipschitz(4.0),
        name="negquad",
    )
    sine = dk.ParametricObjective(
        value=lambda x, th: np.sin(th[:, 0]) + x[0],
        grad_x=lambda x, th: np.ones((th.shape[0], 1)),
        modulus_theta=Modulus.lipschitz(1.0),
        grad_modulus=Modulus.lipschitz(1e-9),
        name="sine",
    )
    concave = dk.ParametricObjective(
        value=lambda x, th: th[:, 0] * x[0] - th[:, 0] ** 2,
        grad_x=lambda x, th: th[:, :1].copy(),
        modulus_theta=Modulus.lipschitz(4.0),
        grad_modulus=Modulus.lipschitz(1.0),
        name="concave",
    )
    const = dk.ParametricObjective(
        value=lambda x, th: np.full(th.shape[0], 0.6),
        grad_x=lambda x, th: np.zeros((th.shape[0], 1)),
        modulus_theta=Modulus.lipschitz(1e-9),
        grad_modulus=Modulus.lipschitz(1e-9),
        name="const",
    )
    return [
        (bilinear, theta11, [0.0, 0.5]),   # the tent case at x = 0 is mandatory
        (negquad, theta11, [0.2]),
        (sine, theta0pi, [0.0, -0.4]),
        (concave, theta11, [0.0, 0.6]),
        (const, theta11, [0.3]),
    ]


def test_acceptance_2_danskin_sandwich():
    t0 = time.perf_counter()
    hs = (1e-1, 1e-2, 1e-3, 1e-4)
    ok = True
    for obj, dom, xs in _danskin_cases():
        for xv in xs:
            for v in (1.0, -1.0):
                for delta in (0.1, 0.3):
                    x = np.array([xv])
                    vv = np.array([v])
                    rep = dk.finite_difference_audit(obj, dom, x, vv, delta, hs)
                    if not rep.all_bracketed:
                        ok = False
                    # quotients bracket the derivative within delta + slack
                    D = rep.derivative
                    for h, q, lo, hi in rep.rows:
                        if abs(q - D.value) > delta + (hi - D.value) + 1e-12:
                            ok = False
                    # member-spread invariant at every tested (x, v, delta)
                    ds = dk.delta_optimizers(obj, dom, x, delta, 0.01)
                    spread, slack = dk.member_spread(obj, ds, vv)
                    if spread > delta + slack + 1e-12:
                        ok = False
    _report(2, "Danskin quotient sandwich and member-spread invariant",
            ok, 10, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 3. Selector guarantee (10 regular SVFs, 1e3 sampled points, exact
#    properness, exception budget, the per-piece located-distance bound
#    against 1001 points per piece, <= 30 s)
# ---------------------------------------------------------------------------

def _const_chunk(lo, hi):
    return sel.Chunk(lambda x, v=float(lo): np.full_like(x, v), lambda x, v=float(hi): np.full_like(x, v),
                     Modulus.lipschitz(0.0), 0.0)


def _svf_suite():
    lin = sel.Chunk(np.zeros_like, lambda x: x, Modulus.lipschitz(1.0), 0.0)
    ident = sel.Chunk(lambda x: x, lambda x: x, Modulus.lipschitz(1.0), 0.0)
    shifted = sel.Chunk(lambda x: 0.5 * x, lambda x: 0.5 * x + 0.5, Modulus.lipschitz(0.5), 0.0)
    upper = sel.Chunk(lambda x: x, np.ones_like, Modulus.lipschitz(1.0), 0.0)
    I01 = sel.Block.interval(0, 1)
    suite = [
        sel.RegularSVF((I01,), ((_const_chunk(0, 1),),)),
        sel.RegularSVF((I01,), ((_const_chunk(0.25, 0.5),),)),
        sel.RegularSVF((I01,), ((_const_chunk(1, 1),),)),
        sel.RegularSVF((I01,), ((lin,),)),
        sel.RegularSVF((I01,), ((ident,),)),
        sel.RegularSVF((I01,), ((shifted,),)),
        sel.RegularSVF((I01,), ((_const_chunk(0, 0), upper),)),
        sel.RegularSVF((I01,), ((_const_chunk(0, 0), _const_chunk(1, 1)),)),
        sel.RegularSVF(
            (sel.Block.interval(-1, 0), I01),
            ((_const_chunk(0, 0.25),), (_const_chunk(0.75, 1),)),
        ),
        sel.RegularSVF(
            (sel.Block.interval(-1, 0), I01),
            ((ident if False else _const_chunk(0.5, 0.5),), ((lin,))),
        ),
    ]
    return suite


def test_acceptance_3_selector_guarantee():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    budget = Fraction(1, 50)
    ok = True
    for F in _svf_suite():
        eps = 0.125
        s = sel.extract_selector(F, eps)
        if not s.proper():  # exact rational properness
            ok = False
        J = s.domain.exception(budget)
        if J.volume_exact() > budget:
            ok = False
        pts = s.domain.sample_off_exception(rng, 100, budget)
        for x in pts:
            v = s(x)
            if v is None or F.located_distance_to(x, v) > eps + 1e-12:
                ok = False
        verdict, bound, _ = sel.certify_selector(F, s, budget)
        if verdict != "certified" or bound > eps:
            ok = False
        for piece, v in s.pieces:
            # dense evaluation on the domain block that holds the piece
            ((lo, hi),) = piece.intervals
            chunks = F.chunks_per_block[F.block_index([(lo + hi) / 2])]
            for x in np.linspace(float(lo), float(hi), 1001):
                xx = np.array([x])
                d = min(max(0.0, min(ch.alpha(xx)[0], ch.beta(xx)[0]) - float(v),
                            float(v) - max(ch.alpha(xx)[0], ch.beta(xx)[0])) for ch in chunks)
                if d > bound:
                    ok = False
    # the 10^3-point check on one representative instance
    F = _svf_suite()[8]
    s = sel.extract_selector(F, 0.125)
    pts = s.domain.sample_off_exception(rng, 1000, budget)
    for x in pts:
        if F.located_distance_to(x, s(x)) > 0.125 + 1e-12:
            ok = False
    _report(3, "selector located-distance, exception budget, exact properness",
            ok, 30, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 4. Eigen residuals (10^3 random complex matrices n <= 8, eps = 1e-8,
#    doubled-precision recheck, Gram independence, 2x2 Hurwitz oracle,
#    <= 60 s)
# ---------------------------------------------------------------------------

def test_acceptance_4_eigen_residuals():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    eps = 1e-8
    tau = 1e-6
    ok = True
    for k in range(1000):
        n = int(rng.integers(2, 9))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pairs, achieved = eig.approx_eigenpairs(A, eps)
        if not achieved or not pairs:
            ok = False
            break
        V = np.array([p.v_hat for p in pairs])
        gram_min = float(np.linalg.eigvalsh(V.conj() @ V.T).min())
        if gram_min < tau - 1e-12:
            ok = False
            break
        for p in pairs:
            bound = p.residual.value + p.residual.radius
            if bound > eps:
                ok = False
                break
            if residual_recheck_mp(A, p) > bound:
                ok = False
                break
        if not ok:
            break
    # Hurwitz verdicts against the closed-form 2x2 oracle
    agreed = 0
    for _ in range(300):
        A = rng.uniform(-2, 2, (2, 2))
        v = eig.hurwitz_verdict(A)
        if v.verdict == "undecided":
            continue
        oracle = "stable" if (np.trace(A) < 0 and np.linalg.det(A) > 0) else "unstable"
        if v.verdict != oracle:
            ok = False
        agreed += 1
    if agreed < 200:
        ok = False
    _report(4, "eigen residuals (mp recheck), Gram independence, Hurwitz oracle",
            ok, 60, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 5. Caratheodory solver (decay endpoint at 1e-6, tent exact, Gronwall
#    over 50 random systems, <= 30 s)
# ---------------------------------------------------------------------------

def test_acceptance_5_caratheodory():
    t0 = time.perf_counter()
    box = Hypercube(np.array([0.0]), 4.0)
    ok = True

    rhs = traj.RegularRHS.single(lambda xs, ts: -xs, 1.0, box, 1.0, 2.0)
    sol = traj.picard_solve(rhs, np.array([1.0]), 1.0, 1e-6)
    if abs(sol.endpoint[0] - math.exp(-1.0)) > 1e-6 or sol.error_bound.value > 1e-6:
        ok = False

    tent = traj.RegularRHS(
        (
            traj.TimeBlockRHS(0, 1, lambda xs, ts: np.ones_like(xs), 0.0,
                              Modulus.lipschitz(0.0), 1.0),
            traj.TimeBlockRHS(1, 2, lambda xs, ts: -np.ones_like(xs), 0.0,
                              Modulus.lipschitz(0.0), 1.0),
        ),
        box,
    )
    tsol = traj.picard_solve(tent, np.array([0.0]), 2.0, 1e-9)
    if abs(solution_at(tsol, 1.0)[0] - 1.0) > 1e-9 or abs(tsol.endpoint[0]) > 1e-9:
        ok = False

    rng = np.random.default_rng(555)
    for _ in range(50):
        a = float(rng.uniform(-1.2, 1.2))
        b = float(rng.uniform(-0.5, 0.5))
        big = Hypercube(np.array([0.0]), 10.0)
        r = traj.RegularRHS.single(
            lambda xs, ts, a=a, b=b: a * xs + b,
            1.0, big, abs(a), abs(a) * 5.0 + abs(b),
        )
        x0 = float(rng.uniform(-0.4, 0.4))
        dx = float(rng.uniform(0.01, 0.2))
        eps = 1e-3
        s0 = traj.picard_solve(r, np.array([x0]), 1.0, eps)
        s1 = traj.picard_solve(r, np.array([x0 + dx]), 1.0, eps)
        div = float(np.abs(s0.values[-1] - s1.values[-1]).max())
        if div > math.exp(abs(a) * 1.0) * dx + 2 * eps:
            ok = False
            break
    _report(5, "Caratheodory endpoints and Gronwall bound", ok, 30,
            time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 6. Lyapunov certification (accept decay instance with w2 = 2|x|,
#    reject growth instance, 20 simulated trajectories from X0, <= 30 s)
# ---------------------------------------------------------------------------

def _lyap(vdot_sign):
    # V = x^2 along x' = vdot_sign * x
    def comp(coeffs, name):
        return build_comparator({"form": "radial_poly", "coeffs": coeffs}, name)

    return stab.LyapunovData(
        V=build_scalar_form({"form": "polynomial", "coeffs": [0.0, 0.0, 1.0]}),
        f=build_scalar_form({"form": "polynomial", "coeffs": [0.0, vdot_sign]}),
        w1=comp([0.0, 0.5], "w1"),
        w2=comp([2.0], "w2"),
        w3=comp([0.0, 1.0], "w3"),
        xi=1.0,
    )


def test_acceptance_6_lyapunov_certification():
    t0 = time.perf_counter()
    box = Hypercube(np.array([0.0]), 2.0)
    ok = True

    cert = stab.certify(_lyap(-1.0), box)
    if cert.verdict != "certified" or cert.x0_set is None:
        ok = False
    bad = stab.certify(_lyap(+1.0), box)
    if bad.verdict != "counterexample":
        ok = False
    else:
        # counterexample validity in exact arithmetic: -V'f - w3 = -3x^2 < 0
        x = Fraction(float(np.atleast_1d(bad.counterexample["point"])[0]))
        if not -(2 * x * x) - x * x < 0:
            ok = False

    if ok:
        rng = np.random.default_rng(66)
        x0s = sample_sublevel(cert.x0_set, rng, box, 20)
        rhs = traj.RegularRHS.single(lambda xs, ts: -xs, 1.0, box, 1.0, 1.0)
        for x0 in x0s:
            sol = traj.picard_solve(rhs, x0, 1.0, 1e-5)
            v = sol.values[:, 0] ** 2
            if not np.all(np.diff(v) <= 2e-5):
                ok = False
            w1v = 0.5 * sol.values[:, 0] ** 2
            w2v = 2.0 * np.abs(sol.values[:, 0])
            if not (np.all(v >= w1v - 1e-9) and np.all(v <= w2v + 1e-9)):
                ok = False
    _report(6, "Lyapunov certify/reject with trajectory validation", ok, 30,
            time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 7. Practical SH stabilization (certified eta, closed loop enters the
#    ball, monotone degradation under optimizer error, <= 60 s)
# ---------------------------------------------------------------------------

def test_acceptance_7_sample_hold_stabilization():
    t0 = time.perf_counter()
    prob = stab.CLFProblem(
        V=build_scalar_form({"form": "polynomial", "coeffs": [0.0, 0.0, 1.0]}),
        state_box=Hypercube(np.array([0.0]), 4.0),
        control_box=Hypercube(np.array([0.0]), 2.0),
        target_radius=0.1,
        overshoot_radius=1.0,
    )
    ok = True
    etas = []
    # the decay rate on the annulus is 2 r = 0.2, so eps = 0.1 leaves no
    # reserve (alpha = 2 eps) and eps = 0.5 is refuted
    for eps in (0.01, 0.05, 0.5):
        (res,) = stab.find_sampling_time(prob, 1.0, [eps])
        etas.append(res.eta if res.ok else None)
        if eps == 0.01:
            if not res.ok or res.eta is None or res.eta <= 0:
                ok = False
                break
            # the certified closed loop, solved exactly by x + eta u, drives
            # every dyadic annulus state into the 0.1 ball without leaving
            # |x| <= 1
            for k in range(-64, 65):
                x = k / 64
                for _ in range(20):
                    if abs(x) < 0.1:
                        break
                    u = stab.clf_feedback(prob, np.array([x]), eps)[0][0]
                    step = sample_hold_step((0.0, 0.0, 1.0), (-1.0, 1.0), 1.0, res.eta, eps, x, u)
                    if not all(surplus >= 0 and inside for surplus, inside in step):
                        ok = False
                    x = float(Fraction(x) + Fraction(res.eta) * Fraction(u))
                if abs(x) >= 0.1:
                    ok = False
    # monotone degradation: strictly shrinking certified eta, then failure
    if not (etas[0] is not None and etas[1] is not None and etas[2] is None):
        ok = False
    elif not etas[0] > etas[1] > 0:
        ok = False
    _report(7, "practical SH stabilization and optimizer-error degradation",
            ok, 60, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 8. Determinism (audit twice with the same seed, byte-identical numeric
#    certificate fields)
# ---------------------------------------------------------------------------

def test_acceptance_8_determinism(tmp_path):
    t0 = time.perf_counter()
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(["audit", "--seed", "2024", "--out", str(out)])
        record = json.loads((out / "certificate.json").read_text())
        blobs.append(json.dumps(record["numeric"], sort_keys=True).encode())
        ok = code == 0
        if not ok:
            break
    ok = ok and blobs[0] == blobs[1]
    _report(8, "audit determinism: byte-identical numeric fields", ok, 60,
            time.perf_counter() - t0)
