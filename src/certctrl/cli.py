"""Command-line harness: every module as a subcommand, config-driven,
with uniform JSON certificates and CSV data files.

Exit codes: 0 certified/success, 1 counterexample/failure, 2 undecided,
64 config error, 70 internal error (any other failure of the computation:
a broken invariant, Picard bounds the task computed found unsound, a
trajectory leaving its box outside the ode task, an overflow, and any
failure inside the audit, which reads no config).
Certificates are reproducible: the numeric fields are bit-identical across
runs with the same config and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    ArgumentError,
    ContractError,
    DomainExitError,
    Hypercube,
    InternalConsistencyError,
    Modulus,
    ResourceBudgetError,
    _RADIUS_SAFETY,
    build_mesh,
)
from . import danskin as dk
from . import eigen as eig
from . import evt
from . import selector as sel
from . import stability as stab
from . import trajectories as traj
from .forms import _below, build_comparator, build_scalar_form, parse_complex_matrix

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_UNDECIDED = 2
EXIT_CONFIG = 64
EXIT_INTERNAL = 70

_VERDICT_EXIT = {
    "certified": EXIT_OK,
    "success": EXIT_OK,
    "stable": EXIT_OK,
    "counterexample": EXIT_COUNTEREXAMPLE,
    "failure": EXIT_COUNTEREXAMPLE,
    "unstable": EXIT_COUNTEREXAMPLE,
    "undecided": EXIT_UNDECIDED,
}

# held steps the shh demo closed loop runs at most, whatever N* is
DEMO_STEPS = 6_000

TASKS = ("evt-min", "danskin", "selector", "eig", "ode", "shh", "certify", "audit")


def _digest(config: dict, seed: int) -> str:
    blob = json.dumps({"config": config, "seed": seed}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _interval(pair) -> Hypercube:
    lo, hi = float(pair[0]), float(pair[1])
    if not lo < hi:
        raise ArgumentError(f"degenerate interval {pair}")
    return Hypercube.interval(lo, hi)


def _write_csv(path: Path, header: str, rows) -> None:
    with path.open("w") as fh:
        fh.write(header + "\n")
        for row in np.asarray(rows, dtype=float):
            fh.write(",".join(map(repr, row.tolist())) + "\n")


# ---------------------------------------------------------------------------
# task handlers: each returns (verdict, numeric fields, witness payload)
# ---------------------------------------------------------------------------

def _task_evt_min(config, seed, out):
    pc = config["policy_class"]
    pclass = evt.PolicyClass(
        _interval(pc["domain"]), 1, float(pc["lipschitz"]), float(pc["bound"])
    )
    spec = config["functional"]
    grid = np.linspace(*[float(v) for v in pc["domain"]], 401).reshape(-1, 1)
    if spec["kind"] == "sup_distance":
        target = build_scalar_form(spec["target"])
        tvals = target(grid[:, 0])
        gap = float(grid[1, 0] - grid[0, 0])
        lip = target.derivative.sup_abs(pclass.domain.lo[0], pclass.domain.hi[0])
        rad = (pclass.lipschitz + lip) * gap / 2.0 + 1e-12

        def ev(env):
            lo, hi = env
            # distance from the target to [lo, hi]: |V - t| when lo is hi
            dist = np.maximum(lo[:, :, 0] - tvals, 0.0) + np.maximum(tvals - hi[:, :, 0], 0.0)
            return dist.max(axis=1), rad

        J = evt.Functional(ev, Modulus.lipschitz(1.0), grid, name="sup_distance")
    elif spec["kind"] == "mean":
        def ev(env):
            return env[0][:, :, 0].mean(axis=1), 1e-9

        J = evt.Functional(ev, Modulus.lipschitz(1.0), grid, name="mean")
    else:
        raise ArgumentError(f"unknown functional kind {spec['kind']!r}: sup_distance, mean")
    eps = float(config["eps"])
    net = evt.enumerate_policy_net(pclass, J.modulus.step(eps / 2.0))
    work = {}
    policy, cert = evt.epsilon_minimize(J, pclass, eps, net=net, work=work)
    (out / "policy.txt").write_text(evt.policy_to_text(policy))
    numeric = {
        "value": cert.value,
        "radius": cert.radius,
        "eps": eps,
        "member_index": policy.index,
    }
    payload = {
        "policy_file": "policy.txt",
        "net": {"members": len(net), "nodes": len(net.nodes), "grid_points": len(grid), **work},
    }
    return "certified", numeric, payload


_DANSKIN_OBJECTIVES = {
    "bilinear": lambda: dk.ParametricObjective(
        value=lambda x, th: th[:, 0] * x[0],
        grad_x=lambda x, th: th[:, :1].copy(),
        modulus_theta=Modulus.lipschitz(2.0),
        grad_modulus=Modulus.lipschitz(1.0),
        name="bilinear",
    ),
    "neg_quadratic": lambda: dk.ParametricObjective(
        value=lambda x, th: -((th[:, 0] - x[0]) ** 2),
        grad_x=lambda x, th: (2.0 * (th[:, 0] - x[0]))[:, None],
        modulus_theta=Modulus.lipschitz(4.0),
        grad_modulus=Modulus.lipschitz(4.0),
        name="neg_quadratic",
    ),
    "concave_linear": lambda: dk.ParametricObjective(
        value=lambda x, th: th[:, 0] * x[0] - th[:, 0] ** 2,
        grad_x=lambda x, th: th[:, :1].copy(),
        modulus_theta=Modulus.lipschitz(4.0),
        grad_modulus=Modulus.lipschitz(1.0),
        name="concave_linear",
    ),
}


def _task_danskin(config, seed, out):
    name = config["objective"]
    if name not in _DANSKIN_OBJECTIVES:
        raise ArgumentError(
            f"unknown objective {name!r}; registry: {sorted(_DANSKIN_OBJECTIVES)}"
        )
    obj = _DANSKIN_OBJECTIVES[name]()
    theta_box = config.get("theta_box", [-1, 1])
    dom = dk.ThetaDomain(_interval(theta_box), budget=400_000)
    x = np.array([float(config["x"])])
    v = np.array([float(config["v"])])
    delta = float(config["delta"])
    hs = [float(h) for h in config.get("h_sequence", [1e-1, 1e-2, 1e-3, 1e-4])]
    # The registry's theta moduli hold for theta and x in [-1, 1]: |d phi/d theta|
    # is |x| (bilinear), 2 |theta - x| <= 4 (neg_quadratic) or |x - 2 theta|
    # <= 3 (concave_linear); the gradient moduli hold everywhere.  The audit
    # evaluates phi at x and at x + min(h, 1) v for every h.
    points = [float(t) for t in theta_box]
    points += [x[0] + min(h, 1.0) * v[0] for h in [0.0, *hs]]
    if not all(-1.0 <= p <= 1.0 for p in points):
        raise ArgumentError("danskin needs theta_box, x and x + min(h, 1) v inside [-1, 1]")
    report = dk.finite_difference_audit(obj, dom, x, v, delta, hs)
    (out / "audit.csv").write_text(report.to_csv())
    dset = dk.delta_optimizers(obj, dom, x, delta, min(0.01, delta / 4.0))
    spread, slack = dk.member_spread(obj, dset, v)
    numeric = {
        "derivative": report.derivative.value,
        "radius": report.derivative.radius,
        "delta": delta,
        "member_spread": spread,
        "spread_slack": slack,
        "n_members": len(dset),
    }
    verdict = "certified" if (report.all_bracketed and spread <= delta + slack) else "counterexample"
    return verdict, numeric, {"audit_file": "audit.csv"}


def _task_selector(config, seed, out):
    blocks = tuple(sel.Block.interval(Fraction(str(a)), Fraction(str(b)))
                   for a, b in config["domain_blocks"])
    # the chunk moduli hold on the hull of the domain blocks
    lo = min(b.intervals[0][0] for b in blocks)
    hi = max(b.intervals[0][1] for b in blocks)
    chunks = []
    for i, (block, chunk_list) in enumerate(zip(blocks, config["chunks"])):
        here = []
        for j, ch in enumerate(chunk_list):
            alpha = build_scalar_form(ch["alpha"])
            beta = build_scalar_form(ch["beta"])
            # alpha > beta empties a chunk: decided for polynomial ends only
            if alpha.coeffs and beta.coeffs:
                x = _below(beta.coeffs, alpha.coeffs, *block.intervals[0])
                if x is not None:
                    raise ArgumentError(f"chunk {j} of domain block {i}: alpha > beta at x = {x!r}")
            L = max(alpha.derivative.sup_abs(lo, hi), beta.derivative.sup_abs(lo, hi))
            here.append(sel.Chunk(alpha, beta, Modulus.lipschitz(L), eval_radius=1e-9))
        chunks.append(tuple(here))
    lo, hi = config.get("value_range", [0, 1])
    F = sel.RegularSVF(blocks, tuple(chunks), (Fraction(str(lo)), Fraction(str(hi))))
    eps = float(config["eps"])
    budget = Fraction(str(config.get("exception_budget", "1/100")))
    selector = sel.extract_selector(F, eps)
    work = {"stages": selector.stage, "pieces_per_block": [1 << m for _, _, m in selector.domain.grid]}
    verdict, max_distance, witness = sel.certify_selector(F, selector, budget, work=work)
    _write_csv(out / "selector.csv", "lo,hi,value", selector.pieces.float_rows())
    numeric = {
        "eps": eps,
        "n_pieces": len(selector.pieces),
        "max_distance": max_distance,
        # the exception set certify_selector checked against, made once
        "exception_volume": float(selector.domain.exception(budget).volume_exact()),
        "proper": 1 if selector.proper() else 0,
    }
    payload = {"selector_file": "selector.csv", "work": work}
    if witness is not None:
        payload["witness"] = witness
    return verdict, numeric, payload


def _task_eig(config, seed, out):
    if "matrix_file" in config:
        entries = parse_complex_matrix(Path(config["matrix_file"]).read_text())
    else:
        entries = np.array(config["matrix"], dtype=complex)
    eps = float(config.get("eps", 1e-8))
    A = eig.ComplexMatrix(entries)  # one spectrum for the verdict and the pairs
    verdict = eig.hurwitz_verdict(A)
    pairs, achieved = eig.approx_eigenpairs(A, eps)
    _write_csv(
        out / "roots.csv",
        "re,im,radius,multiplicity",
        [(c.center.real, c.center.imag, c.radius, c.multiplicity) for c in verdict.clusters],
    )
    numeric = {
        "eps": eps,
        "max_real_part": verdict.margin.value,
        "margin_radius": verdict.margin.radius,
        "n_pairs": len(pairs),
        "max_residual": max((p.residual.value + p.residual.radius for p in pairs), default=0.0),
        "achieved": 1 if achieved else 0,
    }
    return verdict.verdict, numeric, {"roots_file": "roots.csv"}


def _ode_rhs_from_config(config) -> traj.RegularRHS:
    box = _interval(config["state_box"])
    lo, hi = box.lo[0], box.hi[0]
    blocks = []
    for b in config["blocks"]:
        form = build_scalar_form(b["f"])
        f2 = form.derivative.derivative  # None for pwl forms: first-order defect
        blocks.append(traj.TimeBlockRHS(
            Fraction(str(b["t_lo"])), Fraction(str(b["t_hi"])),
            lambda xs, ts, f=form: f(xs),
            form.derivative.sup_abs(lo, hi), Modulus.lipschitz(0.0), form.sup_abs(lo, hi),
            f2.sup_abs(lo, hi) if f2 else math.inf,
        ))
    return traj.RegularRHS(tuple(blocks), box)


def _task_ode(config, seed, out):
    rhs = _ode_rhs_from_config(config)
    x0 = np.atleast_1d(np.asarray(config["x0"], dtype=float))
    if not np.all(np.isfinite(x0)):
        raise ArgumentError("x0 must be finite")
    T = float(config["T"])
    eps = float(config["eps"])
    try:
        sol = traj.picard_solve(rhs, x0, T, eps)
    except DomainExitError as exc:
        # the solution leaves the box on which the Lipschitz data hold
        payload = {"exit_time": exc.exit_time, "state": np.atleast_1d(exc.state).tolist()}
        return "undecided", {"T": T, "eps": eps}, payload
    except ContractError as exc:  # the bounds come from the forms' enclosures
        raise InternalConsistencyError(f"Picard runner: {exc}") from exc
    (out / "trajectory.csv").write_text(
        traj.solution_to_csv(sol, int(config.get("csv_points", 2000)))
    )
    numeric = {
        "T": T,
        "eps": eps,
        "endpoint": float(sol.endpoint[0]),
        "error_bound": sol.error_bound.value,
        "grid_nodes": int(sol.grid.size),
    }
    payload = {
        "trajectory_file": "trajectory.csv",
        "picard_sweeps": sol.sweeps.tolist(),
        "grid_step": sol.grid_step,
        "defect_order": sol.defect_order,
    }
    return "certified", numeric, payload


def _shh_problem(config) -> stab.CLFProblem:
    if config.get("dynamics", "integrator") != "integrator":
        raise ArgumentError("shh dynamics registry: integrator")
    return stab.CLFProblem(
        state_box=_interval(config.get("state_box", [-2, 2])),
        control_box=_interval(config["control_box"]),
        V=build_scalar_form(config.get("V", {"form": "polynomial", "coeffs": [0, 0, 1]})),
        target_radius=float(config["target_radius"]),
        overshoot_radius=float(config["overshoot_radius"]),
    )


def _task_shh(config, seed, out):
    problem = _shh_problem(config)
    eta_max = float(config.get("eta_max", 1.0))
    sweep = [float(e) for e in config.get("sweep", [])]
    eps = float(config["optimizer_eps"])
    *swept, res = stab.find_sampling_time(problem, eta_max, sweep + [eps])
    rows = [(e, r.eta if r.eta is not None else math.nan,
             r.margin if r.margin is not None else math.nan) for e, r in zip(sweep, swept)]
    if rows:
        _write_csv(out / "sweep.csv", "optimizer_eps,eta,margin", rows)
    numeric = {
        "optimizer_eps": eps,
        "eta": res.eta if res.eta is not None else -1.0,
        "margin": res.margin if res.margin is not None else -1.0,
    }
    payload = {"diagnosis": res.diagnosis} if res.diagnosis else {}
    payload["bound"] = res.details
    if rows:
        payload["sweep_file"] = "sweep.csv"
    if res.ok:
        # demo closed loop from the outer annulus edge at the certified eta,
        # until the sampled state is in the target ball: within N* steps, of
        # which it runs at most DEMO_STEPS (the verdict rests on eta alone)
        kappa = lambda x: stab.clf_feedback(problem, x, eps)[0]
        x0 = np.array([problem.overshoot_radius])
        n_star = stab.reaching_steps(problem, res, eps, problem.overshoot_radius)
        steps = min(n_star, DEMO_STEPS)
        try:
            loop = traj.sample_hold_trajectory(
                problem.dynamics, kappa, res.eta, x0, steps, max(1e-9, eps * res.eta / 100.0),
                problem.target_radius,
            )
        except ContractError as exc:  # the bounds come from the control box
            raise InternalConsistencyError(f"Picard runner: {exc}") from exc
        if loop.entry_step is None and steps == n_star:
            raise InternalConsistencyError(
                f"the sampled state is outside |x| <= {problem.target_radius!r} after "
                f"N* = {n_star} held steps of eta = {res.eta!r}, against the certificate"
            )
        (out / "closed_loop.csv").write_text(traj.solution_to_csv(loop))
        payload["closed_loop_file"] = "closed_loop.csv"
        payload["reach"] = {"step": loop.entry_step, "time": float(loop.grid[-1]), "bound_steps": n_star}
        if loop.entry_step is None:
            payload["reach"]["stopped_at_step"] = steps
    return res.verdict, numeric, payload


def _task_certify(config, seed, out):
    box = _interval(config["state_box"])
    data = stab.LyapunovData(
        f=build_scalar_form(config["dynamics"]),
        V=build_scalar_form(config["V"]),
        w1=build_comparator(config["w1"], "w1"),
        w2=build_comparator(config["w2"], "w2"),
        w3=build_comparator(config["w3"], "w3"),
        xi=float(config.get("xi", 1.0)),
    )
    cert = stab.certify(data, box)
    numeric = {
        "sandwich_margin": cert.checks["sandwich"].margin,
        "decay_margin": cert.checks["decay"].margin,
        "growth_margin": cert.checks["linear_growth"].margin,
        "x0_level": cert.x0_set.level if cert.x0_set else -1.0,
    }
    payload = {"orders": {name: cert.checks[name].details["orders"] for name in ("sandwich", "decay")}}
    if cert.witness:
        payload["witness"] = cert.witness
    if cert.counterexample:
        ce = dict(cert.counterexample)
        if "point" in ce:
            ce["point"] = [float(v) for v in np.atleast_1d(ce["point"])]
        if "pair" in ce:
            ce["pair"] = [[float(v) for v in p] for p in ce["pair"]]
        payload["counterexample"] = ce
    return cert.verdict, numeric, payload


def _soundness_gap(a: float, b: float, c: float, r: float) -> tuple[int, int]:
    """|(a b + a) b - a - c| - r, exact, as (numerator, denominator).

    Every float is n / 2**e (float.as_integer_ratio), so over a common
    denominator D for a and b the exact product is an integer over D**3,
    and the gap an integer over one power of two S.
    """
    (na, da), (nb, db), (nc, dc), (nr, dr) = (x.as_integer_ratio() for x in (a, b, c, r))
    D = max(da, db)
    A, B = na * (D // da), nb * (D // db)
    S = max(D**3, dc, dr)
    exact = (A * B * B + A * B * D - A * D * D) * (S // D**3)
    return abs(exact - nc * (S // dc)) - nr * (S // dr), S


def _product_chain(a, b):
    """p, s, q, c: the rounded steps p = a b, s = p + a, q = s b, c = q - a
    of the audit's product (a b + a) b - a, elementwise."""
    p = a * b
    s = p + a
    q = s * b
    return p, s, q, q - a


def _audit_products(rng, n: int):
    """n products c = (a b + a) b - a of pairs (a, b) drawn uniformly from
    [-3, 3], a first, with the radius CertifiedReal arithmetic gives c, in
    one numpy pass.

    Every operation rounds as CertifiedReal does: the propagated radius
    times _RADIUS_SAFETY plus one ulp of the result.  np.spacing(|v|) is
    math.ulp(|v|) for every finite v below the largest float.  The exact
    inputs a and b have radius 0, so the propagated radii are 0, rp, |b| rs
    and rq (the zero terms CertifiedReal adds change no bit).
    Returns (a, b, c, radius).
    """
    a, b = rng.uniform(-3, 3, size=(n, 2)).T

    def inflate(v, raw):
        return raw * _RADIUS_SAFETY + np.spacing(np.abs(v))

    p, s, q, c = _product_chain(a, b)
    rp = inflate(p, 0.0)
    rs = inflate(s, rp)
    rq = inflate(q, np.abs(b) * rs)
    return a, b, c, inflate(c, rq)


def _gap_upper_bounds(a, b, r):
    """Float bounds U >= |(a b + a) b - a - c| - r, elementwise, for c the
    rounded product of `_product_chain` and any radius r.

    With round to nearest, |fl(x) - x| <= ulp(fl(x)) / 2 for every real x
    in range, ulp(y) = np.spacing(|y|), also when fl(x) underflows or is 0
    (ulp(0) = 2**-1074).  Writing each rounded step p, s, q, c as its
    exact operation plus an error e_p, e_s, e_q, e_c gives, for the exact
    product Q, c - Q = e_c + e_q + b (e_s + e_p), so
    |c - Q| <= (ulp(c) + ulp(q) + |b| (ulp(s) + ulp(p))) / 2
    (Higham 2002, §2.2).  Each float operation below is followed by
    np.nextafter towards +inf, which lies at or above the exact result
    whatever the rounding did, underflow included; the sums and products
    of upper bounds are monotone, so every step stays an upper bound.
    """
    p, s, q, c = _product_chain(a, b)

    def up(v):
        return np.nextafter(v, np.inf)

    def ulp(v):
        return np.spacing(np.abs(v))

    err = up(0.5 * up(up(ulp(c) + ulp(q)) + up(np.abs(b) * up(ulp(s) + ulp(p)))))
    return up(err - r)


def _worst_soundness_gap(a, b, c, r) -> tuple[int, int]:
    """The largest exact `_soundness_gap` over the pairs, as (numerator,
    denominator), deciding exactly only the pairs a float bound cannot rule
    out (Shewchuk's adaptive filter, DCG 18(3), 1997).

    Pairs are visited by decreasing `_gap_upper_bounds`; once a bound lies
    below the exact worst so far (compared exactly, as integers), no later
    pair can reach it, so the result is the all-pairs maximum.
    """
    bounds = _gap_upper_bounds(a, b, r)
    order = np.argsort(-bounds, kind="stable").tolist()
    a, b, c, r, bounds = (x.tolist() for x in (a, b, c, r, bounds))
    worst = None
    for i in order:
        if worst is not None:
            nu, du = bounds[i].as_integer_ratio()
            if nu * worst[1] < worst[0] * du:
                break
        n, d = _soundness_gap(a[i], b[i], c[i], r[i])
        if worst is None or n * worst[1] > worst[0] * d:
            worst = n, d
    return worst


def _task_audit(config, seed, out):
    """Seeded property battery across every module; the determinism
    acceptance criterion compares this record's numeric fields."""
    rng = np.random.default_rng(seed)
    numeric = {}

    # core: interval soundness on random products, the worst gap exact
    num, den = _worst_soundness_gap(*_audit_products(rng, 2000))
    # one correctly rounded division
    numeric["core_worst_soundness_gap"] = num / den

    # core: mesh covering
    mesh = build_mesh(Hypercube(np.zeros(2), 2.0), 0.25)
    numeric["mesh_cover_worst"] = mesh.covering_check(rng, 4000)

    # evt: sup-norm minimization
    pclass = evt.PolicyClass(Hypercube(np.array([0.5]), 1.0), 1, 1.0, 1.0)
    grid = np.linspace(0, 1, 201).reshape(-1, 1)
    # sup |k|: the distance from 0 to [lo, hi], |V| when lo is hi
    J = evt.Functional(
        lambda env: ((np.maximum(env[0], 0.0) + np.maximum(-env[1], 0.0)).max(axis=(1, 2)), 2.5e-3),
        Modulus.lipschitz(1.0),
        grid,
        name="sup",
    )
    _, cert = evt.epsilon_minimize(J, pclass, 1.3)
    numeric["evt_value"] = cert.value
    numeric["evt_radius"] = cert.radius

    # danskin: tent derivative and spread
    obj = _DANSKIN_OBJECTIVES["bilinear"]()
    dom = dk.ThetaDomain(_interval([-1, 1]), budget=200_000)
    d = dk.directional_derivative(obj, dom, np.array([0.0]), np.array([1.0]), 0.3)
    ds = dk.delta_optimizers(obj, dom, np.array([0.0]), 0.3, 0.01)
    spread, slack = dk.member_spread(obj, ds, np.array([1.0]))
    numeric["danskin_derivative"] = d.value
    numeric["danskin_spread"] = spread
    numeric["danskin_slack"] = slack

    # selector: two-chunk extraction
    F = sel.RegularSVF(
        (sel.Block.interval(-1, 0), sel.Block.interval(0, 1)),
        (
            (sel.Chunk(np.zeros_like, lambda x: np.full_like(x, 0.25), Modulus.lipschitz(0.0), 0.0),),
            (sel.Chunk(lambda x: np.full_like(x, 0.75), np.ones_like, Modulus.lipschitz(0.0), 0.0),),
        ),
    )
    s = sel.extract_selector(F, 0.125)
    selector_verdict, numeric["selector_max_distance"], _ = sel.certify_selector(F, s, Fraction(1, 100))
    numeric["selector_pieces"] = float(len(s.pieces))

    # eigen: residuals over random matrices
    results = []
    for k in range(40):
        r = np.random.default_rng(seed + 1000 + k)
        n = int(r.integers(2, 7))
        A = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
        results.append(eig.approx_eigenpairs(A, 1e-8))
    bounds = [p.residual.value + p.residual.radius for pairs, _ in results for p in pairs]
    numeric["eigen_worst_residual"] = max(bounds)
    numeric["eigen_all_achieved"] = float(all(achieved for _, achieved in results))

    # trajectories: exponential decay, x' = -x on [-2, 2]: Lipschitz 1,
    # |f| <= 2 and f'' = 0, so the grid is sized by the second-order defect
    rhs = traj.RegularRHS(
        (traj.TimeBlockRHS(0, 1, lambda xs, ts: -xs, 1.0, Modulus.lipschitz(0.0), 2.0, 0.0),),
        Hypercube(np.array([0.0]), 4.0),
    )
    solped = traj.picard_solve(rhs, np.array([1.0]), 1.0, 1e-5)
    numeric["ode_endpoint_error"] = abs(float(solped.endpoint[0]) - math.exp(-1.0))
    numeric["ode_error_bound"] = solped.error_bound.value

    # stability: certify the decay instance and a sampling time
    cfg = {
        "dynamics": {"form": "polynomial", "coeffs": [0.0, -1.0]},
        "V": {"form": "polynomial", "coeffs": [0.0, 0.0, 1.0]},
        "w1": {"form": "radial_poly", "coeffs": [0.0, 0.5]},
        "w2": {"form": "radial_poly", "coeffs": [2.0]},
        "w3": {"form": "radial_poly", "coeffs": [0.0, 1.0]},
        "xi": 1.0,
        "state_box": [-1, 1],
    }
    verdict, cnum, _ = _task_certify(cfg, seed, out)
    numeric["certify_decay_margin"] = cnum["decay_margin"]
    numeric["certify_x0_level"] = cnum["x0_level"]
    shh_cfg = {
        "control_box": [-1, 1],
        "target_radius": 0.1,
        "overshoot_radius": 1.0,
        "state_box": [-2, 2],
        "optimizer_eps": 0.05,
        "eta_max": 1.0,
    }
    sv, snum, _ = _task_shh(shh_cfg, seed, out)
    numeric["shh_eta"] = snum["eta"]

    ok = (
        verdict == "certified"
        and sv == "certified"
        and numeric["core_worst_soundness_gap"] <= 0.0
        and numeric["mesh_cover_worst"] <= 0.25
        and numeric["eigen_worst_residual"] <= 1e-8
        and numeric["eigen_all_achieved"] == 1.0
        and selector_verdict == "certified"
        and numeric["ode_endpoint_error"] <= 1e-5
        and numeric["danskin_spread"] <= 0.3 + numeric["danskin_slack"]
    )
    return ("certified" if ok else "counterexample"), numeric, {}


_HANDLERS = {
    "evt-min": _task_evt_min,
    "danskin": _task_danskin,
    "selector": _task_selector,
    "eig": _task_eig,
    "ode": _task_ode,
    "shh": _task_shh,
    "certify": _task_certify,
    "audit": _task_audit,
}


def run(task: str, config: dict, seed: int, out_dir):
    """Execute one subcommand; returns (exit_code, record)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    verdict, numeric, payload = _HANDLERS[task](config, seed, out)
    record = {
        "tool": "certctrl",
        "version": __version__,
        "subcommand": task,
        "inputs_digest": _digest(config, seed),
        "seed": seed,
        "verdict": verdict,
        "numeric": numeric,
        "payload": payload,
        "wallclock_s": time.perf_counter() - t0,
    }
    (out / "certificate.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    return _VERDICT_EXIT.get(verdict, EXIT_COUNTEREXAMPLE), record


# built once: parse_args keeps no state between calls
_PARSER = argparse.ArgumentParser(
    prog="certctrl",
    description="certified approximate computation for control engineering",
)
_PARSER.add_argument("task", choices=TASKS)
_PARSER.add_argument("--config", required=False, help="JSON problem definition")
_PARSER.add_argument("--seed", type=int, default=0)
_PARSER.add_argument("--out", default="certctrl-out")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a bad argument, and 2 means undecided
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        if (args.config is None) != (args.task == "audit"):
            raise ArgumentError("audit takes no --config, and every other task needs one")
        config = {} if args.config is None else json.loads(Path(args.config).read_text())
        if not isinstance(config, dict):
            raise ArgumentError("the config must be a JSON object")
    except (OSError, ArgumentError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.task == "audit":
        # the audit reads no config, so every fault inside it is the program's
        config_faults, budget_faults = (), ()
    else:
        config_faults = (ArgumentError, ContractError, KeyError, TypeError, ValueError)
        budget_faults = ResourceBudgetError
    try:
        code, record = run(args.task, config, args.seed, args.out)
    except config_faults as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except budget_faults as exc:
        print(f"resource budget: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        # any other failure (a broken invariant, a trajectory leaving its box
        # outside the ode task, an overflow) is a fault of the computation,
        # not of the config
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(f"{record['subcommand']}: {record['verdict']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
