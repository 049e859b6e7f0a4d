"""Seeded job lists for the certctrl benchmark, each job labelled with its
ground truth.

A workload is a sequence of rounds.  Every round holds the same slots (the
same task kinds at the same parameter strata), so two seeds give job lists
with the same mix and nearly the same cost; the seed only moves parameters
inside each stratum.  Round ``r`` of workload ``w`` draws from
``default_rng([seed, w, r])``, so a longer list extends a shorter one.

Nothing here imports certctrl: the program only ever sees the config files
written from these jobs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("screen", "synthesis", "closed-loop")

# Cost of one round on a 2-vCPU Xeon VM, measured with the program as of
# the commit that added this benchmark.  The number of rounds in a run is
# fixed by --seconds and these constants alone, so both sides of a
# comparison run exactly the same jobs.
ROUND_SECONDS = {"screen": 6.0, "synthesis": 7.5, "closed-loop": 2.0}
MIN_ROUNDS = 3

EIG_SIZES = (2, 3, 4, 6, 8, 12, 16, 24, 32)
EIG_KINDS = ("stable", "unstable", "boundary")
DANSKIN_OBJECTIVES = ("bilinear", "neg_quadratic", "concave_linear")
DANSKIN_DELTAS = (0.055, 0.16, 0.29)

# EVT net sizes are step functions of eps; these strata each map to one
# net size for the unit-Lipschitz, unit-bound class on [0, 1].
EVT_STRATA = {"17k": (1.23, 1.32), "8k": (1.48, 1.50)}


def n_rounds(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / ROUND_SECONDS[workload]))


def job_list(workload: str, seed: int, seconds: float) -> list[dict]:
    """The jobs of one run, in execution order."""
    return [job for r in range(n_rounds(workload, seconds)) for job in round_jobs(workload, seed, r)]


def round_jobs(workload: str, seed: int, r: int) -> list[dict]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), r])
    make = {"screen": _screen_round, "synthesis": _synthesis_round, "closed-loop": _closed_loop_round}
    jobs = make[workload](rng, r)
    for k, job in enumerate(jobs):
        job["id"] = f"{workload}-r{r:03d}-{k:02d}-{job['task']}"
        job["seed"] = int(rng.integers(0, 2**31 - 1))
    return jobs


def write_configs(jobs: list[dict], config_dir: Path) -> None:
    """Write one JSON config per job; jobs without a config (audit) get none."""
    config_dir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        if job["config"] is not None:
            path = config_dir / f"{job['id']}.json"
            path.write_text(json.dumps(job["config"]))
            job["config_file"] = str(path)


def argv(job: dict, out_dir: Path) -> list[str]:
    args = [job["task"]]
    if job["config"] is not None:
        args += ["--config", job["config_file"]]
    return args + ["--seed", str(job["seed"]), "--out", str(out_dir)]


def _band(rng, center, rel=0.05) -> float:
    """A seeded value within rel of center: each slot keeps its cost."""
    return center * float(rng.uniform(1.0 - rel, 1.0 + rel))


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _signed(rng, lo, hi) -> float:
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# screen: many short independent certification jobs
# ---------------------------------------------------------------------------

def _screen_round(rng, r):
    # eig kinds and danskin deltas rotate with the round, not the seed, so
    # every run of a given length holds the same (n, kind) and
    # (objective, delta) pairs
    jobs = [_eig_job(rng, n, EIG_KINDS[(i + r) % 3]) for i, n in enumerate(EIG_SIZES)]
    for growing, mesh_eps in ((False, 1.05e-4), (True, 1.05e-4), (False, 1.9e-3), (True, 4.7e-4)):
        jobs.append(_certify_job(rng, growing, _band(rng, mesh_eps)))
    jobs.append(_ode_job(rng, (-1.0,), _band(rng, 1.05e-5)))
    jobs.append(_ode_job(rng, (0.5, -1.0), _band(rng, 9.5e-5)))
    for i, name in enumerate(DANSKIN_OBJECTIVES):
        jobs.append(_danskin_job(rng, name, _band(rng, DANSKIN_DELTAS[(i + r) % 3])))
    return jobs


def _orthogonal(rng, n):
    q, rr = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(rr))


def _eig_job(rng, n, kind):
    """A normal matrix Q D Q^T with a spectrum fixed by construction."""
    d = np.diag(rng.uniform(-2.0, -1.0, n))
    if kind == "unstable":
        d[0, 0] = rng.uniform(0.5, 1.5)
    elif kind == "boundary":
        w = rng.uniform(0.5, 2.0)
        d[0, 0] = d[1, 1] = 0.0
        d[0, 1], d[1, 0] = -w, w
    q = _orthogonal(rng, n)
    a = q @ d @ q.T
    max_re = {"stable": float(np.diag(d).max()), "unstable": float(d[0, 0]), "boundary": 0.0}[kind]
    return {
        "task": "eig",
        "config": {"matrix": a.tolist(), "eps": 1e-8},
        "truth": {"kind": kind, "n": n, "max_re": max_re},
    }


def _certify_job(rng, growing, mesh_eps):
    """V = x^2 for x' = -+(a x + b x^3) on [-1, 1].

    Decaying: Vdot = -2a x^2 - 2b x^4 <= -w3 with w3 = k3 x^2, k3 <= 1.5a,
    and k1 x^2 <= V <= k2 |x|, xi < k2, so every condition holds.
    Growing: Vdot > 0 away from the origin, so decay fails everywhere.
    """
    a, b = _u(rng, 0.5, 2.0), _u(rng, 0.0, 1.0)
    s = 1.0 if growing else -1.0
    k1, k2, k3 = _u(rng, 0.25, 0.75), _u(rng, 1.5, 2.5), a * _u(rng, 0.5, 1.5)
    config = {
        "dynamics": {"form": "polynomial", "coeffs": [0.0, s * a, 0.0, s * b]},
        "V": {"form": "polynomial", "coeffs": [0.0, 0.0, 1.0]},
        "w1": {"form": "radial_poly", "coeffs": [0.0, k1]},
        "w2": {"form": "radial_poly", "coeffs": [k2]},
        "w3": {"form": "radial_poly", "coeffs": [0.0, k3]},
        "xi": _u(rng, 0.5, 1.0),
        "state_box": [-1, 1],
        "mesh_eps": mesh_eps,
    }
    truth = {"expect": "counterexample" if growing else "certified", "w1_on_sphere": k1}
    return {"task": "certify", "config": config, "truth": truth}


def _ode_job(rng, rates, eps):
    """x' = a_i x on consecutive time blocks: x(T) = x0 exp(sum a_i dt_i)."""
    cuts = [0.0, 1.0] if len(rates) == 1 else [0.0, float(rng.choice([0.25, 0.5, 0.75])), 1.0]
    rates = [_band(rng, a) for a in rates]
    x0 = _signed(rng, 0.5, 1.5)
    blocks = [
        {"t_lo": lo, "t_hi": hi, "f": {"form": "polynomial", "coeffs": [0.0, a]}}
        for lo, hi, a in zip(cuts, cuts[1:], rates)
    ]
    exact = x0 * math.exp(sum(a * (hi - lo) for lo, hi, a in zip(cuts, cuts[1:], rates)))
    config = {"state_box": [-4, 4], "blocks": blocks, "x0": [x0], "T": 1.0, "eps": eps}
    return {"task": "ode", "config": config, "truth": {"endpoint": exact}}


def _danskin_job(rng, objective, delta):
    """Registry objectives on theta in [-1, 1] with analytic psi:
    bilinear |x|, neg_quadratic 0 (|x| <= 1), concave_linear x^2 / 4."""
    x, v = _signed(rng, 0.4, 0.5), _signed(rng, 0.9, 1.1)
    derivative = {
        "bilinear": math.copysign(1.0, x) * v,
        "neg_quadratic": 0.0,
        "concave_linear": v * x / 2.0,
    }[objective]
    config = {"objective": objective, "x": x, "v": v, "delta": delta}
    return {"task": "danskin", "config": config, "truth": {"derivative": derivative}}


# ---------------------------------------------------------------------------
# synthesis: a few heavy combinatorial jobs
# ---------------------------------------------------------------------------

def _synthesis_round(rng, r):
    return [
        _selector_job(rng, _band(rng, 0.115), n_blocks=2, n_chunks=1),
        _selector_job(rng, _band(rng, 0.075), n_blocks=3, n_chunks=1),
        _selector_job(rng, _band(rng, 0.045), n_blocks=4, n_chunks=2),
        _evt_job(rng, "mean", "8k"),
        _evt_job(rng, "sup_distance", "8k"),
        _evt_job(rng, "sup_distance", "17k"),
        {"task": "audit", "config": None, "truth": {}},
    ]


def _evt_job(rng, kind, stratum):
    """Unit-Lipschitz policies bounded by 1 on [0, 1].  sup_distance to a
    target inside the class has infimum 0; the mean has infimum -1."""
    eps = _u(rng, *EVT_STRATA[stratum])
    functional = {"kind": kind}
    if kind == "sup_distance":
        # |c1| + 2|c2| <= 0.8 bounds the slope, |c0| + |c1| + |c2| <= 0.8 the values
        c2 = _u(rng, -0.2, 0.2)
        c1 = _u(rng, -0.4, 0.4)
        c0 = _u(rng, -0.2, 0.2)
        functional["target"] = {"form": "polynomial", "coeffs": [c0, c1, c2]}
    config = {
        "policy_class": {"domain": [0, 1], "lipschitz": 1.0, "bound": 1.0},
        "functional": functional,
        "eps": eps,
    }
    return {"task": "evt-min", "config": config, "truth": {"inf": 0.0 if kind == "sup_distance" else -1.0}}


def _selector_job(rng, eps, n_blocks, n_chunks):
    """Polynomial chunk boundaries alpha <= beta inside [0, 1] on dyadic
    domain blocks of [0, 1]; fixed slope and curvature magnitudes keep the
    refinement depth, and so the cost, of a slot fixed."""
    cuts = [0.0] + sorted(rng.choice(np.arange(1, 16) / 16.0, n_blocks - 1, replace=False).tolist()) + [1.0]
    chunks = []
    for _ in range(n_blocks):
        here = []
        for _ in range(n_chunks):
            lo = _u(rng, 0.25, 0.55)
            slope = _signed(rng, 0.095, 0.105)
            curve = _signed(rng, 0.045, 0.055)
            width = _u(rng, 0.02, 0.2)
            here.append({
                "alpha": {"form": "polynomial", "coeffs": [lo, slope, curve]},
                "beta": {"form": "polynomial", "coeffs": [lo + width, slope, curve]},
            })
        chunks.append(here)
    config = {
        "domain_blocks": [[a, b] for a, b in zip(cuts, cuts[1:])],
        "chunks": chunks,
        "value_range": [0, 1],
        "eps": eps,
    }
    return {"task": "selector", "config": config, "truth": {}}


# ---------------------------------------------------------------------------
# closed-loop: sample-and-hold synthesis on the integrator
# ---------------------------------------------------------------------------

# (mesh_eps, control bound c, overshoot R, target r, tolerance fraction,
#  sweep fractions); a fraction above 1 is of 2 R c (never certifiable),
#  below 1 of 2 r c (certifiable)
SHH_SLOTS = (
    (0.1, 1.2, 0.7, 0.15, 0.15, ()),
    (0.05, 1.0, 0.8, 0.15, 0.10, ()),
    (0.1, 1.0, 0.8, 0.15, 2.0, ()),
    (0.05, 0.8, 0.7, 0.15, 2.5, ()),
    (0.1, 1.2, 0.7, 0.15, 0.10, (0.1, 0.25)),
    (0.1, 1.2, 0.7, 0.15, 0.10, (0.1, 0.2, 0.3)),
    (0.1, 1.4, 0.6, 0.15, 0.15, (0.1, 0.2, 0.3, 0.4)),
    (0.05, 1.4, 0.6, 0.15, 0.15, (0.1, 0.3)),
)


def _closed_loop_round(rng, r):
    return [_shh_job(rng, *slot) for slot in SHH_SLOTS]


def _shh_job(rng, mesh_eps, c, R, r, frac, sweep):
    """x' = u, |u| <= c, V = x^2.  V can fall at most at rate 2 R c on the
    annulus r <= |x| <= R, so an optimizer tolerance above that can never
    be certified (diagnosis optimizer_tolerance); a tolerance well under
    2 r c leaves a certifiable sampling time."""
    c, R, r = _band(rng, c), _band(rng, R), _band(rng, r)
    too_large = frac > 1.0
    config = {
        "dynamics": "integrator",
        "control_box": [-c, c],
        "state_box": [-2, 2],
        "target_radius": r,
        "overshoot_radius": R,
        "optimizer_eps": _band(rng, frac) * 2.0 * (R if too_large else r) * c,
        "eta_max": 1.0,
        "mesh_eps": mesh_eps,
    }
    if sweep:
        config["sweep"] = [_band(rng, f) * 2.0 * r * c for f in sweep]
    truth = {"expect": "failure" if too_large else "certified"}
    if too_large:
        truth["diagnosis"] = "optimizer_tolerance"
    return {"task": "shh", "config": config, "truth": truth}
