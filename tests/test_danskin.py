import json
import os
import resource
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import certctrl.danskin as danskin
from certctrl import cli
from certctrl.core import ArgumentError, CertifiedReal, Hypercube, Modulus
from certctrl.danskin import (
    DeltaOptimizerSet,
    ParametricObjective,
    ThetaDomain,
    delta_optimizers,
    directional_derivative,
    finite_difference_audit,
    member_spread,
    psi,
)

THETA_11 = ThetaDomain(Hypercube(np.array([0.0]), 2.0))  # [-1, 1]
THETA_0PI = ThetaDomain(Hypercube(np.array([np.pi / 2]), np.pi))  # [0, pi]


def bilinear():
    # phi(x, theta) = theta * x; psi(x) = |x| on Theta = [-1, 1]
    return ParametricObjective(
        value=lambda x, th: th[:, 0] * x[0],
        grad_x=lambda x, th: th[:, :1].copy(),
        modulus_theta=Modulus.lipschitz(2.0),  # |x| <= 2 in the tests
        grad_modulus=Modulus.lipschitz(1.0),
        name="tent",
    )


def neg_quadratic():
    # phi(x, theta) = -(theta - x)^2; psi == 0 when Theta reaches x
    return ParametricObjective(
        value=lambda x, th: -((th[:, 0] - x[0]) ** 2),
        grad_x=lambda x, th: (2.0 * (th[:, 0] - x[0]))[:, None],
        modulus_theta=Modulus.lipschitz(4.0),
        grad_modulus=Modulus.lipschitz(4.0),
        name="negquad",
    )


def sine_plus_x():
    # phi(x, theta) = sin(theta) + x on [0, pi]; psi(x) = 1 + x
    return ParametricObjective(
        value=lambda x, th: np.sin(th[:, 0]) + x[0],
        grad_x=lambda x, th: np.ones((th.shape[0], 1)),
        modulus_theta=Modulus.lipschitz(1.0),
        grad_modulus=Modulus.lipschitz(1e-9),
        name="sine",
    )


def concave_linear():
    # phi(x, theta) = theta x - theta^2; psi(x) = x^2/4 for |x| <= 2
    return ParametricObjective(
        value=lambda x, th: th[:, 0] * x[0] - th[:, 0] ** 2,
        grad_x=lambda x, th: th[:, :1].copy(),
        modulus_theta=Modulus.lipschitz(4.0),
        grad_modulus=Modulus.lipschitz(1.0),
        name="concave",
    )


def constant_obj(c=0.75):
    return ParametricObjective(
        value=lambda x, th: np.full(th.shape[0], c),
        grad_x=lambda x, th: np.zeros((th.shape[0], 1)),
        modulus_theta=Modulus.lipschitz(1e-9),
        grad_modulus=Modulus.lipschitz(1e-9),
        name="const",
    )


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------

def test_psi_bilinear_closed_form():
    (p,) = psi(bilinear(), THETA_11, [np.array([0.5])], 1e-3)
    assert abs(p.value - 0.5) <= 1e-3
    assert p.radius <= 1e-3


def test_psi_negquad_zero():
    (p,) = psi(neg_quadratic(), THETA_11, [np.array([0.3])], 1e-4)
    assert abs(p.value) <= 1e-4


def test_psi_sine_dense_mesh_oracle():
    eps = 1e-3
    for xv in (0.0, 0.4, -0.7):
        (p,) = psi(sine_plus_x(), THETA_0PI, [np.array([xv])], eps)
        # DERIVED oracle: dense mesh at resolution eps/10
        fine = THETA_0PI.mesh(eps / 10.0).points[:, 0]
        oracle = float((np.sin(fine) + xv).max())
        assert abs(p.value - oracle) <= eps
        assert abs(p.value - (1.0 + xv)) <= eps


def test_psi_rejects_bad_eps():
    with pytest.raises(ArgumentError):
        psi(bilinear(), THETA_11, [np.array([0.0])], 0.0)


# ---------------------------------------------------------------------------
# delta_optimizers
# ---------------------------------------------------------------------------

def test_delta_optimizers_bilinear_threshold():
    # closed form at x = 1: E^delta = {theta >= 1 - delta}
    obj = bilinear()
    delta, eps = 0.1, 0.01
    ds = delta_optimizers(obj, THETA_11, np.array([1.0]), delta, eps)
    assert len(ds) >= 1
    slack = 2.0 * eps + ds.psi_hat.radius + 2 * obj.eval_radius
    assert np.all(ds.points[:, 0] >= 1.0 - delta - slack)
    # soundness: every true mesh delta-optimizer is included
    mesh = THETA_11.mesh(eps).points[:, 0]
    true_opt = mesh[mesh >= 1.0 - delta]
    assert set(np.round(true_opt, 12)) <= set(np.round(ds.points[:, 0], 12))


def _pairwise_diameter(points):
    if len(points) <= 1:
        return 0.0
    return float(np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2).max())


@pytest.mark.parametrize("dim", [1, 2])
def test_diameter_equals_the_pairwise_maximum(dim):
    # the 1-D range and the row chunks (two of them at k = 333) give the
    # pairwise maximum bit for bit
    rng = np.random.default_rng(dim)
    for k in (0, 1, 2, 7, 100, 333):
        for scale in (1e-3, 1.0, 3.0):
            points = rng.uniform(-scale, scale, (k, dim))
            dset = DeltaOptimizerSet(np.zeros(1), points, CertifiedReal(0.0, 0.0))
            assert dset.diameter == _pairwise_diameter(points)


def test_danskin_with_every_theta_optimal_runs_in_bounded_memory(tmp_path):
    # at x = 0 every theta of the bilinear objective is delta-optimal: 40,002
    # members, whose k x k distance tensor would need 11.9 GiB; the task
    # runs under a 4 GB address-space limit
    cfg = tmp_path / "danskin.json"
    cfg.write_text(json.dumps({"objective": "bilinear", "x": 0.0, "v": 1.0, "delta": 2e-4}))
    src = str(Path(danskin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    limit = 4_000_000 * 1024
    out = subprocess.run(
        [sys.executable, "-m", "certctrl.cli", "danskin",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert out.returncode == 0, out.stderr
    record = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert record["verdict"] == "certified" and record["numeric"]["n_members"] == 20002


def test_delta_optimizers_huge_delta_returns_all():
    ds = delta_optimizers(bilinear(), THETA_11, np.array([1.0]), 5.0, 0.05)
    assert len(ds) == len(THETA_11.mesh(0.05))


def test_delta_optimizers_constant_phi_returns_all():
    ds = delta_optimizers(constant_obj(), THETA_11, np.array([0.2]), 0.01, 0.05)
    assert len(ds) == len(THETA_11.mesh(0.05))


def test_delta_optimizers_nesting():
    obj = bilinear()
    x = np.array([0.7])
    eps = 0.02
    d1 = delta_optimizers(obj, THETA_11, x, 0.05, eps)
    d2 = delta_optimizers(obj, THETA_11, x, 0.2, eps)
    s1 = set(map(tuple, np.round(d1.points, 12)))
    s2 = set(map(tuple, np.round(d2.points, 12)))
    assert s1 <= s2


def test_delta_optimizers_nonempty_for_tiny_delta():
    ds = delta_optimizers(neg_quadratic(), THETA_11, np.array([0.5]), 1e-6, 0.01)
    assert len(ds) >= 1


# ---------------------------------------------------------------------------
# directional_derivative
# ---------------------------------------------------------------------------

def test_derivative_tent_at_origin():
    # DERIVED: psi = |x| has one-sided derivative 1 at 0 in direction +1;
    # brute-force mesh max over E^delta(0) = Theta of theta*1 is 1.
    obj = bilinear()
    for delta in (0.2, 0.5, 0.9):
        d = directional_derivative(obj, THETA_11, np.array([0.0]), np.array([1.0]), delta)
        assert abs(d.value - 1.0) <= delta + d.radius


def test_derivative_negquad_zero():
    d = directional_derivative(
        neg_quadratic(), THETA_11, np.array([0.2]), np.array([1.3]), 0.05
    )
    assert abs(d.value) <= 0.05 + d.radius


def test_derivative_zero_direction_exact():
    d = directional_derivative(bilinear(), THETA_11, np.array([0.5]), np.array([0.0]), 0.1)
    assert d.value == 0.0 and d.radius == 0.0


def test_derivative_smooth_point_matches_gradient():
    # at x = 0.5 the tent is smooth: derivative = v
    obj = bilinear()
    d = directional_derivative(obj, THETA_11, np.array([0.5]), np.array([1.0]), 0.05)
    assert abs(d.value - 1.0) <= 0.05 + d.radius


def test_member_spread_dominated_by_certified_slack():
    # Eq-style uniformity, restated checkably: the observed spread of
    # member directional derivatives never exceeds the gradient-modulus
    # bound over the member set diameter (hence <= delta + slack).
    cases = [
        (bilinear(), THETA_11, 0.0),
        (bilinear(), THETA_11, 0.6),
        (neg_quadratic(), THETA_11, 0.3),
        (concave_linear(), THETA_11, 0.0),
        (sine_plus_x(), THETA_0PI, 0.4),
    ]
    for obj, dom, xv in cases:
        for delta in (0.05, 0.2):
            ds = delta_optimizers(obj, dom, np.array([xv]), delta, 0.01)
            spread, slack = member_spread(obj, ds, np.array([1.0]))
            assert spread <= slack + 1e-12
            assert spread <= delta + slack + 1e-12


def test_modulus_transfer_sampled():
    # |psi(x) - psi(y)| <= mu_x(|x - y|) + 2 eval radii over 10^3 pairs;
    # psi inherits phi's x-modulus, and theta x is 1-Lipschitz in x for
    # |theta| <= 1
    obj = bilinear()
    rng = np.random.default_rng(17)
    eps = 1e-2
    xs = rng.uniform(-1, 1, 1000)
    ys = rng.uniform(-1, 1, 1000)
    mod = Modulus.lipschitz(1.0)
    for a, b in zip(xs, ys):
        pa, pb = psi(obj, THETA_11, [np.array([a]), np.array([b])], eps)
        assert abs(pa.value - pb.value) <= mod.forward_bound(abs(a - b)) + pa.radius + pb.radius
    # sampled difference quotients for the tent stay below 1 + tolerance
    vals = np.abs(xs) - np.abs(ys)
    q = np.abs(vals) / (np.abs(xs - ys) + 1e-15)
    assert q.max() <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# finite_difference_audit
# ---------------------------------------------------------------------------

AUDIT_HS = (1e-1, 1e-2, 1e-3, 1e-4)


def test_audit_tent_at_smooth_point():
    rep = finite_difference_audit(
        bilinear(), THETA_11, np.array([1.0]), np.array([1.0]), 0.2, AUDIT_HS
    )
    assert rep.all_bracketed
    for h, q, lo, hi in rep.rows:
        assert q == pytest.approx(1.0, abs=1e-6)


def test_audit_tent_at_kink_quotients_from_above():
    rep = finite_difference_audit(
        bilinear(), THETA_11, np.array([0.0]), np.array([1.0]), 0.3, AUDIT_HS
    )
    assert rep.all_bracketed
    for h, q, lo, hi in rep.rows:
        assert q >= 1.0 - 1e-6  # tent: quotient identically 1 from above


def test_audit_constant_phi_quotients_zero():
    rep = finite_difference_audit(
        constant_obj(), THETA_11, np.array([0.4]), np.array([1.0]), 0.1, AUDIT_HS
    )
    assert rep.all_bracketed
    for h, q, lo, hi in rep.rows:
        assert q == pytest.approx(0.0, abs=1e-9)


def test_audit_concave_linear_honest_slack():
    # at x = 0 the derivative certificate has sqrt(delta)-scale slack
    # (the optimizer set has diameter ~ 2 sqrt(delta)); the quotients
    # approach 0 and must stay inside the certified envelope
    rep = finite_difference_audit(
        concave_linear(), THETA_11, np.array([0.0]), np.array([1.0]), 0.1, AUDIT_HS
    )
    assert rep.all_bracketed


def test_audit_clamps_h_to_unit_interval():
    rep = finite_difference_audit(
        bilinear(), THETA_11, np.array([1.0]), np.array([1.0]), 0.2, (5.0, 0.5)
    )
    assert max(h for h, *_ in rep.rows) <= 1.0


def test_audit_csv_shape():
    rep = finite_difference_audit(
        bilinear(), THETA_11, np.array([1.0]), np.array([1.0]), 0.2, (0.1, 0.01)
    )
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "h,quotient,lower,upper"
    assert len(lines) == 3


def test_audit_builds_one_psi_mesh_per_precision(monkeypatch, tmp_path):
    # examples/danskin.json: the steps 1e-1 .. 1e-4 ask psi for precisions
    # h delta / 8, and the two smallest sit at the mesh-budget floor, so
    # three theta meshes serve the eight psi values; each is freed before
    # the next is built
    psi_points, psi_meshes, alive = [], [], []
    build, real_psi = danskin.build_mesh, danskin.psi

    def counted_build(box, eps, budget):
        mesh = build(box, eps, budget)
        if len(psi_meshes) < len(psi_points):  # built by the running psi call
            assert not any(ref() is not None for ref in alive)
            psi_meshes.append(eps)
            alive.append(weakref.ref(mesh.points))
        return mesh

    def counted_psi(obj, theta_dom, xs, eps):
        psi_points.append(len(xs))
        return real_psi(obj, theta_dom, xs, eps)

    monkeypatch.setattr(danskin, "build_mesh", counted_build)
    monkeypatch.setattr(danskin, "psi", counted_psi)
    example = Path(__file__).parents[1] / "examples" / "danskin.json"
    assert cli.main(["danskin", "--config", str(example), "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert len(psi_meshes) == len(set(psi_meshes)) == 3
    assert psi_points == [2, 2, 3]  # psi(x) once per precision, then one point per step
