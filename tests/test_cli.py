import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from certctrl import forms
from certctrl import stability as stab
from certctrl.cli import EXIT_CONFIG, EXIT_COUNTEREXAMPLE, EXIT_INTERNAL, EXIT_OK, EXIT_UNDECIDED, main, run


def _run_cli(tmp_path, task, config, extra=()):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([task, "--config", str(cfg), "--out", str(out), *extra])
    record = json.loads((out / "certificate.json").read_text()) if (out / "certificate.json").exists() else None
    return code, record, out


ODE_DECAY = {
    "blocks": [{"t_lo": "0", "t_hi": "1", "f": {"form": "polynomial", "coeffs": [0.0, -1.0]}}],
    "state_box": [-2, 2],
    "x0": [1.0],
    "T": 1.0,
    "eps": 1e-5,
}

CERTIFY_DECAY = {
    "dynamics": {"form": "polynomial", "coeffs": [0.0, -1.0]},
    "V": {"form": "polynomial", "coeffs": [0.0, 0.0, 1.0]},
    "w1": {"form": "radial_poly", "coeffs": [0.0, 0.5]},
    "w2": {"form": "radial_poly", "coeffs": [2.0]},
    "w3": {"form": "radial_poly", "coeffs": [0.0, 1.0]},
    "xi": 1.0,
    "state_box": [-1, 1],
}


def test_certify_demo_exits_zero(tmp_path):
    code, record, _ = _run_cli(tmp_path, "certify", CERTIFY_DECAY)
    assert code == EXIT_OK
    assert record["verdict"] == "certified"
    assert record["numeric"]["x0_level"] == pytest.approx(0.5, abs=0.01)


def test_certify_unstable_counterexample_exit(tmp_path):
    cfg = dict(CERTIFY_DECAY, dynamics={"form": "polynomial", "coeffs": [0.0, 1.0]})
    code, record, _ = _run_cli(tmp_path, "certify", cfg)
    assert code == 1
    assert record["verdict"] == "counterexample"
    assert record["payload"]["counterexample"]["check"] == "decay"


def test_certify_growth_counterexample_exit(tmp_path):
    # w2 = 2|x|^2 has slope 0 at the origin, below xi = 1
    cfg = dict(CERTIFY_DECAY, w2={"form": "radial_poly", "coeffs": [0.0, 2.0]})
    code, record, out = _run_cli(tmp_path, "certify", cfg)
    assert code == 1
    assert record["verdict"] == "counterexample"
    ce = record["payload"]["counterexample"]
    assert ce["check"] == "linear_growth"
    (y,), (x,) = ce["pair"]
    assert y == 0.0 and 0 < abs(x) <= 1 and 2.0 * x * x < abs(x)


def test_certify_example_margins_derived_by_hand(tmp_path):
    # DERIVED: the quotients are 1/2 (V - w1 = r^2/2), 2 - r (w2 - V on
    # [0, 1], lowest Bernstein coefficient 1) and 1 (-V'f - w3 = r^2); the
    # X0 level is w1 on the unit sphere
    config = json.loads((Path(__file__).parents[1] / "examples" / "certify.json").read_text())
    code, record, _ = _run_cli(tmp_path, "certify", config)
    assert code == EXIT_OK and record["verdict"] == "certified"
    assert record["numeric"] == {"sandwich_margin": 0.5, "decay_margin": 1.0,
                                 "growth_margin": 1.0, "x0_level": 0.5}
    assert record["payload"]["orders"] == {
        "sandwich": {"V - w1": {"+": 2, "-": 2}, "w2 - V": {"+": 1, "-": 1}},
        "decay": {"-V'f - w3": {"+": 2, "-": 2}},
    }
    assert record["payload"]["witness"] == {"level": 0.5, "sphere_radius": 1.0}


def test_certify_ignores_a_leftover_mesh_eps(tmp_path):
    # configs written for the mesh-based checks still run, to the same numbers
    _, plain, _ = _run_cli(tmp_path, "certify", CERTIFY_DECAY)
    code, record, _ = _run_cli(tmp_path, "certify",
                               {**CERTIFY_DECAY, "mesh_eps": 0.5, "t_samples": [0.0, 1.0]})
    assert code == EXIT_OK and record["numeric"] == plain["numeric"]


def test_certify_x0_stays_inside_an_off_center_box(tmp_path):
    # X0 = {2|x| <= level} must lie in [-0.2, 1.8], so level <= 0.4
    cfg = dict(CERTIFY_DECAY, state_box=[-0.2, 1.8])
    code, record, _ = _run_cli(tmp_path, "certify", cfg)
    assert code == EXIT_OK
    assert 0 < record["numeric"]["x0_level"] <= 2.0 * 0.2
    assert record["payload"]["witness"]["sphere_radius"] <= 0.2
    # the box is the config's: its end point -0.2 is the sphere's radius
    assert record["payload"]["witness"]["sphere_radius"] == 0.2
    # no sphere about the origin fits in a box with the origin on its boundary
    code, record, _ = _run_cli(tmp_path, "certify", dict(CERTIFY_DECAY, state_box=[0, 1]))
    assert code == EXIT_UNDECIDED
    assert record["verdict"] == "undecided" and record["numeric"]["x0_level"] == -1.0


CERTIFY_EXAMPLE = json.loads((Path(__file__).parents[1] / "examples" / "certify.json").read_text())
ORDERS_EVEN = {
    "sandwich": {"V - w1": {"+": 2, "-": 2}, "w2 - V": {"+": 1, "-": 1}},
    "decay": {"-V'f - w3": {"+": 2, "-": 2}},
}


@pytest.mark.parametrize("config, code, expected, orders", [
    (CERTIFY_EXAMPLE, EXIT_OK,
     {"sandwich_margin": 0.5, "decay_margin": 1.0, "growth_margin": 1.0, "x0_level": 0.5},
     ORDERS_EVEN),
    # a growing cubic, x' = 1.25 x + 0.5 x^3, as the benchmark's screen slot
    ({**CERTIFY_EXAMPLE, "dynamics": {"form": "polynomial", "coeffs": [0.0, 1.25, 0.0, 0.5]},
      "xi": 0.75}, EXIT_COUNTEREXAMPLE,
     {"sandwich_margin": 0.5, "decay_margin": -4.5, "growth_margin": 1.25, "x0_level": -1.0},
     ORDERS_EVEN),
    ({**CERTIFY_EXAMPLE, "state_box": [-0.2, 1.8]}, EXIT_OK,
     {"sandwich_margin": 0.19999999999999996, "decay_margin": 1.0, "growth_margin": 1.0,
      "x0_level": 0.02},
     ORDERS_EVEN),
    # V - w1 = r^2 ((r - 1/2)^2 + 1/16) on [0, 1] needs a Bernstein split
    ({**CERTIFY_EXAMPLE, "V": {"form": "polynomial", "coeffs": [0.0, 0.0, 0.375, -1.0, 1.0]},
      "w1": {"form": "radial_poly", "coeffs": [0.0, 0.0625]},
      "w3": {"form": "radial_poly", "coeffs": [0.0, 0.0625]}, "state_box": [0, 1]}, EXIT_UNDECIDED,
     {"sandwich_margin": 0.0625, "decay_margin": 0.0625, "growth_margin": 1.0, "x0_level": -1.0},
     {"sandwich": {"V - w1": {"+": 2}, "w2 - V": {"+": 1}}, "decay": {"-V'f - w3": {"+": 2}}}),
])
def test_certify_numeric_fields_pinned(tmp_path, config, code, expected, orders):
    # recorded from the Bernstein decider over the exact coefficients
    got, record, _ = _run_cli(tmp_path, "certify", config)
    assert got == code
    assert record["numeric"] == expected
    assert record["payload"]["orders"] == orders


def test_eig_rotation_matrix_file_undecided(tmp_path):
    mat = tmp_path / "rot.txt"
    mat.write_text("0,0 -1,0\n1,0 0,0\n")
    code, record, out = _run_cli(tmp_path, "eig", {"matrix_file": str(mat), "eps": 1e-8})
    assert code == EXIT_UNDECIDED
    assert record["verdict"] == "undecided"
    assert (out / "roots.csv").exists()


def test_eig_stable_matrix_exit_zero(tmp_path):
    code, record, _ = _run_cli(tmp_path, "eig", {"matrix": [[-1.0, 0.0], [0.0, -2.0]]})
    assert code == EXIT_OK
    assert record["numeric"]["max_residual"] <= 1e-8


@pytest.mark.parametrize("eps", [0.0, -1e-8])
def test_eig_with_a_nonpositive_eps_exits_64(tmp_path, eps):
    code, _, _ = _run_cli(tmp_path, "eig", {"matrix": [[-1.0, 0.0], [0.0, -2.0]], "eps": eps})
    assert code == EXIT_CONFIG


def test_eig_n32_exits_zero_with_certificate(tmp_path):
    rng = np.random.default_rng(32)
    q, _ = np.linalg.qr(rng.standard_normal((32, 32)))
    A = q @ np.diag(rng.uniform(-2.0, -1.0, 32)) @ q.T
    code, record, out = _run_cli(tmp_path, "eig", {"matrix": A.tolist(), "eps": 1e-8})
    assert code == EXIT_OK
    assert record["verdict"] == "stable"
    assert record["numeric"]["n_pairs"] == 32
    assert record["numeric"]["achieved"] == 1
    assert len((out / "roots.csv").read_text().splitlines()) == 33


@pytest.mark.parametrize(
    "matrix,code,expected",
    [
        (
            [[0.0, 1.0, 0.0], [-2.0, -3.0, 1.0], [0.0, 0.0, -0.5]],
            EXIT_OK,
            {"max_real_part": -0.5, "margin_radius": 4.0705884754746016e-14,
             "max_residual": 9.125584676016687e-15, "n_pairs": 3, "achieved": 1},
        ),
        (
            [[0.05, -1.0], [1.0, 0.05]],
            1,
            {"max_real_part": 0.05, "margin_radius": 5.668530230052401e-15,
             "max_residual": 3.0860837387835997e-15, "n_pairs": 2, "achieved": 1},
        ),
        (
            [[0.0, -1.0], [1.0, 0.0]],
            EXIT_UNDECIDED,
            {"max_real_part": 3.389636702121535e-32, "margin_radius": 5.701885557950257e-15,
             "max_residual": 3.0156186059580457e-15, "n_pairs": 2, "achieved": 1},
        ),
    ],
)
def test_eig_numeric_fields_pinned(tmp_path, matrix, code, expected):
    # recorded from the Gershgorin enclosure in the LAPACK eigenvector basis
    got, record, _ = _run_cli(tmp_path, "eig", {"matrix": matrix, "eps": 1e-8})
    assert got == code
    assert record["numeric"] == {**expected, "eps": 1e-8}


def test_ode_decay_trajectory(tmp_path):
    code, record, out = _run_cli(tmp_path, "ode", ODE_DECAY)
    assert code == EXIT_OK
    assert abs(record["numeric"]["endpoint"] - math.exp(-1)) <= 1e-5
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x1,error_bound"
    assert len(lines) > 100


def test_ode_leaving_the_box_is_undecided(tmp_path):
    # x' = 2x from 0.5 reaches the box edge 1 at t = ln(2) / 2
    config = {
        "blocks": [{"t_lo": 0, "t_hi": 1, "f": {"form": "polynomial", "coeffs": [0.0, 2.0]}}],
        "state_box": [-1, 1],
        "x0": [0.5],
        "T": 1.0,
        "eps": 1e-3,
    }
    code, record, out = _run_cli(tmp_path, "ode", config)
    assert code == EXIT_UNDECIDED
    assert record["verdict"] == "undecided"
    assert record["payload"]["exit_time"] == pytest.approx(math.log(2.0) / 2.0, abs=1e-3)
    (state,) = record["payload"]["state"]
    assert state == pytest.approx(1.0, abs=1e-3)
    assert not (out / "trajectory.csv").exists()


ODE_EXAMPLE = json.loads((Path(__file__).parents[1] / "examples" / "ode.json").read_text())


def _pwl_linear(a):
    """x' = a x on [-4, 4] as a pwl form: no f'', so a first-order defect."""
    return {"form": "pwl", "xs": [-4.0, 4.0], "ys": [-4.0 * a, 4.0 * a]}


# the example's fields and x' = -x from -1.2 at eps 1.05e-5, as pwl forms:
# their first-order defect still needs about 5e5 grid nodes
ODE_PWL_EXAMPLE = {**ODE_EXAMPLE, "blocks": [
    {**b, "f": _pwl_linear(b["f"]["coeffs"][1])} for b in ODE_EXAMPLE["blocks"]
]}
ODE_LONG_GRID = {**ODE_DECAY, "blocks": [{"t_lo": "0", "t_hi": "1", "f": _pwl_linear(-1.0)}],
                 "state_box": [-4, 4], "x0": [-1.2], "eps": 1.05e-5}


@pytest.mark.parametrize("config, exact", [
    (ODE_PWL_EXAMPLE, math.exp(-0.25)),
    (ODE_LONG_GRID, -1.2 * math.exp(-1.0)),
])
def test_ode_long_grid_converges_in_one_fine_sweep(tmp_path, config, exact):
    # each window starts from its coarse-grid solution; from the constant
    # start every window took 7 fine sweeps
    code, record, _ = _run_cli(tmp_path, "ode", config)
    assert code == EXIT_OK
    num = record["numeric"]
    assert abs(num["endpoint"] - exact) <= num["error_bound"] <= config["eps"]
    sweeps = record["payload"]["picard_sweeps"]
    assert len(sweeps) >= 2
    assert all(coarse > 0 and 1 <= fine <= 2 for coarse, fine in sweeps)
    assert "picard_sweeps" not in num


def _ode_closed_forms():
    """(coeffs, x0, closed form of x' = poly(x)) on [-2, 2] over [0, 1]."""
    a, b = -0.8, 0.5

    def cubic(t, x0):  # x' = -x - x^3: u = x^2 solves u' = -2 u (1 + u)
        e = np.exp(-2.0 * t)
        return np.sign(x0) * np.sqrt(x0 * x0 * e / (1.0 + x0 * x0 * (1.0 - e)))

    return [
        ([0.0, a], 1.3, lambda t, x0: x0 * np.exp(a * t)),
        ([0.0, a, b], 1.0, lambda t, x0: a * x0 * np.exp(a * t) / (a + b * x0 * (1.0 - np.exp(a * t)))),
        ([0.0, -1.0, 0.0, -1.0], 1.5, cubic),
    ]


@pytest.mark.parametrize("coeffs, x0, exact", _ode_closed_forms(), ids=["linear", "logistic", "cubic"])
def test_second_order_defect_holds_at_every_node_and_cell_midpoint(coeffs, x0, exact):
    # the cell midpoints are where the polygon's in-cell error peaks; each
    # point is checked against the bound of the window that contains it
    from dataclasses import replace

    from certctrl.cli import _ode_rhs_from_config
    from certctrl.core import ResourceBudgetError
    from certctrl.trajectories import RegularRHS, picard_plan, picard_solve

    config = {"blocks": [{"t_lo": 0, "t_hi": 1, "f": {"form": "polynomial", "coeffs": coeffs}}],
              "state_box": [-2, 2]}
    rhs = _ode_rhs_from_config(config)
    eps = 1e-3
    sol = picard_solve(rhs, np.array([x0]), 1.0, eps)
    assert sol.defect_order == [2] and sol.error_bound.value <= eps
    t, x, bound = sol.grid, sol.values[:, 0], sol.error_profile
    slack = 8 * np.spacing(np.abs(exact(t, x0)))
    assert np.all(np.abs(x - exact(t, x0)) <= bound + slack)
    mid_t, mid_x = 0.5 * (t[1:] + t[:-1]), 0.5 * (x[1:] + x[:-1])
    assert np.all(np.abs(mid_x - exact(mid_t, x0)) <= bound[1:] + slack[1:])
    if coeffs[-1] == -1.0:
        # the first-order defect needs about 7e12 nodes for this field
        first = RegularRHS(tuple(replace(b, sup_f2=math.inf) for b in rhs.blocks), rhs.state_box)
        with pytest.raises(ResourceBudgetError):
            picard_plan(first, 1.0, eps)


def test_ode_payload_reports_grid_step_and_defect_order(tmp_path):
    # a polynomial field has an f'' bound and a pwl one has none
    config = {**ODE_DECAY, "blocks": [
        {"t_lo": "0", "t_hi": "1/2", "f": {"form": "polynomial", "coeffs": [0.0, -1.0]}},
        {"t_lo": "1/2", "t_hi": "1", "f": {"form": "pwl", "xs": [-2.0, 2.0], "ys": [2.0, -2.0]}},
    ]}
    code, record, _ = _run_cli(tmp_path, "ode", config)
    assert code == EXIT_OK
    payload = record["payload"]
    assert payload["defect_order"] == [2, 1]
    assert 0.0 < payload["grid_step"] <= 0.5
    assert "grid_step" not in record["numeric"] and "defect_order" not in record["numeric"]


@pytest.mark.parametrize("f", [
    {"form": "polynomial", "coeffs": [0.0, -1e7]},  # 2e7 contraction windows
    {"form": "trig", "terms": [[1e-100, 1e200, 0.0]]},  # L = 1e100
    {"form": "polynomial", "coeffs": [0.0, -1000.0]},  # e^(L T) overflows
])
def test_ode_beyond_the_grid_budget_exits_64_at_once(tmp_path, f, capsys):
    config = {**ODE_DECAY, "blocks": [{"t_lo": 0, "t_hi": 1, "f": f}], "state_box": [-1, 1], "x0": [0.5]}
    t0 = time.perf_counter()
    code, record, _ = _run_cli(tmp_path, "ode", config)
    assert code == EXIT_CONFIG and record is None
    assert time.perf_counter() - t0 < 5.0
    assert "resource budget" in capsys.readouterr().err


@pytest.mark.parametrize("terms", [
    [[1e300, 1e10, 0.0]],  # f' = 1e310
    [[1.0, 1e200, 0.0]],  # f'' = 1e400
    [[1.0, 1.5e154, 0.0]],  # f'' = 2.25e308
])
def test_ode_trig_derivative_overflow_exits_64(tmp_path, terms, capsys):
    config = {**ODE_DECAY, "blocks": [{"t_lo": 0, "t_hi": 1, "f": {"form": "trig", "terms": terms}}]}
    code, record, _ = _run_cli(tmp_path, "ode", config)
    assert code == EXIT_CONFIG and record is None
    assert "largest double" in capsys.readouterr().err


def test_ode_sup_comes_from_the_form_not_from_samples(tmp_path):
    # x' = sin(1000 pi x): all 2,001 equispaced points of [-1, 1] are zeros
    # of f, and a sup sampled there certified a bound of 3.0e-8 for an
    # endpoint 3.0e-7 off; the form's own enclosure gives sup |f| = 1
    w, x0, T = 1000.0 * math.pi, 0.00025, 0.002
    config = {
        "blocks": [{"t_lo": 0, "t_hi": T, "f": {"form": "trig", "terms": [[1.0, w, 0.0]]}}],
        "state_box": [-1, 1],
        "x0": [x0],
        "T": T,
        "eps": 1e-6,
    }
    code, record, _ = _run_cli(tmp_path, "ode", config)
    exact = (2.0 / w) * math.atan(math.tan(w * x0 / 2.0) * math.exp(w * T))
    num = record["numeric"]
    assert code == EXIT_OK and record["verdict"] == "certified"
    assert abs(num["endpoint"] - exact) <= num["error_bound"] <= 1e-6


def test_malformed_config_exit_64(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["ode", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_unknown_form_reference_exit_64_lists_registry(tmp_path, capsys):
    cfg = dict(ODE_DECAY)
    cfg["blocks"] = [{"t_lo": 0, "t_hi": 1, "f": {"form": "mystery", "coeffs": [1]}}]
    code, record, _ = _run_cli(tmp_path, "ode", cfg)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "polynomial" in err and "trig" in err


def test_missing_config_exit_64():
    assert main(["ode"]) == EXIT_CONFIG


EIG_EXAMPLE = str(Path(__file__).parents[1] / "examples" / "eig.json")


@pytest.mark.parametrize("argv", [
    ["eig", "--config", EIG_EXAMPLE, "--no-such-flag"],
    ["eig", "--config", EIG_EXAMPLE, "--precision-audit"],
    ["eig", "--config", EIG_EXAMPLE, "--seed", "x"],
    ["no-such-task"],
])
def test_bad_argument_exits_64_not_the_undecided_code(tmp_path, argv):
    # argparse alone exits 2, which is the exit code of an undecided verdict
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "certificate.json").exists()


def _certificate(out: Path) -> dict:
    record = json.loads((out / "certificate.json").read_text())
    del record["wallclock_s"]
    return record


def test_main_called_twice_in_one_process_writes_what_fresh_processes_write(tmp_path, capsys):
    # main parses with one module-level parser: a second call, with another
    # task, writes the certificate a fresh process writes, and a bad flag
    # after a good call is still a config error
    shh = tmp_path / "shh.json"
    shh.write_text(json.dumps({**SHH_INTEGRATOR, "optimizer_eps": 0.05, "sweep": [0.01, 0.1]}))
    argvs = [["shh", "--config", str(shh), "--seed", "3"], ["eig", "--config", EIG_EXAMPLE]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for i, argv in enumerate(argvs):
        here, fresh = tmp_path / f"in-process-{i}", tmp_path / f"fresh-{i}"
        code = main([*argv, "--out", str(here)])
        proc = subprocess.run([sys.executable, "-m", "certctrl.cli", *argv, "--out", str(fresh)],
                              env=env, capture_output=True, text=True)
        assert code == proc.returncode == EXIT_OK, proc.stderr
        assert _certificate(here) == _certificate(fresh)
    assert main(["eig", "--config", EIG_EXAMPLE, "--no-such-flag"]) == EXIT_CONFIG
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()


def test_audit_takes_no_config(tmp_path):
    # the audit never reads a config, so one would change only the digest
    out = tmp_path / "out"
    assert main(["audit", "--config", EIG_EXAMPLE, "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "certificate.json").exists()


def test_audit_with_a_missing_config_file_exits_64(tmp_path):
    out = tmp_path / "out"
    assert main(["audit", "--config", str(tmp_path / "missing.json"), "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "certificate.json").exists()


def test_evt_min_subcommand(tmp_path):
    config = {
        "policy_class": {"domain": [0, 1], "lipschitz": 1.0, "bound": 1.0},
        "functional": {"kind": "sup_distance", "target": {"form": "polynomial", "coeffs": [0.0]}},
        "eps": 1.3,
    }
    code, record, out = _run_cli(tmp_path, "evt-min", config)
    assert code == EXIT_OK
    assert record["numeric"]["value"] - record["numeric"]["radius"] <= 0.0 + 1e-12
    assert (out / "policy.txt").exists()


@pytest.mark.parametrize(
    "functional,eps,expected",
    [
        (
            {"kind": "sup_distance", "target": {"form": "polynomial", "coeffs": [0.1, 0.3, -0.1]}},
            1.2,
            {"value": 0.10602840909093493, "radius": 0.601875000001, "member_index": 21414},
        ),
        (
            {"kind": "sup_distance", "target": {"form": "polynomial", "coeffs": [-0.2, 0.4, 0.1]}},
            1.05,
            {"value": 0.08305583333331434, "radius": 0.527000000001, "member_index": 36656},
        ),
        ({"kind": "mean"}, 1.3, {"value": -1.0, "radius": 0.650000001, "member_index": 0}),
    ],
)
def test_evt_min_numeric_fields_pinned(tmp_path, functional, eps, expected):
    # recorded from the member-by-member enumerator and evaluator
    config = {
        "policy_class": {"domain": [0, 1], "lipschitz": 1.0, "bound": 1.0},
        "functional": functional,
        "eps": eps,
    }
    code, record, _ = _run_cli(tmp_path, "evt-min", config)
    assert code == EXIT_OK
    assert record["numeric"] == {**expected, "eps": eps}


def test_evt_min_target_lipschitz_on_the_domain(tmp_path):
    # x^2 has slope 3 at x = -1.5; the grid error of the sup distance needs
    # (L + 3) * gap / 2, and the constant taken on [-1, 1] gives only 2
    config = {
        "policy_class": {"domain": [-1.5, -0.5], "lipschitz": 1.0, "bound": 1.0},
        "functional": {"kind": "sup_distance", "target": {"form": "polynomial", "coeffs": [0.0, 0.0, 1.0]}},
        "eps": 1.3,
    }
    code, record, _ = _run_cli(tmp_path, "evt-min", config)
    assert code == EXIT_OK
    assert record["numeric"]["radius"] >= 1.3 / 2.0 + (1.0 + 3.0) * (1.0 / 400.0) / 2.0


def test_evt_min_payload_reports_the_net(tmp_path):
    from certctrl.core import Hypercube
    from certctrl.evt import PolicyClass, enumerate_policy_net

    config = {
        "policy_class": {"domain": [0, 1], "lipschitz": 1.0, "bound": 1.0},
        "functional": {"kind": "mean"},
        "eps": 1.3,
    }
    code, record, _ = _run_cli(tmp_path, "evt-min", config)
    assert code == EXIT_OK
    net = enumerate_policy_net(PolicyClass(Hypercube(np.array([0.5]), 1.0), 1, 1.0, 1.0), 0.65)
    work = record["payload"]["net"]
    assert {k: work[k] for k in ("members", "nodes", "grid_points")} == {
        "members": len(net), "nodes": len(net.nodes), "grid_points": 401,
    }
    # envelope rows built and leaf rows scored by the pruned prefix walk
    assert set(work) == {"members", "nodes", "grid_points", "prefix_rows", "scored"}
    assert 0 < work["scored"] <= work["prefix_rows"] and work["scored"] < len(net)
    assert "net" not in record["numeric"]


def test_danskin_subcommand_writes_audit(tmp_path):
    config = {
        "objective": "bilinear",
        "x": 0.0,
        "v": 1.0,
        "delta": 0.3,
        "h_sequence": [0.1, 0.01, 0.001],
    }
    code, record, out = _run_cli(tmp_path, "danskin", config)
    assert code == EXIT_OK
    assert record["numeric"]["derivative"] == pytest.approx(1.0, abs=0.05)
    assert (out / "audit.csv").read_text().startswith("h,quotient,lower,upper")


@pytest.mark.parametrize("objective, changes", [
    ("neg_quadratic", {"x": 5.0}),
    ("bilinear", {"theta_box": [-6, 4]}),
    ("concave_linear", {"theta_box": [-1, 1.5]}),
    # x + 0.1 v = 1.05 leaves [-1, 1] at the audit's largest step
    ("neg_quadratic", {"x": 0.95}),
    ("bilinear", {"x": -0.5, "v": -1.0, "h_sequence": [2.0, 0.1]}),
])
def test_danskin_rejects_configs_outside_the_registry_set(tmp_path, objective, changes):
    # the registry's theta moduli hold for theta and x in [-1, 1] only:
    # neg_quadratic's |d phi/d theta| = 2 |theta - x| is 12 at x = 5
    config = {"objective": objective, "x": 0.45, "v": 1.0, "delta": 0.16, **changes}
    code, record, _ = _run_cli(tmp_path, "danskin", config)
    assert code == EXIT_CONFIG and record is None


def test_selector_subcommand(tmp_path):
    config = {
        "domain_blocks": [["-1", "0"], ["0", "1"]],
        "chunks": [
            [{"alpha": {"form": "polynomial", "coeffs": [0.0]},
              "beta": {"form": "polynomial", "coeffs": [0.25]}}],
            [{"alpha": {"form": "polynomial", "coeffs": [0.75]},
              "beta": {"form": "polynomial", "coeffs": [1.0]}}],
        ],
        "value_range": [0, 1],
        "eps": 0.125,
    }
    code, record, out = _run_cli(tmp_path, "selector", config)
    assert code == EXIT_OK
    assert record["numeric"]["max_distance"] <= 0.125
    assert record["numeric"]["proper"] == 1
    assert (out / "selector.csv").exists()


SELECTOR_QUADRATIC = json.loads((Path(__file__).parents[1] / "examples" / "selector.json").read_text())


@pytest.mark.parametrize(
    "config,expected",
    [
        (
            {
                "domain_blocks": [["-1", "0"], ["0", "1"]],
                "chunks": [
                    [{"alpha": {"form": "polynomial", "coeffs": [0.0]},
                      "beta": {"form": "polynomial", "coeffs": [0.25]}}],
                    [{"alpha": {"form": "polynomial", "coeffs": [0.75]},
                      "beta": {"form": "polynomial", "coeffs": [1.0]}}],
                ],
                "eps": 0.125,
            },
            {"eps": 0.125, "n_pieces": 2, "max_distance": 0.06250000100000003,
             "exception_volume": 0.0078125, "proper": 1},
        ),
        (
            SELECTOR_QUADRATIC,
            {"eps": 0.06, "n_pieces": 24, "max_distance": 0.023419953392578165,
             "exception_volume": 0.0087890625, "proper": 1},
        ),
    ],
)
def test_selector_numeric_fields_pinned(tmp_path, config, expected):
    # recorded from the per-piece bound; the task draws no random numbers,
    # so the seed cannot move a numeric field
    records = []
    for seed in ("0", "12345"):
        code, record, _ = _run_cli(tmp_path, "selector", config, ("--seed", seed))
        assert code == EXIT_OK and record["verdict"] == "certified"
        records.append(record["numeric"])
    assert records[0] == records[1] == expected


def test_selector_budget_below_the_smallest_float(tmp_path):
    # "1e-330" underflows a float; the example still certifies, with every
    # pinned field but the exception volume unchanged
    code, record, _ = _run_cli(tmp_path, "selector", {**SELECTOR_QUADRATIC, "exception_budget": "1e-330"})
    assert code == EXIT_OK and record["verdict"] == "certified"
    assert record["numeric"] == {"eps": 0.06, "n_pieces": 24, "max_distance": 0.023419953392578165,
                                 "exception_volume": 0.0, "proper": 1}


def test_selector_with_a_tiny_eps_is_refused_by_the_block_budget(tmp_path, capsys):
    # 8 / delta overflows a float at eps = 1e-320: the shifts are taken
    # exactly, and the block budget refuses the config (it exited 70)
    code, record, _ = _run_cli(tmp_path, "selector", {**SELECTOR_QUADRATIC, "eps": 1e-320})
    assert code == EXIT_CONFIG and record is None
    assert capsys.readouterr().err.startswith("resource budget: simple approximation needs more than")


def test_selector_chunk_with_alpha_above_beta_is_refused(tmp_path, capsys):
    # alpha = 0.6 + 0.1 x - 0.05 x^2 exceeds beta = 0.42 + ... on the whole
    # first block, so F(x) is empty there: the exact Bernstein decider
    # refuses the config with the point (the stage check exited 70)
    config = json.loads(json.dumps(SELECTOR_QUADRATIC))
    config["chunks"][0][0]["alpha"]["coeffs"][0] = 0.6
    code, record, _ = _run_cli(tmp_path, "selector", config)
    assert code == EXIT_CONFIG and record is None
    err = capsys.readouterr().err
    assert err.startswith("config error: chunk 0 of domain block 0: alpha > beta at x = 0.0")
    # beta - alpha = 0.12 - 0.5 x is negative only on the right of the
    # block [0, 0.375] from x = 0.24 on: the witness lies there
    config = json.loads(json.dumps(SELECTOR_QUADRATIC))
    config["chunks"][0][0]["alpha"]["coeffs"][1] = 0.6
    code, record, _ = _run_cli(tmp_path, "selector", config)
    x = float(capsys.readouterr().err.split("at x = ")[1])
    assert code == EXIT_CONFIG and 0.24 < x <= 0.375
    # alpha = beta on a block is a one-point value set: not refused
    config = json.loads(json.dumps(SELECTOR_QUADRATIC))
    config["chunks"][0][0]["alpha"] = config["chunks"][0][0]["beta"]
    code, record, _ = _run_cli(tmp_path, "selector", config)
    assert code == EXIT_OK and record["verdict"] == "certified"


def test_selector_with_a_tiny_block_is_refused_before_the_overflow(tmp_path, capsys):
    # the block [0, 1e-310] lets eps = 1e-309 past the block budget; the
    # frozen chunk ends would need a 2^-1031 grid, which no float can scale
    # (it exited 70 with an OverflowError)
    config = {**SELECTOR_QUADRATIC, "domain_blocks": [["0", "1e-310"]],
              "chunks": SELECTOR_QUADRATIC["chunks"][:1], "eps": 1e-309}
    code, record, _ = _run_cli(tmp_path, "selector", config)
    assert code == EXIT_CONFIG and record is None
    assert capsys.readouterr().err == "resource budget: chunk ends on a 2^-1031 grid are finer than a float can scale\n"


def test_shh_subcommand_with_sweep(tmp_path):
    config = {
        "dynamics": "integrator",
        "control_box": [-1, 1],
        "state_box": [-2, 2],
        "target_radius": 0.1,
        "overshoot_radius": 1.0,
        "optimizer_eps": 0.01,
        "eta_max": 1.0,
        "sweep": [0.01, 0.1],
    }
    code, record, out = _run_cli(tmp_path, "shh", config)
    assert code == EXIT_OK
    assert record["numeric"]["eta"] > 0
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "optimizer_eps,eta,margin"
    assert len(sweep) == 3


def test_audit_runs_and_passes(tmp_path):
    out = tmp_path / "out"
    code = main(["audit", "--seed", "7", "--out", str(out)])
    assert code == EXIT_OK
    record = json.loads((out / "certificate.json").read_text())
    assert record["verdict"] == "certified"
    assert record["numeric"]["core_worst_soundness_gap"] <= 0.0


def test_audit_deterministic_numeric_fields(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["audit", "--seed", "11", "--out", str(out)]) == EXIT_OK
        rec = json.loads((out / "certificate.json").read_text())
        outs.append(json.dumps(rec["numeric"], sort_keys=True))
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "seed,expected",
    [
        (3, {"core_worst_soundness_gap": -3.5285583764849673e-19, "mesh_cover_worst": 0.23228832774337152}),
        (11, {"core_worst_soundness_gap": -5.109700595103938e-19, "mesh_cover_worst": 0.23291287595882945}),
    ],
)
def test_audit_numeric_fields_pinned(tmp_path, seed, expected):
    # recorded from the Fraction-by-Fraction soundness loop and the
    # member-by-member EVT kernel, and unchanged by the one-pass numpy
    # product battery and the EVT branch and bound; mesh_cover_worst pins
    # the next rng draws.
    # The ode fields come from the second-order defect (x' = -x declares
    # f'' = 0): 1,025 grid nodes, the endpoint error within the bound
    out = tmp_path / "out"
    assert main(["audit", "--seed", str(seed), "--out", str(out)]) == EXIT_OK
    numeric = json.loads((out / "certificate.json").read_text())["numeric"]
    assert numeric == {
        **expected,
        "certify_decay_margin": 1.0,
        "certify_x0_level": 0.5,
        "danskin_derivative": 1.0,
        "danskin_slack": 2.000000000002,
        "danskin_spread": 2.0,
        "eigen_all_achieved": 1.0,
        "eigen_worst_residual": 3.418680061825021e-14,
        "evt_radius": 0.6525,
        "evt_value": 0.10000000000002274,
        "ode_endpoint_error": 2.301862100928531e-08,
        "ode_error_bound": 2.4426220321285453e-06,
        "selector_max_distance": 0.031250000000000014,
        "selector_pieces": 2.0,
        "shh_eta": 0.09999999999,
    }


@pytest.mark.parametrize("seed", [3, 11, 101, 2024])
def test_audit_products_match_the_certified_real_chain(seed):
    from certctrl.cli import _audit_products
    from certctrl.core import CertifiedReal

    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    a, b, c, r = (x.tolist() for x in _audit_products(rng, 2000))
    for i in range(2000):
        x = CertifiedReal(float(ref_rng.uniform(-3, 3)), 0.0)
        y = CertifiedReal(float(ref_rng.uniform(-3, 3)), 0.0)
        z = (x * y + x) * y - x
        got = (a[i], b[i], c[i], r[i])
        want = (x.value, y.value, z.value, z.radius)
        assert [v.hex() for v in got] == [v.hex() for v in want]
    assert rng.uniform() == ref_rng.uniform()


def test_soundness_gap_is_exact():
    from fractions import Fraction

    from certctrl.cli import _soundness_gap

    rng = np.random.default_rng(2)
    cases = [(5e-324, -3.0, 0.0, 0.0), (0.0, -0.0, 1e-300, 2.0**-1074), (-2.5, 1e-12, 0.75, 1e-17)]
    cases += [tuple(rng.uniform(-3, 3, 3)) + (float(rng.uniform(0, 1e-15)),) for _ in range(50)]
    for a, b, c, r in cases:
        fa, fb = Fraction(a), Fraction(b)
        exact = abs((fa * fb + fa) * fb - fa - Fraction(c)) - Fraction(r)
        n, d = _soundness_gap(a, b, c, r)
        assert Fraction(n, d) == exact and d & (d - 1) == 0
        assert n / d == float(exact)


def test_shh_failure_exit_one_with_diagnosis(tmp_path):
    config = {
        "dynamics": "integrator",
        "control_box": [-1, 1],
        "state_box": [-2, 2],
        "target_radius": 0.1,
        "overshoot_radius": 1.0,
        "optimizer_eps": 0.5,
        "eta_max": 1.0,
    }
    code, record, _ = _run_cli(tmp_path, "shh", config)
    assert code == 1
    assert record["verdict"] == "failure"
    assert record["payload"]["diagnosis"].startswith("optimizer_tolerance")


SHH_INTEGRATOR = {
    "dynamics": "integrator",
    "control_box": [-1, 1],
    "state_box": [-2, 2],
    "target_radius": 0.1,
    "overshoot_radius": 1.0,
    "eta_max": 1.0,
}


@pytest.mark.parametrize(
    "config,expected,sweep",
    [
        (
            {"optimizer_eps": 0.05},
            {"eta": 0.09999999999, "margin": 8.274037101920373e-19},
            None,
        ),
        (
            {
                "control_box": [-0.8, 0.6],
                "target_radius": 0.15,
                "overshoot_radius": 0.9,
                "optimizer_eps": 0.03,
                "mesh_eps": 0.05,
                "sweep": [0.01, 0.04, 0.12],
            },
            {"eta": 0.18749999998687494, "margin": 1.1797249363390196e-17},
            [
                "0.01,0.24999999998687494,4.719577581404823e-18",
                "0.04,0.15624999998687494,1.0131914826452462e-17",
                "0.12,nan,nan",
            ],
        ),
        ({"optimizer_eps": 2.2}, {"eta": -1.0, "margin": -1.0}, None),
    ],
)
def test_shh_numeric_fields_pinned(tmp_path, config, expected, sweep):
    # recorded from the closed form eta = 2 (alpha - eps' - eps) / (S2 M^2),
    # rounded down: alpha = 2 r min(|a|, b), S2 = 2, M = max(|a|, b) and
    # eps' = eps + 2e-12 (1 + 4 M); the margin is what is left of the rate
    # surplus at the rounded eta.  At eps = 0.12 alpha = 0.18 < 2 eps.
    config = {**SHH_INTEGRATOR, **config}
    code, record, out = _run_cli(tmp_path, "shh", config)
    assert record["numeric"] == {**expected, "optimizer_eps": config["optimizer_eps"]}
    if expected["eta"] > 0:
        assert code == EXIT_OK
    else:
        assert code == 1
        assert record["payload"]["diagnosis"] == (
            "optimizer_tolerance: u = 0 is eps-optimal at x = 0.10000000000000002 "
            "(-D(x) = 0.2 <= eps = 2.2), so V need not fall there"
        )
    if sweep is None:
        assert not (out / "sweep.csv").exists()
    else:
        assert (out / "sweep.csv").read_text().splitlines() == ["optimizer_eps,eta,margin", *sweep]


def test_shh_decides_the_bound_once_per_job(tmp_path, monkeypatch):
    # alpha and the inward sign are two Bernstein lower bounds each, taken
    # once for the sweep and the certified tolerance together
    calls = []

    def counted(*args):
        calls.append(args)
        return forms._lower_bound(*args)

    monkeypatch.setattr(stab, "_lower_bound", counted)
    config = {**SHH_INTEGRATOR, "optimizer_eps": 0.05, "sweep": [0.01, 0.02, 0.04, 0.1]}
    code, record, out = _run_cli(tmp_path, "shh", config)
    assert code == EXIT_OK and len((out / "sweep.csv").read_text().splitlines()) == 5
    assert len(calls) == 4


def test_shh_payload_reports_the_bound(tmp_path):
    config = {**SHH_INTEGRATOR, "optimizer_eps": 0.05, "sweep": [0.1]}
    code, record, _ = _run_cli(tmp_path, "shh", config)
    assert code == EXIT_OK
    assert record["payload"]["bound"] == {"alpha": 0.2, "eps_prime": 0.050000000010000004,
                                          "curvature": 2.0, "control_bound": 1.0}
    assert "bound" not in record["numeric"]
    # eps = 0.1 leaves alpha - eps' - eps < 0: undecided, with the missing margin
    code, record, _ = _run_cli(tmp_path, "shh", {**config, "optimizer_eps": 0.1})
    assert code == EXIT_UNDECIDED and record["verdict"] == "undecided"
    assert record["payload"]["diagnosis"].startswith("optimizer_tolerance")
    assert 0 < record["payload"]["bound"]["missing_margin"] < 1e-10


def test_shh_ignores_a_leftover_mesh_eps(tmp_path):
    # configs written for the node search still run, to the same numbers
    config = {**SHH_INTEGRATOR, "optimizer_eps": 0.05}
    _, plain, _ = _run_cli(tmp_path, "shh", config)
    code, record, _ = _run_cli(tmp_path, "shh", {**config, "mesh_eps": 0.05, "resolution": 0.004})
    assert code == EXIT_OK
    assert record["numeric"] == plain["numeric"]
    assert record["payload"] == plain["payload"]


def test_shh_rejects_a_state_box_without_the_annulus(tmp_path):
    # the annulus 0.1 <= |x| <= 1.5 needs [-1.5, 1.5] inside the state box
    config = {**SHH_INTEGRATOR, "state_box": [0.5, 4.5], "overshoot_radius": 1.5,
              "optimizer_eps": 0.05}
    code, _, _ = _run_cli(tmp_path, "shh", config)
    assert code == EXIT_CONFIG
    # the box ends are compared exactly: 5e-13 short of -R is short
    config = {**SHH_INTEGRATOR, "state_box": [-0.9999999999995, 2], "optimizer_eps": 0.05}
    code, _, _ = _run_cli(tmp_path, "shh", config)
    assert code == EXIT_CONFIG


def test_shh_curvature_on_the_whole_state_box(tmp_path):
    # V = x^2 + x^4 on [-1, 3]: |V''| = |2 + 12 x^2| encloses as 2 + 12 * 3^2
    config = {**SHH_INTEGRATOR, "state_box": [-1, 3], "overshoot_radius": 0.8,
              "optimizer_eps": 0.05, "V": {"form": "polynomial", "coeffs": [0, 0, 1, 0, 1]}}
    for box, curvature in (([-1, 3], 110.0), ([-3, 1], 110.0), ([-2, 2], 50.0)):
        code, record, _ = _run_cli(tmp_path, "shh", {**config, "state_box": box})
        assert code == EXIT_OK
        assert record["payload"]["bound"]["curvature"] == curvature


@pytest.mark.parametrize("error", ["InternalConsistencyError", "DomainExitError"])
def test_internal_failure_exits_70_not_the_config_code(tmp_path, monkeypatch, capsys, error):
    # a broken invariant, or a trajectory leaving its box outside the ode
    # task, is a fault of the computation, not of the config
    from certctrl import cli, core

    def fail(config, seed, out):
        raise getattr(core, error)("planted")

    monkeypatch.setitem(cli._HANDLERS, "eig", fail)
    code = main(["eig", "--config", EIG_EXAMPLE, "--out", str(tmp_path / "out")])
    assert code == EXIT_INTERNAL == 70 and code != EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"internal error: {error}: planted"]


def test_task_boxes_keep_the_config_end_points():
    from certctrl.cli import _interval

    box = _interval([-0.2, 1.8])
    assert box.lo.tolist() == [-0.2] and box.hi.tolist() == [1.8]
    assert box.contains([-0.2]) and box.contains([1.8])


@pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError, AttributeError])
def test_any_other_exception_exits_70_with_one_line(tmp_path, monkeypatch, capsys, error):
    # a failure no handler names is a fault of the computation: exit 70 and
    # one stderr line, never a traceback
    from certctrl import cli

    def fail(config, seed, out):
        raise error("planted")

    monkeypatch.setitem(cli._HANDLERS, "eig", fail)
    code = main(["eig", "--config", EIG_EXAMPLE, "--out", str(tmp_path / "out")])
    assert code == EXIT_INTERNAL
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"internal error: {error.__name__}: planted"]


@pytest.mark.parametrize("text", ["[1, 2]", "3", "\"eig\""])
def test_a_config_that_is_not_an_object_exits_64(tmp_path, text):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main(["eig", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG


@pytest.mark.parametrize("name", ["example", "quartic", "asymmetric"])
def test_shh_closed_loop_enters_the_ball_within_the_reaching_bound(tmp_path, name):
    # the demo loop stops at the first sampled state whose enclosure is in
    # |x| <= r, within N* = ceil((V(R) - min V(+-r)) / (eta (eps + margin)))
    # held steps; on the asymmetric box the old horizon of ceil(4 R / eta)
    # steps ended outside the ball
    from fractions import Fraction

    config = {
        "example": json.loads((Path(__file__).parents[1] / "examples" / "shh.json").read_text()),
        "quartic": {**SHH_INTEGRATOR, "state_box": [-1, 3], "overshoot_radius": 0.8, "optimizer_eps": 0.05,
                    "V": {"form": "polynomial", "coeffs": [0, 0, 1, 0, 1]}},
        "asymmetric": {**SHH_INTEGRATOR, "control_box": [-0.2, 1], "overshoot_radius": 0.8,
                       "target_radius": 0.15, "optimizer_eps": 0.01},
    }[name]
    code, record, out = _run_cli(tmp_path, "shh", config)
    assert code == EXIT_OK
    eta, margin, eps = (record["numeric"][k] for k in ("eta", "margin", "optimizer_eps"))
    reach = record["payload"]["reach"]
    assert set(record["numeric"]) == {"eta", "margin", "optimizer_eps"}
    V = [Fraction(c) for c in config.get("V", {"coeffs": [0, 0, 1]})["coeffs"]]
    value = lambda x: sum(c * Fraction(x) ** k for k, c in enumerate(V))
    r, R = config["target_radius"], config["overshoot_radius"]
    drop = (value(R) - min(value(r), value(-r))) / (Fraction(eta) * (Fraction(eps) + Fraction(margin)))
    assert reach["bound_steps"] == math.ceil(drop)
    assert 1 <= reach["step"] <= reach["bound_steps"]
    lines = (out / "closed_loop.csv").read_text().splitlines()[1:]
    rows = [[float(v) for v in line.split(",")] for line in lines]
    assert len(rows) == reach["step"] + 1 and rows[-1][0] == reach["time"]
    assert abs(rows[-1][1]) + rows[-1][-1] <= r
    assert all(abs(x) > r for _, x, _, _ in rows[:-1])
    expected = {"example": (6, 551), "quartic": (371, 10995), "asymmetric": (82, 1544)}[name]
    assert (reach["step"], reach["bound_steps"]) == expected
    if name == "asymmetric":
        assert reach["step"] > math.ceil(4.0 * R / eta)


def test_shh_closed_loop_that_misses_the_ball_exits_70(tmp_path, monkeypatch, capsys):
    # a feedback that holds u = 0 never lowers V: after N* steps outside
    # the ball the run contradicts the certificate, and no CSV is written
    from certctrl import stability as stab

    monkeypatch.setattr(stab, "clf_feedback", lambda problem, x, eps: (np.zeros(1), None))
    code, record, out = _run_cli(tmp_path, "shh", {**SHH_INTEGRATOR, "optimizer_eps": 0.05})
    assert code == EXIT_INTERNAL and record is None
    assert not (out / "closed_loop.csv").exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("internal error: InternalConsistencyError: ")
    assert "N* = " in err[0]


def _closed_loop_rows(out):
    with (out / "closed_loop.csv").open() as fh:
        return [[float(v) for v in line.split(",")] for line in list(fh)[1:]]


def test_shh_closed_loop_holds_each_control_for_exactly_eta(tmp_path, monkeypatch):
    # replays closed_loop.csv: row k + 1 sits at the float (k + 1) eta, and
    # the integrator's state moved by exactly eta times the control held
    # over the step, in floats; a step held for fl((k+1) eta) - fl(k eta)
    # breaks the second check
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import jobs

    configs = [json.loads((Path(__file__).parents[1] / "examples" / "shh.json").read_text())]
    for seed in (47, 101, 233):
        for r in (0, 1):
            configs += [job["config"] for job in jobs.round_jobs("closed-loop", seed, r)
                        if job["truth"]["expect"] == "certified"]
    assert len(configs) > 10
    for i, config in enumerate(configs):
        (tmp_path / str(i)).mkdir()
        code, record, out = _run_cli(tmp_path / str(i), "shh", config)
        assert code == EXIT_OK
        eta = record["numeric"]["eta"]
        rows = _closed_loop_rows(out)
        assert len(rows) == record["payload"]["reach"]["step"] + 1
        for k, ((_, x, _, _), (t1, x1, u, err)) in enumerate(zip(rows, rows[1:])):
            assert t1 == (k + 1) * eta, (i, k)
            assert x1 == x + eta * u and err == 0.0, (i, k)


def test_shh_demo_stops_at_its_step_budget(tmp_path, monkeypatch):
    # a control box 1000 wide certifies eta = 1.8e-7 and N* = 550,000,025
    # steps: the demo stops at its step budget, still writes the
    # certificate, and reach says where it stopped.  Each step builds a
    # feedback mesh of 180,000 controls, so the test lowers the budget;
    # the CI workflow runs this config at DEMO_STEPS
    import signal

    from certctrl import cli

    assert 5_239 < cli.DEMO_STEPS  # the README's eta_max = 1e-3 case runs whole
    monkeypatch.setattr(cli, "DEMO_STEPS", 100)

    def hang(signum, frame):
        raise TimeoutError("the shh demo loop outran its wall guard")

    config = {**SHH_INTEGRATOR, "control_box": [-1, 1000], "optimizer_eps": 0.01, "sweep": [0.01, 100, 0.5]}
    old = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 60.0)
    try:
        code, record, out = _run_cli(tmp_path, "shh", config)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)
    assert code == EXIT_OK and record["numeric"]["eta"] == 1.79999991998e-07
    reach = record["payload"]["reach"]
    assert reach == {"step": None, "stopped_at_step": 100, "bound_steps": 550_000_025,
                     "time": 100 * record["numeric"]["eta"]}
    rows = _closed_loop_rows(out)
    assert len(rows) == 101 and rows[-1][0] == reach["time"]
    assert all(abs(x) > config["target_radius"] for _, x, _, _ in rows)
