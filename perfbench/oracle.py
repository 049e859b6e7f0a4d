"""Ground-truth checks of certctrl certificates, made from outside the
program with the labels the job generator attached.

``check`` sorts every job into one of:

- passed: the certificate holds and agrees with the ground truth;
- failed, unsound: a decided verdict contradicts the ground truth, or a
  number the certificate claims (bracket, error bound, margin, monotone
  sweep, exit code) does not hold;
- failed, not unsound: the job raised, exited 64 on a valid config, or
  claimed ``achieved=1`` while returning fewer eigenpairs than the
  dimension.  These are robustness and completeness defects; the answer
  given, if any, is not wrong.

``undecided`` is honest: it is neither a failure nor decided.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

VERDICT_EXIT = {
    "certified": 0, "success": 0, "stable": 0,
    "counterexample": 1, "failure": 1, "unstable": 1,
    "undecided": 2,
}


class Outcome:
    def __init__(self):
        self.cause = None
        self.unsound = False
        self.decided = False

    @property
    def failed(self) -> bool:
        return self.cause is not None

    def fail(self, cause: str, unsound: bool = True) -> "Outcome":
        if self.cause is None:
            self.cause, self.unsound = cause, unsound
        return self

    def as_dict(self) -> dict:
        return {"failed": self.failed, "unsound": self.unsound, "decided": self.decided, "cause": self.cause}


def check(job: dict, code, record, out_dir: Path, stderr: str) -> Outcome:
    """Classify one finished job.  ``code`` is main()'s return value, or the
    exception it raised; ``record`` is certificate.json, or None."""
    out = Outcome()
    if isinstance(code, BaseException):
        return out.fail(f"raised {type(code).__name__}: {code}", unsound=False)
    if code == 64:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return out.fail(f"exit 64 on a valid config: {last}", unsound=False)
    if record is None:
        return out.fail(f"exit {code} without a certificate")
    verdict = record["verdict"]
    if VERDICT_EXIT.get(verdict) != code:
        return out.fail(f"exit {code} for verdict {verdict}")
    try:
        _CHECKS[job["task"]](job["truth"], job["config"], verdict, record["numeric"],
                             record.get("payload", {}), out_dir, out)
    except (OSError, LookupError, TypeError, ValueError) as exc:
        out.fail(f"certificate or data file unreadable: {type(exc).__name__}: {exc}")
    return out


def _expect(out: Outcome, verdict: str, expect: str) -> bool:
    """Decided verdicts must match; True when the verdict is the expected one."""
    if verdict != "undecided" and verdict != expect:
        out.fail(f"verdict {verdict}, ground truth {expect}")
    return verdict == expect


def _check_eig(truth, config, verdict, num, payload, out_dir, out):
    kind, n, max_re = truth["kind"], truth["n"], truth["max_re"]
    if kind == "boundary":
        if verdict != "undecided":
            out.fail(f"verdict {verdict} on a boundary matrix (max real part 0)")
    else:
        out.decided = _expect(out, verdict, kind)
    hi = num["max_real_part"] + num["margin_radius"]
    lo = num["max_real_part"] - num["margin_radius"]
    if verdict == "stable" and max_re > hi:
        out.fail(f"stable margin bound {hi!r} below the true max real part {max_re!r}")
    if verdict == "unstable" and max_re < lo:
        out.fail(f"unstable margin bound {lo!r} above the true max real part {max_re!r}")
    if num["achieved"] == 1 and num["max_residual"] > num["eps"]:
        out.fail(f"achieved=1 with residual {num['max_residual']!r} > eps")
    if num["achieved"] == 1 and num["n_pairs"] < n:
        out.fail(f"achieved=1 with {num['n_pairs']} of {n} eigenpairs", unsound=False)
    out.decided = out.decided and not out.failed


def _poly(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _check_certify(truth, config, verdict, num, payload, out_dir, out):
    ok = _expect(out, verdict, truth["expect"])
    if verdict == "certified":
        for key in ("sandwich_margin", "decay_margin", "growth_margin"):
            if not num[key] > 0:
                out.fail(f"certified with {key} {num[key]!r}")
        if not 0 < num["x0_level"] <= truth["w1_on_sphere"]:
            out.fail(f"invariant level {num['x0_level']!r} outside (0, min w1 on the sphere]")
    if verdict == "counterexample":
        ce = payload.get("counterexample", {})
        if ce.get("check") != "decay":
            out.fail(f"counterexample in check {ce.get('check')!r}, which holds by construction")
        else:
            x = ce["point"][0]
            f = _poly(config["dynamics"]["coeffs"], x)
            w3 = _poly([0.0] + config["w3"]["coeffs"], abs(x))
            if not 2.0 * x * f + w3 > 0:
                out.fail(f"decay counterexample at x={x!r} does not violate decay")
    out.decided = ok and not out.failed


def _check_ode(truth, config, verdict, num, payload, out_dir, out):
    ok = _expect(out, verdict, "certified")
    gap = abs(num["endpoint"] - truth["endpoint"])
    # the closed form itself carries a few ulps of rounding
    if gap > num["error_bound"] + 8 * math.ulp(abs(truth["endpoint"])):
        out.fail(f"|endpoint - closed form| = {gap!r} > error_bound {num['error_bound']!r}")
    out.decided = ok and not out.failed


def _check_danskin(truth, config, verdict, num, payload, out_dir, out):
    ok = _expect(out, verdict, "certified")
    gap = abs(num["derivative"] - truth["derivative"])
    if gap > num["delta"] + num["radius"]:
        out.fail(f"|derivative - analytic| = {gap!r} > delta + radius")
    out.decided = ok and not out.failed


def _check_evt(truth, config, verdict, num, payload, out_dir, out):
    ok = _expect(out, verdict, "certified")
    if not num["value"] - num["radius"] <= truth["inf"] <= num["value"] + num["radius"]:
        out.fail(f"[{num['value'] - num['radius']!r}, {num['value'] + num['radius']!r}] misses the infimum {truth['inf']}")
    out.decided = ok and not out.failed


def _check_selector(truth, config, verdict, num, payload, out_dir, out):
    ok = _expect(out, verdict, "certified")
    eps = num["eps"]
    if num["proper"] != 1 or num["max_distance"] > eps:
        out.fail(f"proper={num['proper']}, max_distance {num['max_distance']!r} > eps")
    blocks = config["domain_blocks"]
    with (out_dir / payload["selector_file"]).open() as fh:
        for row in csv.DictReader(fh):
            x = (float(row["lo"]) + float(row["hi"])) / 2.0
            i = next((k for k, (a, b) in enumerate(blocks) if a <= x <= b), None)
            if i is None:
                out.fail(f"selector piece at x={x!r} lies outside the domain")
                break
            dist = min(
                max(0.0, _poly(ch["alpha"]["coeffs"], x) - float(row["value"]),
                    float(row["value"]) - _poly(ch["beta"]["coeffs"], x))
                for ch in config["chunks"][i]
            )
            if dist > eps + 1e-9:
                out.fail(f"selector value {row['value']} at x={x!r} is {dist!r} from F(x)")
                break
    out.decided = ok and not out.failed


def _check_audit(truth, config, verdict, num, payload, out_dir, out):
    ok = _expect(out, verdict, "certified")
    # sup |p| over the unit-Lipschitz class has infimum 0
    if not num["evt_value"] - num["evt_radius"] <= 0.0 <= num["evt_value"] + num["evt_radius"]:
        out.fail("audit EVT bracket misses the infimum 0")
    if num["ode_endpoint_error"] > num["ode_error_bound"]:
        out.fail("audit ODE error exceeds its bound")
    out.decided = ok and not out.failed


def _check_shh(truth, config, verdict, num, payload, out_dir, out):
    ok = _expect(out, verdict, truth["expect"])
    if verdict == "failure" and "diagnosis" in truth:
        if not payload.get("diagnosis", "").startswith(truth["diagnosis"]):
            out.fail(f"diagnosis {payload.get('diagnosis', '')[:40]!r}, expected {truth['diagnosis']}")
    if verdict == "certified" and not (0 < num["eta"] <= config["eta_max"] and num["margin"] >= 0):
        out.fail(f"certified with eta {num['eta']!r}, margin {num['margin']!r}")
    if "sweep_file" in payload:
        with (out_dir / payload["sweep_file"]).open() as fh:
            rows = [(float(r["optimizer_eps"]), float(r["eta"])) for r in csv.DictReader(fh)]
        etas = [0.0 if math.isnan(eta) else eta for _, eta in sorted(rows)]
        if any(b > a for a, b in zip(etas, etas[1:])):
            out.fail(f"certified eta increases within the sweep: {etas}")
    out.decided = ok and not out.failed


_CHECKS = {
    "eig": _check_eig,
    "certify": _check_certify,
    "ode": _check_ode,
    "danskin": _check_danskin,
    "evt-min": _check_evt,
    "selector": _check_selector,
    "audit": _check_audit,
    "shh": _check_shh,
}
