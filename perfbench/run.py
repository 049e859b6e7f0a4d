"""certctrl benchmark: seeded job lists through the real CLI entry point.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload screen --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each job is a call of
``certctrl.cli.main(argv)`` with ``task --config FILE --seed N --out DIR``
and starts when the previous one has returned, because certctrl is a batch
tool whose callers wait for each certificate.  The job list comes from
--workload and --seed; its length from --seconds (see jobs.ROUND_SECONDS).
Every certificate is checked against the ground truth (oracle.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs the list with
spans around certctrl's public functions (tracing.py) and prints the
per-layer metrics; it also runs the first round untraced, to measure the
tracing overhead and to check that tracing leaves the numbers unchanged.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the full record (environment,
determinism digest, every failure with its cause, per-job rows) goes to
.perfbench-out/<workload>-seed<N>-trace<T>/results.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import jobs, oracle, tracing  # noqa: E402

SETUP_REPS = 9
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}


def _import_cli():
    """Import certctrl afresh, as a new process would (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "certctrl" or n.startswith("certctrl.")]:
        del sys.modules[name]
    return importlib.import_module("certctrl.cli")


def setup(workload: str, seed: int, seconds: float, work: Path):
    """Time SETUP_REPS rounds of import + job generation + config writing;
    return the last rep's cli module and job list, and every rep's time."""
    times = []
    for rep in range(SETUP_REPS):
        t0 = perf_counter()
        cli = _import_cli()
        job_list = jobs.job_list(workload, seed, seconds)
        jobs.write_configs(job_list, work / "configs" / str(rep))
        times.append(perf_counter() - t0)
    return cli, job_list, times


def run_job(main, job: dict, out_root: Path) -> dict:
    out_dir = out_root / job["id"]
    buf = io.StringIO()
    t0, c0 = perf_counter(), process_time()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = main(jobs.argv(job, out_dir))
        except (Exception, SystemExit) as exc:
            code = exc
    wall, cpu = perf_counter() - t0, process_time() - c0
    cert = out_dir / "certificate.json"
    record = json.loads(cert.read_text()) if cert.is_file() else None
    outcome = oracle.check(job, code, record, out_dir, buf.getvalue())
    written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()) if out_dir.is_dir() else 0
    shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "id": job["id"],
        "wall_s": wall,
        "cpu_s": cpu,
        "exit": code if isinstance(code, int) else repr(code),
        "verdict": record["verdict"] if record else None,
        "numeric": record["numeric"] if record else None,
        "bytes_written": written,
        **outcome.as_dict(),
    }


def run_jobs(main, job_list, out_root: Path, tracer=None) -> list[dict]:
    rows = []
    for job in job_list:
        if tracer is not None:
            tracer.job = job["id"]
        rows.append(run_job(main, job, out_root))
    return rows


def digest(rows) -> str:
    """sha256 over every job's numeric fields, in job order."""
    h = hashlib.sha256()
    for row in rows:
        h.update(f"{row['id']} {json.dumps(row['numeric'], sort_keys=True)}\n".encode())
    return h.hexdigest()


def tail(walls: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: the value
    with exactly ten larger ones.  Returns (value, percentile)."""
    s = sorted(walls)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(rows, setup_times) -> dict[str, float]:
    walls = [r["wall_s"] for r in rows]
    n = len(rows)
    return {
        "setup_s": statistics.median(setup_times),
        "certs_per_s": n / sum(walls),
        "cert_s_p50": statistics.median(walls),
        "cert_s_tail": tail(walls)[0],
        "decided_frac": sum(r["decided"] for r in rows) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_s_per_cert": sum(r["cpu_s"] for r in rows) / n,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(workload, seed, seconds) -> dict:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "certctrl").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
    }


def traced_run(cli, job_list, first_round, out_root: Path, work: Path):
    """Run the list with spans; the first round also runs untraced, each
    job side by side with its traced run (alternating which goes first),
    for the tracing overhead and the digest check."""
    tracer = tracing.Tracer()
    tracer.instrument()
    traced_main = tracer.wrap("cli.run", cli.main)
    plain, rows = [], []
    for k, job in enumerate(first_round):
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            tracer.enable(traced)
            if traced:
                rows += run_jobs(traced_main, [job], out_root, tracer)
            else:
                plain += run_jobs(cli.main, [job], out_root)
    tracer.enable(True)
    rows += run_jobs(traced_main, job_list[len(first_round):], out_root, tracer)

    metrics = tracing.layer_metrics(tracer.spans, tracer.evaluator_calls)
    traced_first = sum(r["wall_s"] for r in rows[: len(first_round)])
    plain_first = sum(r["wall_s"] for r in plain)
    metrics.update({
        "cli.bytes_written": sum(r["bytes_written"] for r in rows),
        "trace.overhead_s": traced_first - plain_first,
        "trace.overhead_frac": (traced_first - plain_first) / plain_first,
        "trace.accounted_frac": tracing.layer_self_total(metrics) / sum(r["wall_s"] for r in rows),
        "trace.spans": len(tracer.spans),
        "oracle.failed_frac": sum(r["failed"] for r in rows) / len(rows),
    })
    checks = []
    if digest(plain) != digest(rows[: len(first_round)]):
        checks.append("traced and untraced runs of the first round gave different numeric fields")
    if abs(metrics["trace.accounted_frac"] - 1.0) > 0.05:
        checks.append(f"layer self times cover {metrics['trace.accounted_frac']:.3f} of the job wall-clock")
    with (work / "spans.csv").open("w") as fh:
        fh.write("name,start,end,parent,job,error\n")
        for s in tracer.spans:
            fh.write(f"{s[0]},{s[1]!r},{s[2]!r},{s[3]},{s[4]},{int(s[6])}\n")
    return rows, metrics, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "certctrl" / "cli.py").is_file():
        print(f"perfbench: no certctrl source at {SRC / 'certctrl'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    out_root = work / "out"

    cli, job_list, setup_times = setup(args.workload, args.seed, args.seconds, work)
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: certctrl imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        first_round = [j for j in job_list if j["id"].startswith(f"{args.workload}-r000-")]
        rows, metrics, checks = traced_run(cli, job_list, first_round, out_root, work)
    else:
        rows = run_jobs(cli.main, job_list, out_root)
        metrics, checks = end_to_end(rows, setup_times), []
    declared = [m["name"] for m in DECLARED["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(declared):
        checks.append("the metrics differ from those BENCHMARK.json declares")

    _, tail_pct = tail([r["wall_s"] for r in rows])
    failures = [{"id": r["id"], "unsound": r["unsound"], "cause": r["cause"]} for r in rows if r["failed"]]
    unsound = [f for f in failures if f["unsound"]]
    if unsound:
        checks.append(f"{len(unsound)} certificates contradict the ground truth")
    result = {
        "environment": environment(args.workload, args.seed, args.seconds),
        "digest": digest(rows),
        "samples": len(rows),
        "tail_percentile": tail_pct,
        "setup_times_s": setup_times,
        "failed_frac": len(failures) / len(rows),
        "failures": failures,
        "check_errors": checks,
        "metrics": {k: {"value": v, "unit": UNITS.get(k, "")} for k, v in metrics.items()},
        "rows": rows,
    }
    (work / "results.json").write_text(json.dumps(result, indent=1, default=str))

    for f in failures:
        print(f"failed {f['id']}: {f['cause']}")
    for c in checks:
        print(f"check: {c}")
    print(f"{args.workload} seed={args.seed}: {len(rows)} jobs, {len(failures)} failed, "
          f"tail = p{tail_pct:.1f} of {len(rows)}, digest {result['digest'][:16]}")
    for k, v in metrics.items():
        print(f"  {k:48s} {v:.6g} {UNITS.get(k, '')}")
    print(json.dumps({
        "correct": not checks,
        "attempted": len(rows),
        "failed": len(failures),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
