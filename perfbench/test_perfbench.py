"""Tests of the benchmark itself: job generation, the oracle and the
self-time arithmetic.  None of them runs certctrl."""

import json

import pytest

from perfbench import jobs, oracle, run, tracing


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_configs_other_seed_other_configs(workload):
    def configs(seed):
        return json.dumps([(j["id"], j["seed"], j["config"], j["truth"]) for j in jobs.job_list(workload, seed, 10)])

    assert configs(7) == configs(7)
    assert configs(7) != configs(8)


def test_longer_run_extends_the_job_list():
    short, long_ = jobs.job_list("screen", 3, 10), jobs.job_list("screen", 3, 40)
    assert len(long_) > len(short)
    assert [j["config"] for j in long_[: len(short)]] == [j["config"] for j in short]


def test_written_configs_round_trip(tmp_path):
    job_list = jobs.job_list("synthesis", 1, 10)
    jobs.write_configs(job_list, tmp_path)
    for job in job_list:
        if job["config"] is None:
            assert "--config" not in jobs.argv(job, tmp_path / "out")
        else:
            assert json.loads(open(job["config_file"]).read()) == job["config"]


def _eig_job(kind="stable", n=4, max_re=-1.0):
    return {"task": "eig", "config": {}, "truth": {"kind": kind, "n": n, "max_re": max_re}}


def _eig_record(verdict, n_pairs=4, achieved=1, max_real_part=-1.0, radius=1e-9):
    numeric = {"eps": 1e-8, "max_real_part": max_real_part, "margin_radius": radius,
               "n_pairs": n_pairs, "max_residual": 1e-12, "achieved": achieved}
    return {"verdict": verdict, "numeric": numeric, "payload": {}}


def _check(job, code, record, tmp_path, stderr=""):
    return oracle.check(job, code, record, tmp_path, stderr)


def test_oracle_passes_a_correct_eig_certificate(tmp_path):
    out = _check(_eig_job(), 0, _eig_record("stable"), tmp_path)
    assert not out.failed and out.decided


def test_oracle_counts_a_planted_wrong_verdict(tmp_path):
    out = _check(_eig_job("boundary", max_re=0.0), 0, _eig_record("stable", max_real_part=-0.1), tmp_path)
    assert out.failed and out.unsound and not out.decided
    out = _check(_eig_job("unstable", max_re=0.7), 0, _eig_record("stable"), tmp_path)
    assert out.failed and out.unsound


def test_oracle_undecided_is_honest(tmp_path):
    out = _check(_eig_job("boundary", max_re=0.0), 2, _eig_record("undecided", max_real_part=0.0), tmp_path)
    assert not out.failed and not out.decided


def test_oracle_counts_missing_eigenpairs_and_exit_64(tmp_path):
    out = _check(_eig_job(n=12), 2, _eig_record("undecided", n_pairs=1), tmp_path)
    assert out.failed and not out.unsound and "1 of 12" in out.cause
    out = _check(_eig_job(n=32), 64, None, tmp_path, "config error: value must be finite\n")
    assert out.failed and not out.unsound and "exit 64" in out.cause
    out = _check(_eig_job(), ValueError("boom"), None, tmp_path)
    assert out.failed and "raised ValueError" in out.cause


def test_oracle_counts_a_planted_bad_bracket(tmp_path):
    job = {"task": "evt-min", "config": {}, "truth": {"inf": -1.0}}
    good = {"verdict": "certified", "numeric": {"value": -0.9, "radius": 0.2}, "payload": {}}
    bad = {"verdict": "certified", "numeric": {"value": -0.5, "radius": 0.2}, "payload": {}}
    assert not _check(job, 0, good, tmp_path).failed
    out = _check(job, 0, bad, tmp_path)
    assert out.failed and out.unsound and "misses the infimum" in out.cause


def test_oracle_checks_ode_bound_and_exit_code(tmp_path):
    job = {"task": "ode", "config": {}, "truth": {"endpoint": 1.0}}
    record = {"verdict": "certified", "numeric": {"endpoint": 1.0 + 2e-6, "error_bound": 1e-6}, "payload": {}}
    assert _check(job, 0, record, tmp_path).unsound
    record["numeric"]["error_bound"] = 3e-6
    assert not _check(job, 0, record, tmp_path).failed
    assert _check(job, 2, record, tmp_path).unsound


def test_oracle_checks_the_sweep_is_monotone(tmp_path):
    job = {"task": "shh", "config": {"eta_max": 1.0}, "truth": {"expect": "certified"}}
    record = {"verdict": "certified", "numeric": {"eta": 0.3, "margin": 0.1},
              "payload": {"sweep_file": "sweep.csv"}}
    (tmp_path / "sweep.csv").write_text("optimizer_eps,eta,margin\n0.01,0.4,0.1\n0.05,0.3,0.1\n0.2,nan,nan\n")
    assert not _check(job, 0, record, tmp_path).failed
    (tmp_path / "sweep.csv").write_text("optimizer_eps,eta,margin\n0.01,0.3,0.1\n0.05,0.4,0.1\n")
    assert _check(job, 0, record, tmp_path).unsound


def _span(name, start, end, parent, job="j", info=None):
    return [name, start, end, parent, job, info, False]


def test_self_time_is_duration_minus_child_cover():
    spans = [
        _span("cli.run", 0.0, 10.0, -1),
        _span("stability.find_sampling_time", 1.0, 7.0, 0),
        _span("trajectories.picard_solve", 2.0, 3.0, 1),
        _span("trajectories.picard_solve", 4.0, 6.5, 1),
        _span("core.build_mesh", 8.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 2.5, 1.0])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a", 0.0, 10.0, -1), _span("b", 1.0, 5.0, 0), _span("c", 3.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_metrics_on_a_synthetic_tree():
    box_key = ((0.0,), 2.0, 0.1, None)
    spans = [
        _span("cli.run", 0.0, 10.0, -1, "j1"),
        _span("stability.find_sampling_time", 1.0, 7.0, 0, "j1"),
        _span("trajectories.picard_solve", 2.0, 3.0, 1, "j1", 5),
        _span("core.build_mesh", 3.0, 4.0, 1, "j1", (10, box_key)),
        _span("core.build_mesh", 4.0, 6.0, 1, "j1", (10, box_key)),
        _span("cli.run", 10.0, 12.0, -1, "j2"),
        _span("core.build_mesh", 10.5, 11.5, 5, "j2", (10, box_key)),
    ]
    m = tracing.layer_metrics(spans, evaluator_calls=0)
    assert m["core.build_mesh.calls"] == 3
    assert m["core.build_mesh.repeat_frac"] == pytest.approx(1 / 3)
    assert m["core.build_mesh.nodes_per_s"] == pytest.approx(30 / 4.0)
    assert m["stability.find_sampling_time.node_intervals"] == 1
    assert m["stability.node_intervals_per_s"] == pytest.approx(1 / 6.0)
    assert m["cli.run.self_s"] == pytest.approx(4.0 + 1.0)
    assert tracing.layer_self_total(m) == pytest.approx(12.0)


def test_tail_has_ten_samples_beyond_it():
    walls = [float(i) for i in range(100)]
    value, pct = run.tail(walls)
    assert sum(w > value for w in walls) == 10 and pct == 90.0
