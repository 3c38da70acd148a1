"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench/tests``."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import passrun  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

# specs whose three rings build in well under a second together
SMALL = ("p1_toric/", "p2_toric/", "hirzebruch_1/", "flag_sl2_p1/")


def keep_jobs(monkeypatch, keep):
    """Cut every workload down to the jobs that ``keep`` accepts."""
    jobs = passrun.workloads.jobs

    def some_jobs(*args):
        return [job for job in jobs(*args) if keep(job)]

    monkeypatch.setattr(passrun.workloads, "jobs", some_jobs)


def small(job):
    return job.id.startswith(SMALL)


def test_every_wrapped_name_resolves():
    for name in spans.WRAPPED:
        assert spans.resolve(name) is not None, name


def test_install_rebinds_every_importing_namespace():
    from toricbundle import bundle, exactlin, galg

    originals = (bundle.sd_quotient, bundle.rref, galg.GradedAlgebra.multiply)
    rec = spans.Recorder()
    rec.install()
    try:
        assert rec.absent == []
        assert bundle.sd_quotient is galg.sd_quotient
        assert bundle.sd_quotient is not originals[0]
        assert bundle.rref is exactlin.rref is galg.rref
        assert bundle.rref is not originals[1]
        assert galg.GradedAlgebra.multiply is not originals[2]
    finally:
        rec.uninstall()
    assert (bundle.sd_quotient, bundle.rref, galg.GradedAlgebra.multiply) == originals


def test_missing_name_is_reported_absent(monkeypatch):
    gone = ("galg.no_such_function", "galg.NoSuchClass.project", "nomodule.f")
    monkeypatch.setattr(spans, "WRAPPED", spans.WRAPPED + gone)
    rec = spans.Recorder()
    rec.install()
    rec.uninstall()
    assert rec.absent == list(gone)


def test_traced_and_untraced_passes_give_identical_digests(monkeypatch):
    keep_jobs(monkeypatch, small)
    plain = passrun.run_pass("catalog", 3)
    traced = passrun.run_pass("catalog", 3, trace=True)
    digests = {job[0]: job[3] for job in plain["jobs"]}
    assert digests == {job[0]: job[3] for job in traced["jobs"]}
    assert run.count_failures([plain, traced])[1] == 0
    assert traced["layers"]["bundle.ring_via_sr.calls"] == 4
    assert traced["unsummarised"] == {}
    assert set(traced["layers"]) == {name for name, _ in spans.layer_metric_names()}


def test_failed_summary_leaves_its_metrics_out(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("signature changed")

    monkeypatch.setitem(spans.HOOKS, spans.RREF, broken)
    keep_jobs(monkeypatch, lambda job: job.id == "p2_toric/sr")
    traced = passrun.run_pass("catalog", 1, trace=True)
    calls = traced["layers"]["exactlin.rref.calls"]
    assert calls > 0
    assert traced["unsummarised"] == {spans.RREF: calls}
    assert "exactlin.rref.cells" not in traced["layers"]
    assert "exactlin.rref.ops" not in traced["layers"]
    assert "exactlin.rref.ops" not in traced["bases"]
    assert "integrate.i_f_polynomial.repeat_ratio" in traced["layers"]
    assert run.count_failures([traced])[1] == 0


def test_pass_records_the_kernel_backend(monkeypatch):
    import toricbundle

    keep_jobs(monkeypatch, lambda job: job.id == "p1_toric/sr")
    result = passrun.run_pass("catalog", 1)
    assert result["kernel_backend"] == toricbundle.kernel_backend


def test_host_clock_scales_by_mean_speed():
    clock = hostclock.HostClock()
    ref = hostclock.PROBE_REF_S
    clock.samples = [ref, 2 * ref]  # full speed, then half speed
    assert clock.speed() == pytest.approx(0.75)
    assert clock.to_reference(4.0) == pytest.approx(3.0)


def test_pass_samples_the_host_and_leaves_no_timer(monkeypatch):
    import signal

    keep_jobs(monkeypatch, small)
    result = passrun.run_pass("catalog", 2)
    assert result["probe_samples"] >= 1
    assert result["norm_wall_s"] == pytest.approx(result["wall_s"] * result["host_speed"])
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_verify_jobs_are_stable_under_tracing(monkeypatch):
    keep = {"gz/flag_sl3_p1xp1", "pbundle/p2_rank2", "bkk/hirzebruch_1"}
    keep_jobs(monkeypatch, lambda job: job.id in keep)
    plain = passrun.run_pass("verify", 5)
    traced = passrun.run_pass("verify", 5, trace=True)
    attempted, failed, why = run.count_failures([plain, traced])
    assert (attempted, failed) == (6, 0), why
    assert traced["layers"]["cli.main.calls"] == 3


def test_wrong_top_functional_counts_as_failure(monkeypatch):
    from toricbundle import bundle

    honest = bundle.ring_via_sr

    def doubled(spec):
        rep = honest(spec)
        return dataclasses.replace(rep, functional=rep.functional.scale(2))

    monkeypatch.setattr(bundle, "ring_via_sr", doubled)
    keep_jobs(monkeypatch, small)
    result = passrun.run_pass("catalog", 1)
    attempted, failed, why = run.count_failures([result])
    assert failed / attempted > 0
    assert all(line.endswith("/sr: digest mismatch") for line in why)


def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END
    )
    layers = spans.layer_metric_names() + [("trace_overhead_ratio", "ratio")]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", run.workloads.WORKLOADS)
def test_setup_builds_the_workload(workload):
    assert passrun.workloads.setup(workload)
