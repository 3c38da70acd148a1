"""One pass of a workload, meant to run in a fresh interpreter.

    python3 perfbench/passrun.py --workload catalog --seed 1 [--trace] [--spans FILE]
    python3 perfbench/passrun.py --workload catalog --setup-only

Prints one JSON object as its last line: the set-up time (importing
``toricbundle`` and building the workload's specs and fans, in reference-host
seconds, see ``hostclock.py``), the pass's wall
time (the sum of its job times, each a call plus its check), the same time in
reference-host seconds (``norm_wall_s``, see ``hostclock.py``) with the host
speed it was scaled by, every job's time, verdict and output digest, the
row-reduction kernel that ran
(``toricbundle.kernel_backend``), the peak RSS, and with ``--trace`` the
per-layer metrics of ``spans.Recorder``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
for entry in (str(SRC), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import hostclock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def run_jobs(job_list, clock, recorder=None) -> list:
    """Run every job in order; one record per job.

    A full collection before each job, outside its timed region, starts every
    job from the same collector state, so its time does not depend on which
    jobs the seed put before it.  The time ``clock`` spends sampling during a
    job is taken out of the job's time.
    """
    records = []
    for job in job_list:
        if recorder is not None:
            recorder.job = job.id
        gc.collect()
        spent = clock.spent
        t0 = perf_counter()
        try:
            ok, digest, detail = job.run()
        except Exception as exc:  # a job that raises is a failed job
            ok, digest, detail = False, "", f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0 - (clock.spent - spent)
        records.append([job.id, elapsed, ok, digest, detail])
    return records


def timed_setup(workload) -> tuple[dict, float]:
    """Set up the workload; its specs and the set-up time in reference-host seconds."""
    clock = hostclock.HostClock(hostclock.SETUP_INTERVAL_S)
    clock.start()
    try:
        t0 = perf_counter()
        specs = workloads.setup(workload)
        elapsed = perf_counter() - t0 - clock.spent
    finally:
        clock.stop()
    return specs, clock.to_reference(elapsed)


def run_pass(workload, seed, trace=False, spans_path=None) -> dict:
    """Set up, run and check one pass."""
    specs, setup_s = timed_setup(workload)
    job_list = workloads.jobs(workload, specs, seed, load_reference())
    import toricbundle

    result = {
        "setup_s": setup_s,
        "traced": trace,
        "kernel_backend": toricbundle.kernel_backend,
    }
    recorder = None
    if trace:
        recorder = spans.Recorder()
        recorder.install()
    clock = hostclock.HostClock()
    clock.start()
    try:
        result["jobs"] = run_jobs(job_list, clock, recorder)
    finally:
        clock.stop()
        if recorder is not None:
            recorder.uninstall()
    result["wall_s"] = sum(record[1] for record in result["jobs"])
    result["norm_wall_s"] = clock.to_reference(result["wall_s"])
    result["host_speed"] = clock.speed()
    result["probe_samples"] = len(clock.samples)
    if recorder is not None:
        result["layers"], result["bases"] = recorder.metrics()
        result["absent"] = recorder.absent
        result["unsummarised"] = recorder.unsummarised
        if spans_path:
            recorder.dump(spans_path)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced pass's spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.setup_only:
        result = {"setup_s": timed_setup(args.workload)[1]}
    else:
        result = run_pass(args.workload, args.seed, args.trace, args.spans)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
