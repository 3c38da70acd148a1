"""Benchmark entry point: closed-loop passes of one workload.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 40 --trace 0

One client, one job at a time, no threads.  Every pass runs in a fresh
interpreter (``passrun.py``), as a CLI user's commands do, so a module-level
cache pays off only where inputs repeat within a pass, and each pass gives
one set-up sample.  Passes start while the next one is expected to end
within ``--seconds``; at least one pass always runs.  Set-up-only
interpreters, a few before the first pass and a few after each pass, add
set-up samples spread over the whole run, so that one slow or fast stretch of
the host does not set their median.

``--trace 0`` reports the end-to-end metrics, each a median:
``norm_wall_s`` over the untraced passes (the summed time of a pass's jobs,
each a call plus its output check, in reference-host seconds: scaled by the
host speed sampled all through the pass, see ``hostclock.py``, because the
shared host runs the same pass up to 1.5x slower or faster for stretches of
seconds to minutes), ``setup_s`` over every interpreter of the run (in
reference-host seconds too) and ``peak_rss_mb`` over the untraced passes.  ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics of the traced ones
(``spans.py``) plus the tracing overhead.

Every job's output is checked (see ``workloads.py``); a job fails when its
check fails or its digest differs between passes of the same seed.  Above
the result the run prints the sample counts, every pass's time and
``fail_ratio = failed/attempted`` and the row-reduction kernel that ran,
with a warning when it is not the one ``baseline.json`` was recorded with.
The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every pass's job records and the traced passes' spans are
written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_FIRST = 2  # set-up-only interpreters before the first pass
SETUP_PER_PASS = 4  # set-up-only interpreters after each pass
RUN_LIMIT_S = 170  # a run must end within 180 s even if a pass hangs

END_TO_END = (
    ("norm_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class PassError(RuntimeError):
    """A pass interpreter exited abnormally: the checkout cannot run."""


def child(workload, seed, deadline, trace=False, setup_only=False, spans_path=None):
    """Run passrun.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload]
    if setup_only:
        cmd.append("--setup-only")
    else:
        cmd += ["--seed", str(seed)]
        if trace:
            cmd.append("--trace")
        if spans_path:
            cmd += ["--spans", str(spans_path)]
    timeout = max(deadline - perf_counter(), 1.0)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"run exceeded {RUN_LIMIT_S} s") from exc
    if proc.returncode != 0:
        raise PassError(proc.stderr.strip()[-2000:] or f"exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def count_failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted jobs, failed jobs and why, over every pass of one seed.

    A job fails when its own check fails, or when its digest differs from
    the one the job gave in the first pass (traced or not).
    """
    first: dict[str, str] = {}
    attempted = failed = 0
    why = []
    for result in passes:
        for job_id, _, ok, digest, detail in result["jobs"]:
            attempted += 1
            expected = first.setdefault(job_id, digest)
            if ok and digest != expected:
                ok, detail = False, "digest differs between passes"
            if not ok:
                failed += 1
                why.append(f"{job_id}: {detail}")
    return attempted, failed, why


def run(workload, seed, seconds, trace) -> tuple[dict, list[str]]:
    deadline = perf_counter() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)

    def setup_children(n):
        return [child(workload, seed, deadline, setup_only=True) for _ in range(n)]

    setup_children(1)  # fills the bytecode caches
    setup_runs = setup_children(SETUP_FIRST)
    plain, traced = [], []
    order = (False, True) if trace else (False,)
    start, longest = perf_counter(), 0.0
    while True:
        traced_pass = order[(len(plain) + len(traced)) % len(order)]
        t0 = perf_counter()
        if traced_pass:
            path = OUT / f"spans-{workload}-seed{seed}-{len(traced)}.jsonl"
            traced.append(child(workload, seed, deadline, trace=True, spans_path=path))
        else:
            plain.append(child(workload, seed, deadline))
        setup_runs += setup_children(SETUP_PER_PASS)
        longest = max(longest, perf_counter() - t0)
        enough = len(plain) + len(traced) >= len(order)
        if enough and perf_counter() - start + longest > seconds:
            break
    setups = [r["setup_s"] for r in setup_runs + plain + traced]
    with open(OUT / f"passes-{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({"untraced": plain, "traced": traced, "setup": setup_runs}, fh)
    attempted, failed, why = count_failures(plain + traced)
    notes = [
        f"workload {workload}, seed {seed}: {len(plain)} untraced and "
        f"{len(traced)} traced passes, {len(setups)} set-up samples",
        "wall_s per untraced pass: " + " ".join(f"{r['wall_s']:.3f}" for r in plain),
        "norm_wall_s per untraced pass: "
        + " ".join(f"{r['norm_wall_s']:.3f}" for r in plain),
        "host speed per untraced pass: "
        + " ".join(f"{r['host_speed']:.3f}" for r in plain),
        f"fail_ratio = {failed}/{attempted}",
    ] + [f"FAILED {line}" for line in why]
    kernels = sorted({r["kernel_backend"] for r in plain + traced})
    notes.append("row-reduction kernel: " + ", ".join(kernels))
    with open(HERE / "baseline.json") as fh:
        recorded = json.load(fh)["kernel_backend"]
    if kernels != [recorded]:
        notes.append(
            f"WARNING: baseline.json was recorded with the {recorded} kernel; "
            "these figures do not compare with it"
        )

    median = statistics.median
    if trace:
        units = {
            name: unit
            for name, unit in spans.layer_metric_names()
            if all(name in r["layers"] for r in traced)
        }
        values = {name: median([r["layers"][name] for r in traced]) for name in units}
        units["trace_overhead_ratio"] = "ratio"
        values["trace_overhead_ratio"] = median([r["norm_wall_s"] for r in traced]) / median(
            [r["norm_wall_s"] for r in plain]
        )
        for metric, (top, bottom) in traced[-1]["bases"].items():
            notes.append(f"{metric} = {top}/{bottom}")
        if traced[-1]["absent"]:
            notes.append("absent from the package: " + ", ".join(traced[-1]["absent"]))
        unsummarised = Counter()
        for r in traced:
            unsummarised.update(r["unsummarised"])
        for name, count in unsummarised.items():
            notes.append(
                f"no argument summary for {count} calls to {name}; left out: "
                + ", ".join(spans.SUMMARY_METRICS[name])
            )
    else:
        units = dict(END_TO_END)
        values = {
            "norm_wall_s": median([r["norm_wall_s"] for r in plain]),
            "setup_s": median(setups),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return summary, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "toricbundle" / "__init__.py").is_file():
        print(f"error: no toricbundle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        summary, notes = run(args.workload, args.seed, args.seconds, args.trace)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    for name, metric in summary["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
