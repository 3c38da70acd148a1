"""Jobs of the three benchmark workloads and the checks on their outputs.

A job is one public call plus its output check.  Each job returns
``(ok, digest, detail)``: ``ok`` says whether the output passed its check and
``digest`` is a sha256 of the output, so that passes of one seed (traced or
not) can be compared with each other.

* ``catalog``: ``ring_via_sr``, ``ring_via_sd`` and ``ring_via_diff`` on each
  of the ten ``catalog.SPECS`` (30 jobs).
* ``fiber3d``: the same three builders on two 3-dimensional fibers over a
  point base, the (P^1)^3 octant fan and P^3 (6 jobs).
* ``verify``: identity suites run in-process through ``cli.main`` with
  ``--seed``.

Builder outputs are compared with the reference digest of
``serialize.dumps(serialize.report_to_dict(report))`` kept in
``reference.json``.  A suite must exit 0, end with ``RESULT: PASS`` and print
the seed-independent number of PASS lines recorded there.  The seed only
shuffles job order, except in ``verify`` where it also feeds every suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from typing import Callable, NamedTuple

WORKLOADS = ("catalog", "fiber3d", "verify")
BUILDERS = ("sr", "sd", "diff")

# (suite, spec) pairs run by the verify workload.  The ider suite is left
# out on purpose: it reruns i_f_polynomial 18 times, which would make this
# workload a second fiber3d.
VERIFY_SUITES = (
    ("bkk", "hirzebruch_1"),
    ("bkk", "p1xp1_over_p1"),
    ("bkk", "p2_rank2"),
    ("bk", "flag_sl3_p1xp1"),
    ("gz", "flag_sl3_p1xp1"),
    ("cc", "p2_toric"),
    ("cc", "f1_toric"),
    ("pbundle", "p2_rank2"),
    ("cross", "p2_rank2"),
)


class Job(NamedTuple):
    id: str
    run: Callable[[], tuple]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def octant_fan():
    """The fan of (P^1)^3: one maximal cone per octant."""
    from toricbundle.polyhedral import validate_fan

    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    cones = [(sx, sy, sz) for sx in (0, 3) for sy in (1, 4) for sz in (2, 5)]
    return validate_fan(rays, cones)


def setup(workload: str) -> dict:
    """Import the package and build the workload's specs and fans."""
    from toricbundle import catalog

    if workload == "catalog":
        return {name: make() for name, make in catalog.SPECS.items()}
    if workload == "fiber3d":
        from toricbundle.bundle import BundleSpec

        return {
            "p13_toric": BundleSpec(catalog.base_point(3), octant_fan(), "p13_toric"),
            "p3_toric": BundleSpec(
                catalog.base_point(3), catalog.fan_projective_space(3), "p3_toric"
            ),
        }
    if workload == "verify":
        import toricbundle.cli  # noqa: F401

        names = sorted({spec for _, spec in VERIFY_SUITES})
        return {name: catalog.SPECS[name]() for name in names}
    raise ValueError(f"unknown workload {workload!r}")


def _builder_job(spec, builder, reference) -> Job:
    def run():
        from toricbundle import bundle, serialize

        report = getattr(bundle, f"ring_via_{builder}")(spec)
        digest = sha256(serialize.dumps(serialize.report_to_dict(report)))
        want = reference["digests"][f"{spec.name}/{builder}"]
        return digest == want, digest, "" if digest == want else "digest mismatch"

    return Job(f"{spec.name}/{builder}", run)


def run_cli(argv) -> tuple[int, str]:
    """Run ``toricbundle <argv>`` in-process; exit code and captured stdout."""
    from toricbundle import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _suite_job(suite, spec_name, seed, reference) -> Job:
    job_id = f"{suite}/{spec_name}"

    def run():
        code, text = run_cli(
            ["verify", spec_name, "--suite", suite, "--seed", str(seed)]
        )
        lines = text.splitlines()
        passes = sum(line.startswith("PASS ") for line in lines)
        want = reference["pass_lines"][job_id]
        ok = code == 0 and lines[-1:] == ["RESULT: PASS"] and passes == want
        detail = "" if ok else f"exit {code}, {passes}/{want} PASS lines"
        return ok, sha256(text), detail

    return Job(job_id, run)


def jobs(workload: str, specs: dict, seed: int, reference: dict) -> list[Job]:
    """The workload's jobs in the order the seed gives them."""
    if workload == "verify":
        out = [_suite_job(s, n, seed, reference) for s, n in VERIFY_SUITES]
    else:
        out = [
            _builder_job(spec, b, reference)
            for spec in specs.values()
            for b in BUILDERS
        ]
    random.Random(seed).shuffle(out)
    return out
