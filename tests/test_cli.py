"""Command-line interface: commands, exit-code contract, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricbundle
from toricbundle import galg
from toricbundle.catalog import SPECS
from toricbundle.cli import main
from toricbundle.serialize import spec_to_dict


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fan_check_catalog(capsys):
    code, out, _ = run(capsys, "fan", "check", "p2")
    assert code == 0
    assert "smooth:     yes" in out
    assert "projective: yes" in out and "witness" in out


def test_fan_check_incomplete(capsys, tmp_path):
    path = tmp_path / "quadrant.json"
    path.write_text(json.dumps({"rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}))
    code, out, _ = run(capsys, "fan", "check", str(path))
    assert code == 0
    assert "complete:   no" in out


def test_fan_check_invalid_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rays": [[2, 0], [0, 1]], "max_cones": [[0, 1]]}))
    code, _, _ = run(capsys, "fan", "check", str(path))
    assert code == 2


def test_ring_builders(capsys):
    for builder, dims in (("sr", [1, 1, 1]), ("sd", [1, 1, 1]), ("diff", [1, 1, 1])):
        code, out, _ = run(
            capsys, "ring", "p2_toric", "--builder", builder, "--json"
        )
        assert code == 0
        assert json.loads(out)["graded_dims"] == dims


def test_ring_hirzebruch_dims(capsys):
    code, out, _ = run(capsys, "ring", "hirzebruch_1", "--builder", "sr", "--json")
    assert code == 0
    assert json.loads(out)["graded_dims"] == [1, 2, 1]


def test_ring_diff_precondition_exit_3(capsys, tmp_path):
    # base with degree-4 class not generated in degree 2: K3-like surface
    # algebra Q[1, t] with t in degree 4 is not Poincare over degree 2 -- use
    # a valid but not degree-2-generated base: dims (1, 0, 1) fails duality,
    # so instead corrupt the chern degree to trip a precondition
    spec = spec_to_dict(SPECS["hirzebruch_1"]())
    spec["base"]["chern"] = [[[1, 1, "H*x?"]]]
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "ring", str(path), "--builder", "sr")
    assert code == 3


def test_verify_suites_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "hirzebruch_1", "--suite", "bkk", "--seed", "3",
        "--count", "2",
    )
    assert code == 0
    assert "RESULT: PASS" in out
    code, out, _ = run(capsys, "verify", "p2_toric", "--suite", "cross")
    assert code == 0


def test_verify_seed_determinism(capsys):
    args = ("verify", "hirzebruch_1", "--suite", "bkk", "--seed", "11")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    _, out3, _ = run(capsys, "verify", "hirzebruch_1", "--suite", "bkk",
                     "--seed", "12")
    assert out1 != out3


def test_verify_bk_requires_flag_spec(capsys):
    code, _, err = run(capsys, "verify", "p2_toric", "--suite", "bk")
    assert code == 3


@pytest.mark.parametrize(
    "spec, suite, count",
    [
        ("p2_toric", "bkk", "0"),
        ("p2_toric", "cc", "0"),
        ("flag_sl3_p1xp1", "gz", "0"),
        ("p2_toric", "bkk", "-3"),
    ],
)
def test_verify_count_below_one_exit_3(capsys, spec, suite, count):
    code, out, err = run(
        capsys, "verify", spec, "--suite", suite, "--count", count
    )
    assert code == 3
    assert "PASS" not in out and "--count" in err


def test_verify_suite_without_checks_is_not_pass(capsys, monkeypatch):
    from toricbundle import cli

    monkeypatch.setitem(cli.SUITES, "cross", lambda spec, rng, count, lines: True)
    code, out, err = run(capsys, "verify", "p2_toric", "--suite", "cross")
    assert code == 3
    assert "PASS" not in out and "ran no check" in err


def test_verify_oracle_suites(capsys):
    code, out, _ = run(
        capsys, "verify", "f1_toric", "--suite", "ider", "--seed", "3"
    )
    assert code == 0 and "RESULT: PASS" in out
    code, out, _ = run(
        capsys, "verify", "p2_toric", "--suite", "cc", "--seed", "3",
        "--count", "2",
    )
    assert code == 0 and "RESULT: PASS" in out


def test_verify_gz_and_bk_suites(capsys):
    code, out, _ = run(
        capsys, "verify", "flag_sl2_p1", "--suite", "gz", "--seed", "4",
        "--count", "3",
    )
    assert code == 0 and "RESULT: PASS" in out
    code, out, _ = run(
        capsys, "verify", "flag_sl2_p1", "--suite", "bk", "--seed", "4",
        "--count", "3",
    )
    assert code == 0 and "RESULT: PASS" in out


def test_intersect_examples(capsys):
    code, out, _ = run(capsys, "intersect", "p2_toric", "--expr", "x1^2")
    assert code == 0 and "value: [1, 1]" in out
    code, out, _ = run(capsys, "intersect", "p1_toric", "--expr", "x1*x2")
    assert code == 0 and "value: [0, 1]" in out
    code, out, _ = run(
        capsys, "intersect", "hirzebruch_1", "--expr", "x2^2", "-v"
    )
    assert code == 0 and "value: [-1, 1]" in out
    assert "reduction trace" in out


def test_intersect_verbose_disagreement_exit_1(capsys, monkeypatch):
    """The --verbose cross-check is an explicit comparison, not an assert."""
    from toricbundle import cli

    real = cli.squarefree_evaluate
    monkeypatch.setattr(
        cli, "squarefree_evaluate", lambda *a, **k: real(*a, **k) + 1
    )
    code, _, err = run(
        capsys, "intersect", "hirzebruch_1", "--expr", "x2^2", "-v"
    )
    assert code == 1
    assert "verification failed" in err and "disagrees" in err


def test_intersect_not_top_degree_exit_3(capsys):
    code, _, err = run(capsys, "intersect", "p2_toric", "--expr", "x1")
    assert code == 3


def test_intersect_unknown_name(capsys):
    code, _, err = run(capsys, "intersect", "p2_toric", "--expr", "zz*x1")
    assert code == 3


def test_missing_input_exit_3(capsys):
    code, _, err = run(capsys, "ring", "no_such_spec")
    assert code == 3


def test_catalog_name_collision_errors(capsys, tmp_path, monkeypatch):
    """A file shadowing a catalog name is refused rather than guessed."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p2").write_text("{}")
    code, _, err = run(capsys, "fan", "check", "p2")
    assert code == 3 and "both a catalog name and a file" in err


# drops one vector from each radical below the top degree (the top degree's
# pairing matrix has one column), so the top degree stays one-dimensional
_WRONG_RADICAL = """
import sys
from toricbundle import cli, galg
real = galg.kernel_basis
galg.kernel_basis = lambda m: real(m)[:-1] if m.rows > 1 else real(m)
sys.exit(cli.main(["ring", "p2_toric", "--builder", "sd"]))
"""


def test_ring_wrong_radical_exit_1(capsys, monkeypatch):
    real = galg.kernel_basis
    monkeypatch.setattr(
        galg, "kernel_basis", lambda m: real(m)[:-1] if m.rows > 1 else real(m)
    )
    code, _, err = run(capsys, "ring", "p2_toric", "--builder", "sd")
    assert code == 1
    assert "verification failed" in err


def run_optimized(script):
    """Run a Python script under ``python -O`` with this package importable."""
    src = str(Path(toricbundle.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


def test_ring_wrong_radical_exit_1_under_optimize():
    """The self-dual checks are explicit comparisons, so -O keeps them."""
    proc = run_optimized(_WRONG_RADICAL)
    assert proc.returncode == 1, proc.stderr
    assert "verification failed" in proc.stderr


# doubles every I_f polynomial: d_I I_f on a cone is then 2 f(A) / |det|
_DOUBLED_I_F = """
import sys
from toricbundle import cli, integrate
real = integrate.i_f_polynomial
integrate.i_f_polynomial = lambda fan, f: real(fan, f) * 2
sys.exit(cli.main(["verify", "p2_toric", "--suite", "ider"]))
"""


def test_verify_ider_doubled_integrand_exit_1_under_optimize():
    """The ider closed forms are explicit comparisons, so -O keeps them."""
    proc = run_optimized(_DOUBLED_I_F)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "RESULT: FAIL"
    assert any(line.startswith("FAIL ider") for line in lines)


# doubles the binomial-integral route of self_intersection, not the ring route
_DOUBLED_VIRTUAL_INTEGRAL = """
import sys
from toricbundle import bundle
from toricbundle.catalog import SPECS
from toricbundle.errors import VerificationFailed
from toricbundle.polyhedral import AffineVirtualPolytope, VirtualPolytope
real = bundle.integral_over_virtual
bundle.integral_over_virtual = lambda fan, f, vp: 2 * real(fan, f, vp)
spec = SPECS["p2_toric"]()
delta = AffineVirtualPolytope(VirtualPolytope(spec.fan, (1, 1, 1)), ())
try:
    value = bundle.self_intersection(spec, delta)
except VerificationFailed as exc:
    print(exc)
    sys.exit(0)
print("returned", value)
sys.exit(2)
"""


def test_self_intersection_two_routes_checked_under_optimize():
    """The two-route self-intersection check is explicit, so -O keeps it."""
    proc = run_optimized(_DOUBLED_VIRTUAL_INTEGRAL)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-intersection disagreement" in proc.stdout
