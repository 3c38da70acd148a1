"""Command-line interface: commands, exit-code contract, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import toricbundle
from toricbundle import galg
from toricbundle.catalog import FANS, SPECS
from toricbundle.cli import SUITES, main
from toricbundle.serialize import spec_from_dict, spec_to_dict


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


def test_fan_check_overlapping_cones_exit_2(capsys, tmp_path):
    path = tmp_path / "overlap.json"
    path.write_text(
        json.dumps({"rays": [[1, 0], [1, 1], [0, 1]], "max_cones": [[0, 2], [1, 2]]})
    )
    code, out, _ = run(capsys, "fan", "check", str(path))
    assert code == 2
    assert "do not meet in a face" in out


def test_fan_check_listed_face_exit_2(capsys, tmp_path):
    path = tmp_path / "face.json"
    rays = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    cones = [[0, 1], [1, 2], [2, 3], [3, 0], [0]]
    path.write_text(json.dumps({"rays": rays, "max_cones": cones}))
    code, out, _ = run(capsys, "fan", "check", str(path))
    assert code == 2
    assert out == "invalid fan: cone (0,) is a face of cone (0, 1)\n"


# `fan check` witness lines, recorded with the Fraction-tableau LP: the
# integer tableau must keep Bland's path and so the same witness.  p112 is
# P(1,1,2) as in test_integrate.py (integer wall rows); p112_reordered lists
# its cones so that a wall row has denominator 2 (the LP is cleared by D = 2).
OCTANT_CONES = [[sx, sy, sz] for sx in (0, 3) for sy in (1, 4) for sz in (2, 5)]
WITNESS_FANS = {
    "octant": (
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]],
        OCTANT_CONES,
    ),
    "p112": ([[1, 0], [0, 1], [-1, -2]], [[0, 1], [1, 2], [0, 2]]),
    "p112_reordered": ([[1, 0], [0, 1], [-1, -2]], [[0, 2], [1, 2], [0, 1]]),
    "p123": ([[1, 0], [0, 1], [-2, -3]], [[0, 1], [1, 2], [0, 2]]),
}
WITNESS_LINES = {
    "p1": "witness h*: [[1, 1], [0, 1]]",
    "p2": "witness h*: [[1, 1], [0, 1], [0, 1]]",
    "p1xp1": "witness h*: [[1, 1], [1, 1], [0, 1], [0, 1]]",
    "f1": "witness h*: [[2, 1], [1, 1], [0, 1], [0, 1]]",
    "octant": "witness h*: [[1, 1], [1, 1], [1, 1], [0, 1], [0, 1], [0, 1]]",
    "p112": "witness h*: [[1, 1], [0, 1], [0, 1]]",
    "p112_reordered": "witness h*: [[2, 1], [0, 1], [0, 1]]",
    "p123": "witness h*: [[1, 1], [0, 1], [0, 1]]",
}


def test_witness_pins_cover_every_catalog_fan():
    assert set(FANS) <= set(WITNESS_LINES)


@pytest.mark.parametrize("name", sorted(WITNESS_LINES))
def test_fan_check_witness_pinned(capsys, tmp_path, name):
    token = name
    if name in WITNESS_FANS:
        rays, cones = WITNESS_FANS[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"rays": rays, "max_cones": cones}))
        token = str(path)
    code, out, _ = run(capsys, "fan", "check", token)
    assert code == 0
    assert out.splitlines()[-1] == WITNESS_LINES[name]


def test_ring_odd_degree_base_exit_3(capsys, tmp_path):
    """Odd degrees are refused where the algebra is built, as a malformed
    spec file."""
    spec = spec_to_dict(SPECS["hirzebruch_1"]())
    spec["base"]["top_degree"] = 3
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "ring", str(path), "--builder", "sr")
    assert code == 3
    assert "malformed spec file" in err
    assert "odd degree in even-degree algebra" in err


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


@pytest.mark.parametrize("builder", ["sr", "sd", "diff"])
def test_ring_non_associative_base_exit_3(capsys, tmp_path, builder):
    # Poincare over degree 2, but (a*a)*b = c*b = 0 while a*(a*b) = a*c = t
    spec = spec_to_dict(SPECS["p2_toric"]())
    spec["base"] = {
        "top_degree": 6,
        "basis": {"0": ["1"], "2": ["a", "b"], "4": ["c", "e"], "6": ["t"]},
        "products": [
            {"a": "a", "b": "a", "result": [[1, 1, "c"]]},
            {"a": "a", "b": "b", "result": [[1, 1, "c"]]},
            {"a": "b", "b": "b", "result": [[1, 1, "e"]]},
            {"a": "a", "b": "c", "result": [[1, 1, "t"]]},
            {"a": "b", "b": "e", "result": [[1, 1, "t"]]},
        ],
        "orientation": [[1, 1, "t"]],
        "chern": [[], []],
    }
    path = tmp_path / "nonassoc.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "ring", str(path), "--builder", builder)
    assert code == 3
    assert "not associative" in err


def test_verify_suites_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "hirzebruch_1", "--suite", "bkk", "--seed", "3",
        "--count", "2",
    )
    assert code == 0
    assert "RESULT: PASS" in out
    code, out, _ = run(capsys, "verify", "p2_toric", "--suite", "cross")
    assert code == 0


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
VERIFY_PASS_LINES = json.loads(REFERENCE.read_text())["pass_lines"]


@pytest.mark.parametrize("job", sorted(VERIFY_PASS_LINES))
def test_verify_workload_suites_match_reference_pass_lines(capsys, job):
    """Every (suite, spec) pair of the benchmark's verify workload exits 0,
    ends with RESULT: PASS and prints the recorded number of PASS lines,
    which does not depend on the seed."""
    suite, spec = job.split("/")
    code, out, _ = run(capsys, "verify", spec, "--suite", suite, "--seed", "301")
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "RESULT: PASS"
    assert sum(line.startswith("PASS ") for line in lines) == VERIFY_PASS_LINES[job]


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


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("spec", sorted(SPECS))
def test_verify_every_spec_and_suite_ends_typed(capsys, spec, suite):
    """Every catalog spec under every suite ends in PASS, FAIL or a typed
    error with a message; any other exception fails here."""
    code, out, err = run(
        capsys, "verify", spec, "--suite", suite, "--count", "1", "--seed", "1"
    )
    if code in (0, 1):
        assert out.splitlines()[-1] == ("RESULT: PASS" if code == 0 else "RESULT: FAIL")
    else:
        assert code in (2, 3) and err.startswith("error: ")


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


# drops the last row of the radical in each degree below the top, where the
# recursion from the top degree down computes it
_WRONG_RADICAL = """
import sys
from toricbundle import cli, galg
real = galg._radical_rows
galg._radical_rows = lambda b, ell, k, *rest: (
    real(b, ell, k, *rest)[: -1 if k < ell.degree else None]
)
sys.exit(cli.main(["ring", "p2_toric", "--builder", "sd"]))
"""


def test_ring_wrong_radical_exit_1(capsys, monkeypatch):
    real = galg._radical_rows
    monkeypatch.setattr(
        galg,
        "_radical_rows",
        lambda b, ell, k, *rest: (
            real(b, ell, k, *rest)[: -1 if k < ell.degree else None]
        ),
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


# zeroes the top-degree class table of the operator model: every product
# into the top degree vanishes, so the pairing is degenerate
_WRONG_TOP_CLASSES = """
import sys
from toricbundle import cli, galg
real = galg._degree_classes
def zeroed(f, j):
    basis, classes = real(f, j)
    return basis, classes if j < f.degree() else dict.fromkeys(classes, ())
galg._degree_classes = zeroed
sys.exit(cli.main(["ring", "p2_rank2", "--builder", "diff"]))
"""


def test_ring_diff_wrong_class_table_exit_1(capsys, monkeypatch):
    real = galg._degree_classes

    def zeroed(f, j):
        basis, classes = real(f, j)
        return basis, classes if j < f.degree() else dict.fromkeys(classes, ())

    monkeypatch.setattr(galg, "_degree_classes", zeroed)
    code, _, err = run(capsys, "ring", "p2_rank2", "--builder", "diff")
    assert code == 1
    assert "diff quotient not Poincare" in err


def test_ring_diff_wrong_class_table_exit_1_under_optimize():
    """ring_via_diff checks Poincare duality explicitly, so -O keeps it."""
    proc = run_optimized(_WRONG_TOP_CLASSES)
    assert proc.returncode == 1, proc.stderr
    assert "diff quotient not Poincare" in proc.stderr


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


@pytest.mark.parametrize(
    "data",
    [
        {"rays": [[1.5, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]},
        {"rays": [[True, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]},
        {"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1.7], [1, 2], [0, 2]]},
    ],
    ids=["float_ray", "bool_ray", "float_index"],
)
def test_fan_check_non_integer_entry_exit_2(capsys, tmp_path, data):
    """Rays and cone indices are taken as given, never truncated or coerced."""
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "fan", "check", str(path))
    assert code == 2
    assert "is not an integer" in out


def _edited_spec_file(tmp_path, data, where, value):
    """A spec file: ``data`` with the entry at key path ``where`` replaced."""
    data = json.loads(json.dumps(data))
    node = data
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    return path


_SPEC_COMMANDS = pytest.mark.parametrize(
    "command",
    [("ring", "--builder", "sr"), ("verify", "--suite", "bkk"), ("intersect", "--expr", "x1")],
    ids=["ring", "verify", "intersect"],
)


@_SPEC_COMMANDS
@pytest.mark.parametrize(
    "spec, where, value, message",
    [
        ("hirzebruch_1", ("base", "orientation", 0, 1), 0, "zero denominator"),
        ("p2_rank2", ("base", "products", 0, "result", 0, 1), 0, "zero denominator"),
        ("p2_rank2", ("base", "chern", 1, 0, 1), 0, "zero denominator"),
        ("hirzebruch_1", ("base", "chern", 0, 0, 0), 1.5, "is not an integer"),
        ("hirzebruch_1", ("base", "chern", 0, 0, 1), True, "is not an integer"),
        ("hirzebruch_1", ("base", "orientation", 0, 0), "1", "is not an integer"),
        ("hirzebruch_1", ("base", "top_degree"), 2.5, "is not an integer"),
    ],
    ids=[
        "orientation_zero_den",
        "product_zero_den",
        "chern_zero_den",
        "float_num",
        "bool_den",
        "string_num",
        "float_top_degree",
    ],
)
def test_spec_file_non_integer_rational_exit_3(
    capsys, tmp_path, command, spec, where, value, message
):
    """Rationals and the top degree are taken as given, never truncated,
    coerced or divided by zero."""
    path = _edited_spec_file(tmp_path, spec_to_dict(SPECS[spec]()), where, value)
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 3
    assert "malformed spec file" in err and message in err


@_SPEC_COMMANDS
def test_spec_file_invalid_geometry_exit_2(capsys, tmp_path, command):
    """A spec file with a non-primitive ray is invalid geometry in every
    command that reads one."""
    data = spec_to_dict(SPECS["hirzebruch_1"]())
    path = _edited_spec_file(tmp_path, data, ("fan", "rays", 0), [2])
    code, _, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert "invalid geometry" in err and "not primitive" in err


def test_intersect_negative_exponent_exit_3(capsys):
    code, _, err = run(capsys, "intersect", "p2_toric", "--expr", "x1^-1")
    assert code == 3
    assert "negative exponent" in err


# -- fuzz: malformed input ends in a documented exit code, never a traceback --

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-3, 3, allow_nan=False),
    st.text("x1H-", max_size=3),
)
_json = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text("abrxy_", max_size=3), inner, max_size=3),
    ),
    max_leaves=12,
)
_fuzz = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _plain_int(x):
    return type(x) is int


@_fuzz
@example({"rays": [[1.0], [-1]], "max_cones": [[0], [1]]})
@given(
    st.one_of(
        _json,
        st.fixed_dictionaries(
            {
                "rays": st.lists(st.lists(_scalars, max_size=3), max_size=4),
                "max_cones": st.lists(st.lists(_scalars, max_size=3), max_size=4),
            }
        ),
    )
)
def test_fuzz_fan_file(capsys, tmp_path, data):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(data))
    code, _, _ = run(capsys, "fan", "check", str(path))
    assert code in (0, 2, 3)
    if isinstance(data, dict) and isinstance(data.get("rays"), list):
        entries = [x for r in data["rays"] if isinstance(r, list) for x in r]
        if not all(_plain_int(x) for x in entries):
            assert code in (2, 3)


def _paths(obj, prefix=()):
    """Every position in a JSON document, as a key path."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ()
    )
    for key, value in items:
        yield from _paths(value, prefix + (key,))


_P2_SPEC = spec_to_dict(SPECS["p2_toric"]())
_P2_PATHS = list(_paths(json.loads(json.dumps(_P2_SPEC))))[1:]


@_fuzz
@given(st.sampled_from(_P2_PATHS), _json)
@example(("base", "basis"), [])
@example(("base", "orientation", 0, 1), 0)
def test_fuzz_spec_file(capsys, tmp_path, where, value):
    """One position of a valid spec replaced by arbitrary JSON."""
    path = _edited_spec_file(tmp_path, _P2_SPEC, where, value)
    code, _, _ = run(capsys, "ring", str(path), "--builder", "sr")
    assert code in (0, 1, 2, 3)
    try:
        spec_from_dict(json.loads(path.read_text()))
    except Exception:
        assert code in (2, 3)


@_fuzz
@given(st.text("x1234H^*-+ 0", max_size=10))
@example("x1^-2*x2^3")
@example("--")
def test_fuzz_intersect_expr(capsys, expr):
    code, _, _ = run(capsys, "intersect", "p2_toric", f"--expr={expr}")
    assert code in (0, 3)
    if "^-" in expr.replace(" ", ""):
        assert code == 3
