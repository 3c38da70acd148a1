"""Command-line front end.

Commands::

    toricbundle fan check FAN
    toricbundle ring SPEC --builder {sr,sd,diff} [--json]
    toricbundle verify SPEC --suite {bkk,cross,ider,cc,bk,pbundle,gz}
                [--seed N] [--count N]
    toricbundle intersect SPEC --expr "x1^2*H" [-v]

FAN and SPEC are catalog names or JSON files (catalog names win; a name
that is also an existing file is an error).  Every suite takes the resolved
spec: bk and gz need a flag catalog spec, pbundle a spec on the fan of P^n.
Exit codes: 0 all checks pass, 1 an identity failed, 2 invalid geometry,
3 precondition failure.
Rationals in machine output are [numerator, denominator] pairs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import re
import sys
from fractions import Fraction

from toricbundle import catalog, serialize
from toricbundle.bundle import (
    BundleSpec,
    cross_validate,
    random_convex,
    random_virtual,
    ring_power_derivative_check,
    ring_via_diff,
    ring_via_sd,
    ring_via_sr,
    squarefree_evaluate,
    verify_bkk,
)
from toricbundle.errors import (
    FanError,
    NotTopDegree,
    ToricBundleError,
    VerificationFailed,
)
from toricbundle.galg import _unit
from toricbundle.integrate import (
    convex_chain_identity_check,
    square_free_derivative_check,
)
from toricbundle.polyhedral import is_complete, is_projective, is_smooth
from toricbundle.qpoly import QPolynomial

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_GEOMETRY = 2
EXIT_PRECONDITION = 3

# flag-bundle catalog specs (catalog.SPECS) and the n of their SL_n
FLAG_RANKS = {"flag_sl2_p1": 2, "flag_sl3_p1xp1": 3}


def _fail(code: int, message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _resolve(token: str, table, parse, noun: str):
    """The catalog entry ``table[token]()``, or ``parse`` of the JSON file
    named ``token``.  A missing, unreadable or malformed file is a
    precondition failure; invalid geometry in it raises :class:`FanError`."""
    if token in table:
        if os.path.exists(token):
            _fail(EXIT_PRECONDITION, f"{token!r} is both a catalog name and a file")
        return table[token]()
    if not os.path.exists(token):
        _fail(EXIT_PRECONDITION, f"no catalog {noun} or file named {token!r}")
    try:
        with open(token) as fh:
            return parse(json.load(fh))
    except OSError as exc:
        _fail(EXIT_PRECONDITION, f"cannot read {noun} file {token!r}: {exc}")
    except (KeyError, ValueError, TypeError) as exc:
        _fail(EXIT_PRECONDITION, f"malformed {noun} file {token!r}: {exc}")


def _resolve_spec(token: str) -> BundleSpec:
    def parse(data):
        return serialize.spec_from_dict(data, name=token)

    return _resolve(token, catalog.SPECS, parse, "spec")


def cmd_fan_check(args) -> int:
    try:
        fan = _resolve(args.fan, catalog.FANS, serialize.fan_from_dict, "fan")
    except FanError as exc:
        print(f"invalid fan: {exc}")
        return EXIT_GEOMETRY
    smooth = is_smooth(fan)
    try:
        complete = is_complete(fan)
    except FanError:
        complete = False
    print(f"rays: {len(fan.rays)}  max cones: {len(fan.max_cones)}  dim: {fan.dim}")
    print(f"smooth:     {'yes' if smooth else 'no'}")
    print(f"complete:   {'yes' if complete else 'no'}")
    if complete:
        ok, witness = is_projective(fan)
        print(f"projective: {'yes' if ok else 'no'}")
        if ok:
            print(
                "witness h*: "
                + json.dumps([serialize.rat(x) for x in witness.h])
            )
    else:
        print("projective: skipped (fan not complete)")
    return EXIT_OK


def cmd_ring(args) -> int:
    spec = _resolve_spec(args.spec)
    builders = {"sr": ring_via_sr, "sd": ring_via_sd, "diff": ring_via_diff}
    try:
        report = builders[args.builder](spec)
    except VerificationFailed:
        raise
    except ToricBundleError as exc:
        _fail(EXIT_PRECONDITION, f"builder {args.builder}: {exc}")
    if args.json:
        print(serialize.dumps(serialize.report_to_dict(report)))
    else:
        print(f"builder: {report.builder}")
        print(f"graded dims: {list(report.algebra.dims())}")
        for d in report.algebra.degrees():
            print(f"  degree {d}: {', '.join(report.algebra.labels[d])}")
        top = report.functional
        vals = ", ".join(
            f"{name} -> {val}"
            for name, val in zip(report.algebra.labels[top.degree], top.values)
        )
        print(f"top functional: {vals}")
    return EXIT_OK


def _emit(lines, ok: bool, label: str, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    lines.append(f"{tag} {label}" + (f"  {detail}" if detail else ""))
    return ok


def _suite_bkk(spec: BundleSpec, rng, count: int, lines) -> bool:
    rep = ring_via_sr(spec)
    ok = True
    base = spec.base
    for gdeg in range(0, spec.k + 1, 2):
        i = (spec.k - gdeg) // 2
        for ridx in range(base.algebra.dim(gdeg)):
            gamma = _unit(base.algebra.dim(gdeg), ridx)
            label = base.algebra.labels[gdeg][ridx]
            for t in range(count):
                delta = (
                    random_convex(spec.fan, rng)
                    if t % 2 == 0
                    else random_virtual(spec.fan, rng)
                )
                lhs, rhs, eq = verify_bkk(spec, gamma, i, delta, rep)
                ok &= _emit(
                    lines,
                    eq,
                    f"bkk gamma={label} i={i} h={tuple(map(str, delta.h))}",
                    f"lhs={lhs} rhs={rhs}",
                )
    return ok


def _suite_cross(spec: BundleSpec, rng, count, lines) -> bool:
    cv = cross_validate(spec)
    return _emit(lines, bool(cv), "cross-validate sd vs sr", cv.detail)


def _ider_integrands(spec):
    """(name, f) for f = 1, x1 and, in fiber dimension >= 2, x1*x2."""
    xvars = tuple(f"x{i + 1}" for i in range(spec.n))
    x1 = QPolynomial.variable(xvars, 0)
    fs = [("1", QPolynomial.constant(xvars, 1)), ("x1", x1)]
    if spec.n >= 2:
        fs.append(("x1*x2", x1 * QPolynomial.variable(xvars, 1)))
    return fs


def _suite_ider(spec: BundleSpec, rng, count, lines) -> bool:
    """d_I I_f per integrand, then d_I F_gamma read off one sr ring per base
    basis class gamma, for every set I of n rays."""
    ok = True
    fan = spec.fan
    subsets = list(itertools.combinations(range(fan.nrays), fan.dim))
    for fname, f in _ider_integrands(spec):
        delta = random_convex(fan, rng)
        for subset in subsets:
            try:
                val = square_free_derivative_check(fan, f, delta, subset)
                good = True
            except VerificationFailed:
                good = False
                val = "?"
            ok &= _emit(
                lines,
                good,
                f"ider f={fname} I={subset}",
                f"d_I I_f = {val}",
            )
    rep = ring_via_sr(spec)
    delta = random_convex(fan, rng)
    alg = spec.base.algebra
    for gdeg in range(0, spec.k + 1, 2):
        for ridx, label in enumerate(alg.labels.get(gdeg, ())):
            gamma = _unit(alg.dim(gdeg), ridx)
            verdicts = ring_power_derivative_check(
                spec, gamma, (spec.k - gdeg) // 2, delta, subsets, rep
            )
            for subset, good in zip(subsets, verdicts):
                ok &= _emit(lines, good, f"ider ring gamma={label} I={subset}")
    return ok


def _suite_cc(spec: BundleSpec, rng, count, lines) -> bool:
    ok = True
    fan = spec.fan
    for fname, f in _ider_integrands(spec):
        for subset in itertools.combinations(range(fan.nrays), fan.dim):
            for _ in range(count):
                delta = random_convex(fan, rng)
                lams = [
                    Fraction(rng.randint(1, 4), rng.randint(5, 9))
                    for _ in range(fan.dim)
                ]
                good = convex_chain_identity_check(fan, f, delta, subset, lams)
                ok &= _emit(
                    lines,
                    good,
                    f"cc f={fname} I={subset} lams={tuple(map(str, lams))}",
                )
    return ok


def _flag_rank(spec: BundleSpec, suite: str) -> int:
    if spec.name not in FLAG_RANKS:
        _fail(
            EXIT_PRECONDITION,
            f"{suite} suite needs a flag catalog spec, got {spec.name!r}",
        )
    return FLAG_RANKS[spec.name]


def _suite_bk(spec: BundleSpec, rng, count, lines) -> bool:
    n = _flag_rank(spec, "bk")
    fan = spec.fan
    rep = ring_via_sr(spec)
    ok = True
    for t in range(count):
        delta = random_convex(fan, rng) if t % 2 == 0 else random_virtual(fan, rng)
        shift = (
            None
            if t % 3 == 0
            else tuple(Fraction(rng.randint(-2, 2)) for _ in range(n - 1))
        )
        lhs, rhs, eq = catalog.brion_kazarnovskii_check(
            spec, delta, shift, sr_report=rep
        )
        ok &= _emit(
            lines,
            eq,
            f"brion-kazarnovskii h={tuple(map(str, delta.h))} shift={shift}",
            f"lhs={lhs} rhs={rhs}",
        )
    return ok


def _suite_pbundle(spec: BundleSpec, rng, count, lines) -> bool:
    chern = tuple(tuple(map(str, col)) for col in spec.base.chern)
    good = catalog.projective_bundle_check(spec)
    return _emit(lines, good, f"projective-bundle relation chern={chern}")


def _suite_gz(spec: BundleSpec, rng, count, lines) -> bool:
    n = _flag_rank(spec, "gz")
    ok = True
    for _ in range(count):
        lam = tuple(rng.randint(0, 5) for _ in range(n - 1))
        vol_ok = catalog.gz_volume_check(n, lam)
        ok &= _emit(lines, vol_ok, f"gz volume lambda={lam}")
        pts = catalog.gz_lattice_points(n, lam)
        dim = catalog.weyl_dimension(n, lam)
        ok &= _emit(
            lines,
            Fraction(pts) == dim,
            f"gz lattice points lambda={lam}",
            f"count={pts} weyl={dim}",
        )
    return ok


SUITES = {
    "bkk": _suite_bkk,
    "cross": _suite_cross,
    "ider": _suite_ider,
    "cc": _suite_cc,
    "bk": _suite_bk,
    "pbundle": _suite_pbundle,
    "gz": _suite_gz,
}


def cmd_verify(args) -> int:
    if args.count < 1:
        _fail(EXIT_PRECONDITION, f"--count must be at least 1, got {args.count}")
    rng = random.Random(args.seed)
    lines: list[str] = []
    suite = SUITES[args.suite]
    spec = _resolve_spec(args.spec)
    try:
        ok = suite(spec, rng, args.count, lines)
    except VerificationFailed:
        raise
    except ToricBundleError as exc:
        _fail(EXIT_PRECONDITION, f"suite {args.suite}: {exc}")
    if not lines:
        # no PASS without a check
        _fail(EXIT_PRECONDITION, f"suite {args.suite} ran no check")
    print(f"suite: {args.suite}  spec: {args.spec}  seed: {args.seed}")
    for line in lines:
        print(line)
    print("RESULT:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_IDENTITY


def _parse_monomial(spec: BundleSpec, expr: str):
    """Split 'x1^2*H' into x-exponents and a base-class factor."""
    if not isinstance(expr, str):  # argparse reads "--expr=--" as []
        raise ValueError(f"expression {expr!r} is not a monomial")
    beta = [0] * spec.fan.nrays
    gdeg, gvec = 0, (Fraction(1),)
    alg = spec.base.algebra
    where = {}
    for d in alg.degrees():
        for i, name in enumerate(alg.labels[d]):
            where[name] = (d, i)
    xnames = {name: i for i, name in enumerate(spec.x_names)}
    for factor in expr.replace(" ", "").split("*"):
        if not factor:
            raise ValueError(f"empty factor in expression {expr!r}")
        name, caret, power = factor.partition("^")
        if caret and not power:
            raise ValueError(f"empty exponent in factor {factor!r}")
        if caret and not re.fullmatch("-?[0-9]+", power):
            raise ValueError(f"exponent in factor {factor!r} is not in the digits 0-9")
        power = int(power) if caret else 1
        if power < 0:
            raise ValueError(f"negative exponent in factor {factor!r}")
        if name in xnames:
            beta[xnames[name]] += power
        elif name in where:
            d, i = where[name]
            for _ in range(power):
                gvec = alg.multiply(gdeg, gvec, d, _unit(alg.dim(d), i))
                gdeg += d
                if gdeg > alg.top:
                    return tuple(beta), gdeg, ()
        else:
            raise ValueError(f"unknown factor {name!r} in expression")
    return tuple(beta), gdeg, gvec


def cmd_intersect(args) -> int:
    spec = _resolve_spec(args.spec)
    try:
        beta, gdeg, gvec = _parse_monomial(spec, args.expr)
    except ValueError as exc:
        _fail(EXIT_PRECONDITION, str(exc))
    degree = gdeg + 2 * sum(beta)
    rep = ring_via_sr(spec)
    if gdeg > spec.base.algebra.top:
        cls = ()
    else:
        cls = rep.model.class_of(beta, gdeg, gvec)
    if not any(cls):
        print(f"{args.expr} = 0  (class vanishes in degree {degree})")
        print("value: [0, 1]")
        return EXIT_OK
    if degree != spec.top_degree:
        raise NotTopDegree(
            f"nonzero class of degree {degree} != top {spec.top_degree}"
        )
    value = rep.functional.of(degree, cls)
    if args.verbose:
        trace: list[str] = []
        reduced = squarefree_evaluate(spec, beta, gdeg, gvec, trace=trace)
        print("reduction trace:")
        for line in trace:
            print("  " + line)
        if reduced != value:
            raise VerificationFailed(
                f"reduction {reduced} disagrees with the quotient ring {value}"
            )
    print(f"{args.expr} = {value}")
    print(f"value: {json.dumps(serialize.rat(value))}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="toricbundle",
        description="exact cohomology rings of toric bundles",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    fan = sub.add_parser("fan", help="fan utilities")
    fan_sub = fan.add_subparsers(dest="fan_command", required=True)
    fc = fan_sub.add_parser("check", help="smooth/complete/projective verdicts")
    fc.add_argument("fan", help="catalog fan name or JSON path")
    fc.set_defaults(func=cmd_fan_check)

    ring = sub.add_parser("ring", help="build a cohomology ring")
    ring.add_argument("spec", help="catalog spec name or JSON path")
    ring.add_argument(
        "--builder", choices=("sr", "sd", "diff"), default="sr"
    )
    ring.add_argument("--json", action="store_true", help="machine output")
    ring.set_defaults(func=cmd_ring)

    ver = sub.add_parser("verify", help="run an identity suite")
    ver.add_argument("spec", help="catalog spec name or JSON path")
    ver.add_argument("--suite", choices=sorted(SUITES), required=True)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--count", type=int, default=5)
    ver.set_defaults(func=cmd_verify)

    inter = sub.add_parser("intersect", help="evaluate a top-degree monomial")
    inter.add_argument("spec", help="catalog spec name or JSON path")
    inter.add_argument("--expr", required=True, help='e.g. "x1^2*H"')
    inter.add_argument("-v", "--verbose", action="store_true")
    inter.set_defaults(func=cmd_intersect)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except FanError as exc:
        print(f"error: invalid geometry: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except VerificationFailed as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return EXIT_IDENTITY
    except ToricBundleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
