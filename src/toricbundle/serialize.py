"""JSON interchange formats.

Rationals are serialized as [numerator, denominator] integer pairs; no
decimals appear in machine reports.

* fan:    {"rays": [[int]], "max_cones": [[int]]}
* base:   {"top_degree": int, "basis": {"0": [names], "2": [names], ...},
           "products": [{"a": name, "b": name,
                         "result": [[num, den, name], ...]}, ...],
           "orientation": [[num, den, top_name], ...]}
* bundle: {"base": <base object plus "chern": [[[num, den, name], ...],
           ...one entry per lattice generator]>, "fan": <fan object>}
"""

from __future__ import annotations

import json
from fractions import Fraction

from toricbundle.bundle import BaseData, BundleSpec, RingReport
from toricbundle.galg import GradedAlgebra, TopFunctional, product_keys
from toricbundle.polyhedral import Fan, validate_fan


def rat(x: Fraction):
    x = Fraction(x)
    return [x.numerator, x.denominator]


def _json_int(x, what: str) -> int:
    """x itself if it is a plain int; a float, bool or string is refused
    rather than truncated or coerced."""
    if type(x) is not int:
        raise ValueError(f"{what} {x!r} is not an integer")
    return x


def unrat(pair) -> Fraction:
    """The rational of a [num, den] pair of plain ints; a non-integer entry
    or a zero denominator raises ``ValueError``."""
    num, den = pair
    if _json_int(den, "denominator") == 0:
        raise ValueError(f"rational {num!r}/0 has a zero denominator")
    return Fraction(_json_int(num, "numerator"), den)


# -- fans ---------------------------------------------------------------------


def fan_to_dict(fan: Fan) -> dict:
    return {
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
    }


def fan_from_dict(data: dict) -> Fan:
    return validate_fan(data["rays"], data["max_cones"])


# -- base algebras --------------------------------------------------------------


def _product_entries(alg: GradedAlgebra) -> list[dict]:
    """The nonzero structure constants in ``product_keys`` order, each as
    {"a": name, "b": name, "result": [[num, den, name], ...]}."""
    entries = []
    for a, i, b, j in product_keys(alg.labels):
        target = alg.labels[a + b]
        result = [rat(c) + [target[t]] for t, c in alg.product_pairs(a, i, b, j)]
        if result:
            entries.append(
                {"a": alg.labels[a][i], "b": alg.labels[b][j], "result": result}
            )
    return entries


def base_to_dict(base: BaseData) -> dict:
    alg = base.algebra
    basis = {str(d): list(alg.labels[d]) for d in alg.degrees()}
    orientation = [
        rat(c) + [alg.labels[base.orientation.degree][t]]
        for t, c in enumerate(base.orientation.values)
        if c
    ]
    out = {
        "top_degree": alg.top,
        "basis": basis,
        "products": _product_entries(alg),
        "orientation": orientation,
    }
    if base.chern:
        out["chern"] = [
            [rat(c) + [alg.labels[2][t]] for t, c in enumerate(col) if c]
            for col in base.chern
        ]
    return out


def base_from_dict(data: dict, chern_override=None) -> BaseData:
    top = _json_int(data["top_degree"], "top_degree")
    if not isinstance(data["basis"], dict):
        raise ValueError("base basis must be an object of degree: names")
    labels = {int(d): tuple(names) for d, names in data["basis"].items()}
    where = {}
    for d, names in labels.items():
        for i, name in enumerate(names):
            if name in where:
                raise ValueError(f"duplicate basis label {name!r}")
            where[name] = (d, i)

    parsed = {}
    for entry in data.get("products", []):
        da, ia = where[entry["a"]]
        db, ib = where[entry["b"]]
        if (da, ia) > (db, ib):
            da, ia, db, ib = db, ib, da, ia
        vec = [Fraction(0)] * len(labels.get(da + db, ()))
        for num, den, name in entry["result"]:
            dt, it = where[name]
            if dt != da + db:
                raise ValueError(f"product lands in wrong degree: {entry}")
            vec[it] += unrat((num, den))
        parsed[(da, ia, db, ib)] = tuple(vec)
    # unlisted pairs are zero
    products = {key: parsed.get(key, ()) for key in product_keys(labels)}
    alg = GradedAlgebra(top, labels, products)
    # the builders take a commutative associative base; products are stored
    # once per unordered pair, so commutativity holds by construction
    if not alg.check_associative():
        raise ValueError("base products are not associative")

    ovec = [Fraction(0)] * alg.dim(top)
    for num, den, name in data["orientation"]:
        dt, it = where[name]
        if dt != top:
            raise ValueError("orientation entry not in top degree")
        ovec[it] += unrat((num, den))
    ell = TopFunctional(alg, top, tuple(ovec))

    chern_data = chern_override if chern_override is not None else data.get(
        "chern", []
    )
    chern = []
    for col in chern_data:
        vec = [Fraction(0)] * alg.dim(2)
        for num, den, name in col:
            dt, it = where[name]
            if dt != 2:
                raise ValueError("chern entry is not a degree-2 class")
            vec[it] += unrat((num, den))
        chern.append(tuple(vec))
    return BaseData(alg, ell, tuple(chern))


# -- bundle specs --------------------------------------------------------------


def spec_to_dict(spec: BundleSpec) -> dict:
    return {"base": base_to_dict(spec.base), "fan": fan_to_dict(spec.fan)}


def spec_from_dict(data: dict, name: str = "") -> BundleSpec:
    base = base_from_dict(data["base"])
    fan = fan_from_dict(data["fan"])
    return BundleSpec(base, fan, name)


# -- reports --------------------------------------------------------------------


def report_to_dict(report: RingReport, seed=None) -> dict:
    alg = report.algebra
    out = {
        "builder": report.builder,
        "graded_dims": list(alg.dims()),
        "basis": {str(d): list(alg.labels[d]) for d in alg.degrees()},
        "top_functional": [
            rat(c) + [alg.labels[report.functional.degree][t]]
            for t, c in enumerate(report.functional.values)
        ],
        "generators": {
            name: {"degree": d, "coords": [rat(c) for c in vec]}
            for name, (d, vec) in sorted(report.generator_classes.items())
        },
        "structure_constants": _product_entries(alg),
    }
    if seed is not None:
        out["seed"] = seed
    return out


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
