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
from toricbundle.galg import GradedAlgebra, TopFunctional
from toricbundle.polyhedral import Fan, validate_fan


def rat(x: Fraction):
    x = Fraction(x)
    return [x.numerator, x.denominator]


def unrat(pair) -> Fraction:
    return Fraction(int(pair[0]), int(pair[1]))


# -- fans ---------------------------------------------------------------------


def fan_to_dict(fan: Fan) -> dict:
    return {
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
    }


def fan_from_dict(data: dict) -> Fan:
    return validate_fan(data["rays"], data["max_cones"])


# -- base algebras --------------------------------------------------------------


def base_to_dict(base: BaseData) -> dict:
    alg = base.algebra
    basis = {str(d): list(alg.labels[d]) for d in alg.degrees()}
    products = []
    for d_a in alg.degrees():
        for d_b in alg.degrees():
            if d_a == 0 or d_a > d_b or d_a + d_b > alg.top:
                continue
            target = alg.labels.get(d_a + d_b, ())
            for i in range(alg.dim(d_a)):
                for j in range(alg.dim(d_b)):
                    if d_a == d_b and i > j:
                        continue
                    vec = alg.basis_product(d_a, i, d_b, j)
                    result = [
                        rat(c) + [target[t]] for t, c in enumerate(vec) if c
                    ]
                    if result:
                        products.append(
                            {
                                "a": alg.labels[d_a][i],
                                "b": alg.labels[d_b][j],
                                "result": result,
                            }
                        )
    orientation = [
        rat(c) + [alg.labels[base.orientation.degree][t]]
        for t, c in enumerate(base.orientation.values)
        if c
    ]
    out = {
        "top_degree": alg.top,
        "basis": basis,
        "products": products,
        "orientation": orientation,
    }
    if base.chern:
        out["chern"] = [
            [rat(c) + [alg.labels[2][t]] for t, c in enumerate(col) if c]
            for col in base.chern
        ]
    return out


def base_from_dict(data: dict, chern_override=None) -> BaseData:
    top = int(data["top_degree"])
    if not isinstance(data["basis"], dict):
        raise ValueError("base basis must be an object of degree: names")
    labels = {int(d): tuple(names) for d, names in data["basis"].items()}
    where = {}
    for d, names in labels.items():
        for i, name in enumerate(names):
            if name in where:
                raise ValueError(f"duplicate basis label {name!r}")
            where[name] = (d, i)

    products = {}
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
            vec[it] += Fraction(int(num), int(den))
        products[(da, ia, db, ib)] = tuple(vec)
    # unlisted pairs default to zero
    degs = sorted(labels)
    for da in degs:
        for db in degs:
            if da == 0 or da > db:
                continue
            for i in range(len(labels[da])):
                for j in range(len(labels[db])):
                    if da == db and i > j:
                        continue
                    products.setdefault(
                        (da, i, db, j),
                        (Fraction(0),) * len(labels.get(da + db, ())),
                    )
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
        ovec[it] += Fraction(int(num), int(den))
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
            vec[it] += Fraction(int(num), int(den))
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
        "structure_constants": [],
    }
    for d_a in alg.degrees():
        for d_b in alg.degrees():
            if d_a == 0 or d_a > d_b or d_a + d_b > alg.top:
                continue
            target = alg.labels.get(d_a + d_b, ())
            for i in range(alg.dim(d_a)):
                for j in range(alg.dim(d_b)):
                    if d_a == d_b and i > j:
                        continue
                    vec = alg.basis_product(d_a, i, d_b, j)
                    entries = [
                        rat(c) + [target[t]] for t, c in enumerate(vec) if c
                    ]
                    if entries:
                        out["structure_constants"].append(
                            {
                                "a": alg.labels[d_a][i],
                                "b": alg.labels[d_b][j],
                                "result": entries,
                            }
                        )
    if seed is not None:
        out["seed"] = seed
    return out


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
