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

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from toricbundle.bundle import BaseData, BundleSpec, RingReport
from toricbundle.galg import GradedAlgebra, TopFunctional, product_keys
from toricbundle.polyhedral import Fan, validate_fan


def rat(x: int | Fraction) -> list[int]:
    """[numerator, denominator] of an int or a Fraction; any other value,
    a float or a bool included, raises ``TypeError``."""
    if type(x) is Fraction or type(x) is int:
        return [x.numerator, x.denominator]
    raise TypeError(f"{x!r} is not an int or a Fraction")


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


def base_from_dict(data: dict) -> BaseData:
    top = _json_int(data["top_degree"], "top_degree")
    if not isinstance(data["basis"], dict):
        raise ValueError("base basis must be an object of degree: names")
    labels, keys = {}, {}
    for key, names in data["basis"].items():
        if (d := int(key)) in keys:
            raise ValueError(f"basis keys {keys[d]!r} and {key!r} name one degree {d}")
        labels[d], keys[d] = tuple(names), key
    where = {}
    for d, names in labels.items():
        for i, name in enumerate(names):
            if type(name) is not str:
                raise ValueError(f"basis label {name!r} is not a string")
            if name in where:
                raise ValueError(f"duplicate basis label {name!r}")
            where[name] = (d, i)

    def parse(entries, degree: int, error: str):
        """The degree-``degree`` vector of a [[num, den, name], ...] list."""
        vec = [Fraction(0)] * len(labels.get(degree, ()))
        for num, den, name in entries:
            dt, it = where[name]
            if dt != degree:
                raise ValueError(error)
            vec[it] += unrat((num, den))
        return tuple(vec)

    parsed = {}
    for entry in data.get("products", []):
        a, b = sorted((where[entry["a"]], where[entry["b"]]))
        if a + b in parsed:
            raise ValueError(f"product of {entry['a']!r} and {entry['b']!r} listed twice")
        wrong = f"product lands in wrong degree: {entry}"
        vec = parse(entry["result"], a[0] + b[0], wrong)
        parsed[a + b] = tuple((t, c) for t, c in enumerate(vec) if c)
        if a[0] == 0 and parsed[a + b] != ((b[1], 1),):  # the table keeps no unit
            raise ValueError(f"product with the unit contradicts it: {entry}")
    # unlisted pairs are zero
    products = {key: parsed.get(key, ()) for key in product_keys(labels)}
    alg = GradedAlgebra(top, labels, products)
    # the builders take a commutative associative base; products are stored
    # once per unordered pair, so commutativity holds by construction
    if not alg.check_associative():
        raise ValueError("base products are not associative")

    ovec = parse(data["orientation"], top, "orientation entry not in top degree")
    ell = TopFunctional(alg, top, ovec)

    chern = [
        parse(col, 2, "chern entry is not a degree-2 class")
        for col in data.get("chern", [])
    ]
    return BaseData(alg, ell, tuple(chern))


# -- bundle specs --------------------------------------------------------------


def spec_from_dict(data: dict, name: str = "") -> BundleSpec:
    base = base_from_dict(data["base"])
    fan = fan_from_dict(data["fan"])
    return BundleSpec(base, fan, name)


# -- reports --------------------------------------------------------------------


def report_to_dict(report: RingReport) -> dict:
    alg = report.algebra
    return {
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


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` byte for byte, for a
    report value: a dict with str keys, a list, a str or an int.  Any other
    type, a bool, float, None or tuple included, raises ``TypeError``.  (With
    ``indent`` set the stdlib encoder runs in pure Python.)"""
    return _text(obj, "\n")


def _text(obj, indent: str) -> str:
    """The JSON text of ``obj`` at ``indent``, a newline and its spaces.
    The list and dict loops write int and str items themselves, without a
    call per scalar."""
    kind = type(obj)
    if kind is str:
        return _json_str(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is list:
        if not obj:
            return "[]"
        inner = indent + "  "
        parts = []
        for x in obj:
            kind = type(x)
            if kind is int:
                parts.append(int.__repr__(x))
            elif kind is str:
                parts.append(_json_str(x))
            else:
                parts.append(_text(x, inner))
        return "[" + inner + ("," + inner).join(parts) + indent + "]"
    if kind is dict:
        if not obj:
            return "{}"
        inner = indent + "  "
        parts = []
        for k in sorted(obj):  # _json_str(k) raises TypeError on a non-str key
            x = obj[k]
            kind = type(x)
            if kind is int:
                text = int.__repr__(x)
            elif kind is str:
                text = _json_str(x)
            else:
                text = _text(x, inner)
            parts.append(_json_str(k) + ": " + text)
        return "{" + inner + ("," + inner).join(parts) + indent + "}"
    raise TypeError(f"{kind.__name__} is not a report value")
