"""JSON interchange round trips."""

import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import base_to_dict, fan_to_dict, full_table, octant_fan, spec_to_dict
from toricbundle import bundle
from toricbundle.bundle import ring_via_sr
from toricbundle.catalog import SPECS, base_projective, fan_hirzebruch1, flag_bundle_spec
from toricbundle.serialize import (
    base_from_dict,
    dumps,
    fan_from_dict,
    rat,
    report_to_dict,
    spec_from_dict,
    unrat,
)

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def test_rat_pairs():
    """An int or a Fraction, and nothing else."""
    assert rat(F(-3, 6)) == [-1, 2]
    assert rat(-7) == [-7, 1]
    assert rat(0) == [0, 1]
    assert unrat([7, 2]) == F(7, 2)
    for value in (0.5, "1/2", None):
        with pytest.raises(TypeError):
            rat(value)


# quotes, backslashes, control characters and lone surrogates, often
_CHARS = st.characters() | st.sampled_from('"\\\x00\x1f\x7f\n/')
_TEXT = st.text(_CHARS)
_REPORT_VALUES = st.recursive(
    _TEXT | st.integers() | st.integers(max_value=-(2**80)),
    lambda items: st.lists(items) | st.dictionaries(_TEXT, items),
    max_leaves=20,
)


@given(_REPORT_VALUES)
def test_dumps_is_the_stdlib_indent_2_text(value):
    """The writer that ``ring --json`` and the benchmark digests use gives
    the stdlib's text, byte for byte."""
    assert dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [True, 1.5, None, (1, 2), [1, [False]], {"a": None}, {1: "a"}, {"a": 1, 2: "b"}],
)
def test_dumps_refuses_what_is_not_a_report_value(value):
    with pytest.raises(TypeError):
        dumps(value)


def test_dumps_matches_the_stdlib_on_a_large_report():
    """SL_4 x (P^1)^3 under sr: a report of about 1.3 MB."""
    payload = report_to_dict(ring_via_sr(flag_bundle_spec(4, octant_fan())))
    assert dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_fan_round_trip():
    fan = fan_hirzebruch1()
    data = json.loads(json.dumps(fan_to_dict(fan)))
    assert fan_from_dict(data) == fan


def test_base_round_trip():
    base = base_projective(2, chern=((F(1),), (F(2),)))
    data = json.loads(json.dumps(base_to_dict(base)))
    back = base_from_dict(data)
    assert back.algebra.dims() == base.algebra.dims()
    assert full_table(back.algebra) == full_table(base.algebra)
    assert back.orientation.values == base.orientation.values
    assert back.chern == base.chern


def p1_base_dict(*products):
    """The README's base example, the cohomology of P^1, with ``products``
    appended to its one entry H*H = 0 above the top."""
    return {
        "top_degree": 2,
        "basis": {"0": ["1"], "2": ["H"]},
        "products": [{"a": "H", "b": "H", "result": []}, *products],
        "orientation": [[1, 1, "H"]],
        "chern": [[[1, 1, "H"]]],
    }


def test_base_example_with_a_product_above_the_top_loads():
    base = base_from_dict(p1_base_dict())
    assert base.algebra.dims() == (1, 1)
    assert base.chern == ((F(1),),)


def test_base_refuses_a_product_with_the_unit_that_contradicts_it():
    restated = base_from_dict(p1_base_dict({"a": "1", "b": "H", "result": [[1, 1, "H"]]}))
    assert restated.algebra.product_pairs(0, 0, 2, 0) == ((0, 1),)
    with pytest.raises(ValueError, match="product with the unit contradicts it"):
        base_from_dict(p1_base_dict({"a": "1", "b": "H", "result": [[2, 1, "H"]]}))


def test_base_refuses_a_repeated_product_pair():
    data = base_to_dict(base_projective(2))
    (square,) = data["products"]
    data["products"].append({"a": "H", "b": "H", "result": [[3, 1, "H^2"]]})
    assert square == {"a": "H", "b": "H", "result": [[1, 1, "H^2"]]}
    with pytest.raises(ValueError, match="product of 'H' and 'H' listed twice"):
        base_from_dict(data)


def test_spec_round_trip_preserves_ring():
    spec = SPECS["hirzebruch_1"]()
    data = json.loads(json.dumps(spec_to_dict(spec)))
    back = spec_from_dict(data, name="roundtrip")
    a = ring_via_sr(spec)
    b = ring_via_sr(back)
    assert a.dims() == b.dims()
    assert full_table(a.algebra) == full_table(b.algebra)
    assert a.functional.values == b.functional.values


def test_report_serialization_is_rational():
    rep = ring_via_sr(SPECS["p2_toric"]())
    payload = report_to_dict(rep)
    assert payload["graded_dims"] == [1, 1, 1]
    blob = json.dumps(payload)
    assert "0.5" not in blob  # no decimals anywhere


@pytest.mark.parametrize("builder", ("sr", "sd", "diff"))
@pytest.mark.parametrize("name", sorted(SPECS))
def test_catalog_reports_match_reference_digests(name, builder):
    """Every catalog report serializes bit for bit as recorded in the
    benchmark's reference digests."""
    want = json.loads(REFERENCE.read_text())["digests"][f"{name}/{builder}"]
    report = getattr(bundle, f"ring_via_{builder}")(SPECS[name]())
    text = dumps(report_to_dict(report))
    assert hashlib.sha256(text.encode()).hexdigest() == want
