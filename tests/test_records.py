"""The four records keep the contracts of frozen value types: read-only
fields, value equality and hashing, keyword construction, _replace and
the checks their constructors make."""

import pytest

from weylpair import pairs
from weylpair.curvefun import ContextMismatchError, CurveContext
from weylpair.pairs import build_pair
from weylpair.poly import Poly

SLICE = {"a0": 1, "a1": 0, "a2": 0, "a3": 1}
KINDS = ["curve", "q", "context", "pair"]


def record(kind, g=2):
    """A freshly built record of the given kind; two calls give equal but
    distinct objects."""
    pair = build_pair(g, SLICE)
    return {"curve": pair.curve, "q": pair.q,
            "context": CurveContext(q=pair.q, curve=pair.curve),
            "pair": pair}[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_fields_are_read_only(kind):
    rec = record(kind)
    for name in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))


@pytest.mark.parametrize("kind", KINDS)
def test_equal_records_compare_and_hash_equal(kind):
    a, b = record(kind), record(kind)
    assert a is not b
    assert a == b
    assert a != record(kind, g=3)
    if kind == "pair":
        # a DiffOp defines == and no hash, so a pair has no hash either
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("kind", KINDS)
def test_keyword_construction_and_replace(kind):
    rec = record(kind)
    fields = {name: getattr(rec, name) for name in rec._fields}
    assert type(rec)(**fields) == rec
    assert rec._replace() == rec
    assert repr(rec).startswith(
        f"{type(rec).__name__}({rec._fields[0]}=")


def test_replace_changes_one_field():
    qp = record("q")
    bumped = qp._replace(q=qp.q + Poly.var("x"))
    assert bumped.q == qp.q + Poly.var("x")
    assert bumped._replace(q=qp.q) == qp
    assert bumped.deltas is qp.deltas and bumped.v is qp.v


def test_spectral_curve_replace_keeps_its_checks():
    curve = record("curve")
    with pytest.raises(ValueError, match="needs 5 coefficients, got 4"):
        curve._replace(coeffs=curve.coeffs[:-1])
    with pytest.raises(ValueError, match="parameters only"):
        curve._replace(coeffs=(Poly.var("x"),) + curve.coeffs[1:])


def test_curve_context_rejects_mismatched_genera():
    ctx = record("context")
    other = record("curve", g=3)
    with pytest.raises(ContextMismatchError, match="genus mismatch"):
        CurveContext(q=ctx.q, curve=other)
    with pytest.raises(ContextMismatchError, match="genus mismatch"):
        ctx._replace(curve=other)


def test_pair_bracket_is_computed_once(monkeypatch):
    calls = []
    commutator = pairs.commutator
    monkeypatch.setattr(pairs, "commutator",
                        lambda a, b: calls.append(1) or commutator(a, b))
    pair = record("pair")
    first = pair.bracket
    assert pair.bracket is first
    assert first.is_zero()
    assert len(calls) == 1
    # a replaced pair holds its own bracket, not the cached one
    shifted = pair._replace(m=pair.m + pair.l4)
    assert shifted.bracket.is_zero()
    assert len(calls) == 2
