"""tpqr.value_class against frozen dataclasses.

Four value classes are compared with their ``@dataclass(frozen=True)``
declarations kept in conftest: construction by position, by keyword and
with a default; TypeError for a missing or extra argument; the errors of
their validation; ``==``, ``hash`` and ``repr``; AttributeError on
assignment and deletion; a cached property, and a subclass.  Every value
class of the layers is built by the one generic constructor, and checks
the type of its integer fields when it is built."""

from dataclasses import MISSING, fields
from functools import reduce
from operator import mul

import pytest
from conftest import (
    DataclassGramLattice,
    DataclassQuadIrrational,
    DataclassRLWord,
    DataclassSL2Matrix,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tpqr import cuspdual, k3glue, milnorfiber, numcheck, quadlattice, sl2z, value_class
from tpqr.cuspdual import QuadIrrational, Triple
from tpqr.quadlattice import GramLattice
from tpqr.sl2z import ALPHA, BETA, L, R, RLWord, SL2Matrix, TwistWord

_I, _S = SL2Matrix.identity(), SL2Matrix(0, -1, 1, 0)

# entries that fail the validation by type
ODD = st.sampled_from([1.0, "1", None])


def _sl2_entries():
    word = st.lists(st.sampled_from([R, L, _S]), max_size=6)
    valid = word.map(lambda w: reduce(mul, w, _I)).map(lambda m: (m.a, m.b, m.c, m.d))
    return st.one_of(valid, st.tuples(*[st.one_of(st.integers(-3, 3), ODD)] * 4))


def _rl_entries():
    return st.tuples(st.lists(st.integers(0, 3), max_size=4).map(tuple), st.sampled_from([1, -1]))


def _quad_entries():
    ints = st.tuples(st.integers(-5, 5), st.integers(-3, 3), st.integers(-1, 4), st.integers(0, 8))
    made = ints.filter(lambda v: v[2] != 0 and v[3] > 0).map(
        lambda v: tuple(vars(QuadIrrational.make(*v)).values())
    )
    return st.one_of(made, ints)


@st.composite
def _gram_entries(draw):
    n = draw(st.integers(0, 3))
    size = draw(st.sampled_from([n, n, n, n + 1]))
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            rows[i][j] = rows[j][i] = draw(st.integers(-2, 2))
    if size >= 2 and draw(st.booleans()):
        rows[0][1] += 1  # no longer symmetric
    labels = tuple(f"e{i}" for i in range(n))
    return labels, tuple(map(tuple, rows))


CASES = {
    "SL2Matrix": (SL2Matrix, DataclassSL2Matrix, _sl2_entries()),
    "RLWord": (RLWord, DataclassRLWord, _rl_entries()),
    "QuadIrrational": (QuadIrrational, DataclassQuadIrrational, _quad_entries()),
    "GramLattice": (GramLattice, DataclassGramLattice, _gram_entries()),
}
VALID_FORMS = ("positional", "keyword", "mixed", "default")
BINDING_ERRORS = ("missing", "extra", "unknown", "duplicate")


def call_form(oracle, values, form, split):
    """(args, kwargs) for one way of calling the constructor."""
    names = [f.name for f in fields(oracle)]
    required = [f.name for f in fields(oracle) if f.default is MISSING]
    named = dict(zip(names, values))
    k = split % (len(names) + 1)
    if form == "positional":
        return values, {}
    if form == "keyword":
        return (), named
    if form == "mixed":
        return values[:k], dict(list(named.items())[k:])
    if form == "default":  # leave out every field that has a default
        return values[: len(required)], {}
    if form == "missing":
        del named[required[split % len(required)]]
        return (), named
    if form == "extra":
        return (*values, 0), {}
    if form == "unknown":
        return values, {"unknown": 0}
    return values[:1], {names[0]: values[0]}  # duplicate


def construct(cls, args, kwargs):
    try:
        return cls(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return exc


def assert_same_value(new, old):
    assert list(vars(new).items()) == list(vars(old).items())
    assert hash(new) == hash(old)
    assert repr(new) == repr(old).replace(type(old).__qualname__, type(new).__qualname__, 1)
    assert new != old and not new == tuple(vars(new).values())
    for name in [*vars(old), "other"]:
        for change in (lambda x: setattr(x, name, 0), lambda x: delattr(x, name)):
            for obj in (new, old):
                with pytest.raises(AttributeError):
                    change(obj)
    assert list(vars(new).items()) == list(vars(old).items())


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=150)
@given(data=st.data())
def test_value_class_behaves_like_the_frozen_dataclass(case, data):
    cls, oracle, entries = CASES[case]
    values = data.draw(entries, label="values")
    form = data.draw(st.sampled_from(VALID_FORMS + BINDING_ERRORS), label="form")
    split = data.draw(st.integers(0, 9), label="split")
    args, kwargs = call_form(oracle, values, form, split)
    new, old = construct(cls, args, kwargs), construct(oracle, args, kwargs)
    if form in BINDING_ERRORS:
        assert isinstance(new, TypeError) and isinstance(old, TypeError), (new, old)
        return
    assert type(new).__name__ == type(old).__name__.removeprefix("Dataclass")
    if isinstance(old, Exception):
        assert str(new) == str(old)
        return
    assert_same_value(new, old)

    other = data.draw(st.one_of(st.just(values), entries), label="other")
    new2, old2 = construct(cls, other, {}), construct(oracle, other, {})
    if not isinstance(old2, Exception):
        assert (new == new2) == (old == old2) and (new != new2) == (old != old2)
        assert (hash(new) == hash(new2)) == (hash(old) == hash(old2))


@given(entries=_gram_entries())
def test_a_cached_property_is_kept_out_of_the_value(entries):
    old = construct(DataclassGramLattice, entries, {})
    assume(not isinstance(old, Exception))
    new = GramLattice(*entries)
    assert new._elimination == old._elimination
    assert "_elimination" in vars(new)
    fresh = GramLattice(*entries)
    assert new == fresh and hash(new) == hash(fresh) and repr(new) == repr(fresh)
    with pytest.raises(AttributeError):
        new._elimination = None


def test_a_subclass_names_itself_and_equals_only_its_own_instances():
    class Sub(QuadIrrational):
        pass

    class OldSub(DataclassQuadIrrational):
        pass

    new, old = Sub(1, 1, 2, 5), OldSub(1, 1, 2, 5)
    assert repr(new) == repr(old).replace("OldSub", "Sub")
    assert repr(new).endswith(".Sub(a=1, b=1, c=2, d=5)")
    assert new != QuadIrrational(1, 1, 2, 5) and old != DataclassQuadIrrational(1, 1, 2, 5)
    assert new == Sub(1, 1, 2, 5) and hash(new) == hash(old)


def test_a_one_field_class_hashes_the_one_tuple():
    t = Triple((2, 3, 7))
    assert hash(t) == hash(((2, 3, 7),))
    assert repr(t) == "Triple(given=(2, 3, 7))"
    assert t == Triple.of(2, 3, 7) and t != (2, 3, 7)


@value_class
class _Probe:
    x: int


def _layer_value_classes():
    """Every class of the six layers that value_class made."""
    frozen = _Probe.__setattr__.__code__
    layers = (cuspdual, k3glue, milnorfiber, numcheck, quadlattice, sl2z)
    return {
        cls
        for layer in layers
        for cls in vars(layer).values()
        if isinstance(cls, type)
        and getattr(vars(cls).get("__setattr__"), "__code__", None) is frozen
    }


def test_no_value_class_writes_its_own_init():
    classes = _layer_value_classes()
    assert {SL2Matrix, QuadIrrational, TwistWord, GramLattice, numcheck.FibrationParams} <= classes
    for cls in classes:
        assert vars(cls)["__init__"].__code__ is _Probe.__init__.__code__, cls.__qualname__


@pytest.mark.parametrize(
    "build",
    [
        lambda: cuspdual.dual_triple(2.9, 3, 7),
        lambda: Triple.of(2, 3, 7.0),
        lambda: Triple((2, 3, True)),
        lambda: numcheck.FibrationParams(2.0, 3, 7, a=1e13),
        lambda: numcheck.FibrationParams(2, 3, True, a=1e13),
        lambda: k3glue.InoseCase((1.0, 2, 0, True)),
        lambda: k3glue.InoseCase((1, 2, 0, 2.0)),
        lambda: TwistWord(((ALPHA, 2.9),)),
        lambda: TwistWord(((ALPHA, 1), (BETA, True))),
        lambda: QuadIrrational(True, 1, 2, 5),
        lambda: QuadIrrational(1, 1, 2.0, 5),
    ],
)
def test_integer_fields_refuse_floats_and_bools_when_built(build):
    with pytest.raises(TypeError, match="integer"):
        build()


@pytest.mark.parametrize("given", [(2, 3), (2, 3, 7, 9)])
def test_a_triple_needs_three_entries_when_built(given):
    with pytest.raises(TypeError, match=r"^integer triple required, got \(2, 3"):
        Triple(given)
