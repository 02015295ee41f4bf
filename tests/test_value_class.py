"""tpqr.value_class against frozen dataclasses.

Four value classes are compared with their ``@dataclass(frozen=True)``
declarations kept in conftest: construction by position, by keyword and
with a default; TypeError for a missing or extra argument; the errors of
their validation; ``==``, ``hash`` and ``repr``; AttributeError on
assignment and deletion; a cached property, and a subclass.  Every value
class of the layers is built by the one generic constructor, and checks
the type of its integer fields when it is built; the exact layers check
an index triple where it enters, with one wording per refusal in the
layer's own error class, an RL word's sign is 1 or -1, and a twist
word's classes are HomologyClass objects.  A constructor stores its
sequence fields as tuples, so a value built from lists is the value built
from tuples, and the caller's lists can change afterwards without changing
the value or what was computed from it."""

import ast
from dataclasses import MISSING, fields
from functools import reduce
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    DataclassGramLattice,
    DataclassQuadIrrational,
    DataclassRLWord,
    DataclassSL2Matrix,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tpqr
from tpqr import cuspdual, k3glue, milnorfiber, numcheck, quadlattice, sl2z, value_class
from tpqr.cuspdual import CuspDualityError, CycleData, QuadIrrational, cf_value
from tpqr.quadlattice import (
    GramLattice,
    LatticeError,
    SNFResult,
    discriminant,
    signature,
    smith_normal_form,
    t_lattice,
)
from tpqr.sl2z import ALPHA, BETA, L, R, RLWord, SL2Matrix, TwistWord

_I, _S = SL2Matrix(1, 0, 0, 1), SL2Matrix(0, -1, 1, 0)

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
        lambda v: tuple(vars(QuadIrrational(*v)).values())
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
    c = k3glue.InoseCase((2, 2, 0, 1))
    assert hash(c) == hash(((2, 2, 0, 1),))
    assert repr(c) == "InoseCase(counts=(2, 2, 0, 1))"
    assert c == k3glue.InoseCase([2, 2, 0, 1]) and c != (2, 2, 0, 1)


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


def test_the_only_classmethods_are_the_json_readers_and_minimal():
    """A value has one way in, its constructor: a classmethod may read a
    value back from JSON, or, as FibrationParams.minimal, compute a field
    the caller does not give."""
    found = {
        f"{cls.__qualname__}.{name}"
        for cls in _layer_value_classes()
        for name, attr in vars(cls).items()
        if isinstance(attr, classmethod)
    }
    assert found == {
        "FibrationParams.minimal",
        "GramLattice.from_json",
        "QuadIrrational.from_json",
        "SL2Matrix.from_json",
        "TwistWord.from_json",
    }


def test_no_module_builds_a_lattice_by_hand():
    """``GramLattice(labels, gram)``, with its O(n^2) checks and its
    elimination, is for input from outside the program: no module of the
    package calls it by name, so every lattice it builds comes from a
    builder.  ``from_json`` builds through ``cls``, which does not count."""
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(tpqr.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "GramLattice" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert calls == []


@pytest.mark.parametrize(
    "build",
    [
        lambda: cuspdual.dual_triple(2.9, 3, 7),
        lambda: cuspdual.verify_duality(2, 3, 7.0),
        lambda: cuspdual.triple_to_cycle(2, 3, True),
        lambda: numcheck.FibrationParams(2.0, 3, 7, a=1e13),
        lambda: numcheck.FibrationParams(2, 3, True, a=1e13),
        lambda: k3glue.InoseCase((1.0, 2, 0, True)),
        lambda: k3glue.InoseCase((1, 2, 0, 2.0)),
        lambda: TwistWord(((ALPHA, 2.9),)),
        lambda: TwistWord(((ALPHA, 1), (BETA, True))),
        lambda: QuadIrrational(True, 1, 2, 5),
        lambda: QuadIrrational(1, 1, 2.0, 5),
        lambda: QuadIrrational(1, 1, 2, True),
        lambda: QuadIrrational(1.0, 1, 2, 5),
        lambda: numcheck.NumericalConfig(samples=True),
        lambda: numcheck.NumericalConfig(samples=200.0),
        lambda: numcheck.NumericalConfig(seed=True),
        lambda: numcheck.NumericalConfig(seed=1.0),
        lambda: numcheck.FibrationParams(2, 3, 7, a=True),
        lambda: numcheck.FibrationParams(2, 3, 7, a=1e13, theta=True),
        lambda: numcheck.FibrationParams(2, 3, 7, a=1e13, t=True),
        lambda: RLWord((1, 1), True),
        lambda: RLWord((1, 1), -1.0),
        lambda: quadlattice.e_lattice(True),
        lambda: quadlattice.e_lattice(8.0),
        lambda: numcheck.hessian_model(2.5, 1e8),
        lambda: milnorfiber.char_poly(((1.5, 0), (0, 1))),
        lambda: milnorfiber.char_poly(((True, 0), (0, 1))),
        lambda: sl2z.evaluate_word([(ALPHA, 2.9)]),
        lambda: sl2z.evaluate_word([(ALPHA, 1), (BETA, True)]),
    ],
)
def test_integer_fields_refuse_floats_and_bools_when_built(build):
    # the library's own wordings, not a TypeError from deeper down
    with pytest.raises(TypeError, match="^integer [a-z ]+ required, got |^a, theta and t take "):
        build()


@pytest.mark.parametrize(
    "build, triple",
    [
        (cuspdual.dual_triple, (2.9, 3, 7)),
        (milnorfiber.monodromy_action, (2, 3, 7.0)),
        (sl2z.monodromy_matrix, (2, 3, 7.5)),
        (quadlattice.t_lattice, (2, 3, 7.0)),
        (quadlattice.t_lattice, (2, 3, True)),
        (quadlattice.t_tilde_lattice, (2, True, 7)),
        (k3glue.pair_for_triple, (2.0, 3, 7)),
        (milnorfiber.monodromy_action, (True, 3, 7)),
        (k3glue.pair_for_triple, (True, 3, 7)),
        (lambda *given: numcheck.FibrationParams(*given, a=1e13), (2.0, 3, 7)),
    ],
)
def test_the_exact_layers_refuse_a_triple_that_is_not_three_ints(build, triple):
    with pytest.raises(TypeError, match=rf"^integer triple required, got \({', '.join(map(str, triple))}\)$"):
        build(*triple)


_RANGE = "indices must be >= 2, got ({},{},{})"
_CUSP = "({},{},{}) is not a cusp triple (needs 1/p+1/q+1/r < 1)"
_CUSP_OR_PARABOLIC = "({},{},{}) is not a cusp or parabolic triple (needs 1/p+1/q+1/r <= 1)"


@pytest.mark.parametrize(
    "build, triple, error, wording",
    [
        (cuspdual.verify_duality, (1, 3, 7), CuspDualityError, _RANGE),
        (cuspdual.triple_to_cycle, (2, 3, 6), CuspDualityError, _CUSP),
        (quadlattice.t_lattice, (2, 3, 1), LatticeError, _RANGE),
        (quadlattice.t_tilde_lattice, (2, 3, 5), LatticeError, _CUSP_OR_PARABOLIC),
        (milnorfiber.monodromy_action, (1, 5, 9), LatticeError, _RANGE),
        (milnorfiber.monodromy_action, (2, 3, 5), LatticeError, _CUSP_OR_PARABOLIC),
        (sl2z.monodromy_matrix, (1, 3, 7), ValueError, _RANGE),
        (k3glue.pair_for_triple, (1, 3, 7), ValueError, _RANGE),
        (quadlattice.t_tilde_lattice, (2, 1, 9), LatticeError, _RANGE),
        (lambda *given: numcheck.FibrationParams(*given, a=1e13), (1, 3, 7), ValueError, _RANGE),
        (lambda *given: numcheck.FibrationParams(*given, a=1e13), (2, 3, 5), ValueError,
         _CUSP_OR_PARABOLIC),
    ],
)
def test_a_triple_out_of_range_or_class_raises_its_layers_own_error(build, triple, error, wording):
    with pytest.raises(error) as info:
        build(*triple)
    assert type(info.value) is error and str(info.value) == wording.format(*triple)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TwistWord((((1, 0), 1),)),
        lambda: TwistWord(((ALPHA, 1), ("beta", 2))),
        lambda: sl2z.evaluate_word([((1, 0), 1)]),
        lambda: sl2z.evaluate_word([(ALPHA, 1, 2)]),
        lambda: sl2z.evaluate_word([(ALPHA,)]),
        lambda: sl2z.evaluate_word([ALPHA]),
        lambda: TwistWord(((ALPHA, 1, 2),)),
        lambda: TwistWord(((ALPHA,),)),
        lambda: TwistWord((ALPHA,)),
    ],
)
def test_a_twist_word_takes_homology_classes(build):
    """Each step must be a (class, exponent) pair; a step of another
    length, or a bare class, is refused before it is unpacked."""
    with pytest.raises(TypeError, match="^HomologyClass steps required, got "):
        build()


@pytest.mark.parametrize("sign", [5, 0, -2])
def test_an_rl_word_takes_the_sign_1_or_minus_1(sign):
    with pytest.raises(ValueError, match=f"^sign must be 1 or -1, got {sign}$"):
        RLWord((1, 1), sign)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda seq: GramLattice(seq("ab"), seq(map(seq, [[-2, 1], [1, -2]]))),
                     id="GramLattice"),
        pytest.param(lambda seq: CycleData(seq([3, 2])), id="CycleData"),
        pytest.param(lambda seq: k3glue.InoseCase(seq([2, 2, 2, 2])), id="InoseCase"),
        pytest.param(lambda seq: RLWord(seq([1, 2])), id="RLWord"),
        pytest.param(lambda seq: SNFResult(*map(seq, _snf_fields(t_lattice(2, 3, 7)))),
                     id="SNFResult"),
    ],
)
def test_a_value_built_from_lists_is_the_value_built_from_tuples(build):
    listed, tupled = build(list), build(tuple)
    assert listed == tupled and hash(listed) == hash(tupled) and repr(listed) == repr(tupled)


def _snf_fields(lat):
    snf = smith_normal_form(lat)
    return snf.divisors, snf.row_ops, snf.col_ops


def _lattice_invariants(lat):
    return discriminant(lat), signature(lat), smith_normal_form(lat).divisors


def test_a_lattice_keeps_its_gram_when_the_callers_rows_change():
    labels, rows = ["a", "b"], [[-2, 1], [1, -2]]
    lat = GramLattice(labels, rows)
    read = _lattice_invariants(lat)
    assert read == (3, (0, 0, 2), (1, 3))
    labels[0], rows[0][0], rows[1][0] = "z", 5, 7  # det -17, and no longer symmetric
    assert lat.labels == ("a", "b") and lat.gram == ((-2, 1), (1, -2))
    assert _lattice_invariants(lat) == read == _lattice_invariants(GramLattice(lat.labels, lat.gram))


def test_a_cycle_keeps_its_entries_when_the_callers_list_changes():
    entries = [3, 2]
    cycle = CycleData(entries)
    value = cf_value(cycle)
    entries[0] = 5
    assert cycle.entries == (3, 2)
    assert cf_value(cycle) == value == cf_value(CycleData(cycle.entries))


def test_two_hessian_reports_of_one_point_compare_equal_and_hash():
    params = numcheck.FibrationParams.minimal(2, 3, 7)
    pt = numcheck.critical_points(params)[0]
    first, second = numcheck.hessian_fd_check(params, pt), numcheck.hessian_fd_check(params, pt)
    assert first is not second and first == second and hash(first) == hash(second)


def test_two_hessian_models_compare_equal_and_hash_and_keep_their_arrays():
    first, second = numcheck.hessian_model(3, 1e8), numcheck.hessian_model(3, 1e8)
    assert first is not second and first == second and hash(first) == hash(second)
    assert not first != second and len({first, second}) == 1
    assert isinstance(first.a_matrix, np.ndarray) and first.a_matrix.shape == (4, 4)
    other = numcheck.hessian_model(4, 1e8)
    assert first != other and first.b_matrix is other.b_matrix  # only lam differs
    # a matrix of another dtype or shape with the same bytes is another model
    same_bytes = vars(first) | {"a_matrix": first.a_matrix.view(np.int64)}
    assert numcheck.HessianModel(**same_bytes) != first
    reshaped = vars(first) | {"a_matrix": first.a_matrix.reshape(2, 8)}
    assert numcheck.HessianModel(**reshaped) != first
    assert first.__eq__(vars(first)) is NotImplemented and first != vars(first)


def test_a_certificate_keeps_its_operations_when_the_callers_lists_change():
    lat = t_lattice(2, 3, 7)
    divisors, row_ops, col_ops = map(list, _snf_fields(lat))
    snf = SNFResult(divisors, row_ops, col_ops)
    read = snf.u, snf.v, snf.verify(lat)
    assert read == (smith_normal_form(lat).u, smith_normal_form(lat).v, True)
    divisors[0], row_ops[:], col_ops[:] = 5, [], col_ops[::-1]
    assert (snf.u, snf.v, snf.verify(lat)) == read
    fresh = SNFResult(snf.divisors, snf.row_ops, snf.col_ops)
    assert snf == smith_normal_form(lat) and (fresh.u, fresh.v, fresh.verify(lat)) == read


def test_a_list_operation_is_kept_as_given_and_refused_without_raising():
    """Only the outer sequences become tuples: an operation that is not a
    tuple is left for ``verify`` to refuse."""
    lat = t_lattice(2, 3, 7)
    divisors, row_ops, col_ops = _snf_fields(lat)
    bad = SNFResult(divisors, row_ops + ([0, 1],), col_ops)
    assert type(bad.row_ops) is tuple and bad.row_ops[-1] == [0, 1]
    assert bad.verify(lat) is False
