"""The value contract of every record class: repr, equality, hash, immutability.

Four classes validate their fields (``CyclicPerm``, ``CycleDiagram``,
``Classification``, ``BDiagram``); seven are plain records.  Each must
print as ``Name(field=value, ...)``, compare equal and hash alike when its
fields are equal (the hash is that of the tuple of fields, so set and dict
order never changes), refuse assignment with an ``AttributeError``, and
survive pickle and copy.
"""

import copy
import pickle

import pytest

from arcdiagrams import (
    BClassification,
    BDiagram,
    Classification,
    CommonGenerators,
    CycleDiagram,
    CyclicPerm,
    InvalidReason,
    StepPath,
    WordCheck,
    WordPredicates,
)
from arcdiagrams.census import CensusReport, SplitException

TRIANGLE = ((1, 2), (2, 3), (1, 3))

# name -> (a factory giving a fresh instance, its field names, its exact repr)
RECORDS = {
    "CyclicPerm": (
        lambda: CyclicPerm((1, 3, 2)),
        ("seq",),
        "CyclicPerm(seq=(1, 3, 2))",
    ),
    "CycleDiagram": (
        lambda: CycleDiagram(3, frozenset(TRIANGLE)),
        ("n", "arcs"),
        f"CycleDiagram(n=3, arcs={frozenset(TRIANGLE)!r})",
    ),
    "Classification": (
        lambda: Classification(frozenset({1}), frozenset({3}), frozenset({2})),
        ("R", "Rbar", "K"),
        "Classification(R=frozenset({1}), Rbar=frozenset({3}), K=frozenset({2}))",
    ),
    "BDiagram": (
        lambda: BDiagram(((1, 2), (3,))),
        ("blocks",),
        "BDiagram(blocks=((1, 2), (3,)))",
    ),
    "WordPredicates": (
        lambda: WordPredicates(True, False, True),
        ("is_motzkin", "is_dyck", "is_elevated"),
        "WordPredicates(is_motzkin=True, is_dyck=False, is_elevated=True)",
    ),
    "StepPath": (
        lambda: StepPath((1, 0, -1)),
        ("steps",),
        "StepPath(steps=(1, 0, -1))",
    ),
    "BClassification": (
        lambda: BClassification(
            frozenset({1}), frozenset(), frozenset(), frozenset(), frozenset({2}),
            frozenset({3}),
        ),
        ("R", "Rbar", "K", "A", "Abar", "L"),
        "BClassification(R=frozenset({1}), Rbar=frozenset(), K=frozenset(), "
        "A=frozenset(), Abar=frozenset({2}), L=frozenset({3}))",
    ),
    "WordCheck": (
        lambda: WordCheck(False, reason=InvalidReason.NONZERO_TOTAL),
        ("ok", "witness", "reason"),
        "WordCheck(ok=False, witness=None, "
        "reason=<InvalidReason.NONZERO_TOTAL: 'NonzeroTotal'>)",
    ),
    "CommonGenerators": (
        lambda: CommonGenerators((CyclicPerm((1, 2, 3)),), True, False),
        ("generators", "first_in_second", "second_in_first"),
        "CommonGenerators(generators=(CyclicPerm(seq=(1, 2, 3)),), "
        "first_in_second=True, second_in_first=False)",
    ),
    "SplitException": (
        lambda: SplitException("rrkRR", 3, 2, "1 4 2 5 3"),
        ("word", "expected_second", "count", "example"),
        "SplitException(word='rrkRR', expected_second=3, count=2, example='1 4 2 5 3')",
    ),
    "CensusReport": (
        lambda: CensusReport(3, 2, 1, 1, 0, 0, ()),
        (
            "n", "perm_count", "word_count", "motzkin_expected", "dyck_count",
            "dyck_expected", "split_exceptions",
        ),
        "CensusReport(n=3, perm_count=2, word_count=1, motzkin_expected=1, "
        "dyck_count=0, dyck_expected=0, split_exceptions=())",
    ),
}

parametrize_records = pytest.mark.parametrize("name", sorted(RECORDS))


@parametrize_records
def test_repr(name):
    make, _, text = RECORDS[name]
    assert repr(make()) == text


@parametrize_records
def test_equal_values_are_equal_and_hash_alike(name):
    make, fields, _ = RECORDS[name]
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert hash(first) == hash(tuple(getattr(first, f) for f in fields))
    assert len({first, second}) == 1


@parametrize_records
def test_fields_cannot_be_assigned_or_deleted(name):
    make, fields, _ = RECORDS[name]
    record = make()
    for field in fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == value
    with pytest.raises(AttributeError):
        record.extra = 1


@parametrize_records
def test_pickle_and_copy_give_an_equal_record(name):
    record = RECORDS[name][0]()
    copies = pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)
    for again in copies:
        assert type(again) is type(record) and again == record


def test_validated_records_equal_only_their_own_class():
    assert CyclicPerm((1, 2, 3)) != ((1, 2, 3),)
    assert CyclicPerm((1, 2, 3)) != (1, 2, 3)
    assert BDiagram(((1, 2), (3,))) != (((1, 2), (3,)),)
    assert CycleDiagram(3, frozenset(TRIANGLE)) != (3, frozenset(TRIANGLE))
    assert CyclicPerm((1, 2, 3)) != CyclicPerm((1, 3, 2))


def test_cyclic_perm_order_is_by_sequence():
    low, mid, high = (CyclicPerm(s) for s in [(1, 2, 3, 4), (1, 3, 2, 4), (1, 4, 3, 2)])
    assert low < mid < high and high > mid > low
    assert low <= low and low >= low and not low < low and not low > low
    assert sorted([high, low, mid]) == [low, mid, high]
    assert min([mid, high, low]) is low and max([low, high, mid]) is high
    with pytest.raises(TypeError):
        low < (1, 2, 3, 4)
    with pytest.raises(TypeError):
        BDiagram(((1,), (2,))) < BDiagram(((2,), (1,)))


def test_word_check_defaults():
    check = WordCheck(ok=True)
    assert check.witness is None and check.reason is None
    assert check == WordCheck(True, None, None)


def test_step_path_length_counts_steps():
    assert len(StepPath((1, 0, -1, 0))) == 4


def test_step_path_replace_and_make_round_trip():
    path = StepPath((1, 0, -1))
    shorter = path._replace(steps=(1, -1))
    assert shorter == StepPath((1, -1)) and len(shorter) == 2
    assert shorter._replace(steps=path.steps) == path
    assert StepPath._make([path.steps]) == path
    assert StepPath._make(path) == path
    assert type(StepPath._make(path)) is StepPath
    with pytest.raises(ValueError):
        path._replace(heights=(1,))
