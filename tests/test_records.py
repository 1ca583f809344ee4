"""The value classes behave as the frozen dataclasses they replaced.

The reference below is the nine classes' `@dataclass(frozen=True)` field
definitions as they were, under the same class names, so their reprs
compare as text.  Each test builds records from real outputs, converts
them field by field into reference instances, and asks both the same
question: repr, equality, hash, construction, refused assignment and
deletion, and copy and pickle round trips.  Each class has, among its
samples, two that differ only in their last field.
"""

from __future__ import annotations

import copy
import inspect
import pickle
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import combinations

import pytest

from apolarity import apolar, bounds, enumeration, hilbert, macaulay, poly
from apolarity.poly import Polynomial, parse

# -- the reference: the parent's field definitions, verbatim ---------------


@dataclass(frozen=True)
class HilbertFunction:
    values: tuple


@dataclass(frozen=True)
class SymmetricDecomposition:
    d: int
    rows: tuple


@dataclass(frozen=True)
class DecompositionCandidate:
    hilbert: HilbertFunction
    decomposition: SymmetricDecomposition


@dataclass(frozen=True)
class BinomialExpansion:
    i: int
    terms: tuple  # pairs (m_k, k), k descending from i


@dataclass(frozen=True)
class DimBoundReport:
    n: int
    length: int
    d: int
    hilbert: tuple
    deltas: tuple
    embedding: tuple
    v_theta: int
    d_infty: int
    d_flag: int
    v: int
    w: int | None
    margin: int | None


@dataclass(frozen=True)
class TheoremRow:
    l: int
    r: int
    hilbert: tuple
    deltas: tuple
    v: int
    threshold: int
    margin: int


@dataclass(frozen=True)
class TheoremReport:
    n: int
    cactus_rank: int
    passed: bool
    rows: tuple
    worst_margin: int | None
    max_v_by_length: dict
    conjectured_extremal: dict
    in_scope: bool
    filtered: bool


@dataclass(frozen=True)
class ApolarScheme:
    defining: Polynomial
    length: int
    hilbert: tuple
    support: Polynomial
    annihilator: tuple
    apolarity_checked: bool
    stabilized: bool
    change: ChangeOfBasis = field(repr=False, default=None)


@dataclass(frozen=True)
class ChangeOfBasis:
    old_to_new: tuple
    new_to_old: tuple
    dropped: int = 0


# -------------------------------------------------------------------------

REFERENCE = {
    hilbert.HilbertFunction: HilbertFunction,
    hilbert.SymmetricDecomposition: SymmetricDecomposition,
    enumeration.DecompositionCandidate: DecompositionCandidate,
    macaulay.BinomialExpansion: BinomialExpansion,
    bounds.DimBoundReport: DimBoundReport,
    bounds.TheoremRow: TheoremRow,
    bounds.TheoremReport: TheoremReport,
    apolar.ApolarScheme: ApolarScheme,
    poly.ChangeOfBasis: ChangeOfBasis,
}
CLASSES = list(REFERENCE)


def names(cls) -> list:
    return [f.name for f in fields(REFERENCE[cls])]


def values(record) -> list:
    return [getattr(record, name) for name in names(type(record))]


def reference(value):
    """The reference instance of a record, its fields converted the same way."""
    if type(value) is tuple:
        return tuple(map(reference, value))
    if type(value) not in REFERENCE:
        return value
    return REFERENCE[type(value)](*map(reference, values(value)))


def last_field_changed(record, last):
    return type(record)(*values(record)[:-1], last)


@lru_cache(maxsize=None)
def samples() -> dict:
    """Records of each class from real outputs, and for each class two that
    differ only in the last field."""
    candidates = enumeration.admissible_decompositions(14, 7)
    reports = [bounds.verify_theorem(7), bounds.verify_theorem(7, nonsmoothable_only=False)]
    dims = [bounds.v_bound(c.decomposition, 7) for c in candidates[:10]]
    dims.append(bounds.v_bound(candidates[0].decomposition, 9))  # length 14 > c(9) - 1
    rows = list(reports[1].rows[:10])
    schemes = [apolar.local_scheme(parse(text, nvars, base=0), parse(at, nvars, base=0))
               for text, nvars, at in (("x0^3 + x1^3 + x2^3", 3, "x0 + x1"),
                                       ("x0^2*x1", 2, "x0"),
                                       ("x0^3 + x0*x1*x2", 3, "x0 - 2*x2"))]
    changes = [s.change for s in schemes]
    changes.append(hilbert.adapt_coordinates(parse("x1^3 + x1^2*x2", 3))[1])
    out = {
        # one field, and several socle degrees share their d
        hilbert.HilbertFunction: [c.hilbert for c in candidates[:20]],
        hilbert.SymmetricDecomposition: [c.decomposition for c in candidates[:20]],
        # 20 Hilbert functions of length 14 have two candidates each
        enumeration.DecompositionCandidate: candidates[:30],
        macaulay.BinomialExpansion: [macaulay.binomial_expansion(v, i)
                                     for i in (1, 3) for v in range(12)],
        bounds.DimBoundReport: dims + [last_field_changed(dims[0], dims[0].margin + 1)],
        bounds.TheoremRow: rows + [last_field_changed(rows[0], rows[0].margin + 1)],
        bounds.TheoremReport: reports + [last_field_changed(reports[0], False)],
        apolar.ApolarScheme: schemes + [last_field_changed(schemes[0], None)],
        poly.ChangeOfBasis: changes + [last_field_changed(changes[0], 1)],
    }
    assert changes[-1].dropped == 1
    return out


def test_some_samples_differ_only_in_their_last_field():
    for cls, records in samples().items():
        heads = [values(r)[:-1] for r in records]
        assert any(a == b and values(x)[-1] != values(y)[-1]
                   for (a, x), (b, y) in combinations(zip(heads, records), 2)), cls


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestAgainstTheFrozenDataclasses:
    def test_repr(self, cls):
        for record in samples()[cls]:
            assert repr(record) == repr(reference(record))

    def test_equality(self, cls):
        records = samples()[cls]
        for a, b in combinations(records, 2):
            assert (a == b) is (reference(a) == reference(b))
            assert (a != b) is (reference(a) != reference(b))
        for record in records:
            assert record == type(record)(*values(record))
            assert record != reference(record)  # classes differ, as two dataclasses do
            assert record != values(record)

    def test_hash(self, cls):
        for record in samples()[cls]:
            try:
                expected = hash(reference(record))
            except TypeError:
                with pytest.raises(TypeError):
                    hash(record)
            else:
                assert hash(record) == expected

    def test_construction_by_position_and_keyword(self, cls):
        def parameters(c):
            return [(p.name, p.kind, p.default) for p in inspect.signature(c).parameters.values()]

        assert parameters(cls) == parameters(REFERENCE[cls])
        assert cls.__match_args__ == REFERENCE[cls].__match_args__
        for record in samples()[cls]:
            assert cls(*values(record)) == record
            assert cls(**dict(zip(names(cls), values(record)))) == record

    def test_assignment_and_deletion_raise(self, cls):
        for record in samples()[cls]:
            before = values(record)
            for name in names(cls) + ["unknown"]:
                with pytest.raises(AttributeError):
                    setattr(record, name, 0)
                with pytest.raises(AttributeError):
                    delattr(record, name)
            assert values(record) == before

    def test_copy_and_pickle_round_trips(self, cls):
        for record in samples()[cls]:
            for twin in (copy.copy(record), copy.deepcopy(record),
                         pickle.loads(pickle.dumps(record))):
                assert type(twin) is cls
                assert twin == record and repr(twin) == repr(record)
                with pytest.raises(AttributeError):
                    setattr(twin, names(cls)[0], 0)


def test_hashes_of_reports_and_schemes_are_type_errors():
    # a TheoremReport holds dicts, an ApolarScheme polynomials
    for cls in (bounds.TheoremReport, apolar.ApolarScheme):
        for record in samples()[cls]:
            with pytest.raises(TypeError):
                hash(record)


def test_defaults():
    scheme = samples()[apolar.ApolarScheme][0]
    assert apolar.ApolarScheme(*values(scheme)[:-1]).change is None
    assert "change" not in repr(scheme)
    change = samples()[poly.ChangeOfBasis][0]
    assert poly.ChangeOfBasis(change.old_to_new, change.new_to_old).dropped == 0
    assert poly.ChangeOfBasis(old_to_new=(), new_to_old=()) == poly.ChangeOfBasis((), (), 0)
