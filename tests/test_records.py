"""The algebra, deformations, gauges and the result records are immutable values."""

import pytest

from hlya.algebra import Algebra, AxiomReport
from hlya.coboundary import CoboundaryMap
from hlya.cohomology import CohomologyReport, LevelReport
from hlya.deformation import (
    DeformationReport,
    ObstructionPair,
    ProbeReport,
    TrivializeResult,
    identity_gauge,
    null_deformation,
    verify_deformation,
)
from hlya.derivations import DerivationLieReport, DerivationSpace

# each record's fields, in constructor order
RECORDS = {
    AxiomReport: ("passed", "counterexamples"),
    CoboundaryMap: ("level", "domain", "codomain", "matrix"),
    LevelReport: ("cocycles", "coboundaries", "h_dim"),
    CohomologyReport: ("algebra", "h1", "level2", "level3"),
    DeformationReport: ("order", "failures"),
    TrivializeResult: ("gauge", "obstructed_at", "representative"),
    ObstructionPair: ("first", "second", "in_z4z5"),
    ProbeReport: ("failures",),
    DerivationSpace: ("twist", "basis"),
    DerivationLieReport: ("k_max", "dims", "checked_pairs"),
}


def test_algebra_attributes_cannot_be_set_or_deleted(e1):
    for name in ("dim", "binary", "ternary", "alpha", "name", "_memo", "unknown"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(e1, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(e1, name)
    assert e1.name == "aff1" and e1.dim == 2


def test_renamed_algebra_is_equal_with_the_same_hash(e1, e2):
    renamed = Algebra(e1.dim, e1.binary, e1.ternary, e1.alpha, "renamed")
    assert renamed == e1 and hash(renamed) == hash(e1) and {e1: 1}[renamed] == 1
    assert repr(renamed) == "Algebra(renamed, dim=2)" and repr(Algebra(1, (), (), ())) == "Algebra(?, dim=1)"
    assert renamed._memo is not e1._memo
    assert e1 != e2 and e1 != (e1.dim, e1.binary, e1.ternary, e1.alpha)
    assert e1.__eq__(object()) is NotImplemented


def test_deformation_and_gauge_attributes_cannot_be_set_or_deleted(e2):
    # a raised order would let verify_deformation pass orders that have no
    # coefficients
    d = null_deformation(e2, 2)
    p = identity_gauge(e2, 2)
    for value, names in ((d, ("base", "order", "f_seq", "g_seq")), (p, ("base", "order", "phi"))):
        for name in (*names, "unknown"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(value, name, 7)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(value, name)
    assert d.order == p.order == 2 and len(d.f_seq) == len(p.phi) == 3
    assert verify_deformation(d).order == 2


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_are_immutable_tuples(record):
    fields = RECORDS[record]
    assert record._fields == fields
    value = record(*range(len(fields)))
    assert tuple(value) == tuple(range(len(fields)))
    for name in (*fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert tuple(value) == tuple(range(len(fields)))


def test_trivialize_result_defaults():
    assert TrivializeResult(None) == (None, None, None)
    assert not TrivializeResult(None).trivial
