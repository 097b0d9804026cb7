"""Record semantics: repr, read-only fields, validation messages, pickling,
and equality with plain tuples for the named-tuple records but not for
CoeffSequence."""

import pickle
import re

import pytest

from partition_forge.asympt import CONSTANTS, CoeffEstimate, residue_polynomial
from partition_forge.cli import BFileRecord, ComparisonReport
from partition_forge.divisors import AdmissibleTriple
from partition_forge.series import KIND_EGF, KIND_OGF, CoeffSequence

T = AdmissibleTriple(0, 1, 0)
SEQ = CoeffSequence(triple=T, form="P", kind=KIND_EGF, values=(1, 1, 3))

RECORDS = {
    "AdmissibleTriple(i=0, j=1, k=0)": T,
    "BFileRecord(index=1, value=5)": BFileRecord(1, 5),
    "ComparisonReport(matched_prefix_length=3, first_mismatch=(3, 12, 11), offset_applied=0, overlap_length=4)":
        ComparisonReport(3, (3, 12, 11), 0, 4),
    "CoeffEstimate(ln=1.5)": CoeffEstimate(1.5),
    "ResiduePolynomial(triple=AdmissibleTriple(i=0, j=0, k=1), form='Q', pole=0, role='d', "
    "coefficients=(-0.34657359027997264,))": residue_polynomial((0, 0, 1), "Q", 0),
    "MathConstants(pi=3.141592653589793, euler_gamma=0.5772156649015329, stieltjes_gamma1=-0.07281584548367673, "
    "zeta3=1.2020569031595942, zeta_prime_minus1=-0.16542114370045094, log2=0.6931471805599453, "
    "log_2pi=1.8378770664093456)": CONSTANTS,
}


@pytest.mark.parametrize("text, record", RECORDS.items(), ids=[type(r).__name__ for r in RECORDS.values()])
def test_repr(text, record):
    assert repr(record) == text


@pytest.mark.parametrize("record", [*RECORDS.values(), SEQ], ids=lambda value: type(value).__name__)
def test_fields_are_read_only(record):
    name = record.__slots__[0] if isinstance(record, CoeffSequence) else record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", [*RECORDS.values(), SEQ], ids=lambda value: type(value).__name__)
def test_pickle_round_trip(record):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record and repr(copy) == repr(record)


def test_records_equal_plain_tuples_of_their_fields():
    for record in RECORDS.values():
        assert record == tuple(record)
        assert hash(record) == hash(tuple(record))
    assert T == (0, 1, 0) and BFileRecord(1, 5) == (1, 5)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((-1, 1, 0), "i must be a nonnegative integer, got -1"),
        ((0, True, 0), "j must be a nonnegative integer, got True"),
        ((0, 0, 1.0), "k must be a nonnegative integer, got 1.0"),
        ((0, 0, 0), "triple must satisfy i + j + k >= 1"),
    ],
)
def test_triple_validation_messages(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AdmissibleTriple(*fields)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        T._replace(**dict(zip("ijk", fields)))


def test_triple_parse_messages():
    for text in ("1,2", "a,b,c"):
        with pytest.raises(ValueError, match=f"^expected three comma-separated integers, got {re.escape(repr(text))}$"):
            AdmissibleTriple.parse(text)
    assert AdmissibleTriple.parse(" 2, 0 ,1") == AdmissibleTriple(i=2, j=0, k=1)
    assert T._replace(k=2) == AdmissibleTriple(0, 1, 2) and str(T) == "(0,1,0)"


class TestCoeffSequence:
    def test_repr(self):
        assert repr(SEQ) == (
            "CoeffSequence(triple=AdmissibleTriple(i=0, j=1, k=0), form='P', kind='egf-numerator', "
            "values=(1, 1, 3), v=None)"
        )

    def test_keyword_and_positional_construction_agree(self):
        assert CoeffSequence(T, "P", KIND_EGF, (1, 1, 3)) == SEQ
        assert CoeffSequence(T, "P", KIND_EGF, (1, 1, 3), None) == SEQ
        assert SEQ.v is None and SEQ.values == (1, 1, 3) and len(SEQ) == 3 and SEQ[2] == 3

    def test_equality_and_hash_read_every_field(self):
        same = CoeffSequence(triple=AdmissibleTriple(0, 1, 0), form="P", kind=KIND_EGF, values=(1, 1, 3))
        assert same == SEQ and hash(same) == hash(SEQ) and len({same, SEQ}) == 1
        others = [
            CoeffSequence(triple=AdmissibleTriple(0, 0, 1), form="P", kind=KIND_EGF, values=(1, 1, 3)),
            CoeffSequence(triple=T, form="Q", kind=KIND_EGF, values=(1, 1, 3)),
            CoeffSequence(triple=T, form="P", kind=KIND_OGF, values=(1, 1, 3)),
            CoeffSequence(triple=T, form="P", kind=KIND_EGF, values=(1, 1, 4)),
            CoeffSequence(triple=T, form="P", kind=KIND_EGF, values=(1, 1, 3), v=1),
        ]
        assert all(other != SEQ for other in others)

    def test_is_not_a_tuple(self):
        assert SEQ != (T, "P", KIND_EGF, (1, 1, 3), None)
        assert list(SEQ) == [1, 1, 3]

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(kind="egf"), "unknown kind 'egf'"),
            (dict(form="R"), "unknown form 'R'"),
            (dict(values=()), "values[0] must be 1 (empty structure)"),
            (dict(values=(0, 1)), "values[0] must be 1 (empty structure)"),
        ],
    )
    def test_validation_messages(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CoeffSequence(**{"triple": T, "form": "P", "kind": KIND_EGF, "values": (1,), **fields})
