"""The frozen value classes: construction, validation, immutability,
equality, hashing, and a repr pinned to what dataclasses printed."""

import pickle

import pytest

from halidon import (
    CiphertextDFT,
    CiphertextHGR,
    Factorization,
    GroupRingElement,
    HalidonRing,
    LambdaVector,
    Residue,
    ResidueVector,
    RootSearchReport,
    RsaPrivateKey,
    RsaPublicKey,
    UnitAssignment,
    unapply_table,
)
from halidon.errors import LengthMismatch

F49 = Factorization(((7, 2),))
RING = HalidonRing(49, 6, 19, F49)
RING_REPR = (
    "HalidonRing(n=49, m=6, omega=19, factorization=Factorization(pairs=((7, 2),)))"
)
F_REF = Factorization(((607, 1), (809, 1)))

# (builder, repr): each builder makes a fresh, equal value on every call.
VALUES = {
    "Residue": (lambda: Residue(-3, 7), "Residue(value=4, modulus=7)"),
    "Factorization": (
        lambda: Factorization(((607, 1), (809, 1))),
        "Factorization(pairs=((607, 1), (809, 1)))",
    ),
    "HalidonRing": (lambda: HalidonRing(49, 6, 19, F49), RING_REPR),
    "HalidonRing-default": (
        lambda: HalidonRing(49, 6, 19),
        "HalidonRing(n=49, m=6, omega=19, factorization=None)",
    ),
    "RootSearchReport": (
        lambda: RootSearchReport(6, (19, 31), True, 2),
        "RootSearchReport(m_max=6, roots_found=(19, 31), exhaustive=True,"
        " count_expected=2)",
    ),
    "UnitAssignment": (
        lambda: UnitAssignment(101, tuple(range(1, 41))),
        f"UnitAssignment(modulus=101, values={tuple(range(1, 41))})",
    ),
    "ResidueVector": (
        lambda: ResidueVector((50, -1, 2, 3, 4, 5), RING),
        f"ResidueVector(entries=(1, 48, 2, 3, 4, 5), ring={RING_REPR})",
    ),
    "GroupRingElement": (
        lambda: GroupRingElement((50, -1, 2, 3, 4, 5), RING),
        f"GroupRingElement(coeffs=(1, 48, 2, 3, 4, 5), ring={RING_REPR})",
    ),
    "LambdaVector": (
        lambda: LambdaVector((50, -1, 2), 49),
        "LambdaVector(values=(1, 48, 2), modulus=49)",
    ),
    "CiphertextDFT": (
        lambda: CiphertextDFT(7, 2, 3, ((4, 5),)),
        "CiphertextDFT(n=7, m=2, c=3, blocks=((4, 5),))",
    ),
    "CiphertextHGR": (
        lambda: CiphertextHGR(n=7, m=2, c=3, blocks=((0, 6),)),
        "CiphertextHGR(n=7, m=2, c=3, blocks=((0, 6),))",
    ),
    "RsaPublicKey": (
        lambda: RsaPublicKey(n=491063, e=5, m=202),
        "RsaPublicKey(n=491063, e=5, m=202)",
    ),
    "RsaPrivateKey": (
        lambda: RsaPrivateKey(491063, 293789, 489648, F_REF, 202),
        "RsaPrivateKey(n=491063, d=293789, phi=489648,"
        " factorization=Factorization(pairs=((607, 1), (809, 1))), m=202)",
    ),
}

each_value = pytest.mark.parametrize(
    "build, expected", list(VALUES.values()), ids=list(VALUES)
)


@each_value
def test_repr_as_dataclasses_printed_it(build, expected):
    assert repr(build()) == expected


@each_value
def test_equal_values_are_equal_and_hash_equal(build, expected):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a


@each_value
def test_fields_are_frozen(build, expected):
    value = build()
    field = value.__match_args__[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, before)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) == before


def test_positional_keyword_and_default_construction():
    assert Residue(3, 7) == Residue(value=3, modulus=7) == Residue(3, modulus=7)
    assert HalidonRing(49, 6, 19).factorization is None
    ring = HalidonRing(omega=19, m=6, n=49, factorization=F49)
    assert (ring.n, ring.m, ring.omega, ring.factorization) == (49, 6, 19, F49)
    assert RsaPublicKey.__match_args__ == ("n", "e", "m")
    match Residue(10, 7):
        case Residue(value, modulus):
            assert (value, modulus) == (3, 7)


@pytest.mark.parametrize(
    "args, kwargs",
    [((1,), {}), ((1, 7, 3), {}), ((1,), {"value": 2}), ((1, 7), {"x": 2})],
    ids=["missing", "extra", "twice", "unknown"],
)
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Residue(*args, **kwargs)


def test_post_init_validates():
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        Residue(5, 1)
    with pytest.raises(ValueError, match="not strictly increasing"):
        Factorization(((5, 1), (3, 1)))
    with pytest.raises(LengthMismatch):
        ResidueVector((1, 2), RING)


def test_equality_needs_the_same_class():
    assert CiphertextDFT(7, 2, 3, ((4, 5),)) != CiphertextHGR(7, 2, 3, ((4, 5),))
    assert Residue(1, 7) != (1, 7)
    assert Residue(8, 7) == Residue(1, 7)
    assert len({Residue(8, 7), Residue(1, 7), Residue(2, 7)}) == 2


def test_cached_properties_leave_the_value_alone():
    ring = HalidonRing(49, 6, 19, F49)
    powers = ring.omega_powers
    assert powers == (1, 19, 18, 48, 30, 31)
    assert ring.omega_powers is powers
    assert ring == RING and hash(ring) == hash(RING)
    assert repr(ring) == RING_REPR

    table = UnitAssignment(101, tuple(range(1, 41)))
    assert unapply_table([11], table) == "A"
    assert table._symbol_by_value is table._symbol_by_value
    assert table == UnitAssignment(101, tuple(range(1, 41)))
