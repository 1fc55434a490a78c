"""The record classes: plain classes with explicit ``__init__``.

The slotted records carry no per-instance ``__dict__``; ``GammaParams`` and
``LogConcavityCertificate`` compare and hash by value, because the Gamma
crossing search and the matroid tests compare them.
"""

import math

import pytest

from tvbounds.bounds import Anchor, BoundReport
from tvbounds.compound import CompoundGeometricSpec, CompoundPoissonSpec
from tvbounds.continuous import DensityModel, GammaParams
from tvbounds.distributions import LogConcavityCertificate, make_dist
from tvbounds.intrinsic_volumes import IVSequence, ProductFactor
from tvbounds.matroids import IndepProfile, PartitionMatroidSpec, SetSystem
from tvbounds.verify import SweepReport


def _slotted_records():
    cert = LogConcavityCertificate(True, None, True)
    half = make_dist(0, [0.5, 0.5])
    iv = IVSequence(1, (1, 2))
    return [
        cert,
        Anchor(0, True, 0.0),
        BoundReport(None, None, None, None, cert, None),
        IndepProfile(2, [1, 2, 1]),
        PartitionMatroidSpec([(2, 1)]),
        SetSystem(1, {0, 1}),
        iv,
        ProductFactor(iv),
        CompoundPoissonSpec(0.5, half),
        CompoundGeometricSpec(half, 0.3),
        GammaParams(2.0, 1.0),
        DensityModel(lambda x: math.exp(-x), lambda x: -math.exp(-x), lambda x: -math.expm1(-x), True, "exp"),
        SweepReport(1, 1, None),
    ]


@pytest.mark.parametrize("record", _slotted_records(), ids=lambda r: type(r).__name__)
def test_slotted_record_has_no_dict(record):
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.undeclared = 1


def test_defaults_are_fresh_per_instance():
    cert = LogConcavityCertificate(True, None, True)
    a, b = (BoundReport(None, None, None, None, cert, None) for _ in range(2))
    assert a.details == {} and a.details is not b.details
    assert a.stated_bound is None
    assert SweepReport(1, 1, None).failures == ()


@pytest.mark.parametrize("make, other", [
    (lambda: GammaParams(2.0, 0.5), GammaParams(2.0, 0.25)),
    (lambda: LogConcavityCertificate(False, 3, True), LogConcavityCertificate(False, 4, True)),
], ids=["GammaParams", "LogConcavityCertificate"])
def test_value_equality_and_hash(make, other):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != other
    assert a != (2.0, 0.5)
    assert len({a, b, other}) == 2
