import math

import numpy as np
import pytest

from entrolab.errors import ValidationError
from entrolab.operators import (
    BackwardShift,
    DenseMatrix,
    Diagonal,
    DirectSum,
    OperatorPower,
    Scaled,
    apply,
)
from entrolab.rules import ConstRule, ExplicitRule, GeometricRule, HarmonicRule
from entrolab.serialize import (
    operator_from_json,
    operator_id,
    operator_to_json,
    rule_from_json,
    rule_to_json,
    schedule_from_json,
    schedule_to_json,
    space_from_json,
    space_to_json,
    vector_from_json,
    vector_to_json,
)
from entrolab.spaces import FAggregate, Lp, vector
from entrolab.specification import SegmentSchedule


def test_vector_literal_roundtrip():
    v = vector([1 + 2j, 0.5, -3])
    assert vector_to_json(v) == [[1.0, 2.0], [0.5, 0.0], [-3.0, 0.0]]
    assert vector_from_json(vector_to_json(v)) == v


def test_vector_accepts_plain_numbers():
    assert np.array_equal(vector_from_json([1, 2, 3]).coords, [1, 2, 3])


def test_space_roundtrip():
    for s in (Lp(1.0), Lp(2.0), Lp(math.inf), FAggregate(Lp(2.0))):
        assert space_from_json(space_to_json(s)) == s


def test_space_inf_spelled_out():
    assert space_from_json({"kind": "lp", "p": "inf"}).p == math.inf


def test_space_rejects_nested_aggregate():
    with pytest.raises(ValidationError):
        space_from_json(
            {"kind": "faggregate", "base": {"kind": "faggregate", "base": {"kind": "lp", "p": 2}}}
        )


def test_rule_roundtrips():
    for rule in (
        ConstRule(2.0),
        GeometricRule(0.5, first=1.5),
        GeometricRule(3.0),
        HarmonicRule(),
        ExplicitRule((1.0, 2.0 + 1j)),
    ):
        assert rule_from_json(rule_to_json(rule)) == rule


def test_schema_examples_from_docs():
    T = operator_from_json(
        {"kind": "backward_shift", "weights": {"rule": "const", "value": 2}}
    )
    assert isinstance(T, BackwardShift)
    S = operator_from_json(
        {
            "kind": "scaled",
            "alpha": [2, 0],
            "inner": {"kind": "backward_shift", "weights": {"rule": "const", "value": 1}},
        }
    )
    assert isinstance(S, Scaled) and S.alpha == 2.0
    H = operator_from_json(
        {"kind": "backward_shift", "weights": {"rule": "harmonic"}}
    )
    assert isinstance(H.weights, HarmonicRule)


def test_operator_roundtrips():
    ops = (
        BackwardShift(ConstRule(2.0)),
        Diagonal(GeometricRule(0.5, first=1.5)),
        DenseMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]])),
        Scaled(1.5 + 0j, DenseMatrix(np.eye(2))),
        DirectSum((Diagonal(ExplicitRule((2.0,))), Diagonal(ExplicitRule((0.5,))))),
        OperatorPower(Diagonal(ExplicitRule((2.0,))), 3),
    )
    x = vector([0.25, -0.5])
    for T in ops:
        back = operator_from_json(operator_to_json(T))
        assert operator_id(back) == operator_id(T)
        try:
            assert apply(back, x) == apply(T, x)
        except ValidationError:
            pass  # dimension-incompatible kinds are fine for the id check


def test_operator_bad_kind():
    with pytest.raises(ValidationError):
        operator_from_json({"kind": "mystery"})
    with pytest.raises(ValidationError):
        operator_from_json({"weights": {}})


DIAG2 = {"kind": "diagonal", "eigenvalues": {"rule": "explicit", "values": [2]}}


@pytest.mark.parametrize("obj", [
    {"kind": "dense", "entries": 5},
    {"kind": "dense", "entries": [1, 2]},
    {"kind": "dense", "entries": [[1, 2], [3]]},
    {"kind": "direct_sum", "parts": 5},
    {"kind": "diagonal", "eigenvalues": {"rule": "explicit", "values": 5}},
])
def test_operator_malformed_containers(obj):
    # each used to end in a TypeError or ValueError traceback (exit 1)
    with pytest.raises(ValidationError):
        operator_from_json(obj)
    with pytest.raises(ValidationError):
        operator_from_json({"kind": "direct_sum", "parts": [DIAG2, obj]})


def test_operator_unknown_kind_value():
    # a kind that is not a string is an unknown kind, not a TypeError
    for kind in (["dense"], None, 3):
        with pytest.raises(ValidationError, match="unknown operator kind"):
            operator_from_json({"kind": kind})


def test_schedule_schema():
    obj = {"gap": 4, "segments": [{"a": 0, "b": 1, "y": [[1, 0], [1, 0]]}]}
    sched = schedule_from_json(obj)
    assert sched.gap == 4
    assert sched.segments[0][0] == 0 and sched.segments[0][1] == 1
    assert schedule_from_json(schedule_to_json(sched)).gap == 4


def test_schedule_schema_errors():
    with pytest.raises(ValidationError):
        schedule_from_json({"segments": []})
    with pytest.raises(ValidationError):
        schedule_from_json({"gap": 2, "segments": [{"a": 0}]})
