"""JSON schemas for vectors, spaces, operators, rules and schedules.

Complex scalars travel as [re, im] pairs; plain numbers are accepted on
input wherever a real value is meant.  Operator kinds:

    {"kind": "backward_shift", "weights": {"rule": "const", "value": 2}}
    {"kind": "forward_shift",  "weights": {...}}
    {"kind": "diagonal", "eigenvalues": {"rule": "explicit", "values": [2, 0.5]}}
    {"kind": "dense", "entries": [[...], ...]}
    {"kind": "scaled", "alpha": [2, 0], "inner": {...}}
    {"kind": "direct_sum", "parts": [{...}, ...]}
    {"kind": "power", "base": {...}, "m": 3}

Weight rules: "const", "geometric" (ratio, optional first), "harmonic"
(1/(n+1)) and "explicit".  Spaces: {"kind": "lp", "p": 2} or
{"kind": "faggregate", "base": {...}}; p may be the string "inf".
Schedules: {"gap": N, "segments": [{"a": 0, "b": 1, "y": [[1,0],[1,0]]}]}.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import operators as op
from . import rules as rl
from .errors import ValidationError
from .spaces import FAggregate, Lp, SpaceSpec, Vector
from .specification import SegmentSchedule


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(float(obj[0]), float(obj[1]))
    raise ValidationError(f"expected a number or [re, im] pair, got {obj!r}")


def number_from_json(obj, name: str, kind=float):
    """float(obj), or with kind=int an int for an integral, finite obj (3.0
    reads as 3), refusing booleans, NaN and whatever does not convert."""
    try:
        value = math.nan if isinstance(obj, bool) else float(obj)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if math.isnan(value) or (kind is int and not value.is_integer()):
        raise ValidationError(f"{name} must be {'an integer' if kind is int else 'a number'}, got {obj!r}")
    return obj if kind is int and isinstance(obj, int) else kind(value)


def container_from_json(obj, name: str, kind=list):
    if not isinstance(obj, kind):
        raise ValidationError(f"{name} must be a JSON {kind.__name__}, got {obj!r}")
    return obj


def _field(obj: dict, key: str):
    if key not in obj:
        raise ValidationError(f"missing field {key!r} in {obj!r}")
    return obj[key]


def vector_to_json(v: Vector) -> list[list[float]]:
    return [complex_to_json(c) for c in v.coords]


def vector_from_json(obj) -> Vector:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ValidationError("vector literal must be a nonempty array")
    return Vector(np.array([complex_from_json(c) for c in obj]))


def space_to_json(s: SpaceSpec) -> dict:
    if isinstance(s, Lp):
        return {"kind": "lp", "p": "inf" if math.isinf(s.p) else s.p}
    return {"kind": "faggregate", "base": space_to_json(s.base)}


def space_from_json(obj) -> SpaceSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError(f"space spec needs a 'kind' field: {obj!r}")
    kind = obj["kind"]
    if kind == "lp":
        p = obj.get("p", 2)
        p = math.inf if p == "inf" else number_from_json(p, "p")
        return Lp(p, label=obj.get("label", ""))
    if kind == "faggregate":
        base = space_from_json(obj.get("base", {"kind": "lp", "p": 2}))
        if not isinstance(base, Lp):
            raise ValidationError("aggregated norm base must be a plain lp space")
        return FAggregate(base, label=obj.get("label", ""))
    raise ValidationError(f"unknown space kind {kind!r}")


def rule_to_json(rule: rl.Rule) -> dict:
    if isinstance(rule, rl.ConstRule):
        return {"rule": "const", "value": _scalar(rule.value)}
    if isinstance(rule, rl.GeometricRule):
        out = {"rule": "geometric", "ratio": _scalar(rule.ratio)}
        if rule.first is not None:
            out["first"] = _scalar(rule.first)
        return out
    if isinstance(rule, rl.HarmonicRule):
        return {"rule": "harmonic"}
    return {"rule": "explicit", "values": [_scalar(v) for v in rule.values]}


def _scalar(z: complex):
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def rule_from_json(obj) -> rl.Rule:
    if not isinstance(obj, dict) or "rule" not in obj:
        raise ValidationError(f"sequence rule needs a 'rule' field: {obj!r}")
    name = obj["rule"]
    if name == "const":
        return rl.ConstRule(complex_from_json(_field(obj, "value")))
    if name == "geometric":
        first = obj.get("first")
        return rl.GeometricRule(
            ratio=complex_from_json(_field(obj, "ratio")),
            first=None if first is None else complex_from_json(first),
        )
    if name == "harmonic":
        return rl.HarmonicRule()
    if name == "explicit":
        vals = obj.get("values", [])
        return rl.ExplicitRule(tuple(complex_from_json(v) for v in vals))
    raise ValidationError(f"unknown rule {name!r}")


def operator_to_json(T: op.Operator) -> dict:
    if isinstance(T, op.BackwardShift):
        return {"kind": "backward_shift", "weights": rule_to_json(T.weights)}
    if isinstance(T, op.ForwardShift):
        return {"kind": "forward_shift", "weights": rule_to_json(T.weights)}
    if isinstance(T, op.Diagonal):
        return {"kind": "diagonal", "eigenvalues": rule_to_json(T.eigenvalues)}
    if isinstance(T, op.DenseMatrix):
        return {
            "kind": "dense",
            "entries": [[_scalar(v) for v in row] for row in T.entries],
        }
    if isinstance(T, op.Scaled):
        return {
            "kind": "scaled",
            "alpha": complex_to_json(T.alpha),
            "inner": operator_to_json(T.inner),
        }
    if isinstance(T, op.DirectSum):
        return {"kind": "direct_sum", "parts": [operator_to_json(p) for p in T.parts]}
    if isinstance(T, op.OperatorPower):
        return {"kind": "power", "base": operator_to_json(T.base), "m": T.m}
    raise ValidationError(f"unknown operator kind {type(T).__name__}")


def operator_from_json(obj) -> op.Operator:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError(f"operator spec needs a 'kind' field: {obj!r}")
    kind = obj["kind"]
    if kind == "backward_shift":
        return op.BackwardShift(rule_from_json(_field(obj, "weights")))
    if kind == "forward_shift":
        return op.ForwardShift(rule_from_json(_field(obj, "weights")))
    if kind == "diagonal":
        return op.Diagonal(rule_from_json(_field(obj, "eigenvalues")))
    if kind == "dense":
        entries = obj.get("entries")
        if not entries:
            raise ValidationError("dense operator needs an 'entries' matrix")
        mat = [[complex_from_json(v) for v in row] for row in entries]
        return op.DenseMatrix(np.array(mat))
    if kind == "scaled":
        return op.Scaled(
            complex_from_json(_field(obj, "alpha")), operator_from_json(_field(obj, "inner"))
        )
    if kind == "direct_sum":
        return op.DirectSum(tuple(operator_from_json(p) for p in obj.get("parts", [])))
    if kind == "power":
        m = number_from_json(_field(obj, "m"), "m", int)
        return op.OperatorPower(operator_from_json(_field(obj, "base")), m)
    raise ValidationError(f"unknown operator kind {kind!r}")


def operator_id(T: op.Operator) -> str:
    """Canonical description string used to tag tables and reports."""
    return json.dumps(operator_to_json(T), sort_keys=True, separators=(",", ":"))


def schedule_to_json(s: SegmentSchedule) -> dict:
    return {
        "gap": s.gap,
        "segments": [
            {"a": a, "b": b, "y": vector_to_json(y)} for a, b, y in s.segments
        ],
    }


def schedule_from_json(obj) -> SegmentSchedule:
    if not isinstance(obj, dict) or "segments" not in obj or "gap" not in obj:
        raise ValidationError("schedule needs 'gap' and 'segments' fields")
    segs = []
    for seg in obj["segments"]:
        try:
            a, b = int(seg["a"]), int(seg["b"])
            y = vector_from_json(seg["y"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed segment {seg!r}") from exc
        segs.append((a, b, y))
    return SegmentSchedule(tuple(segs), int(obj["gap"]))
