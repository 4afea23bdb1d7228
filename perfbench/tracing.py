"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces each layer function listed in HOOKS by a wrapper
that opens a span, and `uninstall()` puts the originals back, so untraced
passes in the same process run the unmodified code.  A function imported
into several modules (`from .spaces import norm_block`) is replaced in every
module of the package that holds it.

Spans nest: a layer's self time is its duration minus the time covered by
spans opened inside it.  A call into a layer that is already open (the
recursion of `batch_apply` through `Scaled` or `OperatorPower`, the direct
fallback inside the certificate path) runs unwrapped inside the open span,
so calls are counted once per entry into the layer.

A layer whose function no longer exists is listed in `absent` and reports
zero; the traced run does not fail on it.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


def _rows(block) -> int:
    shape = getattr(block, "shape", ())
    rows = 1
    for n in shape[:-1]:
        rows *= int(n)
    return rows


@dataclass(frozen=True)
class Hook:
    """One wrapped function: `post(args, result, state)` returns work counts,
    `pre(args)` captures what `post` needs from before the call."""

    layer: str
    module: str
    attr: str  # "name" or "Class.method"
    post: Callable | None = None
    pre: Callable | None = None


def _orbit_pre(args):
    return args[0].orbits


def _orbit_post(args, result, before):
    grown = args[0].orbits
    return {"bytes": grown.nbytes} if grown is not before else {}


def _edges(args, masks, _):
    return {"edges": sum(m.bit_count() for m in masks) // 2}


HOOKS = (
    Hook("spaces.norm_block", "entrolab.spaces", "norm_block",
         lambda a, r, s: {"elems": int(a[0].size)}),
    Hook("operators.batch_apply", "entrolab.operators", "batch_apply",
         lambda a, r, s: {"rows": _rows(a[1])}),
    Hook("operators.orbit_block", "entrolab.operators", "orbit_block"),
    Hook("entropy.orbit_growth", "entrolab.entropy", "_OrbitCache.up_to",
         _orbit_post, _orbit_pre),
    Hook("entropy.greedy_scan", "entrolab.entropy", "_greedy_indices",
         lambda a, r, s: {"candidates": int(a[0].shape[0]), "kept": len(r)}),
    Hook("entropy.conflict_graph", "entrolab.entropy", "_conflict_masks", _edges),
    Hook("entropy.branch_bound", "entrolab.entropy", "_max_independent_set"),
    Hook("entropy.slope_fit", "entrolab.entropy", "entropy_estimate"),
    Hook("specification.shadow_point", "entrolab.specification", "shadow_point"),
    Hook("specification.periodize", "entrolab.specification", "_periodize"),
    Hook("specification.family_verify", "entrolab.specification", "_direct_min_pairwise",
         lambda a, r, s: {"rows": int(a[1].shape[0]), "direct_calls": 1}),
    Hook("specification.family_verify", "entrolab.specification", "_certificate_min_pairwise",
         lambda a, r, s: {"rows": int(a[1].shape[0]), "certificate_calls": 1}),
    Hook("symbolic.conjugacy", "entrolab.symbolic", "verify_conjugacy"),
    Hook("symbolic.cube_sample", "entrolab.symbolic", "cube_sample"),
    Hook("cli.task", "entrolab.cli", "run"),
    Hook("cli.report_write", "entrolab.cli", "_write_report"),
    Hook("cli.report_write", "entrolab.cli", "_emit_table"),
)

LAYERS = tuple(dict.fromkeys(h.layer for h in HOOKS))


@dataclass
class _Span:
    layer: str
    start: float
    child: float = 0.0


@dataclass
class Tracer:
    """Collects self time, call counts and work counts per layer."""

    self_s: dict = field(default_factory=lambda: dict.fromkeys(LAYERS, 0.0))
    counts: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def reset(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = {}

    def _count(self, layer: str, key: str, n) -> None:
        k = (layer, key)
        self.counts[k] = self.counts.get(k, 0) + n

    def _wrap(self, hook: Hook, fn):
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if any(sp.layer == hook.layer for sp in stack):
                return fn(*args, **kwargs)
            state = hook.pre(args) if hook.pre else None
            span = _Span(hook.layer, clock())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - span.start
                self.self_s[hook.layer] += dur - span.child
                if stack:
                    stack[-1].child += dur
            self._count(hook.layer, "calls", 1)
            if hook.post:
                for key, n in hook.post(args, result, state).items():
                    self._count(hook.layer, key, n)
            return result

        return traced

    def install(self) -> None:
        self.absent = []
        for hook in HOOKS:
            owner_name, _, name = hook.attr.rpartition(".")
            mod = importlib.import_module(hook.module)
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, name, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{hook.layer} ({hook.module}.{hook.attr})")
                continue
            wrapped = self._wrap(hook, fn)
            if owner_name:
                targets = [owner]
            else:
                targets = [
                    m for k, m in sys.modules.items()
                    if k.split(".")[0] == "entrolab" and getattr(m, name, None) is fn
                ]
            for target in targets:
                self._patches.append((target, name, fn))
                setattr(target, name, wrapped)

    def uninstall(self) -> None:
        for target, name, fn in reversed(self._patches):
            setattr(target, name, fn)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        """Flat `<module>.<layer>.<quantity>` values for one traced pass."""
        out = {f"{layer}.s": t for layer, t in self.self_s.items()}
        for (layer, key), n in self.counts.items():
            out[f"{layer}.{key}"] = n
        cand = out.get("entropy.greedy_scan.candidates", 0)
        out["entropy.greedy_scan.kept_share"] = (
            out.get("entropy.greedy_scan.kept", 0) / cand if cand else 0.0
        )
        return out
