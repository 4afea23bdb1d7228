"""Config-driven experiment runner.

    entrolab <task> --config exp.json --out report/ [--seed S] [--threads T]
             [--require-certified]

`--threads` is accepted for compatibility and ignored (it must be >= 1).

Tasks: spectral-entropy, estimate-entropy, embed-shift, shadow,
sp-lower-bound, splitting, variational-gap, verify.  Every run writes
report.json (schema-versioned, tagged with the sha256 of the canonical
config) and, for table-producing tasks, table.csv plus plot data; identical
configs produce byte-identical reports.

Exit codes: 0 success, 2 validation error, 3 numerical non-convergence
(including orbits that leave the floating-point range and forward shifts
that would underflow a nonzero coordinate) or saturation,
4 uncertified result under --require-certified.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import serialize as ser
from .entropy import (
    CompactSample,
    EntropyTable,
    entropy_estimate,
    grid_sample,
    sn_table,
    spectral_entropy,
)
from .errors import (
    ConvergenceError,
    EntropyLabError,
    SaturationError,
    ValidationError,
)
from .measures import variational_gap
from .operators import BackwardShift, DenseMatrix, riesz_split, spectrum
from .spaces import FAggregate, Lp, Vector, faggregate_l2
from .specification import (
    SegmentSchedule,
    shadow_point,
    sp_constant,
    sp_entropy_lower_bound,
    sp_separated_family,
    fixed_vector,
    periodic_vector,
)
from .symbolic import cube_sample, verify_conjugacy

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    params: dict
    seed: int | None
    require_certified: bool
    out_dir: Path

    @property
    def config_hash(self) -> str:
        body = json.dumps(
            {"task": self.task, "params": self.params, "seed": self.seed},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(body.encode()).hexdigest()


def _complex_safe(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON-serialisable: {obj!r}")


def _write_report(cfg: ExperimentConfig, payload: dict) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "schema_version": SCHEMA_VERSION,
        "task": cfg.task,
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        **payload,
    }
    text = json.dumps(report, sort_keys=True, indent=2, default=_complex_safe) + "\n"
    (cfg.out_dir / "report.json").write_text(text)


def _space_from(params: dict, default=None) -> Lp | FAggregate:
    if "space" in params:
        return ser.space_from_json(params["space"])
    return Lp(2.0) if default is None else default


def _sample_from(params: dict, space) -> CompactSample:
    spec = params.get("sample")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError("estimate task needs a sample spec with a 'kind'")
    if spec["kind"] == "grid":
        shape = ser.container_from_json(spec.get("shape", []), "grid shape")
        shape = tuple(ser.number_from_json(v, "shape entry", int) for v in shape)
        return grid_sample(
            space,
            shape,
            low=ser.number_from_json(spec.get("low", 0.0), "low"),
            high=ser.number_from_json(spec.get("high", 1.0), "high"),
            label=spec.get("label", f"grid{shape}"),
        )
    if spec["kind"] == "explicit":
        points = ser.container_from_json(spec.get("points", []), "points")
        pts = tuple(ser.vector_from_json(p) for p in points)
        resolution = ser.number_from_json(spec.get("resolution", 1e-6), "resolution")
        return CompactSample(pts, resolution, spec.get("label", "explicit"))
    raise ValidationError(f"unknown sample kind {spec['kind']!r}")


def _emit_table(cfg: ExperimentConfig, table: EntropyTable) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    (cfg.out_dir / "table.csv").write_text(table.to_csv())
    emit_plot_data(table, cfg.out_dir)


def emit_plot_data(table: EntropyTable, out_dir: Path) -> None:
    """Write (n, epsilon, log s) triples and a minimal SVG line chart per eps."""
    if not table.eps_values:
        raise ValidationError("table has no eps values to plot")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["n,epsilon,log_s"]
    for eps in table.eps_values:
        for n in table.n_values:
            lines.append(f"{n},{eps!r},{math.log(table.s(n, eps))!r}")
    (out_dir / "plot.csv").write_text("\n".join(lines) + "\n")
    for idx, eps in enumerate(table.eps_values):
        ys = [math.log(table.s(n, eps)) for n in table.n_values]
        (out_dir / f"chart_eps{idx}.svg").write_text(_svg_line(table.n_values, ys, eps))


def _svg_line(ns, ys, eps) -> str:
    w, h, pad = 480, 320, 40
    y_lo, y_hi = min(ys), max(ys)
    span_x = max(ns) - min(ns) or 1
    span_y = (y_hi - y_lo) or 1.0

    def px(n):
        return pad + (n - min(ns)) / span_x * (w - 2 * pad)

    def py(v):
        return h - pad - (v - y_lo) / span_y * (h - 2 * pad)

    points = " ".join(f"{px(n):.2f},{py(v):.2f}" for n, v in zip(ns, ys))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">\n'
        f'<rect width="{w}" height="{h}" fill="white"/>\n'
        f'<line x1="{pad}" y1="{h-pad}" x2="{w-pad}" y2="{h-pad}" stroke="black"/>\n'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h-pad}" stroke="black"/>\n'
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="2" points="{points}"/>\n'
        f'<text x="{w//2}" y="{h-10}" font-size="12" text-anchor="middle">n</text>\n'
        f'<text x="{w//2}" y="20" font-size="12" text-anchor="middle">'
        f"log s_n at eps={eps!r}</text>\n"
        "</svg>\n"
    )


# ---------------------------------------------------------------- tasks


def _task_spectral_entropy(cfg: ExperimentConfig) -> int:
    T = ser.operator_from_json(cfg.params.get("operator", {}))
    sd = spectrum(T)
    h = spectral_entropy(sd)
    _write_report(
        cfg,
        {
            "h_top": h,
            "h_top_log2": h / math.log(2.0),
            "spectral_radius": sd.spectral_radius,
            "eigenvalues": [[v.real, v.imag, m] for v, m in sd.eigenvalues],
            "tail_certified": sd.tail_certified,
            "operator_id": ser.operator_id(T),
        },
    )
    return 0


def _task_estimate_entropy(cfg: ExperimentConfig) -> int:
    p = cfg.params
    T = ser.operator_from_json(p.get("operator", {}))
    space = _space_from(p)
    K = _sample_from(p, space)
    n_range = p.get("n_range")
    eps_list = ser.container_from_json(p.get("eps_list") or [], "eps_list")
    if not n_range or not eps_list:
        raise ValidationError("estimate task needs n_range and eps_list")
    if isinstance(n_range, dict):
        lo, hi = (ser.number_from_json(n_range.get(k), f"n_range {k}", int) for k in ("lo", "hi"))
        ns = range(lo, hi + 1)
    elif isinstance(n_range, list):
        ns = [ser.number_from_json(v, "n_range entry", int) for v in n_range]
    else:
        raise ValidationError(f"n_range must be a {{lo, hi}} object or a list, got {n_range!r}")
    table = sn_table(
        T,
        K,
        ns,
        [ser.number_from_json(e, "eps_list entry") for e in eps_list],
        space,
        method=p.get("method", "greedy"),
        operator_id=ser.operator_id(T),
    )
    window = p.get("n_window")
    if window is not None:
        if not isinstance(window, list) or len(window) != 2:
            raise ValidationError(f"n_window must be a [lo, hi] pair, got {window!r}")
        window = tuple(ser.number_from_json(v, "n_window entry", int) for v in window)
    est = entropy_estimate(table, window)
    _emit_table(cfg, table)
    _write_report(
        cfg,
        {
            "estimate": est.to_json_dict(),
            "sample": {"label": K.label, "size": len(K), "resolution": K.resolution},
            "operator_id": ser.operator_id(T),
        },
    )
    return 0


def _task_embed_shift(cfg: ExperimentConfig) -> int:
    p = cfg.params
    N = ser.number_from_json(p.get("N", p.get("alphabet", 0)), "N", int)
    depth = ser.number_from_json(p.get("depth", 0), "depth", int)
    w = ser.rule_from_json(p.get("weights", {"rule": "const", "value": 2}))
    space = _space_from(p)
    mode = p.get("mode", "exhaustive")
    if mode == "random" and cfg.seed is None:
        raise ValidationError("random cube mode needs a seed")
    conj = verify_conjugacy(
        w,
        N,
        samples=ser.number_from_json(p.get("conjugacy_samples", 1000), "conjugacy_samples", int),
        M=ser.number_from_json(p.get("conjugacy_dim", 64), "conjugacy_dim", int),
        seed=cfg.seed or 0,
    )
    K = cube_sample(
        N,
        depth,
        w,
        base=space,
        count=ser.number_from_json(p.get("count"), "count", int) if mode == "random" else None,
        seed=cfg.seed if mode == "random" else None,
    )
    B = BackwardShift(w)
    eps_list = ser.container_from_json(p.get("eps_list", [0.4, 0.2, 0.1]), "eps_list")
    eps_list = [ser.number_from_json(e, "eps_list entry") for e in eps_list]
    ns = range(1, ser.number_from_json(p.get("n_max", depth + 1), "n_max", int) + 1)
    table = sn_table(B, K, ns, eps_list, space, operator_id=ser.operator_id(B))
    est = entropy_estimate(table)
    certified = conj.max_deviation == 0.0
    _emit_table(cfg, table)
    _write_report(
        cfg,
        {
            "alphabet": N,
            "depth": depth,
            "log_alphabet": math.log(N),
            "conjugacy_max_deviation": conj.max_deviation,
            "conjugacy_exact": conj.exact,
            "estimate": est.to_json_dict(),
            "sample": {"label": K.label, "size": len(K), "resolution": K.resolution},
            "certified": certified,
        },
    )
    return 4 if cfg.require_certified and not certified else 0


def _random_schedule(rng, eps: float, max_segments: int):
    N = sp_constant(eps)
    segs = []
    at = int(rng.integers(0, 3))
    for _ in range(int(rng.integers(1, max_segments + 1))):
        b = at + int(rng.integers(0, 3))
        y = ser.vector_from_json(
            [[float(v), 0.0] for v in rng.integers(-8, 9, size=b + 2) / 16.0]
        )
        segs.append((at, b, y))
        at = b + N + int(rng.integers(0, 3))
    return SegmentSchedule(tuple(segs), N)


def _task_shadow(cfg: ExperimentConfig) -> int:
    p = cfg.params
    w = ser.rule_from_json(p.get("weights", {"rule": "const", "value": 2}))
    B = BackwardShift(w)
    eps = ser.number_from_json(p.get("epsilon", 0.1), "epsilon")
    space = _space_from(p, default=faggregate_l2())
    reports = []
    if "schedule" in p:
        schedules = [ser.schedule_from_json(p["schedule"])]
    elif "random_schedules" in p:
        if cfg.seed is None:
            raise ValidationError("random schedules need a seed")
        spec = ser.container_from_json(p["random_schedules"], "random_schedules", dict)
        rng = np.random.default_rng(cfg.seed)
        max_segments = ser.number_from_json(spec.get("max_segments", 3), "max_segments", int)
        count = ser.number_from_json(spec.get("count", 1), "count", int)
        if max_segments < 1 or count < 1:
            raise ValidationError("random_schedules needs count >= 1 and max_segments >= 1")
        schedules = [_random_schedule(rng, eps, max_segments) for _ in range(count)]
    else:
        raise ValidationError("shadow task needs a schedule or random_schedules spec")
    all_certified = True
    for sched in schedules:
        rep = shadow_point(B, sched, eps, space)
        all_certified &= rep.certified
        reports.append(
            {
                "period": rep.period,
                "gap": sched.gap,
                "segments": len(sched.segments),
                "deviations": [[i, d] for i, d in rep.deviations],
                "tail_bound": rep.tail_bound,
                "certified": rep.certified,
                "periodicity_exact": rep.periodicity_exact,
            }
        )
    _write_report(
        cfg,
        {
            "epsilon": eps,
            "count": len(reports),
            "all_certified": all_certified,
            "reports": reports,
        },
    )
    return 4 if cfg.require_certified and not all_certified else 0


def _task_sp_lower_bound(cfg: ExperimentConfig) -> int:
    p = cfg.params
    if "epsilon" in p:
        N = sp_constant(ser.number_from_json(p["epsilon"], "epsilon"))
    else:
        N = ser.number_from_json(p.get("N", 0), "N", int)
    m = ser.number_from_json(p.get("m", 0), "m", int)
    k = ser.number_from_json(p.get("k", 1), "k", int)
    bound = sp_entropy_lower_bound(m, N, k)
    payload = {"m": m, "N": N, "k": k, "lower_bound": bound}
    fam_spec = ser.container_from_json(p.get("build_family") or {}, "build_family", dict)
    certified = True
    if fam_spec:
        w = ser.rule_from_json(p.get("weights", {"rule": "const", "value": 2}))
        B = BackwardShift(w)
        eps = ser.number_from_json(p.get("epsilon", 2.0 ** -(N + 1) * 1.5), "epsilon")
        n = ser.number_from_json(fam_spec.get("n", 2), "build_family n", int)
        dim = ser.number_from_json(fam_spec.get("dim", 0), "build_family dim", int)
        dim = dim or max(64, 4 * (k * (n - 1) * (N + 1) + N))
        anchors = [periodic_vector(B, head=(0.0,), dim=dim)] + [
            Vector(j * fixed_vector(B, dim).coords) for j in range(1, m)
        ]
        fam = sp_separated_family(B, anchors, n, eps, k)
        payload["family"] = {
            "size": fam.family_size,
            "sample_size": len(fam.sample),
            "min_pairwise": fam.min_pairwise,
            "verification": fam.verification,
            "epsilon": fam.epsilon,
        }
        certified = fam.min_pairwise > eps
    payload["certified"] = certified
    _write_report(cfg, payload)
    return 4 if cfg.require_certified and not certified else 0


def _task_splitting(cfg: ExperimentConfig) -> int:
    T = ser.operator_from_json(cfg.params.get("operator", {}))
    if not isinstance(T, DenseMatrix):
        raise ValidationError("splitting task needs a dense operator")
    split = riesz_split(T, ser.number_from_json(cfg.params.get("circle_tol", 1e-6), "circle_tol"))

    def basis_json(part):
        basis, block = part
        return {
            "dim": basis.shape[1],
            "basis": [[ser.complex_to_json(v) for v in row] for row in basis],
            "block": [[ser.complex_to_json(v) for v in row] for row in block],
        }

    _write_report(
        cfg,
        {
            "unstable": basis_json(split.unstable),
            "center": basis_json(split.center),
            "stable": basis_json(split.stable),
            "residual": split.residual,
        },
    )
    return 0


def _task_variational_gap(cfg: ExperimentConfig) -> int:
    T = ser.operator_from_json(cfg.params.get("operator", {}))
    if not isinstance(T, DenseMatrix):
        raise ValidationError("variational-gap task needs a dense operator")
    periods = ser.number_from_json(cfg.params.get("search_periods", 12), "search_periods", int)
    res = variational_gap(T, periods)
    _write_report(cfg, res.to_json_dict())
    return 0


def _task_verify(cfg: ExperimentConfig) -> int:
    from .selfcheck import run_all

    results = run_all()
    ok = all(results.values())
    _write_report(cfg, {"checks": results, "all_passed": ok})
    for name, passed in results.items():
        print(f"{'PASS' if passed else 'FAIL'} {name}")
    return 0 if ok else 3


_TASK_FNS = {
    "spectral-entropy": _task_spectral_entropy,
    "estimate-entropy": _task_estimate_entropy,
    "embed-shift": _task_embed_shift,
    "shadow": _task_shadow,
    "sp-lower-bound": _task_sp_lower_bound,
    "splitting": _task_splitting,
    "variational-gap": _task_variational_gap,
    "verify": _task_verify,
}


def run(cfg: ExperimentConfig) -> int:
    """Dispatch a validated config; returns the process exit code."""
    if cfg.task not in _TASK_FNS:
        raise ValidationError(f"unknown task {cfg.task!r}; choose from {tuple(_TASK_FNS)}")
    return _TASK_FNS[cfg.task](cfg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="entrolab",
        description="entropy experiments for linear operators",
    )
    parser.add_argument("task", choices=tuple(_TASK_FNS))
    parser.add_argument("--config", type=Path, help="experiment config JSON")
    parser.add_argument("--out", type=Path, default=Path("report"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--require-certified", action="store_true")
    args = parser.parse_args(argv)

    try:
        params = {}
        if args.config is not None:
            try:
                params = json.loads(args.config.read_text())
            except FileNotFoundError as exc:
                raise ValidationError(f"config file not found: {args.config}") from exc
            except json.JSONDecodeError as exc:
                raise ValidationError(f"config is not valid JSON: {exc}") from exc
        elif args.task != "verify":
            raise ValidationError("--config is required for every task except verify")
        if args.threads < 1:
            raise ValidationError("--threads must be >= 1")
        cfg = ExperimentConfig(
            task=args.task,
            params=params,
            seed=args.seed if args.seed is not None else params.get("seed"),
            require_certified=args.require_certified,
            out_dir=args.out,
        )
        code = run(cfg)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, SaturationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except EntropyLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if code == 4:
        print("uncertified result rejected (--require-certified)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
