"""The benchmark's four workloads.

Each workload builds its inputs from a seed (`prepare`, timed as set-up),
lists the operations one pass runs (`ops`, pairs of a name and a callable
taking an output directory), and checks one operation's output
(`check`, a list of problems, empty when correct) against the independent
computations in `reference`.  Later passes are compared byte for byte with
the first pass, which is checked in full.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

EPS_SWEEP = [2.0**-k for k in range(3, 8)]
N_RANGE = range(1, 13)


@dataclass
class Result:
    """Outcome of one operation in one pass."""

    code: int  # CLI exit code, 0 for library calls that returned
    fingerprint: bytes = b""
    data: dict = field(default_factory=dict)

    def seal(self) -> None:
        """Read a CLI call's output files, outside the timed pass."""
        out = self.data.get("out")
        if out is None:
            return
        files = sorted(out.iterdir()) if out.is_dir() else []
        self.fingerprint = b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in files)
        report = out / "report.json"
        self.data["report"] = json.loads(report.read_text()) if report.exists() else {}


def _cli(task: str, config: Path, out: Path, threads: int, *extra: str) -> Result:
    """One `entrolab` CLI call in this process; its stdout goes to stderr so
    the benchmark's own stdout ends with the result line."""
    from entrolab.cli import main

    argv = [task, "--config", str(config), "--out", str(out), "--threads", str(threads), *extra]
    with contextlib.redirect_stdout(sys.stderr):
        code = main(argv)
    return Result(code, data={"out": out})


def _write_config(workdir: Path, name: str, config: dict) -> Path:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(config, sort_keys=True))
    return path


def _table(res: Result) -> dict:
    return ref.read_table_csv((res.data["out"] / "table.csv").read_text())


def _slope_problem(h: float, expect: float, what: str) -> list[str]:
    return [] if abs(h - expect) <= 0.10 * expect else [f"slope {h} not within 10% of {what} = {expect}"]


class GridSlopes:
    """estimate-entropy on diag(2) over a line grid in l^2 and on diag(2,3)
    over a square grid in l^inf; the seed shifts both grids."""

    name = "grid-slopes"
    specs = {  # eigenvalues, space, grid shape, eps list
        "diag2": ((2.0,), {"kind": "lp", "p": 2}, [2048], EPS_SWEEP),
        "diag23": ((2.0, 3.0), {"kind": "lp", "p": "inf"}, [64, 64], EPS_SWEEP[:1]),
    }

    def prepare(self, seed: int, workdir: Path) -> dict:
        low = float(np.random.default_rng(seed).integers(-32, 33)) / 8.0
        configs = {
            name: _write_config(workdir, name, {
                "operator": {"kind": "diagonal", "eigenvalues": {"rule": "explicit", "values": list(lams)}},
                "space": space,
                "sample": {"kind": "grid", "shape": shape, "low": low, "high": low + 1.0},
                "n_range": {"lo": N_RANGE[0], "hi": N_RANGE[-1]},
                "eps_list": eps,
            })
            for name, (lams, space, shape, eps) in self.specs.items()
        }
        return {"low": low, "configs": configs}

    def ops(self, state: dict):
        return [
            (name, lambda out, p=path: _cli("estimate-entropy", p, out, state["threads"]))
            for name, path in state["configs"].items()
        ]

    def check(self, state: dict, name: str, res: Result) -> list[str]:
        lams, _, shape, eps_list = self.specs[name]
        rep = res.data["report"]
        size = math.prod(shape)
        bad = _slope_problem(rep["estimate"]["h_estimate"], ref.log_sum_expanding(lams),
                             "sum log lambda over lambda > 1")
        if rep["sample"]["size"] != size:
            bad.append(f"sample size {rep['sample']['size']} != {size}")
        counts = _table(res)
        if set(counts) != {(n, e) for n in N_RANGE for e in eps_list}:
            return bad + ["table cells differ from the requested grid"]
        bad += ref.monotone_violations(counts, size)
        if len(lams) == 1:
            xs = np.linspace(state["low"], state["low"] + 1.0, shape[0]).tolist()
            for (n, e), s in sorted(counts.items()):
                want = ref.line_sweep(xs, lams[0] ** (n - 1), e)
                if s != want:
                    bad.append(f"s({n},{e})={s}, closed-form sweep gives {want}")
        return bad


class ShiftCube:
    """embed-shift: the embedded full 3-shift at depth 7 under l^inf; the
    seed drives the conjugacy samples."""

    name = "shift-cube"
    N, depth, eps = 3, 7, [0.4, 0.2, 0.1]

    def prepare(self, seed: int, workdir: Path) -> dict:
        config = _write_config(workdir, "cube", {
            "N": self.N,
            "depth": self.depth,
            "weights": {"rule": "const", "value": 2},
            "space": {"kind": "lp", "p": "inf"},
            "eps_list": self.eps,
            "conjugacy_samples": 1000,
            "conjugacy_dim": 64,
        })
        return {"config": config, "seed": str(seed)}

    def ops(self, state: dict):
        return [("cube", lambda out: _cli("embed-shift", state["config"], out, state["threads"],
                                          "--seed", state["seed"]))]

    def check(self, state: dict, name: str, res: Result) -> list[str]:
        rep = res.data["report"]
        bad = _slope_problem(rep["estimate"]["h_estimate"], math.log(self.N), f"log {self.N}")
        if rep["conjugacy_max_deviation"] != 0.0:
            bad.append(f"conjugacy deviation {rep['conjugacy_max_deviation']!r} != 0")
        counts = _table(res)
        ns, eps_desc = list(range(1, self.depth + 2)), sorted(self.eps, reverse=True)
        if set(counts) != {(n, e) for n in ns for e in self.eps}:
            return bad + ["table cells differ from n = 1..depth+1 by the requested eps"]
        # symbol tuples in lexicographic order are the cube in scan order
        grids = np.meshgrid(*[np.arange(self.N)] * self.depth, indexing="ij")
        symbols = np.stack([g.ravel() for g in grids], axis=-1).astype(np.int8)
        want = {}
        for n in ns:
            D = ref.cube_bowen_matrix(symbols, n)
            for e in eps_desc:
                want[(n, e)] = ref.greedy_from_matrix(D, e)
        # the table repairs greedy counts by running maxima over smaller n
        # and larger eps, cell by cell in this order; apply the same law
        for j, e in enumerate(eps_desc):
            for i, n in enumerate(ns):
                if i:
                    want[(n, e)] = max(want[(n, e)], want[(ns[i - 1], e)])
                if j:
                    want[(n, e)] = max(want[(n, e)], want[(n, eps_desc[j - 1])])
        for cell, s in sorted(counts.items()):
            if want[cell] != s:
                bad.append(f"s{cell}={s}, closed-form greedy gives {want[cell]}")
        return bad


class SpFamily:
    """sp-lower-bound with a built family above the direct-verification cap
    (m=13) and below it (m=6), then the separated-set count of the m=6
    family at its Bowen time; the seed picks eps inside (2^-4, 2^-3]."""

    name = "sp-family"
    n, k = 3, 1
    cli_m = {"cli-m13": 13, "cli-m6": 6}
    count_m = 6
    pair_samples = 64

    def prepare(self, seed: int, workdir: Path) -> dict:
        eps = round(0.07 + 0.05 * float(np.random.default_rng(seed).random()), 6)
        configs = {
            name: _write_config(workdir, name, {
                "epsilon": eps, "m": m, "k": self.k, "build_family": {"n": self.n},
            })
            for name, m in self.cli_m.items()
        }
        return {"eps": eps, "configs": configs, "seed": seed}

    def _count(self, eps: float) -> Result:
        from entrolab import (BackwardShift, ConstRule, FAggregate, Lp, Vector, fixed_vector,
                              sn_table, sp_constant, sp_separated_family, zero_vector)

        B = BackwardShift(ConstRule(2))
        m, n = self.count_m, self.n
        N = sp_constant(eps)
        dim = max(64, 4 * ((n - 1) * (N + 1) + N))
        x1 = fixed_vector(B, dim)
        anchors = [zero_vector(dim)] + [Vector(j * x1.coords) for j in range(1, m)]
        fam = sp_separated_family(B, anchors, n, eps)
        bowen = (n - 1) * (fam.gap + 1)
        s = sn_table(B, fam.sample, [bowen], [eps], FAggregate(Lp(2.0))).s(bowen, eps)
        rows = np.stack([p.coords for p in fam.sample.points])
        blob = rows.tobytes() + repr((fam.family_size, fam.min_pairwise, fam.verification, s)).encode()
        return Result(0, blob, {"fam": fam, "rows": rows, "s": s, "bowen": bowen})

    def ops(self, state: dict):
        ops = [
            (name, lambda out, p=path: _cli("sp-lower-bound", p, out, state["threads"]))
            for name, path in state["configs"].items()
        ]
        return ops + [(f"count-m{self.count_m}", lambda out: self._count(state["eps"]))]

    def check(self, state: dict, name: str, res: Result) -> list[str]:
        eps = state["eps"]
        N = ref.least_gap(eps)
        if name in self.cli_m:
            return self._check_report(res.data["report"], self.cli_m[name], eps, N)
        fam, rows = res.data["fam"], res.data["rows"]
        m, n = self.count_m, self.n
        bad = []
        if fam.family_size != m**n or len(rows) < m**n:
            bad.append(f"family has {fam.family_size} members, sample {len(rows)}; want {m}^{n}")
        if fam.gap != N:
            bad.append(f"gap {fam.gap} != {N}")
        # B^period xi = xi on the representable window: xi_j = 2^period xi_{j+period}
        period = (n - 1) * (N + 1) + N
        window = rows.shape[1] - period
        if not np.array_equal(rows[:, period : period + window] * 2.0**period, rows[:, :window]):
            bad.append("a family member is not period-fixed on the representable window")
        if not fam.min_pairwise > eps:
            bad.append(f"min_pairwise {fam.min_pairwise} <= eps {eps}")
        if not len(rows) >= res.data["s"] >= m**n:
            bad.append(f"s at the Bowen time is {res.data['s']}, want >= {m**n}")
        rng = np.random.default_rng(state["seed"])
        for _ in range(self.pair_samples):
            i, j = rng.choice(len(rows), size=2, replace=False)
            d = ref.shift_bowen_faggregate(rows[i], rows[j], res.data["bowen"] + 1)
            if d < fam.min_pairwise * (1 - 1e-9):
                bad.append(f"pair ({i},{j}) at {d!r} is closer than min_pairwise {fam.min_pairwise!r}")
        return bad

    def _check_report(self, rep: dict, m: int, eps: float, N: int) -> list[str]:
        bad = []
        bound = math.log(m) / (self.k * (N + 1))
        if rep["N"] != N or rep["lower_bound"] != bound:
            bad.append(f"bound {rep['lower_bound']!r} (N={rep['N']}) != log({m})/(k({N}+1))")
        fam = rep["family"]
        if fam["size"] != m**self.n:
            bad.append(f"family size {fam['size']} != {m}^{self.n}")
        if not fam["min_pairwise"] > eps:
            bad.append(f"min_pairwise {fam['min_pairwise']} <= eps {eps}")
        path = "certificate" if fam["sample_size"] > 2048 else "direct"
        if fam["verification"] != path:
            bad.append(f"verification path {fam['verification']!r}, expected {path!r}")
        return bad


class ExactOracle:
    """A seeded batch of small samples through the exact oracle and the greedy
    scan: diagonal and dense operators, 1 and 2 dimensions, at most 24
    points.  Sizes and kinds follow a fixed cycle so every seed does the same
    mix of work; the seed draws the points, eigenvalues, angles and scales."""

    name = "exact-oracle"
    batch = 480
    ns = (1, 2, 3)

    def prepare(self, seed: int, workdir: Path) -> dict:
        from entrolab import CompactSample, DenseMatrix, Diagonal, ExplicitRule, vector

        rng = np.random.default_rng(seed)
        cases = {}
        for i in range(self.batch):
            dim = 1 + i % 2
            kind = ("diagonal", "dense")[(i // 2) % 2]
            count = 8 + (i * 7) % 17  # 8..24
            pts = np.unique(rng.random((count, dim)), axis=0)
            eps = sorted(rng.choice([0.05, 0.1, 0.3, 0.6], size=2, replace=False).tolist(), reverse=True)
            case = {"pts": pts, "eps": eps, "kind": kind}
            if kind == "diagonal":
                case["lams"] = tuple(float(v) for v in rng.choice([0.5, 1.0, 2.0], size=dim))
                T = Diagonal(ExplicitRule(case["lams"]))
            elif dim == 1:
                case["lams"] = (float(rng.choice([0.5, 1.5, 2.0])),)
                T = DenseMatrix(np.array([case["lams"]]))
            else:
                case["c"] = c = float(rng.choice([0.75, 1.25, 1.5]))
                theta = float(rng.uniform(0.0, 2.0 * math.pi))
                T = DenseMatrix(c * np.array([[math.cos(theta), -math.sin(theta)],
                                              [math.sin(theta), math.cos(theta)]]))
            case["T"] = T
            case["K"] = CompactSample(tuple(vector(row) for row in pts), 0.05, f"oracle{i}")
            cases[f"case{i}"] = case
        return {"cases": cases}

    def _one(self, case: dict) -> Result:
        from entrolab import Lp, greedy_separated, max_separated_exact, sn_table

        L2 = Lp(2.0)
        T, K, eps = case["T"], case["K"], case["eps"]
        table = sn_table(T, K, self.ns, eps, L2, method="exact")
        exact = {cell: table.s(*cell) for cell in table.entries}
        greedy = {cell: len(greedy_separated(T, K, *cell, L2)) for cell in exact}
        chosen = max_separated_exact(T, K, max(self.ns), min(eps), L2)
        rows = {p.tobytes(): i for i, p in enumerate(case["pts"].astype(complex))}
        data = {"exact": exact, "greedy": greedy, "set": sorted(rows[p.coords.tobytes()] for p in chosen)}
        return Result(0, repr(data).encode(), data)

    def ops(self, state: dict):
        return [(name, lambda out, c=case: self._one(c)) for name, case in state["cases"].items()]

    def check(self, state: dict, name: str, res: Result) -> list[str]:
        case, data = state["cases"][name], res.data
        n_max, e_min = max(self.ns), min(case["eps"])
        bad = [
            f"exact {s} < greedy {data['greedy'][cell]} at {cell}"
            for cell, s in data["exact"].items() if s < data["greedy"][cell]
        ]
        pts = case["pts"]
        if "c" in case:
            D = ref.rotation_bowen(pts, case["c"], n_max)
        else:
            D = ref.diagonal_bowen(pts, case["lams"], n_max)
        chosen = data["set"]
        if len(chosen) != data["exact"][(n_max, e_min)]:
            bad.append("exact set size differs from its table cell")
        bad += [
            f"exact set pair ({a},{b}) at {D[a, b]!r} <= {e_min}"
            for a in chosen for b in chosen
            if a < b and not D[a, b] > e_min * (1 - 1e-9)
        ]
        if case["kind"] == "diagonal" and pts.shape[1] == 1:
            lam = abs(case["lams"][0])
            for (n, e), s in sorted(data["exact"].items()):
                want = ref.line_sweep(pts[:, 0].tolist(), max(lam ** (n - 1), 1.0), e)
                if s != want:
                    bad.append(f"exact s({n},{e})={s}, interval sweep gives {want}")
        return bad


WORKLOADS = {w.name: w for w in (GridSlopes(), ShiftCube(), SpFamily(), ExactOracle())}
