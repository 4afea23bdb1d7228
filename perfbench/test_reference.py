"""Tests of the benchmark's own reference computations and checks.

    python3 -m pytest perfbench

The references are compared with brute-force evaluations of the
definitions, and each check is shown to reject a deliberately wrong output.
None of this imports entrolab.
"""

import itertools
import json
import math

import numpy as np

import reference as ref
from workloads import ExactOracle, GridSlopes, Result


def _max_separated_brute(xs, scale, eps):
    for size in range(len(xs), 0, -1):
        for subset in itertools.combinations(xs, size):
            if all(abs(a - b) * scale > eps for a, b in itertools.combinations(subset, 2)):
                return size
    return 0


def test_line_sweep_is_maximum_on_a_line():
    rng = np.random.default_rng(0)
    for _ in range(60):
        xs = rng.random(int(rng.integers(1, 9))).tolist()
        scale, eps = float(rng.choice([0.5, 1.0, 4.0])), float(rng.choice([0.05, 0.2, 0.5]))
        assert ref.line_sweep(xs, scale, eps) == _max_separated_brute(xs, scale, eps)


def test_cube_bowen_matrix_matches_explicit_orbits():
    N, depth = 3, 4
    symbols = np.array(list(itertools.product(range(N), repeat=depth)), dtype=np.int8)
    coords = symbols * 2.0 ** -np.arange(1, depth + 1)
    for n in (1, 2, 3, 5):
        D = ref.cube_bowen_matrix(symbols, n)
        for a, b in [(0, 1), (5, 77), (13, 80), (40, 41)]:
            want = max(np.abs(ref.shift_power(coords[a] - coords[b], i)).max() for i in range(n))
            assert D[a, b] == want


def test_shift_power_and_faggregate_follow_the_definitions():
    x = np.array([1.0, -0.5, 0.25, 2.0])
    assert np.array_equal(ref.shift_power(x, 2), np.array([0.25 * 4, 2.0 * 4, 0.0, 0.0]))
    partial = [math.sqrt(sum(v * v for v in x[:i])) for i in range(1, 5)]
    want = sum(2.0**-i * min(1.0, p) for i, p in enumerate(partial, start=1))
    assert math.isclose(float(ref.faggregate_l2(x)), want, rel_tol=1e-15)


def test_rotation_bowen_matches_matrix_powers():
    rng = np.random.default_rng(1)
    pts = rng.random((5, 2))
    c, theta = 1.25, 0.7
    A = c * np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    D = ref.rotation_bowen(pts, c, 3)
    for a, b in itertools.combinations(range(5), 2):
        d = pts[a] - pts[b]
        want = max(np.linalg.norm(np.linalg.matrix_power(A, i) @ d) for i in range(3))
        assert math.isclose(D[a, b], want, rel_tol=1e-12)


def test_monotone_violations_flags_each_law():
    ok = {(1, 0.5): 2, (2, 0.5): 3, (1, 0.25): 3, (2, 0.25): 4}
    assert ref.monotone_violations(ok, 4) == []
    assert ref.monotone_violations({**ok, (2, 0.5): 1}, 4)
    assert ref.monotone_violations({**ok, (1, 0.25): 1}, 4)
    assert ref.monotone_violations({**ok, (2, 0.25): 5}, 4)


def _grid_result(tmp_path, low, counts, h):
    tmp_path.mkdir(parents=True, exist_ok=True)
    lines = ["n,epsilon,s,method,saturated"]
    lines += [f"{n},{e!r},{s},greedy,false" for (n, e), s in sorted(counts.items())]
    (tmp_path / "table.csv").write_text("\n".join(lines) + "\n")
    report = {"estimate": {"h_estimate": h}, "sample": {"size": 2048}}
    (tmp_path / "report.json").write_text(json.dumps(report))
    res = Result(0, data={"out": tmp_path})
    res.seal()
    return res


def test_grid_check_rejects_a_wrong_count(tmp_path):
    wl, low = GridSlopes(), 0.25
    xs = np.linspace(low, low + 1.0, 2048).tolist()
    eps_list = wl.specs["diag2"][3]
    counts = {(n, e): ref.line_sweep(xs, 2.0 ** (n - 1), e) for n in range(1, 13) for e in eps_list}
    state = {"low": low}
    good = _grid_result(tmp_path / "good", low, counts, math.log(2))
    assert wl.check(state, "diag2", good) == []
    cell = (3, eps_list[0])
    bad = _grid_result(tmp_path / "bad", low, {**counts, cell: counts[cell] - 1}, math.log(2))
    assert any("closed-form sweep" in p for p in wl.check(state, "diag2", bad))
    slow = _grid_result(tmp_path / "slow", low, counts, 0.8 * math.log(2))
    assert any("not within 10%" in p for p in wl.check(state, "diag2", slow))


def test_oracle_check_rejects_exact_below_greedy_and_unseparated_sets():
    wl = ExactOracle()
    pts = np.array([[0.1], [0.2], [0.6]])
    case = {"pts": pts, "eps": [0.3, 0.05], "kind": "diagonal", "lams": (1.0,)}
    state = {"cases": {"case0": case}}
    exact = {(n, e): ref.line_sweep(pts[:, 0].tolist(), 1.0, e) for n in wl.ns for e in case["eps"]}
    good = Result(0, data={"exact": exact, "greedy": dict(exact), "set": [0, 1, 2]})
    assert wl.check(state, "case0", good) == []
    low = Result(0, data={"exact": exact, "greedy": {**exact, (1, 0.3): 3}, "set": [0, 1, 2]})
    assert any("exact" in p and "greedy" in p for p in wl.check(state, "case0", low))
    # 0.1 and 0.2 are 0.1 apart: not separated at eps 0.15
    case15 = {**case, "eps": [0.3, 0.15]}
    exact15 = {(n, e): ref.line_sweep(pts[:, 0].tolist(), 1.0, e) for n in wl.ns for e in case15["eps"]}
    unsep = Result(0, data={"exact": exact15, "greedy": exact15, "set": [0, 1]})
    assert any("exact set pair (0,1)" in p for p in wl.check({"cases": {"case0": case15}}, "case0", unsep))
