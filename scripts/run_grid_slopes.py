#!/usr/bin/env python3
"""Walk the finite-dimensional calibration operators through the empirical
entropy estimator and compare each slope with the eigenvalue formula.

Usage: python3 scripts/run_grid_slopes.py [--out results/grid_slopes]
"""

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

from entrolab.cli import main as cli_main

INSTANCES = [
    (
        "diag2",
        {"kind": "diagonal", "eigenvalues": {"rule": "explicit", "values": [2]}},
        {"kind": "lp", "p": 2},
        [4096],
        math.log(2),
    ),
    (
        "diag23",
        {"kind": "diagonal", "eigenvalues": {"rule": "explicit", "values": [2, 3]}},
        {"kind": "lp", "p": "inf"},
        [64, 64],
        math.log(6),
    ),
    (
        "diag2half",
        {"kind": "diagonal", "eigenvalues": {"rule": "explicit", "values": [2, 0.5]}},
        {"kind": "lp", "p": "inf"},
        [256, 16],
        math.log(2),
    ),
    (
        "scaled_rotation",
        {
            "kind": "scaled",
            "alpha": [1.5, 0],
            "inner": {
                "kind": "dense",
                "entries": [
                    [math.cos(1.0), -math.sin(1.0)],
                    [math.sin(1.0), math.cos(1.0)],
                ],
            },
        },
        {"kind": "lp", "p": 2},
        [96, 96],
        2 * math.log(1.5),
    ),
]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, default=Path("results/grid_slopes"))
    args = parser.parse_args()
    failures = 0
    for name, operator, space, shape, expect in INSTANCES:
        config = {
            "operator": operator,
            "space": space,
            "sample": {"kind": "grid", "shape": shape},
            "n_range": {"lo": 1, "hi": 12},
            "eps_list": [2.0**-k for k in range(3, 8)],
        }
        out = args.out / name
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = str(Path(tmp) / "config.json")
            Path(cfg_path).write_text(json.dumps(config))
            code = cli_main(["estimate-entropy", "--config", cfg_path, "--out", str(out)])
        if code != 0:
            print(f"{name}: runner failed with exit {code}")
            failures += 1
            continue
        report = json.loads((out / "report.json").read_text())
        h = report["estimate"]["h_estimate"]
        rel = abs(h - expect) / expect
        print(f"{name}: slope={h:.4f} expected={expect:.4f} rel_err={rel:.1%}")
        failures += int(rel > 0.10)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
