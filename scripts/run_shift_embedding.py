#!/usr/bin/env python3
"""Sweep the alphabet size of the embedded full shift and report the
empirical entropy slopes next to log N, the conjugacy deviation, and the
resulting unbounded family of lower bounds for the weighted shift.

Usage: python3 scripts/run_shift_embedding.py [--out results/embedding]
"""

import argparse
import json
import sys
import tempfile
from math import log
from pathlib import Path

from entrolab.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, default=Path("results/embedding"))
    parser.add_argument("--alphabets", type=int, nargs="+", default=[2, 3, 4])
    args = parser.parse_args()
    slopes = []
    for N in args.alphabets:
        depth = 8 if N <= 3 else 5
        config = {
            "N": N,
            "depth": depth,
            "weights": {"rule": "const", "value": 2},
            "space": {"kind": "lp", "p": "inf"},
            "eps_list": [0.4, 0.2, 0.1],
        }
        out = args.out / f"N{N}"
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = str(Path(tmp) / "config.json")
            Path(cfg_path).write_text(json.dumps(config))
            code = cli_main(["embed-shift", "--config", cfg_path, "--out", str(out)])
        if code != 0:
            print(f"N={N}: runner failed with exit {code}")
            return 1
        report = json.loads((out / "report.json").read_text())
        h = report["estimate"]["h_estimate"]
        slopes.append(h)
        print(
            f"N={N}: conjugacy deviation {report['conjugacy_max_deviation']!r}, "
            f"slope {h:.4f} vs log N = {log(N):.4f}"
        )
    print(
        "lower bounds grow without bound as N sweeps up:",
        " < ".join(f"{s:.4f}" for s in slopes),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
