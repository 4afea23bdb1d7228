#!/usr/bin/env python3
"""Shadow batches of random orbit-segment schedules with periodic points of
the doubling-weight backward shift and summarise the certification rate.

Usage: python3 scripts/run_shadowing.py [--count 200] [--seed 1]
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from entrolab.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, default=Path("results/shadowing"))
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for eps in (0.1, 0.01):
        config = {
            "weights": {"rule": "const", "value": 2},
            "epsilon": eps,
            "random_schedules": {"count": args.count, "max_segments": 3},
        }
        out = args.out / f"eps{eps}"
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = str(Path(tmp) / "config.json")
            Path(cfg_path).write_text(json.dumps(config))
            code = cli_main(
                [
                    "shadow",
                    "--config",
                    cfg_path,
                    "--out",
                    str(out),
                    "--seed",
                    str(args.seed),
                    "--require-certified",
                ]
            )
        report = json.loads((out / "report.json").read_text())
        worst = max(
            (d for rep in report["reports"] for _, d in rep["deviations"]),
            default=0.0,
        )
        print(
            f"eps={eps}: {report['count']} schedules, all certified: "
            f"{report['all_certified']}, worst deviation {worst:.3e}"
        )
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
