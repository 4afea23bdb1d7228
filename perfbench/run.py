"""entrolab benchmark: timed passes over one workload, checked outputs.

    python3 perfbench/run.py --workload grid-slopes --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory and from nowhere else.  With `--trace 0` the run reports
the end-to-end metrics of BENCHMARK.json (pass time, set-up time, peak
resident memory); with `--trace 1` it alternates untraced and traced passes
and reports the per-layer metrics.  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

import os

# One process, one computing thread: BLAS pools stay at a single thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"
SETUP_RUNS = 7  # fresh interpreters per run; setup_s is their median
SETUP_TIMEOUT_S = 60


def load_program() -> None:
    """Put the checkout's `src/` first on the path and import entrolab from it."""
    init = SRC / "entrolab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import entrolab
    import entrolab.cli  # noqa: F401  (the CLI entry point every pass calls)

    if Path(entrolab.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: entrolab imported from {entrolab.__file__}, not {SRC}")


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median time from launching a fresh interpreter until it has imported
    entrolab and built the workload's inputs."""
    times = []
    for i in range(SETUP_RUNS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-only", str(workdir / f"setup{i}")]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        if line != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up run failed (exit {code}, said {line!r})")
        times.append(elapsed)
    return statistics.median(times)


def run_pass(ops, pass_dir: Path) -> tuple[float, dict]:
    """One timed round of every operation; an operation that raises is
    recorded as None."""
    outcomes = {}
    t0 = time.perf_counter()
    for name, fn in ops:
        try:
            outcomes[name] = fn(pass_dir / name)
        except Exception:  # the benchmark counts it as failed and goes on
            traceback.print_exc(file=sys.stderr)
            outcomes[name] = None
    return time.perf_counter() - t0, outcomes


def check(wl, state: dict, name: str, res) -> list[str]:
    """The workload's check; output it cannot read (a renamed report field,
    a missing file) fails the check instead of stopping the run."""
    try:
        return wl.check(state, name, res)
    except Exception as exc:  # any unreadable output is a failed check
        return [f"output could not be checked: {exc!r}"]


def run_workload(args) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    declared = declared_metrics()
    workdir = RUNS_DIR / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        setup_s = None if args.trace else measure_setup(wl.name, args.seed, workdir)
        state = wl.prepare(args.seed, workdir)
        state["threads"] = args.cli_threads
        ops = wl.ops(state)

        walls = {False: [], True: []}
        layer_samples = []
        passes = []  # per pass: {op name: Result or None}
        run_start = time.perf_counter()
        while len(passes) < (2 if args.trace else 1) or time.perf_counter() - run_start < args.seconds:
            traced = bool(args.trace) and len(passes) % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            try:
                wall, outcomes = run_pass(ops, workdir / f"pass{len(passes)}")
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced].append(wall)
            if traced:
                layer_samples.append(tracer.metrics())
            for res in outcomes.values():
                if res is not None:
                    res.seal()
                    if passes:  # keep only what the comparison with pass 0 needs
                        res.data = {}
            if passes:
                shutil.rmtree(workdir / f"pass{len(passes)}", ignore_errors=True)
            passes.append(outcomes)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # pass 0 is checked in full; a later pass must reproduce it byte for byte
        verdict = {name: check(wl, state, name, res) for name, res in passes[0].items()
                   if res is not None and res.code == 0}
        attempted = failed = 0
        for outcomes in passes:
            for name, res in outcomes.items():
                attempted += 1
                if res is None or res.code != 0:
                    failed += 1
                elif name not in verdict or res.fingerprint != passes[0][name].fingerprint:
                    failed += 1
                    verdict[name] = ["output differs from the first pass"]
                elif verdict[name]:
                    failed += 1
        wrong = {name for name, bad in verdict.items() if bad}
        for name in sorted(wrong):
            for line in verdict[name]:
                print(f"perfbench: {wl.name}/{name}: {line}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None and tracer.absent:
            print("perfbench: absent layers (reported as 0): " + ", ".join(tracer.absent), file=sys.stderr)

    if args.trace:
        values = {
            name: statistics.median(s.get(name, 0) for s in layer_samples)
            for name in declared["per_layer"]
        }
        untraced = statistics.median(walls[False])
        values["bench.untraced_task.s"] = untraced
        values["bench.tracing_overhead.s"] = statistics.median(walls[True]) - untraced
        units = declared["per_layer"]
    else:
        values = {"task_s": statistics.median(walls[False]), "setup_s": setup_s, "peak_rss_mb": rss_mb}
        units = declared["end_to_end"]
    print(f"perfbench: {wl.name}: {len(passes)} passes, pass times "
          + " ".join(f"{w:.3f}" for w in walls[False] + walls[True]), file=sys.stderr)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()},
    }


def run_all(args) -> dict:
    """Every workload, each in its own process, with a table on stderr."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--cli-threads", str(args.cli_threads)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = v
        print(f"{name:13s} attempted={result['attempted']} failed={result['failed']} "
              f"correct={result['correct']}", file=sys.stderr)
        for metric, v in result["metrics"].items():
            print(f"  {metric:42s} {v['value']:.6g} {v['unit']}", file=sys.stderr)
    return merged


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cli-threads", type=int, default=1,
                        help="--threads for the entrolab CLI calls (reference figures only)")
    parser.add_argument("--setup-only", type=Path, metavar="WORKDIR",
                        help="import, build the inputs in WORKDIR, print 'ready' and exit")
    args = parser.parse_args()
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only needs a single workload")

    load_program()
    if args.setup_only:
        args.setup_only.mkdir(parents=True, exist_ok=True)
        WORKLOADS[args.workload].prepare(args.seed, args.setup_only)
        print("ready", flush=True)
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
