"""Run the sketchsim benchmark.

    python3 perfbench/run.py --workload grid_zipf --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

Run from anywhere inside a checkout: the package is imported from the
checkout's own ``src/``. With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
jobs and prints the per-layer metrics. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The exit code is nonzero if any job raised or failed an output check.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
WORKLOAD_NAMES = ("grid_zipf", "sets_zipf", "trace_ipcsv")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=None, help="default: the recorded seed")
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repo."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_all(args) -> int:
    """Each workload in its own process; nonzero if any of them failed."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        code = subprocess.run(cmd, check=False).returncode
        print(f"== {name}: exit {code}", flush=True)
        status = status or code
    return status


def show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<30} {value:>16.6g} {unit:<8} {note}".rstrip())


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "sketchsim" / "__init__.py").is_file():
        print(f"perfbench: no sketchsim package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np
    import sketchsim

    if Path(sketchsim.__file__).resolve().parent != SRC / "sketchsim":
        print(f"perfbench: imported sketchsim from {sketchsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _STARTED
    seed = bench.DEFAULT_SEED if args.seed is None else args.seed
    recorded = json.loads((HERE / "digests.json").read_text())
    expected = recorded["digests"].get(args.workload) if seed == recorded["seed"] else None
    record = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__, "git_sha": git_sha(),
    }
    print("record " + json.dumps(record), flush=True)

    workdir = CHECKOUT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        run = bench.measure(WORKLOADS[args.workload], seed, args.seconds, bool(args.trace), workdir, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = workdir.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()

    for job in run.warmups + run.jobs:
        for problem in job.problems:
            print(f"perfbench: FAILED {problem}", file=sys.stderr)
    ok = [j for j in run.jobs if j.results]
    digests = sorted({j.digest for j in ok})
    print(f"digest {args.workload} seed={seed} sha256={','.join(digests)}"
          + ("" if expected is None else f" recorded={'match' if digests == [expected] else 'MISMATCH'}"))
    correct = run.failed == 0
    metrics = {}
    if correct:
        if args.trace:
            values = bench.layer_metrics(run)
            units = {**bench.LAYER_UNITS, bench.OVERHEAD: "1"}
            print(f"per-layer metrics, median over {sum(j.traced for j in ok)} traced jobs:")
        else:
            values = bench.e2e_metrics(run, import_s)
            units = bench.E2E_UNITS
            print(f"end-to-end metrics over {len(ok)} jobs:")
        for name, value in values.items():
            show(name, value, units[name], f"(n={len(ok)})" if name == "job_s_p50" else "")
            metrics[name] = {"value": value, "unit": units[name]}
        if not args.trace:
            show("abs_re_mean", bench.abs_re_mean(run), "1", f"({len(ok[0].results)} cells)")
    show("failed_frac", run.failed_frac, "1", f"({run.failed}/{run.attempted} jobs)")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
