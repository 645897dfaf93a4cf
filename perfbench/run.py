"""sqk benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload decompose --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; sqk is imported from ./src. The
process drives sqk.cli.run(argv) as a closed loop with one client: each job
starts after the previous one has returned and its output has been checked.
Jobs read and write real .qnd/.prs files in a scratch directory under the
checkout, removed at exit. Times are calibrated for machine speed
(calibration.py).

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (tracing.py). Either way the
last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")

sys.path.insert(0, HERE)
import calibration  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 3

END_TO_END = {"pass_s": "s", "slowest_job_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class PassResult:
    times: list[float] = field(default_factory=list)   # calibrated seconds
    walls: list[float] = field(default_factory=list)   # raw wall seconds
    failures: list[tuple[str, str]] = field(default_factory=list)


def fresh_setup(workload: str, seed: int, workdir: str) -> float:
    """Import sqk from scratch, then generate, validate and write the inputs.
    Returns the calibrated seconds taken."""
    for name in [m for m in sys.modules if m == "sqk" or m.startswith("sqk.")]:
        del sys.modules[name]

    def setup():
        importlib.import_module("sqk.cli")
        inputs.generate(workload, seed, workdir)

    return calibration.Clock().call(setup)[2]


def _run_job(cli, argv):
    """(exit code, stdout, None), or (None, None, traceback) if it raised."""
    try:
        return (*cli.run(argv), None)
    except Exception:  # a crash is a failed job, not a failed benchmark
        return None, None, traceback.format_exc()


def run_pass(cli, jobs, digests: dict[str, str], corrupt=None) -> PassResult:
    """Run every job once, in order, and check each output.

    `corrupt(job, code, out)` may alter a job's result before it is checked;
    the self-test uses it to prove that the checks bite.
    """
    result = PassResult()
    clock = calibration.Clock()
    for job in jobs:
        (code, out, problem), wall, calibrated = clock.call(_run_job, cli, list(job.argv))
        if problem is None:
            if corrupt is not None:
                code, out = corrupt(job, code, out)
            try:
                problem = oracle.check(job, code, out, digests.get(job.id))
            except (OSError, ValueError, IndexError) as exc:
                problem = f"output could not be checked: {exc!r}"
        if problem is not None:
            result.failures.append((job.id, problem))
        result.walls.append(wall)
        result.times.append(calibrated)
        # drop this job's garbage now, as its own process exiting would,
        # so neither the next job's time nor the peak RSS depends on when
        # the cyclic collector happens to run
        gc.collect()
    return result


def load_digests(workload: str, seed: int) -> dict[str, str]:
    """Recorded stdout digests; they apply to the default seed only."""
    if seed != inputs.DEFAULT_SEED:
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def measure(args, workdir: str) -> tuple[dict[str, float], list[PassResult]]:
    setups = [fresh_setup(args.workload, args.seed, workdir)
              for _ in range(SETUP_REPEATS)]
    cli = sys.modules["sqk.cli"]
    jobs = inputs.jobs(args.workload, workdir)
    digests = load_digests(args.workload, args.seed)

    if not args.trace:
        passes: list[PassResult] = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(cli, jobs, digests))
        metrics = {
            "pass_s": statistics.median(sum(p.times) for p in passes),
            # the slowest job by its median over passes; a per-pass maximum
            # over dozens of jobs would pick up whichever one was noisiest
            "slowest_job_s": max(statistics.median(p.times[i] for p in passes)
                                 for i in range(len(jobs))),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
        }
        print(f"passes: {len(passes)}, jobs per pass: {len(jobs)}, "
              f"set-ups: {len(setups)}")
        for name, unit in END_TO_END.items():
            print(f"{name}: {metrics[name]:.6f} {unit}")
        print(f"uncalibrated pass wall time: "
              f"{statistics.median(sum(p.walls) for p in passes):.6f} s")
        return metrics, passes

    tracer = tracing.Tracer()
    tracer.install()
    inputs.generate(args.workload, args.seed, workdir)
    tracer.mark()
    tracer.uninstall()
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        plain.append(run_pass(cli, jobs, digests))
        tracer.install()
        traced.append(run_pass(cli, jobs, digests))
        tracer.mark()
        tracer.uninstall()
    setup_window, *pass_windows = tracer.windows()
    overhead = statistics.median(sum(p.times) for p in traced) \
        - statistics.median(sum(p.times) for p in plain)
    metrics = tracing.summarize(setup_window, pass_windows, overhead)
    print(f"traced passes: {len(traced)}, untraced passes: {len(plain)}, "
          f"jobs per pass: {len(jobs)}")
    for name in tracing.METRICS:
        print(f"{name}: {metrics[name]:.6f} {tracing.unit(name)}")
    return metrics, plain + traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sqk", "cli.py")):
        print(f"perfbench: no sqk sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    # on SIGTERM, unwind so the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        metrics, passes = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.times) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for job_id, problem in failures[:10]:
        print(f"FAILED {job_id}: {problem}", file=sys.stderr)
    print(f"fail_frac: {len(failures) / attempted:.6f} ratio "
          f"({len(failures)} of {attempted} jobs)")
    units = END_TO_END if not args.trace else {
        m: tracing.unit(m) for m in tracing.METRICS}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
