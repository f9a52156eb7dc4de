"""triplespin benchmark: closed-loop workloads through ``triplespin.cli.dispatch``.

Usage (from the repository root):

    python3 perfbench/run.py --workload probe --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client in one process runs an untimed smoke-size warm-up job, then jobs
back to back for ``--seconds`` seconds; each job's outputs, the warm-up's
too, are gated by the checks in ``workloads.py``. Times are reported in
seconds at a reference host speed (see ``HostClock`` and ``measure_setup``);
the wall-clock figures go to the result file and the printed summary too. ``--seed``
derives every ``--seed`` value and family angle a job passes, so the same
seed gives the same jobs. With ``--trace 0`` the run reports the end-to-end
metrics (tracing off); with ``--trace 1`` it runs each job both untraced and
with layer spans on, alternating which side goes first, and reports the
per-layer metrics and the tracing overhead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A result file with an environment block (and,
traced, a span file) goes to ``perfbench/results/``; compare result files
with ``perfbench/compare.py``. Exits 2 without a result when the checkout
has no ``src/triplespin``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = {"full": 5, "smoke": 1}
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from triplespin.cli import dispatch; sys.exit(dispatch(['--version']))"
)
#: A fresh interpreter importing numpy's and scipy's linear algebra: process
#: start-up work like the CLI's, from code no change to triplespin can move.
SETUP_REFERENCE_CODE = "import numpy.linalg, scipy.linalg"
#: Medians of SETUP_REFERENCE_CODE and of ``reference_burst`` on the host the
#: benchmark was calibrated on (2-vCPU Xeon, 105 MiB LLC, numpy on OpenBLAS
#: with one thread); reported times are seconds at that host's speed.
SETUP_REFERENCE_S = 0.50
REFERENCE_S = 0.012
#: Shortest stretch of job time between two reference bursts.
SEGMENT_S = 0.25


def pin_blas_threads() -> None:
    """One BLAS thread, whatever the calling shell set, so every result runs alike."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def _process_seconds(code: str) -> float:
    """Wall time of a fresh interpreter running `code` with the source directory as argv[1]."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code, str(SRC)], stdout=subprocess.DEVNULL)
    # a blocking wait: wait(timeout=...) polls every 50 ms, which would
    # round each sample up to the next poll
    killer = threading.Timer(120, proc.kill)
    killer.start()
    rc = proc.wait()
    killer.cancel()
    if rc != 0:
        raise subprocess.CalledProcessError(rc, proc.args)
    return time.perf_counter() - start


def measure_setup(repeats: int) -> tuple[float, float]:
    """Set-up time of a fresh interpreter importing the CLI until it can dispatch.

    Each sample follows a fresh interpreter running SETUP_REFERENCE_CODE and
    is scaled by SETUP_REFERENCE_S over that one's time, which tracks how
    fast the host starts processes now; the bursts of ``HostClock`` do not.
    One untimed pair first, so byte-compiling a fresh checkout is not
    counted. Returns the medians of the scaled and of the wall-clock samples.
    """
    scaled, wall = [], []
    for i in range(repeats + 1):
        reference = _process_seconds(SETUP_REFERENCE_CODE)
        seconds = _process_seconds(SETUP_CODE)
        if i:
            scaled.append(seconds * SETUP_REFERENCE_S / reference)
            wall.append(seconds)
    return statistics.median(scaled), statistics.median(wall)


def reference_burst() -> float:
    """Time of a fixed piece of the benchmark's own code: how fast the host runs now.

    The sum of the medians of five runs each of four kinds of work triplespin's
    jobs mix: a pure-Python loop, small symmetric eigensolves, building and
    sorting a dict of string keys, and many numpy calls on tiny arrays. Of the
    mixes tried, this one tracked probe and cli-short job times best. No
    change to triplespin can move it.
    """
    import numpy as np

    matrix = np.random.default_rng(0).standard_normal((80, 80))
    matrix += matrix.T

    def loop():
        total = 0
        for i in range(30_000):
            total += i * i

    def eigh():
        for _ in range(5):
            np.linalg.eigh(matrix)

    def churn():
        table = {str(i): (i, float(i)) for i in range(5_000)}
        sorted(table.items())

    def tiny_arrays():
        x = np.arange(3.0)
        for _ in range(500):
            x = np.abs(x * 0.5) + np.ones(3)

    def median_time(work):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            work()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    return sum(median_time(work) for work in (loop, eigh, churn, tiny_arrays))


class HostClock:
    """Wall time converted to seconds at the reference host speed.

    The benchmark shares its host: the same job can run 1.5x slower for a few
    seconds or for whole minutes, and that drift, not the program, would set
    the spread of wall-clock results. The clock times ``reference_burst``
    between stretches of timed work and scales each stretch by REFERENCE_S
    over the mean of the bursts on either side. A change to triplespin moves
    the stretches and not the bursts, so it shows in full.
    """

    def __init__(self):
        self.bursts = [reference_burst()]
        self.seconds = 0.0
        self._since = time.perf_counter()

    def lap(self) -> None:
        """Close the stretch of work since the last burst."""
        elapsed = time.perf_counter() - self._since
        self.bursts.append(reference_burst())
        self.seconds += elapsed * 2.0 * REFERENCE_S / (self.bursts[-2] + self.bursts[-1])
        self._since = time.perf_counter()

    def lap_if_due(self) -> None:
        """Between the steps of a job: a lap once the stretch is SEGMENT_S long."""
        if time.perf_counter() - self._since >= SEGMENT_S:
            self.lap()

    def run_scale(self) -> float:
        """Reference over measured speed for the run as a whole, from every burst so far."""
        return REFERENCE_S / statistics.median(self.bursts)


# ---------------------------------------------------------------- environment


def _llc_bytes() -> int | None:
    sizes = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        sizes.append((int(level), int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)))
    return max(sizes)[1] if sizes else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy
    import scipy
    from triplespin import kernels

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "llc_bytes": _llc_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": getattr(kernels, "BACKEND", "unknown"),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# ---------------------------------------------------------------- runs


def _dispatch(argv):
    from triplespin import cli

    return cli.dispatch(argv)  # looked up per call so the traced run sees its wrapper


def closed_loop(workload, seed, size, scratch, seconds, tracer=None, clock=None):
    """Run jobs back to back until `seconds` pass; returns (results, traced, host_s).

    With a clock, host_s holds each untraced job's time in seconds at the
    reference host speed. With a tracer, each job runs untraced and again
    with spans on, so both sides of the tracing overhead see the same inputs.
    Odd jobs run the traced side first, so a host that speeds up or slows
    down during the run does not favour one side.
    """
    from workloads import job_plan, run_job

    def run_traced(index, steps):
        tracer.current_job = index
        tracer.install()
        try:
            return run_job(workload, steps, scratch, _dispatch)
        finally:
            tracer.uninstall()

    results, traced, host_s = [], [], []
    start = time.perf_counter()
    for index, steps in job_plan(workload, seed, size):
        if results and time.perf_counter() - start >= seconds:
            break
        if tracer is not None and index % 2:
            traced.append(run_traced(index, steps))
        if clock is None:
            results.append(run_job(workload, steps, scratch, _dispatch))
        else:
            before = clock.seconds
            results.append(run_job(workload, steps, scratch, _dispatch, between=clock.lap_if_due))
            clock.lap()
            host_s.append(clock.seconds - before)
        if tracer is not None and not index % 2:
            traced.append(run_traced(index, steps))
    return results, traced, host_s


def warm_up(workload, seed, scratch):
    """One untimed, checked smoke-size job with inputs of its own.

    It pays the process's first-call costs (lazy imports, the first BLAS and
    scipy calls), which would otherwise land in the first timed job.
    """
    from workloads import job_plan, run_job

    _, steps = next(job_plan(workload, f"warm-up/{seed}", "smoke"))
    return run_job(workload, steps, scratch, _dispatch)


def e2e_metrics(results, job_s, setup_s, warmup=None) -> dict:
    """Times from the timed jobs, one per result in `job_s`; pass_share also counts the warm-up job.

    Closed loop with one client, so throughput is jobs over the jobs' summed time.
    """
    checked = results + ([warmup] if warmup is not None else [])
    passed = sum(r.ok for r in checked)
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(job_s) / sum(job_s), "1/s"),
        "job_p50_s": (statistics.median(job_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_share": (passed / len(checked), "ratio"),
    }


def overhead_share(untraced, traced) -> float:
    """Traced over untraced time of the same jobs, minus 1.

    The first pair is left out when there are others: its untraced side is
    the run's first full-size job and pays first-call costs (the first large
    allocations) that the smoke-size warm-up does not.
    """
    pairs = list(zip(untraced, traced))
    pairs = pairs[1:] or pairs
    return sum(t.wall_s for _, t in pairs) / sum(u.wall_s for u, _ in pairs) - 1.0


def layer_metrics(tracer, workload, untraced, traced) -> dict:
    jobs = len(traced)
    spans = tracer.span_times()
    counts = tracer.counts

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    def layer_self(layer):
        return sum(v["self_s"] for k, v in spans.items() if k.split(".", 1)[0] == layer)

    def per_state(name):
        rows = counts[name + ".peak_rows"]
        return counts[name + ".peak_bytes"] / rows if rows else 0.0

    objective_calls = span("prober.objective", "calls")
    traced_s = sum(r.wall_s for r in traced)
    accounted = sum(layer_self(layer) for layer in workload.named_layers) / traced_s
    per_job = {
        "prober.objective_calls": (objective_calls, "count/job"),
        "prober.self_s": (layer_self("prober"), "s/job"),
        "relations.evaluate_calls": (span("relations.evaluate", "calls"), "count/job"),
        "relations.evaluate_self_s": (span("relations.evaluate", "self_s"), "s/job"),
        "relations.soak_self_s": (span("relations.soak", "self_s"), "s/job"),
        "moments.scalar_calls": (span("moments.scalar", "calls"), "count/job"),
        "moments.scalar_self_s": (span("moments.scalar", "self_s"), "s/job"),
        "moments.batch_rows": (counts["moments.batch.rows"], "count/job"),
        "moments.batch_s": (span("moments.batch", "self_s"), "s/job"),
        "states.validations": (span("states.validate", "calls"), "count/job"),
        "states.validate_s": (span("states.validate", "self_s"), "s/job"),
        "states.random_rows": (counts["states.random.rows"], "count/job"),
        "states.random_s": (span("states.random", "self_s"), "s/job"),
        "triangle.sample_s": (span("triangle.sample", "self_s"), "s/job"),
        "triangle.scan_self_s": (span("triangle.scan", "self_s"), "s/job"),
        "measure_sim.rows": (counts["measure_sim.run_sweep.rows"], "count/job"),
        "measure_sim.simulate_self_s": (span("measure_sim.simulate", "self_s"), "s/job"),
        "measure_sim.propagate_s": (span("measure_sim.propagate", "self_s"), "s/job"),
        "measure_sim.render_s": (span("measure_sim.render", "self_s"), "s/job"),
        "measure_sim.shots_drawn": (counts["measure_sim.simulate.shots"], "count/job"),
        "rng.streams": (span("rng.stream", "calls"), "count/job"),
        "rng.stream_s": (span("rng.stream", "self_s"), "s/job"),
        "spin_ops.build_calls": (span("spin_ops.build", "calls"), "count/job"),
        "spin_ops.build_s": (span("spin_ops.build", "self_s"), "s/job"),
        "cli.calls": (span("cli.dispatch", "calls"), "count/job"),
        "cli.self_s": (span("cli.dispatch", "self_s"), "s/job"),
        "cli.bytes_emitted": (sum(r.bytes_emitted for r in traced), "B/job"),
    }
    for kind in ("qubit", "triangle"):
        per_job[f"kernels.{kind}_rows"] = (counts[f"kernels.{kind}.rows"], "count/job")
        per_job[f"kernels.{kind}_s"] = (span(f"kernels.{kind}", "self_s"), "s/job")
        per_job[f"kernels.{kind}_bytes"] = (counts[f"kernels.{kind}.bytes"], "B_computed/job")
    metrics = {name: (value / jobs, unit) for name, (value, unit) in per_job.items()}
    metrics.update({
        "prober.us_per_objective": (
            span("prober.objective", "total_s") / objective_calls * 1e6 if objective_calls else 0.0, "us"),
        "prober.restart_agree_ratio": (tracer.restart_agree_ratio(), "ratio"),
        "relations.soak_peak_bytes_per_state": (per_state("relations.soak"), "B/state"),
        "triangle.scan_peak_bytes_per_sample": (per_state("triangle.scan"), "B/sample"),
        "cli.replay_match_ratio": (
            sum(r.replay_ok for r in traced) / jobs if workload.replay_step is not None else 0.0, "ratio"),
        "trace.overhead_share": (overhead_share(untraced, traced), "ratio"),
        "trace.accounted_share": (accounted, "ratio"),
        "trace.remainder_share": (1.0 - accounted, "ratio"),
    })
    return metrics


def run_workload(args) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup_s, wall_setup_s = measure_setup(SETUP_REPEATS[args.size]) if not args.trace else (None, None)
    sys.path.insert(0, str(SRC))
    import triplespin.cli  # noqa: F401  (import before timing, as setup_s covers it)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    scratch = Path(tempfile.mkdtemp(prefix=stem + "-", dir=RESULTS))
    extra, host_s = {}, []
    try:
        warmup = warm_up(workload, args.seed, scratch)
        if not args.trace:
            clock = HostClock()
            results, _, host_s = closed_loop(workload, args.seed, args.size, scratch, args.seconds,
                                             clock=clock)
            metrics = e2e_metrics(results, host_s, setup_s, warmup)
            wall = e2e_metrics(results, [r.wall_s for r in results], wall_setup_s)
            extra = {"wall_clock": {k: wall[k][0] for k in ("setup_s", "jobs_per_s", "job_p50_s")},
                     "host_scale": clock.run_scale()}
        else:
            from tracing import Tracer

            tracer = Tracer()
            untraced, traced, _ = closed_loop(workload, args.seed, args.size, scratch, args.seconds, tracer)
            tracer.save(RESULTS / f"{stem}.spans.npz")
            metrics = layer_metrics(tracer, workload, untraced, traced)
            results = untraced + traced
            spans = tracer.span_times()
            extra = {
                "absent_layers": tracer.absent,
                "span_times": spans,
                # tracemalloc peak per call, to set against env.llc_bytes
                "working_set_bytes": {
                    name: tracer.counts[name + ".peak_bytes"] / spans[name]["calls"]
                    for name in ("relations.soak", "triangle.scan") if spans.get(name, {}).get("calls")
                },
            }
            for target in tracer.absent:
                print(f"layer absent: {target}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    walls = sorted(r.wall_s for r in results)
    results = [warmup] + results
    failed = [r for r in results if not r.ok]
    summary = {
        "attempted": len(results),
        "failed": len(failed),
        "failed_share": len(failed) / len(results),
        "job_samples": len(walls),
    }
    if len(walls) >= 100:  # the highest percentile with at least ten samples beyond it
        summary["job_p90_s"] = walls[int(0.9 * len(walls))]
    result_file = {
        "workload": workload.name,
        "why": workload.why,
        "size": workload.sizes[args.size],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "summary": summary,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
        "jobs": [
            {"wall_s": r.wall_s, "host_s": host_s[i - 1] if host_s and i else None, "ok": r.ok,
             "reasons": r.reasons, "bytes_emitted": r.bytes_emitted,
             "warm_up": r is warmup}
            for i, r in enumerate(results)
        ],
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(result_file, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(results)} jobs, backend {result_file['env']['backend']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:.6g} {unit}")
    print(f"  {'failed_share':<38} {summary['failed_share']:.6g} ratio "
          f"({len(failed)}/{len(results)} jobs, job_p50_s over {len(walls)} samples)")
    for name, value in extra.get("wall_clock", {}).items():
        print(f"  {'wall-clock ' + name:<38} {value:.6g} (host scale {extra['host_scale']:.4f})")
    for r in failed[:5]:
        print(f"  failed job: {'; '.join(r.reasons)}")
    return {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": result_file["metrics"],
    }


def run_all(args) -> int:
    from workloads import WORKLOADS

    combined = {}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "triplespin" / "cli.py").is_file():
        print(f"error: no triplespin source under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
