"""The three benchmark workloads: job composition and per-job correctness gates.

A job is a list of CLI invocations, each sent through
``triplespin.cli.dispatch`` with ``--emit`` into a scratch directory, and each
gated by a check that reads the emitted file. Checks compare against closed
forms computed here, never against the library, at the tolerances pinned in
``tests/test_acceptance.py``. A check returns ``None`` on success or a short
reason. Jobs never pass ``--threads`` and never select a kernel backend, so
the benchmark survives the removal of either.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

TAU = 2.0 / math.sqrt(3.0)
INV_SQRT3 = 1.0 / math.sqrt(3.0)

#: Gates from tests/test_acceptance.py (c02, c06, c07, c08) and README conventions.
PROBE_FLOOR = -1e-8  # every probe min_gap
R5_MAX_GAP = 1e-8  # R5 attains its bound ...
R5_BLOCH_ATOL = 1e-4  # ... at |r_i| = 1/sqrt 3
ZERO_GAP_ATOL = 1e-6  # R6 (mixed search) and R7 minima are 0
SOAK_FLOOR = -1e-10
TRIANGLE_FLOOR = -1e-12
EXACT_ATOL = 1e-12  # verify gaps on exact family states
SWEEP_ATOL = 1e-9  # analytic sweep vs closed form, CSV holds 12 digits
SIM_SIGMAS = 5.0
SIM_MIN_SHARE = 0.99
#: CSV values carry 12 significant digits; an exact estimate with zero stderr
#: may differ from the closed form by that rounding.
CSV_ROUNDING = 1e-12

Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Step:
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_job: Callable[[random.Random, dict], list[Step]]
    sizes: dict[str, dict]
    #: Layers whose self time should account for a traced job.
    named_layers: tuple[str, ...]
    #: Step whose manifest each job replays and byte-compares, if any.
    replay_step: int | None = None


@dataclass
class JobResult:
    wall_s: float
    reasons: list[str]
    bytes_emitted: int
    replay_ok: bool

    @property
    def ok(self) -> bool:
        return not self.reasons


# ---------------------------------------------------------------- closed forms


def family_bloch(family: str, param: float) -> tuple[float, float, float]:
    """Bloch vector of the latitude (r1) or meridian (r2) sweep family."""
    if family == "r1":
        a = math.sqrt(2.0 / 3.0)
        return (a * math.cos(param), a * math.sin(param), INV_SQRT3)
    b = math.sin(param) / math.sqrt(2.0)
    return (b, b, math.cos(param))


def family_grid(family: str, points: int) -> list[float]:
    if family == "r1":
        return [2.0 * math.pi * k / points for k in range(points)]
    return [math.pi * k / (points - 1) for k in range(points)]


def derived_values(e: tuple[float, float, float]) -> dict[str, float]:
    """pro0..sum2 of the sweep CSV from exact expectations e = r / 2."""
    var = [0.25 - x * x for x in e]
    eprod = abs(e[0] * e[1] * e[2]) / 8.0
    abs_sum = sum(abs(x) for x in e)
    return {
        "pro0": math.sqrt(max(var[0], 0.0) * max(var[1], 0.0) * max(var[2], 0.0)),
        "pro1": math.sqrt(TAU**3 * eprod),
        "pro2": math.sqrt(eprod),
        "sum0": sum(var),
        "sum1": TAU / 2.0 * abs_sum,
        "sum2": abs_sum / 2.0,
    }


# ---------------------------------------------------------------- checks


def _json(rc: int, text: str):
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return json.loads(text)


def _guard(check: Callable[[int, str], "str | None"]) -> Check:
    """Turn parse errors in a check into a failure reason."""

    def guarded(rc: int, text: str):
        try:
            return check(rc, text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{type(exc).__name__}: {exc}"

    return guarded


def check_probe(relation: str, zero_gap: bool = False, r5_argmin: bool = False) -> Check:
    def check(rc, text):
        out = _json(rc, text)
        if out["relation"] != relation:
            return f"probe reports {out['relation']}, expected {relation}"
        gap = float(out["min_gap"])
        if not gap >= PROBE_FLOOR:
            return f"{relation} min_gap {gap!r} below {PROBE_FLOOR}"
        if zero_gap and not abs(gap) <= ZERO_GAP_ATOL:
            return f"{relation} min_gap {gap!r} not within {ZERO_GAP_ATOL} of 0"
        if out.get("counterexample"):
            return "conjecture scan reports a counterexample"
        if r5_argmin:
            if not gap <= R5_MAX_GAP:
                return f"R5 min_gap {gap!r} above {R5_MAX_GAP}"
            entries = out["argmin_state"]["entries"]  # row-major 2x2 [re, im]
            rho01_re, rho01_im = entries[1]
            bloch = (2.0 * rho01_re, -2.0 * rho01_im, entries[0][0] - entries[3][0])
            if not all(abs(abs(r) - INV_SQRT3) <= R5_BLOCH_ATOL for r in bloch):
                return f"R5 argmin Bloch {bloch} not at |r_i| = 1/sqrt 3"
        return None

    return _guard(check)


def check_soak(pure: int, mixed: int) -> Check:
    def check(rc, text):
        if rc != 0:
            return f"soak exit code {rc}"
        lines = text.splitlines()
        if f"{pure} pure + {mixed} mixed" not in lines[0]:
            return f"soak header {lines[0]!r} does not match the requested sizes"
        if lines[-1] != "status: OK":
            return f"soak {lines[-1]!r}"
        rows = lines[2:-1]
        if not rows:
            return "soak reports no relations"
        for row in rows:
            name, gap, violations = row.split()
            if not float(gap) >= SOAK_FLOOR or int(violations) != 0:
                return f"soak {name}: min gap {gap}, {violations} violations"
        return None

    return _guard(check)


def check_triangle(samples: int) -> Check:
    def check(rc, text):
        out = _json(rc, text)
        if out["samples"] != samples:
            return f"triangle scanned {out['samples']} samples, expected {samples}"
        if not out["analogs"]:
            return "triangle reports no analogs"
        for name, entry in out["analogs"].items():
            if not float(entry["min_gap"]) >= TRIANGLE_FLOOR:
                return f"triangle {name} min gap {entry['min_gap']!r}"
        return None

    return _guard(check)


def check_ops(twice_s: int) -> Check:
    def check(rc, text):
        out = _json(rc, text)
        if out["dim"] != twice_s + 1:
            return f"ops dim {out['dim']} for twice_s {twice_s}"
        for name, value in out["residuals"].items():
            if not float(value) <= EXACT_ATOL:
                return f"ops residual {name} = {value!r}"
        sz = out["sz"]
        for k in range(twice_s + 1):
            expected = twice_s / 2.0 - k
            if not abs(sz[k][k][0] - expected) <= EXACT_ATOL:
                return f"ops Sz[{k},{k}] = {sz[k][k]}, expected {expected}"
        return None

    return _guard(check)


def check_verify(rc, text):
    reports = _json(rc, text)
    if not reports:
        return "verify returned no reports"
    for rep in reports:
        gap = float(rep["gap"])
        if not gap >= -EXACT_ATOL:
            return f"verify {rep['relation']} gap {gap!r}"
        # every pure state saturates R6: Var sum = 3/4 - |r|^2 / 4 = 1/2
        if rep["relation"] == "R6_SUM_HALF" and not abs(gap) <= EXACT_ATOL:
            return f"verify R6 on a pure family state has gap {gap!r}"
    return None


def _csv_rows(rc: int, text: str) -> list[dict]:
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return list(csv.DictReader(io.StringIO(text)))


def check_sweep(family: str, points: int) -> Check:
    def check(rc, text):
        rows = _csv_rows(rc, text)
        grid = family_grid(family, points)
        if len(rows) != points:
            return f"sweep has {len(rows)} rows, expected {points}"
        for row, param in zip(rows, grid):
            if not abs(float(row["param"]) - param) <= SWEEP_ATOL:
                return f"sweep param {row['param']} off the grid value {param}"
            e = tuple(r / 2.0 for r in family_bloch(family, param))
            want = {"exp_sx": e[0], "exp_sy": e[1], "exp_sz": e[2], **derived_values(e)}
            for col, value in want.items():
                if not abs(float(row[col]) - value) <= SWEEP_ATOL:
                    return f"sweep {col} = {row[col]} at {param:.6f}, closed form {value!r}"
        return None

    return _guard(check)


def check_simulate(family: str, points: int) -> Check:
    def check(rc, text):
        rows = _csv_rows(rc, text)
        if len(rows) != points:
            return f"simulate has {len(rows)} rows, expected {points}"
        inside = total = 0
        for row, param in zip(rows, family_grid(family, points)):
            r = family_bloch(family, param)
            for k, axis in enumerate(("sx", "sy", "sz")):
                est, err = float(row[f"exp_{axis}"]), float(row[f"err_{axis}"])
                total += 1
                inside += abs(est - r[k] / 2.0) <= SIM_SIGMAS * err + CSV_ROUNDING
        if not inside >= SIM_MIN_SHARE * total:
            return f"simulate: {inside}/{total} estimates within {SIM_SIGMAS:g} stderr"
        return None

    return _guard(check)


# ---------------------------------------------------------------- jobs


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def probe_job(rng: random.Random, size: dict) -> list[Step]:
    r = str(size["restarts"])
    return [
        Step(("probe", "--relation", "R5", "--spin", "1", "--restarts", r, "--seed", _seed(rng)),
             check_probe("R5_TRIPLE_SUM", r5_argmin=True)),
        Step(("probe", "--relation", "R6", "--spin", "1", "--mixed", "--restarts", r,
              "--seed", _seed(rng)),
             check_probe("R6_SUM_HALF", zero_gap=True)),
        # R7 restarts are capped at 700 iterations. Uncapped, a restart costs
        # 760 to 2900 evaluations (CV 55%), so a job's cost would hinge on its
        # seed; capped, every restart costs ~990 (CV 8%). About 29% of capped
        # restarts stop above 1e-6, so 10 of them all doing so is ~4e-6 per job.
        Step(("probe", "--relation", "R7", "--spin", "4", "--restarts", str(size["r7_restarts"]),
              "--max-iters", "700", "--seed", _seed(rng)),
             check_probe("R7_SUM_GENERAL_S", zero_gap=True)),
        Step(("probe", "--relation", "R10", "--spin", "1", "--restarts", r, "--seed", _seed(rng)),
             check_probe("R10_ENTROPIC_TRIPLE")),
        Step(("probe", "--conjecture", "--spin", "3", "--samples", str(size["conj_samples"]),
              "--max-iters", str(size["conj_max_iters"]), "--seed", _seed(rng)),
             check_probe("R11_CONJECTURE_TRIPLE_PRODUCT")),
    ]


def soak_large_job(rng: random.Random, size: dict) -> list[Step]:
    n, m = size["soak_per_kind"], size["triangle_samples"]
    return [
        Step(("soak", "--pure", str(n), "--mixed-n", str(n), "--seed", _seed(rng)), check_soak(n, n)),
        Step(("triangle", "--samples", str(m), "--seed", _seed(rng)), check_triangle(m)),
    ]


def cli_short_job(rng: random.Random, size: dict) -> list[Step]:
    sweep, sim, draw = size["sweep_points"], size["sim_points"], size["per_draw_points"]
    phi, theta = f"{rng.uniform(0.0, 360.0):.6f}", f"{rng.uniform(0.0, 180.0):.6f}"
    soak, tri = size["soak_per_kind"], size["triangle_samples"]
    return [
        Step(("ops", "--spin", "3"), check_ops(3)),
        Step(("verify", "--relation", "all", "--family", "r1", "--phi", phi, "--degrees"),
             _guard(check_verify)),
        Step(("verify", "--relation", "all", "--family", "r2", "--theta", theta, "--degrees"),
             _guard(check_verify)),
        Step(("sweep", "--family", "r1", "--points", str(sweep)), check_sweep("r1", sweep)),
        Step(("simulate", "--family", "r2", "--points", str(sim), "--seed", _seed(rng)),
             check_simulate("r2", sim)),
        Step(("simulate", "--family", "r1", "--points", str(draw), "--shots", "10000",
              "--per-draw", "--seed", _seed(rng)),
             check_simulate("r1", draw)),
        Step(("triangle", "--samples", str(tri), "--seed", _seed(rng)), check_triangle(tri)),
        Step(("soak", "--pure", str(soak), "--mixed-n", str(soak), "--seed", _seed(rng)),
             check_soak(soak, soak)),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="probe",
            why=(
                "Nelder-Mead campaigns (qubit and spin-4) plus a conjecture scan: ~1e4 scalar "
                "evaluate calls on QuantumState; bypasses kernels and the batch state generators"
            ),
            make_job=probe_job,
            sizes={
                "full": {"restarts": 4, "r7_restarts": 10, "conj_samples": 2000, "conj_max_iters": 200},
                "smoke": {"restarts": 1, "r7_restarts": 10, "conj_samples": 200, "conj_max_iters": 20},
            },
            named_layers=("prober", "relations", "moments", "states"),
        ),
        Workload(
            name="soak-large",
            why=(
                "soak and triangle scans whose arrays are >4x the last-level cache: batch "
                "generators, gap kernels and reductions; bypasses the prober and evaluate"
            ),
            make_job=soak_large_job,
            # tracemalloc peaks of the numpy path: 344 B per soak state and
            # 200 B per triangle sample, so 1.5e6 states -> 516 MB and 2.5e6
            # samples -> 500 MB, both over 4x a 105 MiB LLC. The traced run
            # re-measures both (working_set_bytes in its result file).
            sizes={
                "full": {"soak_per_kind": 750_000, "triangle_samples": 2_500_000},
                "smoke": {"soak_per_kind": 5_000, "triangle_samples": 20_000},
            },
            named_layers=("states", "kernels", "relations", "triangle"),
        ),
        Workload(
            name="cli-short",
            why=(
                "sessions of short commands with --emit and one manifest replay per job: "
                "per-call costs (argparse, rng.stream, eigh, rendering); kernels run in cache; "
                "bypasses the prober"
            ),
            make_job=cli_short_job,
            sizes={
                "full": {"sweep_points": 360, "sim_points": 181, "per_draw_points": 34,
                         "soak_per_kind": 10_000, "triangle_samples": 20_000},
                "smoke": {"sweep_points": 36, "sim_points": 19, "per_draw_points": 34,
                          "soak_per_kind": 1_000, "triangle_samples": 2_000},
            },
            named_layers=("cli", "measure_sim", "rng", "moments", "states", "spin_ops",
                          "relations", "triangle", "kernels"),
            # the shot-noise simulate: stochastic, and the largest output
            replay_step=4,
        ),
    )
}


def job_plan(workload: Workload, seed: int | str, size_name: str):
    """Endless sequence of (job index, steps); the same seed gives the same jobs."""
    rng = random.Random(f"{workload.name}/{seed}")
    size = workload.sizes[size_name]
    index = 0
    while True:
        yield index, workload.make_job(rng, size)
        index += 1


def run_job(workload: Workload, steps: list[Step], scratch: Path, dispatch, between=None) -> JobResult:
    """Run one job's steps through ``dispatch`` and gate each output.

    ``between``, if given, is called between steps and before the replay;
    the job's wall time leaves its time out.
    """
    start = time.perf_counter()
    paused = 0.0

    def pause():
        nonlocal paused
        if between is not None:
            mark = time.perf_counter()
            between()
            paused += time.perf_counter() - mark

    reasons: list[str] = []
    emitted = 0
    for i, step in enumerate(steps):
        if i:
            pause()
        out = scratch / f"s{i}"
        manifest = Path(str(out) + ".manifest.json")
        out.unlink(missing_ok=True)
        manifest.unlink(missing_ok=True)
        rc = dispatch(list(step.argv) + ["--emit", str(out)])
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        reason = step.check(rc, text)
        if reason:
            reasons.append(f"{step.argv[0]}: {reason}")
        emitted += sum(p.stat().st_size for p in (out, manifest) if p.exists())

    replay_ok = False
    if workload.replay_step is not None:
        pause()
        target = scratch / f"s{workload.replay_step}"
        clone = scratch / "replay"
        clone.unlink(missing_ok=True)
        try:
            argv = json.loads(Path(str(target) + ".manifest.json").read_text(encoding="utf-8"))["argv"]
            argv[argv.index("--emit") + 1] = str(clone)
            rc = dispatch(argv)
            replay_ok = rc == 0 and clone.read_bytes() == target.read_bytes()
            if not replay_ok:
                reasons.append(f"replay of {target.name}: exit {rc} or output differs")
        except (OSError, ValueError, KeyError) as exc:
            reasons.append(f"replay of {target.name}: {exc}")
        emitted += clone.stat().st_size if clone.exists() else 0
    return JobResult(time.perf_counter() - start - paused, reasons, emitted, replay_ok)
