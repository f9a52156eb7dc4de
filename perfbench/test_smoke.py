"""Smoke test of the benchmark itself: python3 -m pytest perfbench/test_smoke.py"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, run_job  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace),
                "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[2] for line in proc.stdout.splitlines()[1:-1]
               if len(line.split()) >= 3}
    for name, unit in expected.items():
        assert isinstance(result["metrics"][name]["value"], (float, int))
        assert printed[name] == unit


def test_benchmark_json_lists_the_workloads_run_py_runs():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}


def test_wrong_soak_output_counts_as_failed(tmp_path, monkeypatch):
    corrupted = []
    real_dispatch = run._dispatch

    def dispatch_with_violation(argv):
        rc = real_dispatch(argv)
        if argv[0] == "soak" and not corrupted:
            out = Path(argv[argv.index("--emit") + 1])
            text = out.read_text(encoding="utf-8").replace("status: OK", "status: VIOLATIONS FOUND")
            out.write_text(text, encoding="utf-8")
            corrupted.append(out)
        return rc

    monkeypatch.setattr(run, "_dispatch", dispatch_with_violation)
    results, _, _ = run.closed_loop(WORKLOADS["soak-large"], 5, "smoke", tmp_path, 1)
    metrics = run.e2e_metrics(results, [r.wall_s for r in results], setup_s=1.0)
    assert corrupted and not results[0].ok and all(r.ok for r in results[1:])
    assert metrics["pass_share"][0] == pytest.approx(1.0 - 1.0 / len(results))


def test_replay_mismatch_counts_as_failed(tmp_path):
    workload = WORKLOADS["cli-short"]
    steps = workload.make_job(random.Random(3), workload.sizes["smoke"])

    def dispatch_appending_to_replays(argv):
        rc = run._dispatch(argv)
        out = Path(argv[argv.index("--emit") + 1])
        if out.name == "replay":
            out.write_text(out.read_text(encoding="utf-8") + "\n", encoding="utf-8")
        return rc

    result = run_job(workload, steps, tmp_path, dispatch_appending_to_replays)
    assert not result.replay_ok and not result.ok


def test_host_clock_scales_wall_time_by_the_reference_burst(monkeypatch):
    bursts = iter([2 * run.REFERENCE_S, 2 * run.REFERENCE_S])
    monkeypatch.setattr(run, "reference_burst", lambda: next(bursts))
    clock = run.HostClock()
    start = time.perf_counter()
    clock.lap_if_due()  # a stretch shorter than SEGMENT_S: no lap, no burst
    time.sleep(0.05)
    wall = time.perf_counter() - start
    clock.lap()
    assert clock.seconds == pytest.approx(wall / 2, rel=0.05)
    assert clock.run_scale() == 0.5


def test_missing_wrap_target_is_an_absent_layer(monkeypatch):
    import triplespin.cli  # noqa: F401

    targets = tracing.TARGETS + (("triplespin.kernels", "_no_such_kernel", "kernels.gone", None),)
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["triplespin.kernels._no_such_kernel"]


def test_call_within_the_same_span_name_is_not_counted_again():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda x: x + 1, "moments.scalar")
    outer = tracer.wrap(lambda x: inner(x) * 2, "moments.scalar")
    other = tracer.wrap(lambda x: outer(x), "states.validate")
    assert other(1) == 4
    spans = tracer.span_times()
    assert spans["moments.scalar"]["calls"] == 1 and spans["states.validate"]["calls"] == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "probe", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_compare_refuses_mixed_backends(tmp_path):
    files = []
    for backend in ("numpy", "numba"):
        path = tmp_path / f"{backend}.json"
        path.write_text(json.dumps({"workload": "probe", "env": {"backend": backend},
                                    "metrics": {"jobs_per_s": {"value": 1.0, "unit": "1/s"}}}))
        files.append(str(path))
    assert compare.main(["--base", files[0], "--head", files[1]]) == 2


def test_compare_marks_a_change_within_the_noise_unresolved(tmp_path, capsys):
    def write(side, values):
        paths = []
        for i, value in enumerate(values):
            path = tmp_path / f"{side}{i}.json"
            path.write_text(json.dumps({"workload": "probe", "env": {"backend": "numpy"},
                                        "metrics": {"job_p50_s": {"value": value, "unit": "s"}}}))
            paths.append(str(path))
        return paths

    steady, slower = write("b", [1.0, 1.01, 0.99, 1.0]), write("h", [2.0, 2.01, 1.99, 2.0])
    assert compare.main(["--base", *steady, "--head", *slower]) == 1
    noisy = write("n", [0.5, 1.0, 1.5, 2.0])
    assert compare.main(["--base", *noisy, "--head", *slower]) == 0
    assert "unresolved" in capsys.readouterr().out
    faster = write("f", [0.2, 0.21, 0.19, 0.2])
    assert compare.main(["--base", *noisy, "--head", *faster]) == 0
    assert "unresolved" not in capsys.readouterr().out
