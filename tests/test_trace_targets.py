"""The benchmark's tracer (perfbench/tracing.py) wraps library functions by
name and reports a name it cannot find as an absent layer, whose metrics read
0. This check reads its TARGETS without importing the tracer and fails when a
traced function is renamed or deleted."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: Targets already gone from the library; retargeting the tracer shrinks this set.
KNOWN_ABSENT = {
    "triplespin.prober.conjecture_gaps_batch",
    "triplespin.prober.minimize",
    "triplespin.moments.batch_expectation",
    "triplespin.moments.batch_variance",
    "triplespin.measure_sim.simulated_row",
    "triplespin.measure_sim.analytic_row",
    "triplespin.measure_sim.simulate_expectation",
    "triplespin.measure_sim.exact_expectation",
    "triplespin.kernels.qubit_relation_gaps",
    "triplespin.kernels.triangle_analog_gaps",
}


def trace_targets() -> tuple:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no TARGETS")


def test_every_trace_target_resolves_but_the_known_absent():
    unresolved = set()
    for module_name, attr, _span, _hook in trace_targets():
        holder = importlib.import_module(module_name)
        for part in attr.split("."):
            holder = getattr(holder, part, None)
        if holder is None:
            unresolved.add(f"{module_name}.{attr}")
    assert unresolved == KNOWN_ABSENT
