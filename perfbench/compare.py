"""Compare benchmark result files of a base and a head commit.

    python3 perfbench/compare.py --base base/*.json --head head/*.json

Each file is one ``perfbench/run.py`` result of one workload. For every
workload and metric this prints the median and quartiles of each side and
the head median's change against the base median, marking an end-to-end
metric that worsened by more than its bound in ``BENCHMARK.json``. Where
either side's IQR is wider than the bound, the metric is marked unresolved
instead, since that noise could hide or fake a change of that size, unless
every head run reads better than every base run. Exits 2,
comparing nothing, when the files disagree on the kernel backend: the numba
and numpy paths agree to 1e-14, not bit for bit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    """{workload: {metric: [values]}} plus the set of backends seen."""
    values = defaultdict(lambda: defaultdict(list))
    backends = set()
    for path in paths:
        result = json.loads(Path(path).read_text(encoding="utf-8"))
        backends.add(result["env"]["backend"])
        for name, metric in result["metrics"].items():
            values[result["workload"]][name].append(metric["value"])
    return values, backends


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)

    base, base_backends = load(args.base)
    head, head_backends = load(args.head)
    backends = base_backends | head_backends
    if len(backends) != 1:
        print(f"refusing to compare results from different kernel backends: {sorted(backends)}",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    worse = 0
    for workload in sorted(base.keys() & head.keys()):
        print(f"{workload}:")
        for name in sorted(base[workload].keys() & head[workload].keys()):
            bv, hv = base[workload][name], head[workload][name]
            b1, bm, b3 = quartiles(bv)
            h1, hm, h3 = quartiles(hv)
            change = (hm - bm) / abs(bm) if bm else 0.0
            mark = ""
            if name in bounds:
                bound, better = bounds[name]
                spread = max((b3 - b1) / abs(bm) if bm else 0.0, (h3 - h1) / abs(hm) if hm else 0.0)
                every_run_better = max(hv) < min(bv) if better == "lower" else min(hv) > max(bv)
                if spread > bound and not every_run_better:
                    mark = f"  unresolved: IQR {spread:.1%} of the median is wider than bound {bound}"
                elif (change if better == "lower" else -change) > bound:
                    mark = f"  WORSE than bound {bound}"
                    worse += 1
            print(f"  {name:<38} base {bm:.6g} [{b1:.6g}, {b3:.6g}]  "
                  f"head {hm:.6g} [{h1:.6g}, {h3:.6g}]  {change:+.2%}{mark}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
