"""Command-line front end: verification, sweeps, simulation, probing, soak.

Subcommands write CSV for sweep data and JSON for structured reports. When
``--emit PATH`` is given the output goes to PATH and a run manifest is
written next to it (PATH.manifest.json) recording the exact argv, seed, tool
version and environment (Python and numpy versions, kernel backend, chunk
size and the most threads a chunked scan may use); re-dispatching the
recorded argv reproduces the output file byte for byte. A stochastic
command's seed is --seed, else the TRIPLESPIN_SEED environment variable,
else 0; dispatch resolves it once, and when it did not come from the command
line it is appended to the recorded argv, so a replay does not depend on the
environment.

dispatch builds the argument parser once per process and reuses it, so what
build_parser reads (the subcommand functions and defaults such as
DEFAULT_SHOTS, SOAK_TOL and ProbeConfig.max_iters) is fixed at the first
dispatch; the seed's environment default is read on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, kernels
from .measure_sim import DEFAULT_SHOTS, ShotConfig, rows_to_csv, run_sweep, sweep_parameters
from .prober import ProbeConfig, is_counterexample, min_gap, scan_conjecture
from .relations import (
    ALIASES,
    GROUPS,
    RELATIONS,
    SOAK_TOL,
    RelationId,
    applicable_to,
    check_applicable,
    evaluate_all,
    soak_qubit,
)
from .rng import check_seed
from .spin_ops import Spin, build_spin_operators, identity_residuals
from .states import (
    Family,
    QuantumState,
    density_from_bloch,
    family_point,
    state_from_json_dict,
)
from .triangle import scan as triangle_scan

#: Saturation/violation tolerance for the verify subcommand. Looser than the
#: library default so that Bloch components given to a few decimal places
#: still register as saturating.
VERIFY_CLI_TOL = 1e-6
#: States a `probe --conjecture` scan draws unless --samples says otherwise.
CONJECTURE_SAMPLES = 100_000


class CliError(Exception):
    """Argument-level error; maps to exit code 2."""


def parse_relation(token: str) -> RelationId:
    t = token.strip().upper()
    if t in ALIASES:
        return ALIASES[t]
    try:
        return RelationId[t]
    except KeyError:
        raise CliError(
            f"unknown relation {token!r}; give a relation id or an alias "
            f"({', '.join(ALIASES)}); verify also takes a group ({', '.join(GROUPS)}) or 'all'"
        ) from None


def parse_relations(token: str, spin: Spin) -> list[RelationId]:
    t = token.strip().upper()
    if t == "ALL":
        return [e.relation for e in RELATIONS if applicable_to(e.relation, spin)]
    if t in GROUPS:
        return list(GROUPS[t])
    return [parse_relation(t)]


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _build_state(args) -> QuantumState:
    given = [x is not None for x in (args.bloch, args.family, args.state_file)]
    if sum(given) != 1:
        raise CliError("give exactly one of --bloch, --family, --state-file")
    if args.family is None and (args.phi, args.theta, args.degrees) != (None, None, False):
        raise CliError("--phi, --theta and --degrees set a --family parameter; they need --family")
    if args.bloch is not None:
        return density_from_bloch([float(p) for p in args.bloch.split(",")])
    if args.family is not None:
        family = Family(args.family)
        flag, other = ("phi", "theta") if family is Family.R1_LATITUDE else ("theta", "phi")
        if getattr(args, flag) is None or getattr(args, other) is not None:
            raise CliError(f"--family {family.value} takes its parameter as --{flag}, not --{other}")
        return density_from_bloch(family_point(family, _angle(getattr(args, flag), args.degrees)))
    with open(args.state_file, encoding="utf-8") as fh:
        return state_from_json_dict(json.load(fh))


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _write_output(text: str, args) -> None:
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(text)
        manifest = {
            "command": args.command,
            "argv": args._argv,
            "config": {
                k: (v.value if hasattr(v, "value") else v)
                for k, v in vars(args).items()
                if not k.startswith("_") and k != "func"
            },
            "seed": getattr(args, "seed", None),
            "version": __version__,
            "env": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "backend": kernels.BACKEND,
                "chunk_rows": kernels.CHUNK_ROWS,
                "scan_workers": kernels._scan_workers(),
            },
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        with open(args.emit + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _cmd_ops(args) -> int:
    ops = build_spin_operators(Spin(args.spin))
    out = {
        "twice_s": ops.spin.twice_s,
        "dim": ops.dim,
        "sx": _matrix_json(ops.sx),
        "sy": _matrix_json(ops.sy),
        "sz": _matrix_json(ops.sz),
        "residuals": identity_residuals(ops),
    }
    _write_output(_json_text(out), args)
    return 0


def _cmd_verify(args) -> int:
    spin = Spin(args.spin)
    relations = parse_relations(args.relation, spin)
    for rel in relations:  # before the state is read: an inapplicable relation is the error reported
        check_applicable(rel, spin)
    state = _build_state(args)
    reports = evaluate_all(relations, state, spin, saturation_tol=args.tolerance)
    _write_output(_json_text([r.to_dict() for r in reports]), args)
    # a NaN gap is not >= -tolerance, so it counts as a violation
    violated = any(not r.gap >= -args.tolerance for r in reports)
    return 1 if violated else 0


def _cmd_sweep(args) -> int:
    family = Family(args.family)
    _write_output(rows_to_csv(run_sweep(family, sweep_parameters(family, args.points))), args)
    return 0


def _cmd_simulate(args) -> int:
    family = Family(args.family)
    cfg = ShotConfig(shots=args.shots, seed=args.seed)
    rows = run_sweep(family, sweep_parameters(family, args.points), cfg, per_draw=args.per_draw)
    _write_output(rows_to_csv(rows), args)
    return 0


def _cmd_probe(args) -> int:
    spin = Spin(args.spin)
    if args.conjecture and (args.relation is not None or args.mixed or args.restarts is not None):
        raise CliError("--conjecture scans R11 over pure states; it takes no --relation, --mixed or --restarts")
    if not args.conjecture and args.samples is not None:
        raise CliError("--samples sizes a --conjecture scan; a --relation search takes --restarts")
    # effective values, so that the manifest's config records what ran
    args.restarts = ProbeConfig.restarts if args.restarts is None else args.restarts
    args.samples = CONJECTURE_SAMPLES if args.samples is None else args.samples
    cfg = ProbeConfig(restarts=args.restarts, max_iters=args.max_iters, tol=args.tol, seed=args.seed)
    if args.conjecture:
        result = scan_conjecture(spin, args.samples, cfg)
        out = result.to_dict()
        out["counterexample"] = is_counterexample(result)
    else:
        if args.relation is None:
            raise CliError("probe needs --relation or --conjecture")
        relation = parse_relation(args.relation)
        result = min_gap(relation, spin, cfg, mixed=args.mixed)
        out = result.to_dict()
        if relation is RelationId.R7_SUM_GENERAL_S:
            out["variance_sum_min"] = result.min_gap + spin.s
    _write_output(_json_text(out), args)
    if not result.converged:
        print(
            f"warning: {result.relation.value} best restart did not converge within --max-iters {cfg.max_iters}",
            file=sys.stderr,
        )
    return 0


def _cmd_triangle(args) -> int:
    result = triangle_scan(args.samples, args.seed, side=args.side)
    _write_output(_json_text(result.to_dict()), args)
    return 0


def _cmd_soak(args) -> int:
    summary = soak_qubit(args.pure, args.mixed_n, args.seed, tolerance=args.tolerance)
    lines = [
        f"qubit relation soak: {summary.n_pure} pure + {summary.n_mixed} mixed states, "
        f"seed {args.seed}, tolerance {summary.tolerance:g}",
        f"{'relation':<32} {'min gap':>14} {'violations':>11}",
    ]
    for rel in summary.min_gap:
        lines.append(f"{rel.value:<32} {summary.min_gap[rel]:>14.3e} {summary.violations[rel]:>11d}")
    lines.append("status: " + ("OK" if summary.ok else "VIOLATIONS FOUND"))
    _write_output("\n".join(lines) + "\n", args)
    return 0 if summary.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triplespin",
        description="Verify, simulate, and probe triple spin-component uncertainty relations.",
    )
    parser.add_argument("--version", action="version", version=f"triplespin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    emitting = argparse.ArgumentParser(add_help=False)
    emitting.add_argument("--emit", metavar="PATH", help="write output to PATH (default stdout)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[emitting])
    seeded.add_argument("--seed", type=int, help="random seed (default $TRIPLESPIN_SEED, else 0)")
    families = [f.value for f in Family]

    p_ops = sub.add_parser("ops", parents=[emitting], help="spin operator matrices and identity residuals as JSON")
    p_ops.add_argument("--spin", type=int, required=True, metavar="TWICE_S")
    p_ops.set_defaults(func=_cmd_ops)

    p_ver = sub.add_parser("verify", parents=[emitting], help="evaluate relations on one state, reports as JSON")
    p_ver.add_argument("--relation", required=True, help="relation id, alias (R3, R5, ...), or 'all'")
    p_ver.add_argument("--spin", type=int, default=1, metavar="TWICE_S")
    p_ver.add_argument("--bloch", help="qubit Bloch vector rx,ry,rz")
    p_ver.add_argument("--family", choices=families)
    p_ver.add_argument("--phi", type=float, help="latitude family (r1) azimuth")
    p_ver.add_argument("--theta", type=float, help="meridian family (r2) polar angle")
    p_ver.add_argument("--state-file", help="JSON file with dim and row-major [re,im] entries")
    p_ver.add_argument("--degrees", action="store_true", help="family parameter is in degrees")
    p_ver.add_argument("--tolerance", type=float, default=VERIFY_CLI_TOL)
    p_ver.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", parents=[emitting], help="analytic sweep curves as CSV")
    p_sweep.add_argument("--family", choices=families, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sim = sub.add_parser("simulate", parents=[seeded], help="Monte Carlo sweep with shot noise as CSV")
    p_sim.add_argument("--family", choices=families, required=True)
    p_sim.add_argument("--points", type=int, required=True)
    p_sim.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    p_sim.add_argument("--per-draw", action="store_true", help="sample individual shots instead of one binomial")
    p_sim.set_defaults(func=_cmd_simulate)

    p_probe = sub.add_parser("probe", parents=[seeded], help="minimum-gap search / conjecture scan, result as JSON")
    p_probe.add_argument("--relation", help="relation id or alias")
    p_probe.add_argument("--spin", type=int, default=1, metavar="TWICE_S")
    p_probe.add_argument("--mixed", action="store_true", help="search mixed states (d columns) instead of pure states")
    p_probe.add_argument("--conjecture", action="store_true", help="scan the all-spin triple product conjecture")
    p_probe.add_argument("--samples", type=int, help=f"--conjecture scan draws (default {CONJECTURE_SAMPLES})")
    p_probe.add_argument("--restarts", type=int, help=f"--relation search restarts (default {ProbeConfig.restarts})")
    p_probe.add_argument(
        "--max-iters",
        type=int,
        default=ProbeConfig.max_iters,
        help="L-BFGS iterations per restart; a best restart stopped here is reported on stderr",
    )
    p_probe.add_argument(
        "--tol",
        type=float,
        default=ProbeConfig.tol,
        help="a restart converges after two iterations that each lower its gap by at most this; "
        "the first restart within it of the lowest gap is reported",
    )
    p_probe.set_defaults(func=_cmd_probe)

    p_tri = sub.add_parser("triangle", parents=[seeded], help="sample the triangle analogs, summary as JSON")
    p_tri.add_argument("--samples", type=int, required=True)
    p_tri.add_argument("--side", type=float, default=1.0)
    p_tri.set_defaults(func=_cmd_triangle)

    p_soak = sub.add_parser("soak", parents=[seeded], help="random-state soak of every qubit relation")
    p_soak.add_argument("--pure", type=int, default=100_000, help="number of Haar-random pure states")
    p_soak.add_argument("--mixed-n", type=int, default=100_000, help="number of Hilbert-Schmidt mixed states")
    p_soak.add_argument("--tolerance", type=float, default=SOAK_TOL)
    p_soak.set_defaults(func=_cmd_soak)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every dispatch in this process reuses; parse_args gives each call a fresh Namespace."""
    return build_parser()


def dispatch(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args._argv = list(argv)
    try:
        if hasattr(args, "seed"):
            given = args.seed is not None
            args.seed = check_seed(args.seed if given else os.environ.get("TRIPLESPIN_SEED", "0"))
            if not given:
                args._argv += ["--seed", str(args.seed)]
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def replay(manifest_path: str, emit_override: str | None = None) -> int:
    """Re-dispatch the argv recorded in a run manifest.

    emit_override is appended as a last --emit, whose value argparse keeps, so
    the original file is left untouched; the rerun output is byte-identical.
    """
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    argv = list(manifest["argv"])
    if emit_override is not None:
        argv += ["--emit", emit_override]
    return dispatch(argv)


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
