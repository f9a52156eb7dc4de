import json
import math
import platform
import shlex
from pathlib import Path

import numpy as np
import pytest

from triplespin import cli, kernels
from triplespin.cli import dispatch, parse_relation, parse_relations, replay
from triplespin.measure_sim import CSV_HEADER
from triplespin.prober import COUNTEREXAMPLE_TOL
from triplespin.relations import RELATIONS, RelationId, RelationReport
from triplespin.spin_ops import Spin
from triplespin.states import random_mixed, state_from_json_dict, state_to_json_dict


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_saturated_balanced_state(capsys):
    code, out, _ = run(
        capsys, "verify", "--relation", "R5", "--bloch", "0.57735,0.57735,0.57735"
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["relation"] == "R5_TRIPLE_SUM"
    assert reports[0]["saturated"] is True


def test_verify_all_relations(capsys):
    code, out, _ = run(capsys, "verify", "--relation", "all", "--bloch", "0.1,0.2,0.3")
    assert code == 0
    reports = json.loads(out)
    names = {r["relation"] for r in reports}
    assert "R_ROBERTSON_GENERIC" not in names
    assert len(reports) == 18  # every evaluable relation at spin 1/2
    assert all(r["gap"] >= -1e-9 for r in reports)


def test_verify_spin_restriction_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--relation", "R8", "--spin", "2")
    assert code == 2
    assert "spin-1/2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--relation", "R_ROBERTSON_GENERIC", "--bloch", "0,0,1"),
        ("probe", "--relation", "R_ROBERTSON_GENERIC", "--restarts", "2"),
    ],
    ids=["verify", "probe"],
)
def test_robertson_relation_asks_for_an_observable_pair(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "observable pair" in err and "evaluate_robertson" in err
    assert "spin-1/2" not in err


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("triplespin ")]
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def test_readme_spin_half_only_list_matches_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = readme.split("Relations proved only for spin-1/2 (", 1)[1].split(")", 1)[0]
    names = [token.strip(" `\n") for token in listed.split(",")]
    relations = {r for name in names for r in parse_relations(name.rstrip("*"), Spin(1))}
    assert relations == {spec.relation for spec in RELATIONS if spec.spin_half_only}


@pytest.mark.parametrize(
    "family, flag",
    [("r1", "--theta"), ("r2", "--phi")],
)
def test_verify_rejects_the_other_familys_parameter(capsys, family, flag):
    code, out, err = run(capsys, "verify", "--relation", "R5", "--family", family, flag, "0.9553")
    assert code == 2 and out == ""
    assert f"--family {family}" in err


def test_verify_family_parameter_has_one_spelling(capsys):
    code, _, err = run(capsys, "verify", "--relation", "R5", "--family", "r2", "--param", "0.9553")
    assert code == 2
    assert "--param" in err


def test_verify_family_input_with_degrees(capsys):
    code, out, _ = run(
        capsys, "verify", "--relation", "R5", "--family", "r1", "--phi", "45", "--degrees"
    )
    assert code == 0
    assert json.loads(out)[0]["saturated"] is True


def test_verify_state_file(tmp_path, capsys):
    st = random_mixed(3, seed=3)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json_dict(st)))
    code, out, _ = run(
        capsys, "verify", "--relation", "R7", "--spin", "2", "--state-file", str(path)
    )
    assert code == 0
    assert json.loads(out)[0]["relation"] == "R7_SUM_GENERAL_S"


def test_verify_rejects_conflicting_state_inputs(capsys):
    code, _, err = run(
        capsys, "verify", "--relation", "R5", "--bloch", "0,0,1", "--family", "r1", "--phi", "0"
    )
    assert code == 2
    assert "exactly one" in err


@pytest.mark.parametrize("flag", [("--phi", "0.3"), ("--theta", "0.3"), ("--degrees",)], ids=lambda f: f[0])
def test_state_parameter_flags_need_family(capsys, flag):
    # with --bloch the flag would otherwise be ignored and the pole reported
    code, out, err = run(capsys, "verify", "--relation", "R5", "--bloch", "0,0,1", *flag)
    assert code == 2 and out == ""
    assert "need --family" in err


def test_verify_malformed_state_file_exits_two(tmp_path, capsys):
    # exit 1 would read as a violated relation
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"entries": [[1, 0], [0, 0], [0, 0], [0, 0]]}))
    code, out, err = run(capsys, "verify", "--relation", "R5", "--state-file", str(path))
    assert code == 2 and out == ""
    assert "'dim'" in err


@pytest.mark.parametrize(
    "state_args",
    [("--bloch", "0,0,1"), ("--family", "r1", "--phi", "1"), ("--state-file",)],
    ids=["bloch", "family", "state-file"],
)
def test_qubit_state_at_a_higher_spin_is_usage_error(tmp_path, capsys, state_args):
    if state_args == ("--state-file",):
        qubit = tmp_path / "qubit.json"
        qubit.write_text(json.dumps(state_to_json_dict(random_mixed(2, seed=1))))
        state_args += (str(qubit),)
    target = tmp_path / "out.json"
    code, out, err = run(capsys, "verify", "--relation", "R5", "--spin", "3", *state_args, "--emit", str(target))
    assert code == 2 and out == ""
    assert "state dim 2 does not match spin dim 4" in err
    assert not target.exists()


def test_sweep_csv_schema(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "r1", "--points", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 9


def test_unknown_subcommand_exits_two(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_unknown_flag_exits_two(capsys):
    code, _, _ = run(capsys, "sweep", "--family", "r1", "--points", "4", "--bogus")
    assert code == 2


def test_ops_json_structure(capsys):
    code, out, _ = run(capsys, "ops", "--spin", "1")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 2
    assert data["sx"][0][1] == [0.5, 0.0]
    assert data["sy"][0][1] == [0.0, -0.5]
    assert all(v <= 1e-12 for v in data["residuals"].values())


def test_ops_emits_manifest(tmp_path, capsys):
    target = tmp_path / "ops.json"
    code, _, _ = run(capsys, "ops", "--spin", "3", "--emit", str(target))
    assert code == 0
    manifest = json.loads((tmp_path / "ops.json.manifest.json").read_text())
    assert manifest["command"] == "ops"
    assert manifest["argv"][0] == "ops"
    assert manifest["version"]
    assert json.loads(target.read_text())["dim"] == 4


def test_manifest_records_environment(tmp_path, capsys):
    target = tmp_path / "ops.json"
    assert run(capsys, "ops", "--spin", "1", "--emit", str(target))[0] == 0
    env = json.loads((tmp_path / "ops.json.manifest.json").read_text())["env"]
    assert env == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": "numpy",
        "chunk_rows": kernels.CHUNK_ROWS,
        "scan_workers": kernels._scan_workers(),
    }


def test_simulate_deterministic_and_replayable(tmp_path, capsys):
    target = tmp_path / "run.csv"
    argv = [
        "simulate", "--family", "r2", "--points", "4", "--shots", "20000",
        "--seed", "5", "--emit", str(target),
    ]
    assert dispatch(argv) == 0
    capsys.readouterr()
    first = target.read_bytes()

    clone = tmp_path / "clone.csv"
    assert replay(str(target) + ".manifest.json", emit_override=str(clone)) == 0
    assert clone.read_bytes() == first


def test_replay_overrides_an_emit_path_given_in_one_token(tmp_path):
    target = tmp_path / "eq.json"
    assert dispatch(["triangle", "--samples", "100", "--seed", "1", f"--emit={target}"]) == 0
    clone = tmp_path / "clone.json"
    assert replay(str(target) + ".manifest.json", emit_override=str(clone)) == 0
    assert clone.read_bytes() == target.read_bytes()


def test_replay_overrides_an_abbreviated_emit_option(tmp_path):
    # argparse takes the unique prefix --em for --emit, and the manifest records argv as given
    target = tmp_path / "eq.json"
    assert dispatch(["triangle", "--samples", "100", "--seed", "1", "--em", str(target)]) == 0
    clone = tmp_path / "clone.json"
    assert replay(str(target) + ".manifest.json", emit_override=str(clone)) == 0
    assert clone.read_bytes() == target.read_bytes()


def emit_triangle(monkeypatch, target, seed_env, *seed_args):
    """Run a small seeded triangle scan with TRIPLESPIN_SEED set to seed_env (None: unset)."""
    set_seed_env(monkeypatch, seed_env)
    argv = ["triangle", "--samples", "1000", *seed_args, "--emit", str(target)]
    assert dispatch(argv) == 0
    return argv, json.loads(Path(str(target) + ".manifest.json").read_text())


def set_seed_env(monkeypatch, seed_env):
    if seed_env is None:
        monkeypatch.delenv("TRIPLESPIN_SEED", raising=False)
    else:
        monkeypatch.setenv("TRIPLESPIN_SEED", seed_env)


def test_env_seeded_run_replays_without_the_env(tmp_path, monkeypatch):
    target = tmp_path / "t1.json"
    emit_triangle(monkeypatch, target, "5")
    emit_triangle(monkeypatch, tmp_path / "t0.json", None)
    assert (tmp_path / "t0.json").read_bytes() != target.read_bytes()  # the output depends on the seed
    for seed_env in (None, "6"):
        set_seed_env(monkeypatch, seed_env)
        clone = tmp_path / f"replay_{seed_env}.json"
        assert replay(str(target) + ".manifest.json", emit_override=str(clone)) == 0
        assert clone.read_bytes() == target.read_bytes()


@pytest.mark.parametrize("seed_env, seed", [("5", 5), (None, 0)])
def test_manifest_records_the_resolved_seed(tmp_path, monkeypatch, seed_env, seed):
    argv, manifest = emit_triangle(monkeypatch, tmp_path / "t.json", seed_env)
    assert manifest["argv"] == argv + ["--seed", str(seed)]
    assert manifest["seed"] == manifest["config"]["seed"] == seed


@pytest.mark.parametrize("seed_args", [("--seed", "7"), ("--seed=7",)])
def test_manifest_keeps_a_given_seed_argv_as_given(tmp_path, monkeypatch, seed_args):
    argv, manifest = emit_triangle(monkeypatch, tmp_path / "t.json", "5", *seed_args)
    assert manifest["argv"] == argv
    assert manifest["seed"] == manifest["config"]["seed"] == 7


def test_shot_count_beyond_int64_is_usage_error(capsys):
    argv = ("simulate", "--family", "r1", "--points", "3", "--shots")
    code, out, err = run(capsys, *argv, str(2**63))
    assert code == 2 and out == ""
    assert "int64" in err
    assert run(capsys, *argv, str(2**63 - 1))[0] == 0


def test_seed_env_var_changes_default(tmp_path, monkeypatch, capsys):
    def simulate(seed_env):
        if seed_env is None:
            monkeypatch.delenv("TRIPLESPIN_SEED", raising=False)
        else:
            monkeypatch.setenv("TRIPLESPIN_SEED", seed_env)
        code, out, _ = run(
            capsys, "simulate", "--family", "r1", "--points", "2", "--shots", "5000"
        )
        assert code == 0
        return out

    base = simulate(None)
    assert simulate("123") != base
    assert simulate(None) == base


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_exits_two(monkeypatch, capsys, seed):
    code, out, err = run(capsys, "simulate", "--family", "r1", "--points", "2", "--seed", seed)
    assert code == 2
    assert out == ""
    assert "seed" in err
    monkeypatch.setenv("TRIPLESPIN_SEED", seed)
    code, _, err = run(capsys, "probe", "--relation", "R5", "--restarts", "1")
    assert code == 2
    assert "seed" in err


def test_sweep_is_seed_independent(monkeypatch, capsys):
    _, a, _ = run(capsys, "sweep", "--family", "r2", "--points", "5")
    monkeypatch.setenv("TRIPLESPIN_SEED", "999")
    _, b, _ = run(capsys, "sweep", "--family", "r2", "--points", "5")
    assert a == b


def test_probe_cli_round_trips_argmin_state(capsys):
    code, out, _ = run(
        capsys, "probe", "--relation", "R5", "--spin", "1", "--restarts", "4", "--seed", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["relation"] == "R5_TRIPLE_SUM"
    assert data["min_gap"] <= 1e-6
    state = state_from_json_dict(data["argmin_state"])
    assert state.dim == 2


def test_probe_conjecture_cli(capsys):
    code, out, _ = run(
        capsys, "probe", "--conjecture", "--spin", "2", "--samples", "2000", "--seed", "4"
    )
    assert code == 0
    data = json.loads(out)
    assert data["relation"] == "R11_CONJECTURE_TRIPLE_PRODUCT"
    assert data["counterexample"] is False


def test_conjecture_candidate_writes_no_extra_file(tmp_path, monkeypatch):
    # the output's counterexample field and argmin_state are the record of a candidate
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "is_counterexample", lambda result: True)
    argv = [
        "probe", "--conjecture", "--spin", "2", "--samples", "50", "--max-iters", "20", "--seed", "1",
        "--emit", "out",
    ]
    assert dispatch(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "out.manifest.json"]
    assert json.loads((tmp_path / "out").read_text())["counterexample"] is True


def test_conjecture_scan_reports_the_restart_that_attained_the_minimum(capsys):
    # pinned from the scan's (seed, chunk) sample streams; at seed 32 the first refinement misses
    for seed, best, agreeing in (("3", 0, 8), ("32", 1, 8)):
        code, out, _ = run(
            capsys, "probe", "--conjecture", "--spin", "3", "--samples", "2000",
            "--max-iters", "200", "--seed", seed,
        )
        assert code == 0
        data = json.loads(out)
        gaps = data["restart_gaps"]
        assert data["best_restart"] == min(r for r, g in enumerate(gaps) if g <= min(gaps) + 1e-10) == best
        assert data["agreeing_restarts"] == sum(g <= min(gaps) + COUNTEREXAMPLE_TOL for g in gaps) == agreeing


@pytest.mark.parametrize(
    "argv, relation",
    [
        (("--relation", "R7", "--spin", "4", "--restarts", "2"), "R7_SUM_GENERAL_S"),
        (("--conjecture", "--spin", "2", "--samples", "50"), "R11_CONJECTURE_TRIPLE_PRODUCT"),
    ],
    ids=["relation", "conjecture"],
)
def test_probe_warns_when_the_best_restart_did_not_converge(capsys, argv, relation):
    code, out, err = run(capsys, "probe", *argv, "--max-iters", "1", "--seed", "1")
    assert code == 0
    assert json.loads(out)["converged"] is False
    assert err == f"warning: {relation} best restart did not converge within --max-iters 1\n"


def test_converged_probe_writes_nothing_to_stderr(capsys):
    code, out, err = run(capsys, "probe", "--relation", "R5", "--restarts", "2", "--seed", "1")
    assert code == 0
    assert json.loads(out)["converged"] is True
    assert err == ""


def test_probe_json_lists_restart_gaps(capsys):
    code, out, _ = run(
        capsys, "probe", "--relation", "R6", "--spin", "1", "--mixed", "--restarts", "3", "--seed", "5"
    )
    assert code == 0
    data = json.loads(out)
    gaps = data["restart_gaps"]
    assert len(gaps) == 3
    assert data["best_restart"] == min(r for r, g in enumerate(gaps) if g <= min(gaps) + 1e-10)
    assert data["agreeing_restarts"] == sum(g <= min(gaps) + COUNTEREXAMPLE_TOL for g in gaps)


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_probe_rejects_non_finite_tol(capsys, tol):
    code, _, err = run(capsys, "probe", "--relation", "R5", "--restarts", "1", "--tol", tol)
    assert code == 2
    assert "tol" in err


def test_probe_conjecture_rejects_relation(capsys):
    code, out, err = run(
        capsys, "probe", "--conjecture", "--relation", "R5", "--spin", "2", "--samples", "10"
    )
    assert code == 2 and out == ""
    assert "--relation" in err


def test_probe_conjecture_rejects_mixed(capsys):
    code, out, err = run(capsys, "probe", "--conjecture", "--mixed", "--spin", "2", "--samples", "10")
    assert code == 2 and out == ""
    assert "--mixed" in err


def test_mixed_probe_runs_above_spin_half(capsys):
    code, out, _ = run(capsys, "probe", "--relation", "R6", "--mixed", "--spin", "2")
    assert code == 0
    data = json.loads(out)
    assert data["twice_s"] == 2 and data["argmin_state"]["dim"] == 3


def test_probe_conjecture_rejects_restarts(capsys):
    # the scan refines a fixed number of its best samples; --restarts would be ignored
    code, out, err = run(
        capsys, "probe", "--conjecture", "--spin", "2", "--samples", "50", "--restarts", "3",
        "--max-iters", "20", "--seed", "1",
    )
    assert code == 2 and out == ""
    assert "--restarts" in err


def test_probe_relation_rejects_samples(capsys):
    # a --relation search draws one start per restart; --samples would be ignored
    code, out, err = run(capsys, "probe", "--relation", "R5", "--samples", "7", "--restarts", "2")
    assert code == 2 and out == ""
    assert "--samples" in err


def test_probe_requires_relation_or_conjecture(capsys):
    code, _, err = run(capsys, "probe", "--spin", "1")
    assert code == 2
    assert "relation" in err


def test_triangle_cli(capsys):
    code, out, _ = run(capsys, "triangle", "--samples", "5000", "--seed", "3", "--side", "2")
    assert code == 0
    data = json.loads(out)
    assert data["side"] == 2.0
    assert all(v["min_gap"] >= -1e-12 for v in data["analogs"].values())


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_triangle_cli_rejects_non_positive_samples(capsys, samples):
    code, out, err = run(capsys, "triangle", "--samples", samples)
    assert code == 2
    assert out == ""
    assert f"got {samples} samples" in err


def test_soak_cli_passes(capsys):
    code, out, _ = run(capsys, "soak", "--pure", "3000", "--mixed-n", "3000", "--seed", "1")
    assert code == 0
    assert "status: OK" in out


@pytest.mark.parametrize("counts", [("-5", "100"), ("100", "-5")])
def test_soak_cli_rejects_negative_counts(capsys, counts):
    code, out, err = run(capsys, "soak", "--pure", counts[0], "--mixed-n", counts[1])
    assert code == 2
    assert out == ""
    assert "nonnegative" in err


def test_relation_token_parsing():
    assert parse_relation("r5") is RelationId.R5_TRIPLE_SUM
    assert parse_relation("R9XY") is RelationId.R9_ENTROPIC_PAIR_XY
    assert parse_relation("NAIVE_PRO2") is RelationId.NAIVE_PRO2
    assert parse_relations("R2", Spin(1)) == [
        RelationId.R2_PAIR_PRODUCT_X,
        RelationId.R2_PAIR_PRODUCT_Y,
        RelationId.R2_PAIR_PRODUCT_Z,
    ]
    with pytest.raises(Exception):
        parse_relation("R99")


def test_verify_relation_groups(capsys):
    code, out, _ = run(capsys, "verify", "--relation", "R9", "--bloch", "0,0,0.5")
    assert code == 0
    assert len(json.loads(out)) == 3


def test_unknown_relation_lists_valid_spellings(capsys):
    code, _, err = run(capsys, "verify", "--relation", "R99", "--bloch", "0,0,0")
    assert code == 2
    assert "--list" not in err
    for spelling in ("R2X", "R9ZX", "PRO2", "SUM2", "R4", "R9", "'all'"):
        assert spelling in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--relation", "R5", "--bloch", "nan,0,0"),
        ("verify", "--relation", "R5", "--bloch", "0,0,0.5", "--tolerance", "nan"),
        ("soak", "--pure", "100", "--mixed-n", "100", "--tolerance", "nan"),
        ("triangle", "--samples", "100", "--side", "nan"),
        ("triangle", "--samples", "100", "--side", "inf"),
        ("verify", "--relation", "R5", "--family", "r1", "--phi", "inf"),
        ("verify", "--relation", "R5", "--family", "r2", "--theta", "inf"),
    ],
)
def test_non_finite_input_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--relation", "R5", "--bloch", "0.57735,0.57735,0.57735", "--tolerance", "-0.5"),
        ("soak", "--pure", "1000", "--mixed-n", "1000", "--seed", "1", "--tolerance", "-0.5"),
    ],
)
def test_negative_tolerance_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "nonnegative" in err


def test_verify_fails_on_non_finite_gap(monkeypatch, capsys):
    def nan_gaps(relations, state, spin, saturation_tol):
        return [RelationReport(relation, math.nan, 0.0, math.nan, False, saturation_tol) for relation in relations]

    monkeypatch.setattr(cli, "evaluate_all", nan_gaps)
    code, out, _ = run(capsys, "verify", "--relation", "R5", "--bloch", "0,0,0.5")
    assert code != 0
    assert "NaN" not in out


def _out_of_memory(*args, **kwargs):
    raise MemoryError


def _violated(relations, state, spin, saturation_tol):
    return [RelationReport(relation, 0.0, 1.0, -1.0, False, saturation_tol) for relation in relations]


SOAK = ("soak", "--pure", "300", "--mixed-n", "300", "--seed", "1")
VERIFY = ("verify", "--relation", "R5", "--bloch", "0,0,0.5")


@pytest.mark.parametrize(
    "argv, patch, code",
    [
        (("ops", "--spin", "3"), None, 0),
        (VERIFY, None, 0),
        (SOAK, None, 0),
        (VERIFY, (cli, "evaluate_all", _violated), 1),
        (SOAK, (kernels, "qubit_relation_gaps", lambda bloch: np.full((len(bloch), 16), -1.0)), 1),
        (("ops",), None, 2),  # argparse: a required option is missing
        (("verify", "--relation", "R99", "--bloch", "0,0,0"), None, 2),  # CliError
        (("ops", "--spin", "0"), None, 2),  # ValueError
        (("verify", "--relation", "R5", "--state-file", "no/such/state.json"), None, 2),  # OSError
        (("ops", "--spin", "3"), (cli, "build_spin_operators", _out_of_memory), 2),
        (("probe", "--relation", "R5", "--spin", "4"), (cli, "min_gap", _out_of_memory), 2),
    ],
    ids=["ops", "verify", "soak", "verify-violated", "soak-violated", "usage", "cli-error", "value-error",
         "os-error", "ops-out-of-memory", "probe-out-of-memory"],
)
def test_dispatch_exit_codes(monkeypatch, capsys, argv, patch, code):
    """0 on success, 1 when verify or soak finds a violation, 2 with nothing on stdout on every error."""
    if patch is not None:
        monkeypatch.setattr(*patch)
    got, out, err = run(capsys, *argv)
    assert got == code
    if code == 2:
        assert out == "" and "error: " in err.splitlines()[-1]
    if patch is not None and patch[2] is _out_of_memory:
        assert err == "error: MemoryError\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--relation", "all", "--bloch", "0.1,0.2,0.3"],
    ["simulate", "--family", "r1", "--points", "3", "--shots", "10", "--per-draw"],
])
def test_manifest_text_is_its_objects_canonical_json(tmp_path, argv):
    """A manifest is json.dumps(indent=2, sort_keys=True) of its object plus a newline, on any host."""
    out = tmp_path / "out.txt"
    assert dispatch(argv + ["--emit", str(out)]) == 0
    text = Path(str(out) + ".manifest.json").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_json_output_refuses_non_finite_numbers():
    with pytest.raises(ValueError):
        cli._json_text({"gap": math.nan})


def test_usage_error_does_not_spoil_the_next_dispatch(capsys):
    cli._parser.cache_clear()  # the usage error is the process parser's first parse
    assert run(capsys, "simulate", "--family", "r9", "--points", "3")[0] == 2
    code, out, _ = run(capsys, "simulate", "--family", "r1", "--points", "3", "--seed", "1")
    assert code == 0 and out.startswith(CSV_HEADER)


def test_seed_env_is_read_on_every_dispatch(tmp_path, monkeypatch):
    seeds = []
    for seed_env in ("11", "12"):
        _, manifest = emit_triangle(monkeypatch, tmp_path / f"t{seed_env}.json", seed_env)
        seeds.append(manifest["seed"])
    assert seeds == [11, 12]


def test_an_earlier_dispatch_leaves_no_option_behind(tmp_path, capsys):
    second = ("verify", "--relation", "all", "--family", "r1", "--phi", "30", "--degrees")
    cli._parser.cache_clear()
    alone = run(capsys, *second)
    assert run(capsys, "simulate", "--family", "r1", "--points", "3", "--seed", "1")[0] == 0
    assert run(capsys, "verify", "--relation", "all", "--bloch", "0.1,0.2,0.3")[0] == 0
    assert run(capsys, *second) == alone
    # nor the seeded command's --seed: verify's manifest records none
    argv = [*second, "--emit", str(tmp_path / "v.json")]
    assert dispatch(argv) == 0
    manifest = json.loads((tmp_path / "v.json.manifest.json").read_text())
    assert manifest["argv"] == argv and manifest["seed"] is None and "seed" not in manifest["config"]
