import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coherence_lab
from coherence_lab import cli
from coherence_lab.channels import apply_channel, channel_from_dict, is_incoherent_channel
from coherence_lab.harness import check_criterion, TrialConfig
from coherence_lab.mcs import uniform_superposition
from coherence_lab.states import from_pure, state_from_dict


@pytest.fixture()
def psi3_file(tmp_path):
    path = tmp_path / "psi3.json"
    path.write_text(json.dumps(uniform_superposition(3).to_dict()))
    return str(path)


@pytest.fixture()
def hadamard_file(tmp_path):
    h = 1 / np.sqrt(2)
    payload = {"dim": 2, "kraus": [{"re": [h, h, h, -h], "im": [0.0] * 4}]}
    path = tmp_path / "hadamard.json"
    path.write_text(json.dumps(payload))
    return str(path)


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_measure_l1_on_uniform_superposition(psi3_file, capsys):
    code, payload = run_json(capsys, ["measure", "--state", psi3_file, "--measure", "l1"])
    assert code == 0
    assert abs(payload["value"] - 2.0) <= 1e-9


def test_measure_rel_ent(psi3_file, capsys):
    code, payload = run_json(capsys, ["measure", "--state", psi3_file, "--measure", "rel_ent"])
    assert code == 0
    assert abs(payload["value"] - np.log2(3)) <= 1e-9


def test_check_channel_hadamard(hadamard_file, capsys):
    code, payload = run_json(capsys, ["check-channel", "--channel", hadamard_file])
    assert code == 0
    assert payload["incoherent"] is False
    assert payload["cpo"] is False
    assert payload["canonical_form"] is None


def test_check_channel_permutation(tmp_path, capsys):
    payload = {"dim": 2, "kraus": [{"re": [0, 1, 1, 0], "im": [0.0] * 4}]}
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(payload))
    code, result = run_json(capsys, ["check-channel", "--channel", str(path)])
    assert code == 0
    assert result["incoherent"] is True
    assert result["cpo"] is True
    assert result["canonical_form"]["column_maps"] == [[1, 0]]


def test_check_channel_tol_covers_the_cpo_verdict(tmp_path, capsys):
    # a swap with a 1e-6 stray entry, made exactly unitary: incoherent only at a loose tol
    w, _, vh = np.linalg.svd(np.array([[1e-6, 1.0], [1.0, 0.0]]))
    u = w @ vh
    payload = {"dim": 2, "kraus": [{"re": u.reshape(-1).tolist(), "im": [0.0] * 4}]}
    path = tmp_path / "near_swap.json"
    path.write_text(json.dumps(payload))
    for argv, verdict in ((["--tol", "1e-3"], True), ([], False)):
        code, result = run_json(capsys, ["check-channel", "--channel", str(path), *argv])
        assert code == 0
        assert result["incoherent"] is result["cpo"] is verdict
        assert (result["canonical_form"] is not None) is verdict


def test_verify_skew_c2_finds_violations(capsys):
    code, payload = run_json(
        capsys,
        ["verify", "--measure", "skew", "--criterion", "C2", "--dim", "3",
         "--trials", "100", "--seed", "7"],
    )
    assert code == 1
    assert payload["violations"] >= 1
    assert payload["witness"] is not None


def test_verify_rel_ent_c2_passes(capsys):
    code, payload = run_json(
        capsys,
        ["verify", "--measure", "rel_ent", "--criterion", "C2", "--dim", "2",
         "--trials", "50", "--seed", "1"],
    )
    assert code == 0
    assert payload["violations"] == 0


def test_verify_matches_library_call(capsys):
    code, payload = run_json(
        capsys,
        ["verify", "--measure", "l1", "--criterion", "C2", "--dim", "3",
         "--trials", "40", "--seed", "9"],
    )
    direct = check_criterion("C2", "l1", TrialConfig(dim=3, n_trials=40, seed=9, tol=1e-8))
    assert payload == direct.to_dict()
    assert code == 0


def test_verify_requires_measure_for_measure_criteria(capsys):
    code = cli.run(["verify", "--criterion", "C2"])
    assert code == 2


def test_verify_all_without_measure_is_exit_2(capsys):
    assert cli.run(["verify", "--criterion", "ALL", "--dim", "3", "--trials", "5"]) == 2
    assert capsys.readouterr().out == ""


def test_verify_zero_trials_is_exit_2(capsys):
    assert cli.run(["verify", "--criterion", "C2", "--measure", "l1", "--trials", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_verify_lemma2_runs_without_measure(capsys):
    code, payload = run_json(
        capsys, ["verify", "--criterion", "LEMMA2", "--dim", "2", "--trials", "30", "--seed", "0"]
    )
    assert code == 0
    assert payload["measure"] == "none"


def test_verify_csv_header_is_fixed(capsys):
    code = cli.run(
        ["verify", "--measure", "l1", "--criterion", "C2", "--dim", "2",
         "--trials", "20", "--seed", "0", "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "criterion,measure,dim,trials,violations,worst_violation,seed"
    assert code == 0


def test_verify_stdout_is_deterministic(capsys):
    argv = ["verify", "--measure", "l1", "--criterion", "C3", "--dim", "2",
            "--trials", "25", "--seed", "4"]
    cli.run(argv)
    first = capsys.readouterr().out
    cli.run(argv)
    second = capsys.readouterr().out
    assert first == second


def test_verify_jobs_deterministic(capsys):
    argv = ["verify", "--measure", "rel_ent", "--criterion", "C2", "--dim", "2",
            "--trials", "30", "--seed", "2"]
    cli.run(argv)
    solo = capsys.readouterr().out
    cli.run(argv + ["--jobs", "2"])
    multi = capsys.readouterr().out
    assert solo == multi


def test_hunt_finds_skew_counterexamples(capsys):
    code, payload = run_json(capsys, ["hunt", "--dim", "3", "--trials", "30", "--seed", "1"])
    assert code == 1
    w = payload["skew_witness"]["witness"]
    assert abs(w["value_before"] - 17 / 36) <= 1e-12
    assert abs(w["value_after"] - 5 / 9) <= 1e-12


def test_mcs_membership_and_transform(tmp_path, psi3_file, capsys):
    target = {"dim": 2, "kind": "pure", "re": [0.8, 0.6], "im": [0.0, 0.0]}
    target_path = tmp_path / "target.json"
    target_path.write_text(json.dumps(target))
    code, payload = run_json(
        capsys, ["mcs", "--state", psi3_file, "--transform-to", str(target_path)]
    )
    assert code == 0
    assert payload["is_mcs"] is True
    channel = channel_from_dict(payload["transform_channel"])
    assert is_incoherent_channel(channel)
    out = apply_channel(channel, from_pure(uniform_superposition(2)))
    target_state = state_from_dict(target)
    amp = target_state.amplitudes
    assert abs(np.vdot(amp, out.matrix @ amp).real - 1.0) <= 1e-10


def test_mcs_requires_some_input(capsys):
    assert cli.run(["mcs"]) == 2


def test_env_var_default_seed(capsys, monkeypatch):
    monkeypatch.setenv("COHERENCE_LAB_SEED", "321")
    code, payload = run_json(
        capsys, ["verify", "--measure", "l1", "--criterion", "C2", "--dim", "2", "--trials", "10"]
    )
    assert payload["seed"] == 321
    assert code == 0


def test_unknown_flag_is_exit_2(capsys):
    assert cli.run(["measure", "--state", "x.json", "--measure", "l1", "--bogus"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["verify", "--measure", "l1", "--criterion", "C2", "--dim", "3", "--trials", "5"],
    ["hunt", "--dim", "3", "--trials", "5"],
    ["verify", "--measure", "l1", "--criterion", "C5", "--dim", "2", "--trials", "2"],
])
def test_nonpositive_jobs_is_exit_2(capsys, command, jobs):
    assert cli.run(command + ["--jobs", jobs]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("seed", ["-1", "abc", "1.5"])
@pytest.mark.parametrize("command", [
    ["verify", "--measure", "l1", "--criterion", "C1", "--dim", "3", "--trials", "5"],
    ["verify", "--measure", "l1", "--criterion", "C1", "--dim", "3", "--trials", "5", "--jobs", "2"],
    ["verify", "--measure", "l1", "--criterion", "C5", "--dim", "3", "--trials", "2"],
    ["hunt", "--dim", "3", "--trials", "5"],
    ["measure", "--state", "x.json", "--measure", "int_rand"],
])
def test_bad_seed_is_exit_2(capsys, command, seed):
    assert cli.run(command + ["--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed" in captured.err


@pytest.mark.parametrize("value", ["-1", "abc", ""])
@pytest.mark.parametrize("command", [
    ["verify", "--measure", "l1", "--criterion", "C2", "--dim", "3", "--trials", "5"],
    ["hunt", "--dim", "3", "--trials", "5"],
])
def test_bad_env_var_seed_is_exit_2(capsys, monkeypatch, command, value):
    monkeypatch.setenv("COHERENCE_LAB_SEED", value)
    assert cli.run(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "COHERENCE_LAB_SEED" in captured.err


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-0.5", "abc"])
@pytest.mark.parametrize("command", [
    ["verify", "--measure", "skew", "--criterion", "C2", "--dim", "3", "--trials", "150", "--seed", "1"],
    ["hunt", "--dim", "3", "--trials", "5"],
    ["mcs", "--state", "x.json"],
    ["check-channel", "--channel", "x.json"],
])
def test_bad_tol_is_exit_2(capsys, command, tol):
    # inf used to silence every violation, and nan to pass every channel and state
    assert cli.run(command + ["--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol" in captured.err


def test_importing_the_cli_does_not_load_the_process_pool():
    # the pool module is imported by --jobs runs that start workers, not by every invocation
    env = {**os.environ, "PYTHONPATH": str(Path(coherence_lab.__file__).parents[1])}
    code = "import sys, coherence_lab.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_verify_dim_1_is_exit_2(capsys):
    assert cli.run(["verify", "--measure", "l1", "--criterion", "C2", "--dim", "1"]) == 2
    assert "dim must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["verify", "--criterion", "C1", "--measure", "l1"],
    ["verify", "--criterion", "C5", "--measure", "l1"],
    ["hunt"],
])
def test_dim_above_16_is_exit_2(capsys, command):
    assert cli.run(command + ["--dim", "17", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dim must be >= 2 and <= 16, got 17" in captured.err


def test_unknown_subcommand_is_exit_2(capsys):
    assert cli.run(["frobnicate"]) == 2
    capsys.readouterr()


def test_malformed_json_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.run(["measure", "--state", str(bad), "--measure", "l1"]) == 3
    capsys.readouterr()


def test_missing_file_is_exit_3(capsys):
    assert cli.run(["measure", "--state", "/nonexistent/x.json", "--measure", "l1"]) == 3
    capsys.readouterr()


def test_invalid_state_payload_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad_state.json"
    bad.write_text(json.dumps({"dim": 2, "kind": "pure", "re": [1.0, 1.0], "im": [0.0, 0.0]}))
    assert cli.run(["measure", "--state", str(bad), "--measure", "l1"]) == 3
    capsys.readouterr()


def test_malformed_channel_payload_is_exit_3(tmp_path, capsys):
    payloads = (
        {"dim": 2, "kraus": [{"re": [1, 0, 0, 1]}]},
        {"dim": 2, "kraus": [1]},
        {"dim": 2, "kraus": 5},
    )
    for i, payload in enumerate(payloads):
        path = tmp_path / f"bad_channel{i}.json"
        path.write_text(json.dumps(payload))
        assert cli.run(["check-channel", "--channel", str(path)]) == 3, payload
    assert capsys.readouterr().out == ""


def test_dim_above_16_is_exit_3(tmp_path, capsys):
    state = tmp_path / "psi17.json"
    amplitudes = [17**-0.5] * 17  # uniform_superposition(17), which the samplers' dim rule rejects
    state.write_text(json.dumps({"dim": 17, "kind": "pure", "re": amplitudes, "im": [0.0] * 17}))
    channel = tmp_path / "id17.json"
    identity = {"re": np.eye(17).ravel().tolist(), "im": [0.0] * 289}
    channel.write_text(json.dumps({"dim": 17, "kraus": [identity]}))
    assert cli.run(["measure", "--state", str(state), "--measure", "int_rand"]) == 3
    assert cli.run(["check-channel", "--channel", str(channel)]) == 3
    assert capsys.readouterr().out == ""


def test_non_integer_dim_is_exit_3(tmp_path, capsys):
    state = tmp_path / "psi.json"
    state.write_text(json.dumps({"dim": 2.7, "kind": "pure", "re": [1.0, 0.0], "im": [0.0, 0.0]}))
    assert cli.run(["measure", "--state", str(state), "--measure", "int_rand"]) == 3
    assert capsys.readouterr().out == ""


def test_out_file_writing(tmp_path, psi3_file):
    out = tmp_path / "result.json"
    code = cli.run(["measure", "--state", psi3_file, "--measure", "l1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["value"] - 2.0) <= 1e-9


@pytest.mark.parametrize("argv", [
    ["measure", "--state", "{psi3}", "--measure", "l1"],
    ["check-channel", "--channel", "{hadamard}"],
    ["verify", "--criterion", "C1", "--measure", "l1", "--dim", "2", "--trials", "3"],
    ["hunt", "--dim", "3", "--trials", "3"],
    ["mcs", "--state", "{psi3}"],
], ids=lambda argv: argv[0])
def test_unwritable_out_is_exit_3(argv, tmp_path, psi3_file, hadamard_file, capsys):
    """Every subcommand that takes --out reports a path it cannot write as an
    I/O error, exit 3, and not as found violations (exit 1) or a traceback."""
    out = tmp_path / "missing" / "x.json"
    argv = [a.format(psi3=psi3_file, hadamard=hadamard_file) for a in argv]
    assert cli.run(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: cannot write {out}:")
    assert not out.parent.exists()


def test_emit_report_round_trip():
    report = check_criterion("C2", "l1", TrialConfig(dim=2, n_trials=10, seed=0))
    from coherence_lab.harness import report_from_dict

    text = cli.emit_reports([report], "json")
    assert report_from_dict(json.loads(text)).to_dict() == report.to_dict()
    csv_text = cli.emit_reports([report], "csv")
    header, row = csv_text.strip().splitlines()
    assert header == ",".join(cli.CSV_COLUMNS)
    assert row.split(",")[0] == "C2"
