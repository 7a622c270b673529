import json

import pytest

from pfaffchain.cli import main


def test_moments_writes_reports(tmp_path):
    out = tmp_path / "r"
    assert main(["--out", str(out), "moments", "--n", "2"]) == 0
    report = json.loads((out / "tau_n2.json").read_text())
    assert report["selberg_ratio_check"] == pytest.approx(1.0, abs=1e-6)
    assert (out / "moments_n2.csv").exists()


def test_moments_guard_exit_code(tmp_path):
    assert main(["--out", str(tmp_path), "moments", "--n", "1",
                 "--t3", "0.1"]) == 2


def test_moments_with_valid_coupling(tmp_path):
    assert main(["--out", str(tmp_path), "moments", "--n", "1",
                 "--t2", "-0.05"]) == 0


def test_tau_table(tmp_path):
    out = tmp_path / "r"
    assert main(["--out", str(out), "tau", "--n-max", "2"]) == 0
    table = json.loads((out / "tau_table.json").read_text())["table"]
    assert [row["n"] for row in table] == [1, 2]


def test_lax_verify_passes(tmp_path):
    out = tmp_path / "r"
    assert main(["--out", str(out), "--seed", "1", "lax-verify",
                 "--trials", "3"]) == 0
    report = json.loads((out / "lax_verify.json").read_text())
    assert report["pass"] and report["max_mismatch"] <= 1e-12


def test_lax_verify_even_flow(tmp_path):
    assert main(["--out", str(tmp_path), "lax-verify", "--flows", "t2_even",
                 "--even", "--trials", "2"]) == 0


def test_lax_verify_truncation_too_tight(tmp_path):
    assert main(["--out", str(tmp_path), "lax-verify", "--sites", "4",
                 "--depth", "5", "--trials", "1"]) == 2


def test_continuum_check(tmp_path):
    out = tmp_path / "r"
    assert main(["--out", str(out), "continuum-check",
                 "--eps", "1/64,1/128,1/256"]) == 0
    report = json.loads((out / "continuum_check.json").read_text())
    assert len(report["reports"]) == 3


def test_continuum_check_single_epsilon(tmp_path):
    assert main(["--out", str(tmp_path), "continuum-check",
                 "--eps", "1/64"]) == 2


def test_haantjes_scan_passes(tmp_path):
    out = tmp_path / "r"
    assert main(["--out", str(out), "haantjes", "--window", "3",
                 "--points", "2"]) == 0
    report = json.loads((out / "haantjes_scan.json").read_text())
    assert report["haantjes_nonzero"] == []


def test_haantjes_mutated_spec_fails(tmp_path):
    spec = {"base": "paper", "overrides": {"0,1": [["1", [0]]]}}
    spec_path = tmp_path / "mutated.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["--out", str(tmp_path), "haantjes", "--window", "2",
                 "--points", "1", "--spec", str(spec_path)]) == 1


def test_nijenhuis_oracle(tmp_path):
    assert main(["--out", str(tmp_path), "nijenhuis-oracle",
                 "--points", "1"]) == 0


def test_gt_pass_and_mutate(tmp_path):
    out = tmp_path / "r"
    assert main(["--out", str(out), "gt", "--jets", "5"]) == 0
    assert main(["--out", str(out), "gt", "--jets", "3", "--mutate"]) == 1


_BAD_INPUT_FILES = {"top_level_list.json": [1], "rows_not_an_object.json": {"rows": 5},
                    "overrides_not_an_object.json": {"base": "paper", "overrides": [1]},
                    "n_max_list.json": {"tau": {"n_max": [1]}}}


@pytest.mark.parametrize("argv", [
    ["continuum-check", "--depth", "1"],
    ["continuum-check", "--eps", "1/0,1/2,1/4"],
    ["chain-evolve", "--grid", "0"],
    ["chain-evolve", "--dt", "-1"],
    ["gt", "--jets", "0"],
    ["haantjes", "--window", "-1"],
    ["nijenhuis-oracle", "--points", "0"],
    ["tau", "--n-max", "0"],
    ["lax-verify", "--trials", "0"],
    ["chain-evolve", "--steps", "-3"],
    ["chain-evolve", "--depth", "-1"],
    ["lax-verify", "--depth", "-1", "--trials", "1"],
    ["chain-evolve", "--dt", "nan", "--steps", "1"],
    ["chain-evolve", "--dt", "inf", "--steps", "1"],
    ["lax-verify", "--flows", "bogus"],
    ["moments", "--nodes", "8"],
    ["tau", "--nodes", "8"],
    ["haantjes", "--spec", "/nonexistent/spec.json"],
    ["haantjes", "--spec", "top_level_list.json"],
    ["haantjes", "--spec", "rows_not_an_object.json"],
    ["haantjes", "--spec", "overrides_not_an_object.json"],
    ["--config", "n_max_list.json", "tau"],
], ids="_".join)
def test_input_that_checks_nothing_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for name, obj in _BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(json.dumps(obj))
    assert main(["--out", str(tmp_path)] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_chain_evolve(tmp_path):
    out = tmp_path / "r"
    assert main(["--out", str(out), "chain-evolve", "--steps", "3",
                 "--grid", "64"]) == 0
    assert (out / "chain_trajectory.csv").exists()


@pytest.mark.parametrize("dt, cfl", [("1e-3", "1.16"), ("0.05", "57.8")])
def test_chain_evolve_reports_its_cfl_number_before_stepping(tmp_path, capsys, dt, cfl):
    main(["--out", str(tmp_path), "chain-evolve", "--dt", dt])
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"CFL number dt*max_row_sum/h = {cfl}"


def test_reports_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["--out", str(out), "--seed", "42", "gt", "--jets", "4"]) == 0
    assert (out1 / "gt_involutivity.json").read_bytes() == \
        (out2 / "gt_involutivity.json").read_bytes()


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gt": {"jets": 2}}))
    out = tmp_path / "r"
    assert main(["--out", str(out), "--config", str(cfg), "gt"]) == 0
    report = json.loads((out / "gt_involutivity.json").read_text())
    assert report["jets"] == 2


def test_config_without_path_is_a_usage_error(capsys):
    assert main(["--config"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--config" in err


def test_config_must_be_an_object_of_objects(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gt": 3}))
    assert main(["--out", str(tmp_path), "--config", str(cfg), "gt"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad config" in err


def test_config_defaults_of_one_command_leave_the_others_alone(tmp_path):
    # moments and tau take their quadrature options from the same helper
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"moments": {"nodes": 8}}))
    assert main(["--out", str(tmp_path), "--config", str(cfg), "tau",
                 "--n-max", "1"]) == 0


def test_config_flag_set_false_stays_false(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lax-verify": {"even": False, "trials": 1}}))
    assert main(["--out", str(tmp_path), "--config", str(cfg), "lax-verify"]) == 0
    assert json.loads((tmp_path / "lax_verify.json").read_text())["flows"] == ["t1", "t2"]
