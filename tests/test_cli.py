import collections
import json
import math
import random

import pytest

from pfaffchain import cli, ensemble, lax, reductions
from pfaffchain.cli import _write_report, main


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


def _slot_by_slot_mismatch(flow, seed, sites, depth, trials):
    """The worst |c - e| / max(1, |c|, |e|) over every interior slot of every
    trial, read one ``.get`` at a time, with the draws ``lax-verify`` makes."""
    rng, worst = random.Random(seed), 0.0
    k_flow, table_flow, even = lax.FLOWS[flow]
    for _ in range(trials):
        b = lax.random_bands(rng, sites, depth, even=even)
        comm, mask = lax.lax_rhs_commutator(b, k_flow, 2 * sites)
        expl = table_flow(b)
        for kind, bk, n in mask:
            c, e = comm.get(kind, bk, n), expl.get(kind, bk, n)
            worst = max(worst, abs(c - e) / max(1.0, abs(c), abs(e)))
    return worst


@pytest.mark.parametrize("flow, kind, target", [
    ("t1", "w", "table"), ("t1", "v", "table"), ("t2", "w", "table"),
    ("t2", "v", "table"), ("t2_even", "v", "commutator"),
], ids=["t1_w", "t1_v", "t2_w", "t2_v", "t2_even_v_commutator"])
def test_lax_verify_reads_every_interior_slot(tmp_path, monkeypatch, flow, kind, target):
    sites, depth = 18, 3
    slot = ("wv".index(kind), 1 + depth, 9 - 1)  # kind^1_9
    assert (kind, 1, 9) in lax.interior_mask(2 * sites, depth, lax.FLOWS[flow][0])

    def bumped(derivs):
        derivs.rows[slot] += 0.5
        return derivs

    k_flow, table_flow, even = lax.FLOWS[flow]
    if target == "table":
        monkeypatch.setitem(lax.FLOWS, flow, (k_flow, lambda b: bumped(table_flow(b)), even))
    else:
        commutator = lax.lax_rhs_commutator

        def bumped_commutator(*args):
            derivs, mask = commutator(*args)
            return bumped(derivs), mask

        monkeypatch.setattr(lax, "lax_rhs_commutator", bumped_commutator)
    assert main(["--out", str(tmp_path), "--seed", "3", "lax-verify", "--flows", flow,
                 "--sites", str(sites), "--trials", "2"]) == 1
    report = json.loads((tmp_path / "lax_verify.json").read_text())
    assert report["max_mismatch"] == _slot_by_slot_mismatch(flow, 3, sites, depth, 2)
    assert report["max_mismatch"] > 1e-3  # the bump shows, far above roundoff


def test_lax_verify_checks_the_dense_size_before_drawing_bands(tmp_path, capsys,
                                                              monkeypatch):
    calls = []
    draw = lax.random_bands
    monkeypatch.setattr(lax, "random_bands", lambda *a, **kw: calls.append(a) or draw(*a, **kw))
    assert main(["--out", str(tmp_path), "lax-verify", "--sites", "100000",
                 "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "(200000, 200000)" in err  # numpy's allocation error names the shape
    assert calls == []


def test_a_bare_memory_error_still_prints_a_reason(tmp_path, capsys, monkeypatch):
    def oversized(**kwargs):
        raise MemoryError
    monkeypatch.setattr(reductions, "involutivity_report", oversized)
    assert main(["--out", str(tmp_path), "gt"]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


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
                    "n_max_list.json": {"tau": {"n_max": [1]}},
                    "term_list_not_a_list.json": {"rows": {"0": {"0": 5}}},
                    "monomial_not_a_list.json": {"rows": {"0": {"0": [["1", 5]]}}},
                    "override_not_a_list.json": {"base": "paper", "overrides": {"0,1": 5}},
                    "stencil_list.json": {"stencil": [1], "rows": {"0": {"0": [["1", [0]]]}}},
                    "stencil_null.json": {"stencil": None, "rows": {"0": {"0": [["1", [0]]]}}},
                    "stencil_negative.json": {"stencil": -3, "rows": {"0": {"0": [["1", [0]]]}}},
                    # a config section sets only its own subcommand's options
                    "config_func.json": {"gt": {"func": 1}},
                    "config_out.json": {"gt": {"out": "x"}},
                    "config_seed.json": {"gt": {"seed": 5}},
                    "config_flag_string.json": {"lax-verify": {"even": "false"}},
                    "config_unknown_key.json": {"lax-verify": {"sties": 64}},
                    "config_unknown_section.json": {"sties": {"depth": 1}}}


# the whole line for inputs that once failed in a later step, which it blamed
_USAGE_MESSAGES = {
    "moments --n 88": "the Pfaffian of the 176x176 matrix overflows float64",
    "moments --radius 1e6": "moment matrix n=2: the rule at 200 nodes on radius 1e+06 "
                            "resolves no weight: mu_01 = 0 is not positive",
    # a TypeError traceback before
    "--config config_func.json gt": "bad config: gt: --func is no option of gt",
    # an AttributeError traceback before
    "--config config_out.json gt": "bad config: gt: --out is no option of gt",
    # overrode --seed typed on the command line before
    "--config config_seed.json --seed 1 gt": "bad config: gt: --seed is no option of gt",
    # turned --even on before
    "--config config_flag_string.json lax-verify":
        "bad config: lax-verify: --even is a flag, so true or false, not 'false'",
    # ignored before
    "--config config_unknown_key.json lax-verify":
        "bad config: lax-verify: --sties is no option of lax-verify",
    "--config config_unknown_section.json gt": "bad config: 'sties' names no subcommand",
    # FileExistsError and NotADirectoryError tracebacks before
    "--out top_level_list.json gt": "--out top_level_list.json: cannot make the directory: "
                                    "File exists",
    "--out top_level_list.json/sub tau": "--out top_level_list.json/sub: cannot make the "
                                         "directory: Not a directory",
}


@pytest.mark.parametrize("argv", [
    ["continuum-check", "--depth", "1"],
    ["continuum-check", "--eps", "1/0,1/2,1/4"],
    ["continuum-check", "--orders", "0,0"],
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
    ["haantjes", "--spec", "term_list_not_a_list.json"],
    ["haantjes", "--spec", "monomial_not_a_list.json"],
    ["haantjes", "--spec", "override_not_a_list.json"],
    ["haantjes", "--spec", "stencil_list.json"],
    ["haantjes", "--spec", "stencil_null.json"],
    ["haantjes", "--spec", "stencil_negative.json"],
    ["moments", "--n", "1", "--nodes", "3000000"],
    ["tau", "--n-max", "2", "--nodes", "3000000"],
    ["lax-verify", "--sites", "100000", "--trials", "1"],
    ["tau", "--n-max", "300"],
    ["tau", "--n-max", "16"],
    ["moments", "--radius", "1e6"],
    # allocations past the 128 TiB address space fail at once under any
    # overcommit setting
    ["chain-evolve", "--grid", "100000000000000", "--steps", "0"],
    ["chain-evolve", "--depth", "1000000000000", "--steps", "0"],
    ["continuum-check", "--eps", "1/100000000000000,1/64,1/128"],
    ["lax-verify", "--depth", "1000000000000", "--trials", "1"],
    ["moments", "--n", "88"],
    ["moments", "--n", "100"],
    ["moments", "--n", "1000000000000"],
    ["chain-evolve", "--grid", "4", "--steps", "1"],
    ["chain-evolve", "--grid", "2", "--steps", "1", "--scheme", "lax-friedrichs"],
    ["continuum-check", "--eps", "1/64,1/64,1/128"],
    ["--config", "config_func.json", "gt"],
    ["--config", "config_out.json", "gt"],
    ["--config", "config_seed.json", "--seed", "1", "gt"],
    ["--config", "config_flag_string.json", "lax-verify"],
    ["--config", "config_unknown_key.json", "lax-verify"],
    ["--config", "config_unknown_section.json", "gt"],
    ["--out", "top_level_list.json", "gt"],
    ["--out", "top_level_list.json/sub", "tau"],
], ids="_".join)
def test_input_that_checks_nothing_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for name, obj in _BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(json.dumps(obj))
    assert main(["--out", str(tmp_path)] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if " ".join(argv) in _USAGE_MESSAGES:
        assert err == f"error: {_USAGE_MESSAGES[' '.join(argv)]}\n"


@pytest.mark.parametrize("argv, option", [
    (["moments", "--t1", "nan"], "t1"),
    (["tau", "--radius", "inf"], "radius"),
    (["chain-evolve", "--band-support", "-3"], "band_support"),
    (["continuum-check", "--band-support", "-3"], "band_support"),
    # numpy's "negative dimensions are not allowed" before
    (["lax-verify", "--sites", "-5"], "--sites"),
    # "Fraction(1, 0)" before
    (["continuum-check", "--eps", "1/0,1/2,1/3"], "--eps"),
    # argparse's "expected one argument" before: -1/64 read as an option
    (["continuum-check", "--eps", "-1/64,1/128,1/256"], "eps=-0.015625 must be positive"),
    # "invalid literal for int() with base 10: 'x'" before
    (["continuum-check", "--orders", "x"], "--orders x: 'x' is not an integer"),
    # "Invalid literal for Fraction: 'abc'" (and 'nan', 'inf') before
    (["continuum-check", "--eps", "abc"], "--eps abc: 'abc' is not a finite float or p/q"),
    (["continuum-check", "--eps", "nan"], "--eps nan: 'nan' is not a finite float or p/q"),
    (["continuum-check", "--eps", "inf"], "--eps inf: 'inf' is not a finite float or p/q"),
    # "integer division result too large for a float" before
    (["continuum-check", "--eps", "1e400,1/2,1/3"], "'1e400' is not a finite float or p/q"),
    # exit 0 before, with each slot of the repeated flow checked and counted twice
    (["lax-verify", "--flows", "t1,t1"], "--flows t1,t1: flow 't1' is listed twice"),
], ids=lambda v: "_".join(v) if isinstance(v, list) else v)
def test_bad_value_is_blamed_on_its_option(tmp_path, capsys, argv, option):
    assert main(["--out", str(tmp_path)] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and option in err


def test_tau_table_computes_each_tau_once(tmp_path, monkeypatch):
    calls = collections.Counter()
    for name in ("moment_matrix", "pfaffian"):
        def counted(*args, _fn=getattr(ensemble, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(ensemble, name, counted)
    assert main(["--out", str(tmp_path), "tau", "--n-max", "12"]) == 0
    assert calls == {"moment_matrix": 13, "pfaffian": 13}  # tau_2 .. tau_26


def test_moments_forms_each_table_once(tmp_path, monkeypatch):
    formed = collections.Counter()
    g_table = ensemble._TriangleTable.g_table
    monkeypatch.setattr(ensemble._TriangleTable, "g_table",
                        lambda self, degree: formed.update([degree]) or g_table(self, degree))
    ensemble._quadrature_for.cache_clear()
    assert main(["--out", str(tmp_path), "moments", "--n", "3"]) == 0
    # the 6 x 6 table serves both the CSV and tau_6; tau_8 and tau_4 need
    # degrees 7 and 3; each is formed at two refinement levels
    assert formed == {5: 2, 7: 2, 3: 2}


def test_reports_refuse_values_that_are_not_json(tmp_path):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write_report(tmp_path, "report.json", {"value": bad})


@pytest.mark.parametrize("argv, warnings", [
    (["moments", "--n", "3"], 0),
    (["tau", "--n-max", "3"], 0),
    (["moments", "--n", "12"], 1),
    (["tau", "--n-max", "12"], 1),
], ids=["moments_n3", "tau_n3", "moments_n12", "tau_n12"])
def test_zero_coupling_ratio_drift_past_the_budget_warns(tmp_path, capsys, argv, warnings):
    # at 200 nodes |ratio - 1| is 7.9e-7 at n = 11 and 8.1e-6 at n = 12
    assert main(["--out", str(tmp_path)] + argv) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == warnings
    assert all(line.startswith("warning: n=12: ") and "1e-06 budget" in line for line in err)


def test_chain_evolve(tmp_path):
    out = tmp_path / "r"
    assert main(["--out", str(out), "chain-evolve", "--steps", "3",
                 "--grid", "64"]) == 0
    assert (out / "chain_trajectory.csv").exists()


def test_chain_evolve_writes_the_initial_state_of_a_grid_too_coarse_to_step(tmp_path):
    assert main(["--out", str(tmp_path), "chain-evolve", "--grid", "4", "--steps", "0"]) == 0
    rows = (tmp_path / "chain_trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + 7 * 4  # header, then bands |k| <= 3 at 4 points


@pytest.mark.parametrize("dt, cfl", [("1e-3", "1.16"), ("0.05", "57.8")])
def test_chain_evolve_reports_its_cfl_number_before_stepping(tmp_path, capsys, dt, cfl):
    main(["--out", str(tmp_path), "chain-evolve", "--dt", dt])
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"CFL number dt*max_row_sum/h = {cfl}"


def test_reports_are_deterministic(tmp_path):
    # moments and tau run cold, with the moment-table caches cleared, then warm
    for i, (argv, files, tables) in enumerate([
            (["--seed", "42", "gt", "--jets", "4"], ["gt_involutivity.json"], 0),
            (["moments", "--n", "3"], ["moments_n3.csv", "tau_n3.json"], 1),
            (["tau", "--n-max", "3"], ["tau_table.json"], 1)]):
        ensemble._quadrature_for.cache_clear()
        ensemble._triangle_rule.cache_clear()
        out1, out2 = tmp_path / f"{i}a", tmp_path / f"{i}b"
        for out in (out1, out2):
            assert main(["--out", str(out)] + argv) == 0
        assert ensemble._quadrature_for.cache_info().misses == tables
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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


def test_plain_runs_share_one_parser_and_a_config_run_builds_its_own(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda config=None, _build=cli.build_parser:
                        built.append(config) or _build(config))
    cli._plain_parser.cache_clear()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau": {"n_max": 1}}))
    runs = [(["tau"], 3), (["--config", str(cfg), "tau"], 1), (["tau"], 3)]
    for i, (argv, rows) in enumerate(runs):
        out = tmp_path / str(i)
        assert main(["--out", str(out)] + argv) == 0
        assert len(json.loads((out / "tau_table.json").read_text())["table"]) == rows
    # the config's n_max = 1 did not leak into the plain run after it
    assert built == [None, {"tau": {"n_max": 1}}]


def test_config_flag_set_false_stays_false(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lax-verify": {"even": False, "trials": 1}}))
    assert main(["--out", str(tmp_path), "--config", str(cfg), "lax-verify"]) == 0
    assert json.loads((tmp_path / "lax_verify.json").read_text())["flows"] == ["t1", "t2"]


@pytest.mark.parametrize("argv, warned", [
    ([], False),
    (["--grid", "1024", "--depth", "4", "--steps", "1"], True),  # CFL 4.62
], ids=["defaults", "grid1024"])
def test_chain_evolve_warns_past_the_rk4_stability_bound(tmp_path, capsys, argv, warned):
    assert main(["--out", str(tmp_path), "chain-evolve"] + argv) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("CFL number")
    assert [line for line in err if line.startswith("warning:")] == (
        ["warning: CFL number 4.62 exceeds the rk4-central stability bound 2.06; "
         "roundoff can grow at every step"] if warned else [])


@pytest.mark.parametrize("overrides, key", [
    ({"0": [["1", [0]]]}, "'0'"),
    ({"0,1": "x"}, "'0,1'"),
    ({"0,1": [["1", [0], 5]]}, "'0,1'"),
    ({"0,1": [["1/0", [0]]]}, "'0,1'"),
], ids=["key_without_column", "table_not_a_list", "term_of_three", "zero_denominator"])
def test_malformed_spec_entry_is_named(tmp_path, capsys, overrides, key):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"base": "paper", "overrides": overrides}))
    assert main(["--out", str(tmp_path), "haantjes", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: spec override {key}: ") and err.count("\n") == 1
    assert "[[coeff, [index, ...]], ...]" in err


def test_float_options_take_a_negative_exponent(tmp_path):
    # "--t4 -1e-3" used to stop at "argument --t4: expected one argument"
    out = {form: tmp_path / form for form in ("split", "joined")}
    assert main(["--out", str(out["split"]), "tau", "--n-max", "2", "--t4", "-1e-3"]) == 0
    assert main(["--out", str(out["joined"]), "tau", "--n-max", "2", "--t4=-1e-3"]) == 0
    assert ((out["split"] / "tau_table.json").read_bytes()
            == (out["joined"] / "tau_table.json").read_bytes())
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    floats = [(name, action.option_strings[0]) for name, sp in sub.choices.items()
              for action in sp._actions if action.type is float]
    assert len(floats) == 2 * 9 + 1  # --t1..--t8 and --radius twice, --dt
    for name, option in floats:
        assert getattr(parser.parse_args([name, option, "-2.5E-3"]),
                       option.lstrip("-").replace("-", "_")) == -2.5e-3


def test_chain_evolve_names_the_bands_beyond_depth_it_drops(tmp_path, capsys):
    argv = ["chain-evolve", "--grid", "32", "--steps", "2", "--depth", "3"]
    assert main(["--out", str(tmp_path / "wide")] + argv + ["--band-support", "50"]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert warnings == ["warning: --band-support 50 exceeds --depth 3: "
                        "the profile's bands 4 <= |k| <= 50 are dropped"]
    assert main(["--out", str(tmp_path / "fit")] + argv + ["--band-support", "3"]) == 0
    assert "warning:" not in capsys.readouterr().err
    assert ((tmp_path / "wide" / "chain_trajectory.csv").read_bytes()
            == (tmp_path / "fit" / "chain_trajectory.csv").read_bytes())


def test_continuum_check_names_the_bands_beyond_depth_it_drops(tmp_path, capsys):
    argv = ["continuum-check", "--eps", "1/32,1/48,1/64", "--depth", "4"]
    assert main(["--out", str(tmp_path / "wide")] + argv + ["--band-support", "50"]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert warnings == ["warning: --band-support 50 exceeds --depth 4: "
                        "the profile's bands 5 <= |k| <= 50 are dropped"]
    assert main(["--out", str(tmp_path / "fit")] + argv + ["--band-support", "4"]) == 0
    assert "warning:" not in capsys.readouterr().err
    assert ((tmp_path / "wide" / "continuum_check.json").read_bytes()
            == (tmp_path / "fit" / "continuum_check.json").read_bytes())
