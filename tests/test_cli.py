import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import pytest

from cloudq import arcsine, cli, division, fixedpoint, master, resources, states
from cloudq.cli import (
    EXIT_CONFIG,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_RESOURCE_LIMIT,
    EXIT_STEP_SIZE,
    ConfigError,
    RunConfig,
    main,
    parse_config,
    run,
)
from cloudq.presets import EXPECTED_RESOURCES, PRESET_CASES, RESOURCE_BANDS
from cloudq.resources import EstimationCase


def test_parse_preset_case1():
    config = parse_config(["estimate", "--preset", "paper-case-1"])
    case = PRESET_CASES[config.preset]
    assert case == EstimationCase(
        n_bins=40, time_steps=2000, n_eps=42, degree=5, pieces=15,
        eps_rotation=1e-13, eps_estimation=9.9e-3, eps_c=1e-8, delta=0.01,
    )


def test_parse_preset_case4():
    case = PRESET_CASES[parse_config(["estimate", "--preset", "paper-case-4"]).preset]
    assert (case.n_bins, case.time_steps, case.eps_c) == (40, 20000, 1e-9)


def test_estimate_requires_parameters():
    with pytest.raises(ConfigError) as err:
        parse_config(["estimate"])
    message = str(err.value)
    for field in ("n_bins", "steps", "n_eps"):
        assert field in message


def test_empty_config_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    with pytest.raises(ConfigError) as err:
        parse_config(["estimate", "--config", str(path)])
    assert "n_bins" in str(err.value)


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_bins": 4, "bogus": 1}))
    with pytest.raises(ConfigError) as err:
        parse_config(["solve", "--config", str(path)])
    assert "bogus" in str(err.value)


def test_config_integer_at_the_float_limit_is_taken_for_a_float(tmp_path):
    # one past it is refused (test_bad_inputs_exit_config)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"k0": int(sys.float_info.max)}))
    config = parse_config(["solve", "--N", "3", "--M", "2", "--config", str(path)])
    assert config.k0 == sys.float_info.max and type(config.k0) is float


def test_config_file_with_flag_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_bins": 3, "steps": 5, "dt": 0.01}))
    config = parse_config(["simulate", "--config", str(path), "--M", "7"])
    assert config.n_bins == 3
    assert config.steps == 7


def test_estimate_json_output(tmp_path):
    out = tmp_path / "report.json"
    code = main(["estimate", "--preset", "paper-case-1", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert abs(payload["t_count"]["total"] / 4.9e14 - 1) <= 0.15


def test_estimate_deterministic_output(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["estimate", "--preset", "paper-case-2", "--out", str(out1)])
    main(["estimate", "--preset", "paper-case-2", "--out", str(out2)])
    strip = lambda p: [l for l in p.read_text().splitlines() if "generated_at" not in l]
    assert strip(out1) == strip(out2)


def test_estimate_csv_output(tmp_path):
    out = tmp_path / "resources.csv"
    code = main(
        ["estimate", "--preset", "paper-case-5", "--format", "csv", "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "case,eps_max,t_count,t_depth,logical_qubits"
    assert lines[1].startswith("paper-case-5,")


def test_simulate_check_master(tmp_path):
    code = main(
        ["simulate", "--N", "3", "--M", "5", "--dt", "0.02",
         "--check-master", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK


@pytest.mark.parametrize("below, status", [(False, EXIT_OK), (True, EXIT_MISMATCH)])
def test_simulate_check_master_passes_at_the_tolerance(tmp_path, capsys, monkeypatch, below,
                                                        status):
    # the tolerance set to the run's own worst difference passes, one ulp below fails
    table = states.build_transition_table(3, states.KernelSpec(), 0.02)
    merged = division.run_merged(table, 5)
    reference = master.evolve(
        master.ProbabilityTable.point_mass(states.MassDistribution.monodisperse(3)), table, 5
    )
    worst = max(abs(merged.entries.get(state, 0.0) - reference.entries.get(state, 0.0))
                for state in set(merged.entries) | set(reference.entries))
    assert worst > 0
    monkeypatch.setattr(master, "MERGED_TOL", math.nextafter(worst, 0) if below else worst)
    assert main(["simulate", "--N", "3", "--M", "5", "--dt", "0.02", "--check-master",
                 "--out", str(tmp_path)]) == status
    assert capsys.readouterr().out == f"max |division - solver| = {worst:.3e}\n"


def test_simulate_step_size_exit_code(tmp_path):
    code = main(
        ["simulate", "--N", "6", "--M", "2", "--dt", "1.0", "--out", str(tmp_path)]
    )
    assert code == EXIT_STEP_SIZE


def test_solve_writes_series(tmp_path):
    code = main(
        ["solve", "--N", "4", "--M", "10", "--dt", "0.02", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    assert (tmp_path / "expected_counts.csv").exists()
    assert (tmp_path / "probabilities.csv").exists()
    assert (tmp_path / "solve.json").exists()


def test_arcsine_fit_command(capsys, tmp_path):
    code = main(["arcsine-fit", "--d", "7", "--eps", "1e-13", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "M=7" in capsys.readouterr().out


def test_emulate_command(tmp_path, capsys):
    code = main(
        ["emulate", "--n-eps", "30", "--d", "5", "--eps", "1e-12",
         "--samples", "200", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("n_eps,")


def test_simulate_tree_writes_branches(tmp_path):
    code = main(
        ["simulate", "--N", "2", "--M", "2", "--dt", "0.1", "--mode", "tree",
         "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    table = states.build_transition_table(2, states.KernelSpec(), 0.1)
    branches = division.run_tree(table, 2)
    first = min(branches, key=lambda b: b.history)
    lines = (tmp_path / "branches.csv").read_text().splitlines()
    assert lines[0] == "history,state_id,probability"
    assert lines[1] == f"0|0,2|0,{first.prob!r}"
    assert len(lines) == 1 + len(branches)


@pytest.mark.parametrize("mode, name", [("merged", None), ("tree", "branches.csv")])
def test_simulate_zero_steps_writes_float_one(tmp_path, mode, name):
    code = main(["simulate", "--N", "4", "--M", "0", "--mode", mode, "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "division_probabilities.csv").read_text().splitlines()
    assert lines[1:] == ["0,4|0|0|0,1.0"]
    if name is not None:
        assert (tmp_path / name).read_text().splitlines()[1:] == [",4|0|0|0,1.0"]


def test_arcsine_fit_writes_table(tmp_path):
    code = main(["arcsine-fit", "--d", "7", "--eps", "1e-13", "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "arcsine_table.csv").read_text().splitlines()
    assert lines[0] == "eps,d,M,max_error"
    eps, d, m, max_error = lines[1].split(",")
    assert (eps, d, m) == ("1e-13", "7", "7")
    assert 0 < float(max_error) < 1e-13


def test_emulate_writes_sweep(tmp_path):
    code = main(
        ["emulate", "--n-eps", "42", "--d", "5", "--eps", "1e-12",
         "--samples", "100", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    table = fixedpoint.build_quantized_arcsine(5, 1e-12, 42)
    report = fixedpoint.estimate_eps_calculation(42, table, samples=100)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "n_eps,eps_arcsin,max_error,mean_error,samples"
    assert lines[1] == (
        f"42,{report.eps_arcsin!r},{report.max_error!r},{report.mean_error!r},100"
    )


@pytest.mark.parametrize("samples", [0, -3])
def test_emulate_without_samples_exits_config(tmp_path, capsys, samples):
    table = fixedpoint.build_quantized_arcsine(5, 1e-12, 24)
    with pytest.raises(fixedpoint.FixedPointError, match=f"^need samples >= 1, got {samples}$"):
        fixedpoint.estimate_eps_calculation(24, table, samples=samples)
    code = main(
        ["emulate", "--n-eps", "24", "--d", "5", "--eps", "1e-12",
         "--samples", str(samples), "--out", str(tmp_path)]
    )
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: need samples >= 1, got {samples}\n"
    assert not (tmp_path / "sweep.csv").exists()


def test_emulate_overflow_exits_config(tmp_path, capsys):
    # a gap sample of the (1e-13, d=7) fit lands in an extension piece whose
    # biased constant pushes the 46-bit arcsine result past the register
    table = fixedpoint.build_quantized_arcsine(7, 1e-13, 46)
    with pytest.raises(fixedpoint.CarryOutError, match="arcsine result overflow"):
        fixedpoint.estimate_eps_calculation(46, table, samples=100, include_gap=True)
    code = main(
        ["emulate", "--d", "7", "--eps", "1e-13", "--n-eps", "46", "--samples", "100",
         "--include-gap", "--out", str(tmp_path)]
    )
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "error: arcsine result overflow\n"


def test_missing_required_flags():
    assert main(["arcsine-fit"]) == EXIT_CONFIG


def test_reproduce_tables(tmp_path, capsys):
    code = main(["reproduce-tables", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert "arcsine exact matches" in out
    assert (tmp_path / "arcsine_table.csv").exists()
    assert (tmp_path / "table_diff.txt").exists()


@pytest.mark.parametrize("below, status", [(False, EXIT_OK), (True, EXIT_MISMATCH)])
def test_reproduce_tables_band_holds_at_its_edge(capsys, monkeypatch, below, status):
    # the t_count band set to the presets' largest deviation passes, one ulp
    # below fails; one cheap arcsine row keeps the run short
    monkeypatch.setattr(cli, "PIECEWISE_ARCSINE_TABLE", ((1e-12, 5, 15),))
    monkeypatch.setattr(cli, "ARCSINE_EXACT_MINIMUM", 1)
    worst = max(abs(resources.estimate_case(case).total.t_count / EXPECTED_RESOURCES[name][1] - 1)
                for name, case in PRESET_CASES.items())
    band = math.nextafter(worst, 0) if below else worst
    monkeypatch.setattr(cli, "RESOURCE_BANDS", {**RESOURCE_BANDS, "t_count": band})
    assert main(["reproduce-tables"]) == status
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == below and all(" t_count: " in line for line in fails)


def test_estimate_explicit_parameters(tmp_path):
    out = tmp_path / "custom.json"
    code = main(
        ["estimate", "--N", "40", "--M", "2000", "--n-eps", "42", "--d", "5",
         "--M-eps", "15", "--eps-rotation", "1e-13", "--eps-estimation", "9.9e-3",
         "--eps-c", "1e-8", "--out", str(out)]
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert abs(payload["t_count"]["total"] / 4.9e14 - 1) <= 0.15


# the whole message of the cases below that pin one
BAD_INPUT_ERRORS = {"dt-inf": "time step must be positive and finite, got inf"}


@pytest.mark.parametrize(
    "argv, config",
    [
        pytest.param(["simulate", "--preset", "paper-case-1", "--M", "3"], None,
                     id="simulate-preset-without-N"),
        pytest.param(["solve", "--preset", "paper-case-1", "--M", "3"], None,
                     id="solve-preset-without-N"),
        pytest.param(["solve", "--N", "3", "--M", "2", "--dt", "0"], None, id="dt-zero"),
        pytest.param(["solve", "--N", "4", "--M", "2", "--dt", "inf"], None, id="dt-inf"),
        pytest.param(["simulate", "--N", "1", "--M", "2"], None, id="one-bin"),
        pytest.param(["solve"], {"n_bins": 3, "steps": 2, "kernel": "table"},
                     id="table-kernel"),
        pytest.param(["solve"], {"n_bins": 3, "steps": 2, "k0": -1.0}, id="negative-k0"),
        pytest.param(["simulate"], {"n_bins": 3, "steps": 2, "mode": "bogus"},
                     id="unknown-mode"),
        pytest.param(["solve", "--N", "4", "--M", "-2"], None, id="solve-negative-M"),
        pytest.param(["simulate", "--N", "4", "--M", "-3"], None, id="simulate-negative-M"),
        pytest.param(["estimate", "--preset", "paper-case-2", "--bin", "0"], None,
                     id="estimate-bin-zero"),
        pytest.param(["estimate", "--preset", "paper-case-2", "--bin", "127"], None,
                     id="estimate-bin-past-N"),
        pytest.param(["emulate", "--n-eps", "24", "--eps", "0", "--d", "5", "--samples", "20"],
                     None, id="emulate-eps-zero"),
        pytest.param(["emulate", "--n-eps", "24", "--eps", "1e-12", "--d", "0", "--samples", "20"],
                     None, id="emulate-degree-zero"),
        *(
            pytest.param(["solve", "--N", "3", "--M", "2", flag, value], None, id=f"flag-{flag[2:]}")
            for flag, value in (("--t-end", "1.0"), ("--n-runs", "10"), ("--seed", "1"))
        ),
        *(
            pytest.param(["solve"], {"n_bins": 3, "steps": 2, key: value}, id=f"key-{key}")
            for key, value in (("t_end", 1.0), ("n_runs", 10), ("seed", 1))
        ),
        # config-file values get the flags' type and choice checks
        *(
            pytest.param([command], {**base, key: value}, id=f"file-{key}")
            for command, base, key, value in (
                ("estimate", {}, "preset", "bogus"),
                ("solve", {"steps": 2}, "n_bins", "4"),
                ("solve", {"n_bins": 3}, "steps", 2.5),
                ("solve", {"n_bins": 3, "steps": 2}, "dt", "0.01"),
                ("emulate", {"n_eps": 24}, "samples", "10"),
                ("estimate", {"preset": "paper-case-1"}, "bin_index", "2"),
                ("emulate", {"n_eps": 24, "samples": 10}, "include_gap", "no"),
                ("simulate", {"n_bins": 3, "steps": 2}, "check_master", "no"),
            )
        ),
        pytest.param(["solve"], {"n_bins": 3, "steps": 2, "dt": 10**400}, id="file-dt-past-float"),
        pytest.param(["solve"], {"n_bins": 3, "steps": 2, "dt": int(sys.float_info.max) + 1},
                     id="file-dt-one-past-float"),
    ],
)
def test_bad_inputs_exit_config(tmp_path, capsys, request, argv, config):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
    case_id = request.node.callspec.id
    err = capsys.readouterr().err
    if case_id.startswith("file-"):
        assert case_id.split("-")[1] in err
    if case_id in BAD_INPUT_ERRORS:
        assert err == f"error: {BAD_INPUT_ERRORS[case_id]}\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("bin_index", ["0", "41", "-1"])
def test_estimate_bad_bin_exits_config_and_writes_nothing(tmp_path, capsys, bin_index, fmt):
    # the report is computed before --out is created, so its bin check
    # refuses the run with nothing on disk
    out = tmp_path / "new" / "dir"
    argv = ["estimate", "--preset", "paper-case-1", "--bin", bin_index, "--format", fmt]
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: bin must lie in 1..40, got {bin_index}\n"
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize(
    "argv, out, message",
    [
        pytest.param(["emulate", "--n-eps", "24", "--d", "5", "--eps", "1e-12", "--samples", "0"],
                     "o1/y", "need samples >= 1, got 0", id="emulate-samples"),
        pytest.param(["emulate", "--n-eps", "24", "--eps", "0"], "o4/y", "need eps > 0, got 0.0",
                     id="emulate-eps"),
        pytest.param(["arcsine-fit", "--d", "0", "--eps", "1e-12"], "o2/y",
                     "need degree >= 1, got 0", id="arcsine-fit-degree"),
        pytest.param(["arcsine-fit", "--d", "5", "--eps", "0", "--n-eps", "30"], "o3",
                     "need eps > 0, got 0.0", id="arcsine-fit-eps"),
        pytest.param(["emulate", "--n-eps", "0", "--samples", "10"], "o5/y",
                     "need width >= 1, got 0", id="emulate-n-eps-zero"),
        pytest.param(["emulate", "--n-eps", "-3", "--samples", "10"], "o6/y",
                     "need width >= 1, got -3", id="emulate-n-eps-negative"),
        pytest.param(["arcsine-fit", "--d", "5", "--eps", "1e-6", "--n-eps", "-3"], "o7",
                     "need width >= 1, got -3", id="arcsine-fit-n-eps-negative"),
        pytest.param(["arcsine-fit", "--d", "5", "--eps", "1e-6", "--n-eps", "0"], "o8",
                     "need width >= 1, got 0", id="arcsine-fit-n-eps-zero"),
        pytest.param(["emulate", "--n-eps", "24", "--samples", "-2"], "o10/y",
                     "need samples >= 1, got -2", id="emulate-samples-negative"),
        *(
            pytest.param(["estimate", "--preset", "paper-case-1", flag, value], "o9/y",
                         f"need {name} >= 1, got {value}", id=f"estimate-{name}{value}")
            for flag, name, value in (("--d", "degree", "0"), ("--d", "degree", "-2"),
                                      ("--M-eps", "pieces", "0"), ("--M-eps", "pieces", "-3"),
                                      ("--n-eps", "n_eps", "0"), ("--n-eps", "n_eps", "-3"))
        ),
    ],
)
def test_refused_input_creates_nothing(tmp_path, capsys, monkeypatch, request, argv, out, message):
    def fit(*args, **kwargs):
        raise AssertionError("the arcsine table was fitted before the refusal")

    if request.node.callspec.id.startswith("arcsine-fit-n-eps"):
        monkeypatch.setattr(arcsine, "min_pieces", fit)
    assert main(argv + ["--out", str(tmp_path / out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["arcsine-fit", "--d", "5", "--eps", "nan"],
        ["emulate", "--d", "5", "--eps", "nan", "--n-eps", "42", "--samples", "10"],
    ],
    ids=["arcsine-fit", "emulate"],
)
def test_nan_eps_is_refused_before_any_fit(tmp_path, capsys, monkeypatch, argv):
    def fit(*args, **kwargs):
        raise AssertionError("a fit ran before the refusal")

    monkeypatch.setattr(arcsine, "chebyshev_fit", fit)
    monkeypatch.setattr(arcsine, "_fit_is_doomed", fit)
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: need eps > 0, got nan\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["--n-eps", "0", "--samples", "10"], "need width >= 1, got 0", id="width"),
        pytest.param(["--n-eps", "42", "--samples", "0"], "need samples >= 1, got 0", id="samples"),
    ],
)
def test_emulate_refuses_before_any_fit(tmp_path, capsys, monkeypatch, argv, message):
    def fit(*args, **kwargs):
        raise AssertionError("the arcsine tables were fitted before the refusal")

    monkeypatch.setattr(arcsine, "min_pieces", fit)
    monkeypatch.setattr(fixedpoint, "min_pieces", fit)
    assert main(["emulate", *argv, "--out", str(tmp_path / "o" / "y")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["solve", "--N", "3", "--M", "2"], id="solve"),
        pytest.param(["solve", "--N", "3", "--M", "2", "--format", "csv"], id="solve-csv"),
        pytest.param(["simulate", "--N", "3", "--M", "2", "--mode", "tree"], id="simulate-tree"),
        pytest.param(["arcsine-fit", "--d", "7", "--eps", "1e-13", "--n-eps", "42"],
                     id="arcsine-fit-coefficients"),
        pytest.param(["reproduce-tables"], id="reproduce-tables"),
    ],
)
def test_out_file_for_several_outputs_exits_config(tmp_path, capsys, monkeypatch, argv):
    def work(*args, **kwargs):
        raise AssertionError("the run or fit started before the --out refusal")

    for module, name in ((master, "evolve_series"), (division, "run_tree"),
                         (arcsine, "min_pieces")):
        monkeypatch.setattr(module, name, work)
    assert main(argv + ["--out", str(tmp_path / "r.csv")]) == EXIT_CONFIG
    assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # refused before anything is written


@pytest.mark.parametrize(
    "argv, name",
    [
        pytest.param(["estimate", "--preset", "paper-case-1", "--format", "csv"], "r.csv",
                     id="estimate-csv"),
        pytest.param(["estimate", "--preset", "paper-case-1"], "r.json", id="estimate-json"),
        pytest.param(["simulate", "--N", "3", "--M", "2"], "r.csv", id="simulate-merged"),
        pytest.param(["emulate", "--n-eps", "24", "--samples", "20"], "r.csv", id="emulate"),
    ],
)
def test_out_file_creates_missing_directories(tmp_path, argv, name):
    out = tmp_path / "missing" / "deeper" / name
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert [p.name for p in out.parent.iterdir()] == [name]


@pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
def test_out_with_a_trailing_separator_is_a_directory(tmp_path, capsys, exists):
    # a suffix names one file only when no separator follows it
    merged, tree = ["simulate", "--N", "3", "--M", "2"], ["--mode", "tree"]
    out = tmp_path / "x.y"
    if exists:
        out.mkdir()
    assert main(merged + ["--out", f"{out}{os.sep}"]) == EXIT_OK
    assert [p.name for p in out.iterdir()] == ["division_probabilities.csv"]
    one = tmp_path / "a.b"
    assert main(merged + ["--out", str(one)]) == EXIT_OK
    assert one.read_text() == (out / "division_probabilities.csv").read_text()
    assert main(merged + tree + ["--out", f"{out}{os.sep}"]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["branches.csv", "division_probabilities.csv"]
    capsys.readouterr()
    file = tmp_path / "t.y"
    assert main(merged + tree + ["--out", str(file)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: --out {file} names one file, but simulate writes 2 "
        "(division_probabilities.csv, branches.csv); give a directory\n")
    assert not file.exists()


def _setting(option):
    """One non-default setting of ``option``: flag arguments, JSON value, parsed value."""
    flag = option.metadata["flag"]
    if option.metadata["choices"]:
        value = option.metadata["choices"][-1]
        return [flag, value], value, value
    kind = option.type.split(" |")[0]
    if kind == "bool":
        return [flag], True, True
    if kind == "float":
        return [flag, "2"], 2, 2.0  # a JSON integer is taken for a float option
    if kind == "int":
        return [flag, "3"], 3, 3
    return [flag, "x.csv"], "x.csv", "x.csv"


@pytest.mark.parametrize(
    "option", [f for f in dataclasses.fields(RunConfig) if f.metadata], ids=lambda f: f.name
)
def test_flag_and_config_key_agree(tmp_path, option):
    args, value, parsed = _setting(option)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({option.name: value}))
    from_flag = parse_config(["reproduce-tables", *args])
    from_file = parse_config(["reproduce-tables", "--config", str(path)])
    assert from_flag == from_file
    got = getattr(from_file, option.name)
    assert got == parsed and type(got) is type(parsed)


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_ok(capsys, argv):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: cloudq")


@pytest.mark.parametrize(
    "argv, code, message",
    [
        pytest.param(["solve", "--N", "30", "--M", "5", "--dt", "1.0"], EXIT_STEP_SIZE,
                     "sum of transition probabilities 435.0 > 1 for state "
                     f"({', '.join(['30'] + ['0'] * 29)}); reduce dt", id="solve-step-size"),
        pytest.param(["simulate", "--N", "20", "--M", "9", "--dt", "0.001", "--mode", "tree"],
                     EXIT_RESOURCE_LIMIT,
                     "tree would exceed 500000 branches at step 9; use merged mode",
                     id="simulate-branch-cap"),
    ],
)
def test_refused_run_creates_no_out(tmp_path, capsys, argv, code, message):
    assert main(argv + ["--out", str(tmp_path / "d")]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_commands_load_their_modules_where_they_run(tmp_path):
    # in a fresh interpreter, importing the CLI and running estimate load no
    # solver, division, fit or width module; a refusal raised before its
    # command loaded the fit and width modules still exits 2 with its line
    probe = """
import sys
from cloudq import cli
modules = {"cloudq.arcsine", "cloudq.division", "cloudq.fixedpoint", "cloudq.master"}
print(sorted(modules & set(sys.modules)))
assert cli.main(["estimate", "--preset", "paper-case-1", "--out", sys.argv[1] + "/est/"]) == 0
print(sorted(modules & set(sys.modules)))
print(cli.main(["estimate", "--preset", "paper-case-1", "--n-eps", "0"]))
print(cli.main(["arcsine-fit", "--d", "5", "--eps", "nan"]))
print(cli.main(["emulate", "--n-eps", "0"]))
"""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    done = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n[]\n2\n2\n2\n"
    assert done.stderr == ("error: need n_eps >= 1, got 0\nerror: need eps > 0, got nan\n"
                           "error: need width >= 1, got 0\n")


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(None, "cannot read config {path}: [Errno 2] No such file or directory: "
                     "'{path}'", id="missing"),
        pytest.param("{", "cannot read config {path}: Expecting property name enclosed in "
                     "double quotes: line 1 column 2 (char 1)", id="not-json"),
        pytest.param("[1, 2]", "config file must hold a JSON object", id="list"),
        pytest.param('"solve"', "config file must hold a JSON object", id="string"),
    ],
)
def test_unreadable_config_exits_config(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert main(["solve", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


def test_estimate_without_out_prints_the_report(capsys):
    assert main(["estimate", "--preset", "paper-case-1"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    report = resources.estimate_case(PRESET_CASES["paper-case-1"])
    assert payload["t_count"]["total"] == report.total.t_count
    assert payload["qubits"]["total"] == report.qubits.total


def test_estimate_collapsed_oracle_bound_exits_config(tmp_path, capsys):
    code = main(["estimate", "--preset", "paper-case-1", "--eps-estimation", "0.78",
                 "--delta", "0.5", "--out", str(tmp_path / "d")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "error: oracle iteration bound collapsed to zero\n"
    assert list(tmp_path.iterdir()) == []


def test_solve_without_out_writes_into_the_working_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--N", "4", "--M", "3"]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "expected_counts.csv", "probabilities.csv"
    ]
    assert json.loads(capsys.readouterr().out)["command"] == "solve"


def test_simulate_check_master_mismatch_exits_mismatch(tmp_path, capsys, monkeypatch):
    run_merged = division.run_merged

    def perturbed(table, steps):
        entries = dict(run_merged(table, steps).entries)
        first = next(iter(entries))
        entries[first] += 2e-12
        return master.ProbabilityTable(entries, steps)

    monkeypatch.setattr(division, "run_merged", perturbed)
    code = main(["simulate", "--N", "3", "--M", "5", "--dt", "0.02", "--check-master",
                 "--out", str(tmp_path)])
    assert code == EXIT_MISMATCH
    assert capsys.readouterr().out.startswith("max |division - solver| = 2.")


def test_reproduce_tables_below_the_exact_minimum_fails(capsys, monkeypatch):
    assert main(["reproduce-tables"]) == EXIT_OK
    exact, asserted = map(int, re.search(
        r"PASS arcsine exact matches (\d+)/(\d+)", capsys.readouterr().out).groups())
    monkeypatch.setattr(cli, "ARCSINE_EXACT_MINIMUM", exact + 1)
    assert main(["reproduce-tables"]) == EXIT_MISMATCH
    assert (f"FAIL arcsine exact matches {exact}/{asserted} < {exact + 1}"
            in capsys.readouterr().out.splitlines())
