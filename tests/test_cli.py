import json

import pytest

from cloudq import division, fixedpoint, states
from cloudq.cli import (
    EXIT_CONFIG,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_STEP_SIZE,
    ConfigError,
    main,
    parse_config,
    run,
    worker_count,
)
from cloudq.presets import PRESET_CASES
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
    table = fixedpoint.build_quantized_arcsine(5, 1e-12, 42, extended=True)
    report = fixedpoint.estimate_eps_calculation(42, table, samples=100)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "n_eps,eps_arcsin,max_error,mean_error,samples"
    assert lines[1] == (
        f"42,{report.eps_arcsin!r},{report.max_error!r},{report.mean_error!r},100"
    )


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


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("CLOUDQ_THREADS", "2")
    assert worker_count() == 2
    monkeypatch.setenv("CLOUDQ_THREADS", "zebra")
    with pytest.raises(ConfigError):
        worker_count()
    monkeypatch.delenv("CLOUDQ_THREADS")
    assert worker_count() >= 1
