"""Batch front-end: parse a run configuration, dispatch, emit reports.

Commands: ``solve`` (reference evolution), ``simulate`` (division
dynamics, optionally checked against the solver), ``emulate``
(fixed-point error sweep), ``arcsine-fit``, ``estimate`` (resource
report), and ``reproduce-tables`` (regression diff against the bundled
expected values).  Exit codes: 0 success, 2 configuration, 3 step-size
precondition, 4 resource limit, 5 failed comparison, 1 unexpected.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import arcsine, division, fixedpoint, master, resources, states
from .presets import (
    ARCSINE_EXACT_MINIMUM,
    ARCSINE_NOISE_ROW,
    ARCSINE_PIECE_SLACK,
    EXPECTED_RESOURCES,
    PIECEWISE_ARCSINE_TABLE,
    PRESET_CASES,
    RESOURCE_BANDS,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STEP_SIZE = 3
EXIT_RESOURCE_LIMIT = 4
EXIT_MISMATCH = 5

_ARCSINE_TABLE_HEADER = ["eps", "d", "M", "max_error"]

COMMANDS = ("solve", "simulate", "emulate", "arcsine-fit", "estimate", "reproduce-tables")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass
class RunConfig:
    command: str
    preset: str | None = None
    n_bins: int | None = None
    steps: int | None = None
    dt: float | None = None
    kernel: str = "constant"
    k0: float = 1.0
    n_eps: int | None = None
    degree: int | None = None
    pieces: int | None = None
    eps: float | None = None
    eps_rotation: float | None = None
    eps_estimation: float | None = None
    eps_c: float | None = None
    delta: float = 0.01
    samples: int = 10000
    include_gap: bool = False
    mode: str = "merged"
    check_master: bool = False
    bin_index: int = 1
    t_end: float | None = None
    n_runs: int = 1000
    seed: int = 0
    out: str | None = None
    format: str = "json"


_CONFIG_KEYS = {f.name for f in dataclasses.fields(RunConfig)}


def worker_count() -> int:
    """Worker cap from CLOUDQ_THREADS, defaulting to a small pool."""
    raw = os.environ.get("CLOUDQ_THREADS", "")
    try:
        cap = int(raw) if raw else 4
    except ValueError as exc:
        raise ConfigError(f"CLOUDQ_THREADS must be an integer, got {raw!r}") from exc
    return max(1, min(cap, os.cpu_count() or 1))


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Build a validated RunConfig from CLI flags or a JSON file."""
    parser = argparse.ArgumentParser(prog="cloudq", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=Path, help="JSON file with RunConfig keys")
    parser.add_argument("--preset", choices=sorted(PRESET_CASES))
    parser.add_argument("--N", dest="n_bins", type=int)
    parser.add_argument("--M", dest="steps", type=int)
    parser.add_argument("--dt", type=float)
    parser.add_argument("--kernel", choices=("constant", "sum", "product"))
    parser.add_argument("--k0", type=float)
    parser.add_argument("--n-eps", dest="n_eps", type=int)
    parser.add_argument("--d", dest="degree", type=int)
    parser.add_argument("--M-eps", dest="pieces", type=int)
    parser.add_argument("--eps", type=float)
    parser.add_argument("--eps-rotation", dest="eps_rotation", type=float)
    parser.add_argument("--eps-estimation", dest="eps_estimation", type=float)
    parser.add_argument("--eps-c", dest="eps_c", type=float)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--samples", type=int)
    parser.add_argument("--include-gap", dest="include_gap", action="store_true", default=None)
    parser.add_argument("--mode", choices=("merged", "tree"))
    parser.add_argument("--check-master", dest="check_master", action="store_true", default=None)
    parser.add_argument("--bin", dest="bin_index", type=int)
    parser.add_argument("--t-end", dest="t_end", type=float)
    parser.add_argument("--n-runs", dest="n_runs", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", type=str)
    parser.add_argument("--format", choices=("json", "csv"))
    ns = parser.parse_args(argv)

    merged: dict = {"command": ns.command}
    if ns.config is not None:
        try:
            raw = json.loads(ns.config.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {ns.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(raw)
    for key, value in vars(ns).items():
        if key in ("config",) or value is None:
            continue
        merged[key] = value
    config = RunConfig(**merged)
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.command not in COMMANDS:
        raise ConfigError(f"unknown command {config.command!r}")
    if config.command in ("solve", "simulate"):
        if config.preset is None and config.n_bins is None:
            raise ConfigError("solve/simulate need --N (number of bins)")
        if config.steps is None:
            raise ConfigError("solve/simulate need --M (number of steps)")
    if config.command == "arcsine-fit":
        if config.degree is None or config.eps is None:
            raise ConfigError("arcsine-fit needs --d and --eps")
    if config.command == "emulate":
        if config.n_eps is None:
            raise ConfigError("emulate needs --n-eps")
    if config.command == "estimate" and config.preset is None:
        required = ("n_bins", "steps", "n_eps", "degree", "pieces",
                    "eps_rotation", "eps_estimation", "eps_c")
        missing = [name for name in required if getattr(config, name) is None]
        if missing:
            raise ConfigError(f"estimate needs a preset or explicit {missing}")
    if config.format not in ("json", "csv"):
        raise ConfigError(f"unknown format {config.format!r}")


def _case_from_config(config: RunConfig) -> resources.EstimationCase:
    if config.preset is not None:
        base = PRESET_CASES[config.preset]
        overrides = {}
        for attr, field_name in (
            ("n_bins", "n_bins"), ("steps", "time_steps"), ("n_eps", "n_eps"),
            ("degree", "degree"), ("pieces", "pieces"),
            ("eps_rotation", "eps_rotation"), ("eps_estimation", "eps_estimation"),
            ("eps_c", "eps_c"),
        ):
            value = getattr(config, attr)
            if value is not None:
                overrides[field_name] = value
        if config.delta != 0.01:
            overrides["delta"] = config.delta
        return dataclasses.replace(base, **overrides) if overrides else base
    return resources.EstimationCase(
        n_bins=config.n_bins, time_steps=config.steps, n_eps=config.n_eps,
        degree=config.degree, pieces=config.pieces,
        eps_rotation=config.eps_rotation, eps_estimation=config.eps_estimation,
        eps_c=config.eps_c, delta=config.delta,
    )


def _kernel_from_config(config: RunConfig) -> states.KernelSpec:
    return states.KernelSpec(kind=config.kernel, k0=config.k0)


def _emit_json(payload: dict, out: str | None) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload,
               "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _out_path(config: RunConfig, suffix: str) -> str:
    if config.out is None:
        return suffix
    path = Path(config.out)
    if path.suffix:  # explicit file
        return str(path)
    path.mkdir(parents=True, exist_ok=True)
    return str(path / suffix)


def _cmd_solve(config: RunConfig) -> int:
    table = states.build_transition_table(
        config.n_bins, _kernel_from_config(config), config.dt or 0.01
    )
    start = master.ProbabilityTable.point_mass(
        states.MassDistribution.monodisperse(config.n_bins)
    )
    series = master.evolve_series(start, table, config.steps)
    master.write_expected_series(series, _out_path(config, "expected_counts.csv"))
    master.write_probability_series(series, _out_path(config, "probabilities.csv"))
    final = series[-1]
    if config.format == "json":
        _emit_json(
            {
                "command": "solve",
                "n_bins": config.n_bins,
                "steps": config.steps,
                "dt": table.dt,
                "total_probability": final.total(),
                "expected_counts": [
                    master.expected_count(final, i) for i in range(1, config.n_bins + 1)
                ],
            },
            _out_path(config, "solve.json") if config.out else None,
        )
    return EXIT_OK


def _cmd_simulate(config: RunConfig) -> int:
    table = states.build_transition_table(
        config.n_bins, _kernel_from_config(config), config.dt or 0.01
    )
    if config.mode == "tree":
        branches = division.run_tree(table, config.steps)
        master.write_csv(
            _out_path(config, "branches.csv"),
            ["history", "state_id", "probability"],
            (
                ("|".join(str(h) for h in branch.history),
                 master.state_id(branch.state), branch.prob)
                for branch in sorted(branches, key=lambda b: b.history)
            ),
        )
        merged = division.merge_branches(branches, config.steps)
    else:
        merged = division.run_merged(table, config.steps)
    master.write_probability_series([merged], _out_path(config, "division_probabilities.csv"))
    if config.check_master:
        start = master.ProbabilityTable.point_mass(
            states.MassDistribution.monodisperse(config.n_bins)
        )
        reference = master.evolve(start, table, config.steps)
        worst = 0.0
        for state in set(merged.entries) | set(reference.entries):
            worst = max(
                worst,
                abs(merged.entries.get(state, 0.0) - reference.entries.get(state, 0.0)),
            )
        print(f"max |division - solver| = {worst:.3e}")
        if worst > 1e-12:
            return EXIT_MISMATCH
    return EXIT_OK


def _cmd_emulate(config: RunConfig) -> int:
    degree = config.degree or 5
    eps = config.eps or 1e-12
    table = fixedpoint.build_quantized_arcsine(
        degree, eps, config.n_eps, extended=True
    )
    report = fixedpoint.estimate_eps_calculation(
        config.n_eps, table, samples=config.samples, include_gap=config.include_gap
    )
    master.write_csv(
        _out_path(config, "sweep.csv"),
        ["n_eps", "eps_arcsin", "max_error", "mean_error", "samples"],
        [(report.width, report.eps_arcsin, report.max_error, report.mean_error,
          report.samples)],
    )
    print(
        f"n_eps={report.width} eps_arcsin={report.eps_arcsin:g} "
        f"max_error={report.max_error:.3e} mean_error={report.mean_error:.3e}"
    )
    return EXIT_OK


def _cmd_arcsine_fit(config: RunConfig) -> int:
    pp = arcsine.min_pieces(config.degree, config.eps)
    verified = arcsine.verify(pp, grid_factor=2)
    print(f"d={config.degree} eps={config.eps:g}: M={pp.piece_count} "
          f"(max grid error {pp.max_recorded_error():.3e}, verified {verified:.3e})")
    rows = [(config.eps, config.degree, pp.piece_count, pp.max_recorded_error())]
    master.write_csv(_out_path(config, "arcsine_table.csv"), _ARCSINE_TABLE_HEADER, rows)
    if config.n_eps:
        quantized = fixedpoint.quantize_arcsine(pp, config.n_eps)
        payload = {
            "command": "arcsine-fit",
            "degree": config.degree,
            "eps": config.eps,
            "pieces": [
                {
                    "lower_bits": p.lower_bits,
                    "upper_bits": p.upper_bits,
                    "t_shift": p.t_shift,
                    "biased_constant": p.biased_constant,
                    "consts": list(p.consts),
                }
                for p in quantized.pieces
            ],
            "width": config.n_eps,
        }
        _emit_json(payload, _out_path(config, "arcsine_coefficients.json"))
    return EXIT_OK


def _cmd_estimate(config: RunConfig) -> int:
    case = _case_from_config(config)
    report = resources.estimate_case(case, bin_index=config.bin_index)
    if config.format == "csv":
        master.write_csv(
            _out_path(config, "resources.csv"),
            ["case", "eps_max", "t_count", "t_depth", "logical_qubits"],
            [(config.preset or "custom", report.eps_max, report.total.t_count,
              report.total.t_depth, report.qubits.total)],
        )
    else:
        _emit_json(report.to_json_dict(), config.out)
    return EXIT_OK


def _within(value: float, target: float, band: float) -> bool:
    return abs(value / target - 1) <= band


def _arcsine_row(row: tuple[float, int, int]) -> tuple[float, int, int, int, float]:
    eps, degree, expected = row
    pp = arcsine.min_pieces(degree, eps)
    return eps, degree, expected, pp.piece_count, pp.max_recorded_error()


def _cmd_reproduce_tables(config: RunConfig) -> int:
    failures = 0
    lines = []
    for name, case in PRESET_CASES.items():
        report = resources.estimate_case(case)
        eps_max, t_count, t_depth, qubits = EXPECTED_RESOURCES[name]
        cells = [
            ("eps_max", report.eps_max, eps_max, RESOURCE_BANDS["eps_max"]),
            ("t_count", float(report.total.t_count), t_count, RESOURCE_BANDS["t_count"]),
            ("t_depth", float(report.total.t_depth), t_depth, RESOURCE_BANDS["t_depth"]),
            ("logical_qubits", float(report.qubits.total), qubits, RESOURCE_BANDS["logical_qubits"]),
        ]
        for label, got, want, band in cells:
            ok = _within(got, want, band)
            failures += not ok
            lines.append(
                f"{'PASS' if ok else 'FAIL'} {name} {label}: {got:.3g} vs {want:.3g} "
                f"(band +/-{band:.0%})"
            )
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        results = list(pool.map(_arcsine_row, PIECEWISE_ARCSINE_TABLE))
    exact = 0
    asserted = 0
    table_rows = []
    for eps, degree, expected, got, err in results:
        noise_row = (eps, degree) == ARCSINE_NOISE_ROW
        table_rows.append((eps, degree, got, err))
        if noise_row:
            lines.append(
                f"INFO arcsine d={degree} eps={eps:g}: M={got} vs {expected} "
                "(noise-floor row, not asserted)"
            )
            continue
        asserted += 1
        exact += got == expected
        ok = abs(got - expected) <= ARCSINE_PIECE_SLACK
        failures += not ok
        lines.append(
            f"{'PASS' if ok else 'FAIL'} arcsine d={degree} eps={eps:g}: "
            f"M={got} vs {expected}"
        )
    if exact < ARCSINE_EXACT_MINIMUM:
        failures += 1
        lines.append(f"FAIL arcsine exact matches {exact}/{asserted} < {ARCSINE_EXACT_MINIMUM}")
    else:
        lines.append(f"PASS arcsine exact matches {exact}/{asserted}")
    print("\n".join(lines))
    if config.out:
        master.write_csv(
            _out_path(config, "arcsine_table.csv"), _ARCSINE_TABLE_HEADER, table_rows
        )
        Path(_out_path(config, "table_diff.txt")).write_text("\n".join(lines) + "\n")
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


_DISPATCH = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "emulate": _cmd_emulate,
    "arcsine-fit": _cmd_arcsine_fit,
    "estimate": _cmd_estimate,
    "reproduce-tables": _cmd_reproduce_tables,
}


def run(config: RunConfig) -> int:
    """Dispatch a validated configuration; returns the exit status."""
    try:
        return _DISPATCH[config.command](config)
    except (ConfigError, resources.ResourceModelError, arcsine.FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except master.StepSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STEP_SIZE
    except (states.ResourceLimitError, division.BranchCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_config(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
