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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, get_args, get_type_hints

from . import resources, states
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


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _option(flag: str, default=None, choices: tuple | None = None):
    """A ``RunConfig`` option: its flag, default and allowed values."""
    return dataclasses.field(default=default, metadata={"flag": flag, "choices": choices})


@dataclass
class RunConfig:
    """One run's settings.  Each option is declared here once; its type is
    the annotation, and :func:`parse_config` generates the flags from it."""

    command: str
    preset: str | None = _option("--preset", choices=tuple(sorted(PRESET_CASES)))
    n_bins: int | None = _option("--N")
    steps: int | None = _option("--M")
    dt: float = _option("--dt", 0.01)
    kernel: str = _option("--kernel", "constant", ("constant", "sum", "product"))
    k0: float = _option("--k0", 1.0)
    n_eps: int | None = _option("--n-eps")
    degree: int | None = _option("--d")
    pieces: int | None = _option("--M-eps")
    eps: float | None = _option("--eps")
    eps_rotation: float | None = _option("--eps-rotation")
    eps_estimation: float | None = _option("--eps-estimation")
    eps_c: float | None = _option("--eps-c")
    delta: float | None = _option("--delta")
    samples: int = _option("--samples", 10000)
    include_gap: bool = _option("--include-gap", False)
    mode: str = _option("--mode", "merged", ("merged", "tree"))
    check_master: bool = _option("--check-master", False)
    bin_index: int = _option("--bin", 1)
    out: str | None = _option("--out")
    format: str = _option("--format", "json", ("json", "csv"))


_OPTIONS = {f.name: f.metadata for f in dataclasses.fields(RunConfig) if f.metadata}
_TYPES = {  # the annotation without its ``None``
    name: next(t for t in get_args(hint) or (hint,) if t is not type(None))
    for name, hint in get_type_hints(RunConfig).items()
}


def _checked(name: str, value):
    """``value`` as option ``name`` holds it: a flag's or a config file's.

    A JSON integer in the float range is taken for a float option;
    anything else must have the option's type (a JSON bool is not an int)
    and lie in its choices.
    """
    kind = _TYPES[name]
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not kind:
        flag = _OPTIONS[name]["flag"]
        raise ConfigError(f"{name} ({flag}) must be {kind.__name__}, got {value!r}")
    choices = _OPTIONS[name]["choices"]
    if choices is not None and value not in choices:
        raise ConfigError(f"unknown {name} {value!r}")
    return value


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Build a validated RunConfig from CLI flags and a JSON file.

    Flags override file keys, and a ``null`` key counts as not given.
    Both go through :func:`_checked`; options still unset take the
    command's own default, then the field's.
    """
    parser = argparse.ArgumentParser(prog="cloudq", description=__doc__)
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", type=Path, help="JSON file with RunConfig keys")
    for name, option in _OPTIONS.items():
        if _TYPES[name] is bool:
            parser.add_argument(option["flag"], dest=name, action="store_true", default=None)
        else:
            parser.add_argument(option["flag"], dest=name, type=_TYPES[name],
                                choices=option["choices"])
    ns = parser.parse_args(argv)

    given: dict = {}
    if ns.config is not None:
        try:
            given = json.loads(ns.config.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {ns.config}: {exc}") from exc
        if not isinstance(given, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(given) - {"command", *_OPTIONS}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    given.update((name, value) for name, value in vars(ns).items() if value is not None)
    values = {name: _checked(name, given[name]) for name in _OPTIONS if given.get(name) is not None}
    command = _COMMANDS[ns.command]
    config = RunConfig(ns.command, **{**command.defaults, **values})
    missing = [name for name in command.needs if getattr(config, name) is None]
    if missing and not (command.preset_fills and config.preset is not None):
        raise ConfigError(
            f"{config.command} needs {'a preset or ' if command.preset_fills else ''}"
            + ", ".join(f"{_OPTIONS[name]['flag']} ({name})" for name in missing)
        )
    if config.steps is not None and config.steps < 0:
        raise ConfigError(f"--M must be >= 0, got {config.steps}")
    return config


def _case_from_config(config: RunConfig) -> resources.EstimationCase:
    """The preset's case, or none, with every given option laid over it.

    ``RunConfig`` has no ``eps_calculation``: it keeps the preset's value
    or the case default.
    """
    fields = dataclasses.asdict(PRESET_CASES[config.preset]) if config.preset else {}
    for field in dataclasses.fields(resources.EstimationCase):
        value = getattr(config, "steps" if field.name == "time_steps" else field.name, None)
        if value is not None:
            fields[field.name] = value
    return resources.EstimationCase(**fields)


def _table_from_config(config: RunConfig) -> states.TransitionTable:
    return states.build_transition_table(
        config.n_bins, states.KernelSpec(kind=config.kernel, k0=config.k0), config.dt
    )


def _emit_json(payload: dict, out: str | None) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload,
               "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _out_paths(config: RunConfig, *names: str) -> list[str]:
    """Where each output goes: into the ``--out`` directory, or to ``--out``
    itself if it has a suffix, no trailing separator, and there is one
    output.  Creates nothing, so call it before the run; :func:`_made`
    creates the directories after it."""
    if config.out is None:
        return list(names)
    path = Path(config.out)
    one_file = bool(path.suffix) and not config.out.endswith(("/", os.sep))
    if one_file and len(names) > 1:
        raise ConfigError(
            f"--out {config.out} names one file, but {config.command} writes "
            f"{len(names)} ({', '.join(names)}); give a directory"
        )
    return [str(path)] if one_file else [str(path / name) for name in names]


def _made(paths: list[str]) -> list[str]:
    """``paths``, their directories created: call it once the run has succeeded."""
    for path in paths:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    return paths


def _cmd_solve(config: RunConfig) -> int:
    from . import master

    table = _table_from_config(config)
    start = master.ProbabilityTable.point_mass(
        states.MassDistribution.monodisperse(config.n_bins)
    )
    paths = _out_paths(
        config, "expected_counts.csv", "probabilities.csv",
        *(["solve.json"] if config.format == "json" and config.out else []),
    )
    series = master.evolve_series(start, table, config.steps)
    _made(paths)
    master.write_expected_series(series, paths[0])
    master.write_probability_series(series, paths[1])
    final = series[-1]
    if config.format == "json":
        _emit_json(
            {
                "command": "solve",
                "n_bins": config.n_bins,
                "steps": config.steps,
                "dt": table.dt,
                "total_probability": final.total(),
                "expected_counts": master.expected_counts(final),
            },
            paths[2] if config.out else None,
        )
    return EXIT_OK


def _cmd_simulate(config: RunConfig) -> int:
    from . import division, master

    table = _table_from_config(config)
    if config.mode == "tree":
        paths = _out_paths(config, "division_probabilities.csv", "branches.csv")
        branches = sorted(division.run_tree(table, config.steps), key=lambda b: b.history)
        merged = division.merge_branches(branches, config.steps)
        _made(paths)
        master.write_csv(paths[1], ["history", "state_id", "probability"], [[
            ["|".join(map(str, branch.history)) for branch in branches],
            master.state_ids([branch.state.counts for branch in branches]),
            [branch.prob for branch in branches],
        ]])
    else:
        paths = _out_paths(config, "division_probabilities.csv")
        merged = division.run_merged(table, config.steps)
        _made(paths)
    master.write_probability_series([merged], paths[0])
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
        if worst > master.MERGED_TOL:
            return EXIT_MISMATCH
    return EXIT_OK


def _cmd_emulate(config: RunConfig) -> int:
    from . import fixedpoint, master

    # before the fits
    states.require_count("samples", config.samples, 1, fixedpoint.FixedPointError)
    table = fixedpoint.build_quantized_arcsine(config.degree, config.eps, config.n_eps)
    report = fixedpoint.estimate_eps_calculation(
        config.n_eps, table, samples=config.samples, include_gap=config.include_gap
    )
    [path] = _made(_out_paths(config, "sweep.csv"))
    master.write_csv(
        path,
        ["n_eps", "eps_arcsin", "max_error", "mean_error", "samples"],
        [[[report.width], [report.eps_arcsin], [report.max_error], [report.mean_error],
          [report.samples]]],
    )
    print(
        f"n_eps={report.width} eps_arcsin={report.eps_arcsin:g} "
        f"max_error={report.max_error:.3e} mean_error={report.mean_error:.3e}"
    )
    return EXIT_OK


def _cmd_arcsine_fit(config: RunConfig) -> int:
    from . import arcsine, fixedpoint, master

    paths = _out_paths(config, "arcsine_table.csv",
                       *([] if config.n_eps is None else ["arcsine_coefficients.json"]))
    if config.n_eps is not None:
        # before the fit
        states.require_count("width", config.n_eps, 1, fixedpoint.FixedPointError)
    pp = arcsine.min_pieces(config.degree, config.eps)
    quantized = None if config.n_eps is None else fixedpoint.quantize_arcsine(pp, config.n_eps)
    verified = arcsine.verify(pp, grid_factor=2)
    print(f"d={config.degree} eps={config.eps:g}: M={pp.piece_count} "
          f"(max grid error {pp.max_recorded_error():.3e}, verified {verified:.3e})")
    row = [[config.eps], [config.degree], [pp.piece_count], [pp.max_recorded_error()]]
    master.write_csv(_made(paths)[0], _ARCSINE_TABLE_HEADER, [row])
    if quantized is not None:
        payload = {
            "command": "arcsine-fit",
            "degree": config.degree,
            "eps": config.eps,
            "pieces": [dataclasses.asdict(p) for p in quantized.pieces],
            "width": config.n_eps,
        }
        _emit_json(payload, paths[1])
    return EXIT_OK


def _cmd_estimate(config: RunConfig) -> int:
    report = resources.estimate_case(_case_from_config(config), bin_index=config.bin_index)
    [path] = _made(_out_paths(config, f"resources.{config.format}"))
    if config.format == "csv":
        from . import master

        master.write_csv(
            path,
            ["case", "eps_max", "t_count", "t_depth", "logical_qubits"],
            [[[config.preset or "custom"], [report.eps_max], [report.total.t_count],
              [report.total.t_depth], [report.qubits.total]]],
        )
    else:
        _emit_json(report.to_json_dict(), path if config.out else None)
    return EXIT_OK


def _cmd_reproduce_tables(config: RunConfig) -> int:
    from . import arcsine, master

    paths = _out_paths(config, "arcsine_table.csv", "table_diff.txt")
    failures = 0
    lines = []
    for name, case in PRESET_CASES.items():
        report = resources.estimate_case(case)
        cells = zip(
            ("eps_max", "t_count", "t_depth", "logical_qubits"),
            (report.eps_max, report.total.t_count, report.total.t_depth, report.qubits.total),
            EXPECTED_RESOURCES[name],
        )
        for label, got, want in cells:
            band = RESOURCE_BANDS[label]
            ok = abs(got / want - 1) <= band
            failures += not ok
            lines.append(
                f"{'PASS' if ok else 'FAIL'} {name} {label}: {got:.3g} vs {want:.3g} "
                f"(band +/-{band:.0%})"
            )
    exact = 0
    asserted = 0
    table_rows = []
    for eps, degree, expected in PIECEWISE_ARCSINE_TABLE:
        pp = arcsine.min_pieces(degree, eps)
        got = pp.piece_count
        table_rows.append((eps, degree, got, pp.max_recorded_error()))
        if (eps, degree) == ARCSINE_NOISE_ROW:
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
        table_path, diff_path = _made(paths)
        master.write_csv(table_path, _ARCSINE_TABLE_HEADER, [list(zip(*table_rows))])
        Path(diff_path).write_text("\n".join(lines) + "\n")
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


class _Command(NamedTuple):
    """A command's entry point, the options it needs and its own defaults.

    ``preset_fills``: a ``--preset`` supplies every needed option.
    """

    run: Callable[[RunConfig], int]
    needs: tuple[str, ...] = ()
    defaults: dict = {}
    preset_fills: bool = False


_COMMANDS = {
    "solve": _Command(_cmd_solve, ("n_bins", "steps")),
    "simulate": _Command(_cmd_simulate, ("n_bins", "steps")),
    "emulate": _Command(_cmd_emulate, ("n_eps",), {"degree": 5, "eps": 1e-12}),
    "arcsine-fit": _Command(_cmd_arcsine_fit, ("degree", "eps")),
    "estimate": _Command(
        _cmd_estimate,
        ("n_bins", "steps", "n_eps", "degree", "pieces", "eps_rotation", "eps_estimation", "eps_c"),
        preset_fills=True,
    ),
    "reproduce-tables": _Command(_cmd_reproduce_tables),
}


def _refused(exc: Exception) -> int:
    """Print a refusal; its exit status is 3 for a step size, 4 for a cap, else 2."""
    print(f"error: {exc}", file=sys.stderr)
    if isinstance(exc, states.StepSizeError):
        return EXIT_STEP_SIZE
    return EXIT_RESOURCE_LIMIT if isinstance(exc, states.ResourceLimitError) else EXIT_CONFIG


def _refusals() -> tuple[type[Exception], ...]:
    """The errors :func:`run` reports as refusals.  An except clause calls
    it only once a command has raised, so importing the CLI loads neither
    the fit nor the width module."""
    from . import arcsine, fixedpoint

    return (ConfigError, resources.ResourceModelError, arcsine.FitError,
            fixedpoint.FixedPointError, states.StateSpaceError)


def run(config: RunConfig) -> int:
    """Dispatch a validated configuration; returns the exit status."""
    try:
        return _COMMANDS[config.command].run(config)
    except _refusals() as exc:
        return _refused(exc)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(parse_config(argv))
    except ConfigError as exc:  # parse_config's: run reports its own
        return _refused(exc)
    except SystemExit as exc:  # argparse: 2 on a bad flag or choice, 0 on --help
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
