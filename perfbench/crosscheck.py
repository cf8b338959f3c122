"""Untimed set-up check that the ``cloudq`` command line agrees with the API.

One input per workload goes through ``cloudq.cli.main`` into a scratch
directory, and the numbers the command prints or writes are compared with
the API calls the benchmark times on the same input.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from fractions import Fraction

from cloudq import arcsine, cli, division, fixedpoint, master, resources, states
from cloudq.presets import EXPECTED_RESOURCES, PRESET_CASES, RESOURCE_BANDS

import workloads


def _cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def _csv_rows(path: str) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))[1:]


def _printed_max_diff(text: str) -> str:
    for line in text.splitlines():
        if line.startswith("max |division - solver| = "):
            return line.rsplit("= ", 1)[1]
    return "missing"


def _simulate_argv(job, out_dir: str, extra: list[str]) -> list[str]:
    return [
        "simulate", "--N", str(job.n_bins), "--M", str(job.steps),
        "--dt", repr(float(job.dt)), "--kernel", job.kind, "--k0", repr(float(job.k0)),
        "--check-master", "--out", out_dir, *extra,
    ]


def _check_reference(jobs, out_dir: str) -> list[str]:
    job = min(jobs, key=lambda j: (j.n_bins, j.job_id))
    code, text = _cli(_simulate_argv(job, out_dir, []))
    table = states.build_transition_table(job.n_bins, states.KernelSpec(job.kind, job.k0), job.dt)
    merged = division.run_merged(table, job.steps)
    solver = master.evolve(
        master.ProbabilityTable.point_mass(states.MassDistribution.monodisperse(job.n_bins)),
        table, job.steps,
    )
    worst = max(
        abs(merged.entries.get(s, 0.0) - solver.entries.get(s, 0.0))
        for s in set(merged.entries) | set(solver.entries)
    )
    if code != 0:
        return [f"simulate exited {code}"]
    failures = []
    if _printed_max_diff(text) != f"{worst:.3e}":
        failures.append(f"simulate printed {_printed_max_diff(text)}, API gives {worst:.3e}")
    want = [[str(job.steps), master.state_id(s), repr(merged.entries[s])] for s in merged.states()]
    if _csv_rows(os.path.join(out_dir, "division_probabilities.csv")) != want:
        failures.append("simulate division_probabilities.csv differs from run_merged")
    return failures


def _check_exact(jobs, out_dir: str) -> list[str]:
    # the command line only takes float kernels, so its tree run is compared
    # with the rational run the benchmark times to the merged-division bound
    job = min(jobs, key=lambda j: (j.n_bins, j.steps, j.job_id))
    code, text = _cli(_simulate_argv(job, out_dir, ["--mode", "tree"]))
    table = states.build_transition_table(job.n_bins, states.KernelSpec(job.kind, job.k0), job.dt)
    exact = division.merge_branches(division.run_tree(table, job.steps), job.steps)
    if code != 0:
        return [f"simulate --mode tree exited {code}"]
    failures = []
    printed = _printed_max_diff(text)
    if printed == "missing" or not float(printed) <= workloads.MERGED_TOL:
        failures.append(f"simulate --mode tree printed max |diff| {printed}")
    rows = _csv_rows(os.path.join(out_dir, "division_probabilities.csv"))
    got = {state_id: float(p) for _, state_id, p in rows}
    want = {master.state_id(s): p for s, p in exact.entries.items() if p != 0}
    if set(got) != set(want) or any(
        abs(got[k] - float(want[k])) > workloads.MERGED_TOL for k in want
    ):
        failures.append("simulate --mode tree probabilities differ from the rational tree")
    if not all(type(p) is Fraction for p in exact.entries.values()):
        failures.append("rational tree produced non-rational probabilities")
    return failures


def _check_circuit(jobs, seed: int, out_dir: str) -> list[str]:
    failures = []
    # bundled presets within their bands, as reproduce-tables checks them
    reports = {name: resources.estimate_case(case) for name, case in PRESET_CASES.items()}
    for name, report in reports.items():
        eps_max, t_count, t_depth, qubits = EXPECTED_RESOURCES[name]
        for label, got, want in (
            ("eps_max", report.eps_max, eps_max),
            ("t_count", report.total.t_count, t_count),
            ("t_depth", report.total.t_depth, t_depth),
            ("logical_qubits", report.qubits.total, qubits),
        ):
            if abs(got / want - 1) > RESOURCE_BANDS[label]:
                failures.append(f"{name} {label} {got:.3g} outside band of {want:.3g}")

    preset = sorted(PRESET_CASES)[seed % len(PRESET_CASES)]
    code, text = _cli(["estimate", "--preset", preset])
    printed = json.loads(text) if code == 0 else {}
    printed.pop("generated_at", None)
    want = json.loads(json.dumps({"schema_version": cli.SCHEMA_VERSION,
                                  **reports[preset].to_json_dict()}))
    if code != 0 or printed != want:
        failures.append(f"estimate --preset {preset} differs from estimate_case")

    job = jobs[0]
    eps, degree, _ = job.row
    width = workloads.CIRCUIT_WIDTH[eps]
    samples = workloads.CIRCUIT_SAMPLES
    code, _ = _cli([
        "emulate", "--n-eps", str(width), "--d", str(degree), "--eps", repr(eps),
        "--samples", str(samples), "--out", out_dir,
    ])
    core = arcsine.min_pieces(degree, eps)
    extension = arcsine.min_pieces(degree, eps, domain=fixedpoint.EXTENSION_DOMAIN)
    sweep = fixedpoint.estimate_eps_calculation(
        width, fixedpoint.quantize_arcsine(core, width, extension), samples=samples
    )
    want_row = [[str(width), repr(eps), repr(sweep.max_error), repr(sweep.mean_error), str(samples)]]
    if code != 0 or _csv_rows(os.path.join(out_dir, "sweep.csv")) != want_row:
        failures.append(f"emulate d={degree} eps={eps:g} differs from the API sweep")
    return failures


def cross_check(workload: str, jobs, seed: int, out_dir: str) -> list[str]:
    """Failed comparisons between the command line and the API (empty if none)."""
    if workload == "reference":
        return _check_reference(jobs, out_dir)
    if workload == "exact":
        return _check_exact(jobs, out_dir)
    return _check_circuit(jobs, seed, out_dir)
