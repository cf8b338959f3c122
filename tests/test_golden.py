"""Golden outputs of the float solver path and of the resource report.

The ``reference`` benchmark's job shape (solver series, merged division,
the three CSVs, a Gillespie batch and the sampler's tables) over
N = 2..20, three kernels and two step sizes, plus one rational corpus.
The digests were recorded with the per-cell CSV writer, the masked float
step and the sampler tables built with each row, so these tests show that
the column-batched writer and the full-edge step write the same bytes.
The ``estimate`` digests pin each preset's JSON report, less its
``generated_at`` line, and one CSV report.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from cloudq.cli import main
from cloudq.division import run_merged
from cloudq.master import (
    ProbabilityTable,
    SsaConfig,
    evolve_series,
    ssa_population_estimate,
    write_expected_series,
    write_probability_series,
)
from cloudq.states import (
    KernelSpec,
    MassDistribution,
    build_transition_table,
    enumerate_states,
    total_transition_rate,
)

STEPS = 20
SSA_RUNS = 20
PARTS = ("expected_counts.csv", "probabilities.csv", "division_probabilities.csv",
         "entries", "ssa", "events")

# sha256 of each part over the case's N range
PINNED = {
    "constant-0.5": {
        "division_probabilities.csv":
            "27d28f9622df43d54602feab98cd55c1688e6e0077626dcfb057063550318e89",
        "entries":
            "2edd9dd4eb4b6a5c23837122cdd379baeb58c4255fe0a80de1379b68d62ca69a",
        "events":
            "9cd41e58b2bded06235ead6473216b043a025fbf82ff80d1598ac3c939fed1df",
        "expected_counts.csv":
            "53d02bb60d8eea2e508c37855b94cfe7257b88a89b00a080f3f9c40165f3e6b7",
        "probabilities.csv":
            "b57a28aba9ecdedc949dfecac7df41bb9575d78be8f6d17396d8870155be21dc",
        "ssa":
            "84e316e23929721d1984ceee8810f06ae8ec4ccb48d1c1c886b58e29977a9b51",
    },
    "constant-0.9": {
        "division_probabilities.csv":
            "39e717149bb46e7123d7a9d79b98b87c756ecf96f87c340589b89e8ae749186d",
        "entries":
            "73d7216b42b3b8335c1131c068f5979c5ad830d650c29b706bcae524b60cddcd",
        "events":
            "9cd41e58b2bded06235ead6473216b043a025fbf82ff80d1598ac3c939fed1df",
        "expected_counts.csv":
            "1588d2e6c103d27ae89823ed0fae806e72b74b2f0038489a6ebf1aeca4edf878",
        "probabilities.csv":
            "3bc4fbd8f294c2202fbd250c972dc1728e848abac680a4668485cfc2dd78b3e4",
        "ssa":
            "ceadb9c7a470825fc3de2ec4d172c98635c2474242ed1dbd2354a4a29d02d8ce",
    },
    "product-0.5": {
        "division_probabilities.csv":
            "fa0474b516c67e5a90367d0207ebc54adb1b7e168e6ab13370c40c069e09f28b",
        "entries":
            "e8d6aa7d8767133756b09d163f6db9c4bc7068c890ca9c49ee99a736ce9840df",
        "events":
            "07a11531e2fa5eb77dcb0a7cd8ac6b3c7cd5ef9e7d768f7b75e34103b681f3b8",
        "expected_counts.csv":
            "33b89067bc56a60085155a353bdb9430f823256d9a07205c89cae86ffa8b4172",
        "probabilities.csv":
            "2a31996e669e15454cbca61be04e64e5faca37da990e242ea799b9b9f0141373",
        "ssa":
            "63a0f299c9b54e6429eb0b952dfce132ec1182d6e9a1b4000e8878d84f8283ba",
    },
    "product-0.9": {
        "division_probabilities.csv":
            "0a8cda11fb59e3a9a8840240cee614386992cd723f17bf3a683cdc5c59a3a31d",
        "entries":
            "7b8eff7839b59180792b145cfd211a6c5a57f2860928bda236763c1de80ba4fc",
        "events":
            "07a11531e2fa5eb77dcb0a7cd8ac6b3c7cd5ef9e7d768f7b75e34103b681f3b8",
        "expected_counts.csv":
            "36a53dc3c080010877b7e03e7c67ae5b73c937218e132c215e7574a2c6738676",
        "probabilities.csv":
            "359a9a36f7c3713160114e86626b829ee5b45f464b14e39d47244389c696c3e7",
        "ssa":
            "ec239cd41d2662a0d84fcd758b3dc8a917a99bf7372f20761219398da1715632",
    },
    "sum-0.5": {
        "division_probabilities.csv":
            "3489a91a3dee3e751480c2223023cdbf86e8eaea547b29e2defea055fb58563c",
        "entries":
            "640daae325b49bb315e4ec87af81851e323ea409f13bb5409150b0086a5d7a08",
        "events":
            "8cb817a144c342d7bbcf1a804248203d9824999397acf878b9228b73f201f86f",
        "expected_counts.csv":
            "0b968ae3d77089eac104dc6226b537ff75a459a002d8ad466b716c7660dcb404",
        "probabilities.csv":
            "e6086dcc1bcb04472814f8bfd8ad1230fca4481f259d00b923c127c671db1855",
        "ssa":
            "768084ab8701414ba38515f0515408e8887e575cfa0e2bc7e76474e2a9d95a65",
    },
    "sum-0.9": {
        "division_probabilities.csv":
            "fd2cd4ba3a13797d67963d775b048bbd79cb8efe0d5c54e0eba0509dcbf12b40",
        "entries":
            "38b49a44adc32e082143a911b1fafa2747834521d497f524a1c7d1fb41a8bab8",
        "events":
            "8cb817a144c342d7bbcf1a804248203d9824999397acf878b9228b73f201f86f",
        "expected_counts.csv":
            "65985a206d7ce73154e942c8cf378b48d45006adaef4cf0672cb15d9f6e952c4",
        "probabilities.csv":
            "73b7efb5d81853c009fc08d05a5f4b2f918fe9d05c2f9f8f77bde587464c56e0",
        "ssa":
            "67c221ff40ee98bd36ef98a20b4ad59bea18d6c8f599ea1f30714d14f48f7fe1",
    },
    "sum-exact": {
        "division_probabilities.csv":
            "9b2c18ef8bbf0b22dee97827f8acee310696d633bc6ea64fa6d5057a978936c8",
        "entries":
            "8b090434a2c39e789a6db6d7ee611c5504554b7317bc07155ef35fff1e4ff8f0",
        "events":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "expected_counts.csv":
            "d6eaeb9ab687a21b0f8343131940e7b89484beb0644594fcb93cc13c15027d20",
        "probabilities.csv":
            "b44536a0eb38cdb3d7cae2b31ce5e63a7b10f956698764523ce0a43d56879633",
        "ssa":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
}


def _table(n, kind, k0, share):
    # dt at ``share`` of the largest sum_h r_h over every state of N
    one = type(k0)(1)
    unit = build_transition_table(n, KernelSpec(kind, one), one)
    worst = max(total_transition_rate(unit, s) for s in enumerate_states(n))
    return build_transition_table(n, KernelSpec(kind, k0), share / (k0 * worst))


def _corpus_digests(kind, k0, share, ns, steps, tmp_path):
    digests = {part: hashlib.sha256() for part in PARTS}
    for n in ns:
        table = _table(n, kind, k0, share)
        start = ProbabilityTable({MassDistribution.monodisperse(n): k0 / k0})
        series = evolve_series(start, table, steps)
        merged = run_merged(table, steps)
        write_expected_series(series, str(tmp_path / PARTS[0]))
        write_probability_series(series, str(tmp_path / PARTS[1]))
        write_probability_series([merged], str(tmp_path / PARTS[2]))
        for part in PARTS[:3]:
            digests[part].update((tmp_path / part).read_bytes())
        entries = [(t.step, list(t.entries.items())) for t in series + [merged]]
        digests["entries"].update(repr(entries).encode())
        if type(k0) is float:
            cfg = SsaConfig(n_runs=SSA_RUNS, seed=n, t_end=steps * table.dt)
            digests["ssa"].update(repr(ssa_population_estimate(table, cfg)).encode())
            # the sampler's tables of every state, bit for bit
            op = table.operator
            for state in enumerate_states(n):
                event_rate, cdf = op.events(op.index(state))
                digests["events"].update(repr((float(event_rate), cdf.tolist())).encode())
    return {part: digest.hexdigest() for part, digest in digests.items()}


CORPUS = {
    f"{kind}-{share}": (kind, 1.3, share, range(2, 21), STEPS)
    for kind in ("constant", "sum", "product")
    for share in (0.5, 0.9)
}
CORPUS["sum-exact"] = ("sum", Fraction(3, 2), Fraction(9, 10), range(2, 10), 6)


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_outputs_match_pinned_digests(case, tmp_path):
    assert _corpus_digests(*CORPUS[case], tmp_path) == PINNED[case]


def _masked_steps(p0, table, steps):
    # the float step as it was: mask the edges by prob != 0 each step and
    # accumulate only the moving flows
    op = table.operator
    keys = [op.index(s) for s in p0.entries]
    prog = op.program(keys, [k for k, v in zip(keys, p0.entries.values()) if v != 0], steps)
    size = len(prog.states)
    order = [prog.where[k] for k in keys]
    present = np.zeros(size, dtype=bool)
    present[order] = True
    prob = prog.vector(order, list(p0.entries.values()))
    stay = np.arange(size)
    out = [p0]
    for step in range(p0.step + 1, p0.step + steps + 1):
        moving = (prob != 0)[prog.src]
        src, dst = prog.src[moving], prog.dst[moving]
        flow = prob[src] * prog.rate[moving]
        fresh = list(dict.fromkeys(dst[~present[dst]].tolist()))
        order.extend(fresh)
        present[fresh] = True
        prob = np.bincount(
            np.concatenate([stay, src, dst]), np.concatenate([prob, -flow, flow]), minlength=size
        )
        out.append(ProbabilityTable(
            dict(zip([prog.states[i] for i in order], prob[order].tolist())), step=step
        ))
    return out


@pytest.mark.parametrize("n", [20, 30])
@pytest.mark.parametrize("kind", ["constant", "sum", "product"])
def test_float_step_matches_masked_step(kind, n):
    table = _table(n, kind, 1.5, 0.9)
    start = MassDistribution.monodisperse(n)
    # a second start state holding -0.0 and one holding 0.0 never move
    # probability, and must keep their signed zeros
    mixed = MassDistribution((n - 2, 1) + (0,) * (n - 2))
    pair = MassDistribution((n - 4, 2) + (0,) * (n - 2))
    p0 = ProbabilityTable({start: 1.0, mixed: -0.0, pair: 0.0})
    steps = n + 5
    want = _masked_steps(p0, table, steps)
    got = evolve_series(p0, table, steps)
    assert [repr(list(t.entries.items())) for t in got] == [
        repr(list(t.entries.items())) for t in want
    ]
    assert [t.step for t in got] == [t.step for t in want]


# sha256 of each ``estimate`` report, without its ``generated_at`` line
ESTIMATE_PINNED = {
    ("paper-case-1", "json"): "af77fe788fcb449bf267488e50634d10f231ea12588528ede37805450fea80cb",
    ("paper-case-2", "json"): "e8ac2cfce0bf5785c090e2921d9669c6399b21e154420f56a33cfbe567218a69",
    ("paper-case-3", "json"): "8bb981ff32068880f4c6108772fdb738ab3a4a624df9c031f4f447bb6200fe29",
    ("paper-case-4", "json"): "50a3fcb8401cc3d9f46212c68a8a488e0f93a3ccf1aeda22234d4cda4b82d6e8",
    ("paper-case-5", "json"): "adf7df7f476859484bc7503e0601385c3fef244d415663b60353514304a3cbcf",
    ("paper-case-1", "csv"): "1cc67332f0efe99d794b778fd7b174ba57a67c534f89e6c039fbf1a2a8cc5421",
}


@pytest.mark.parametrize("preset, fmt", sorted(ESTIMATE_PINNED))
def test_estimate_report_matches_pinned_digest(preset, fmt, tmp_path):
    path = tmp_path / f"resources.{fmt}"
    assert main(["estimate", "--preset", preset, "--format", fmt, "--out", str(path)]) == 0
    lines = path.read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines if b'"generated_at"' not in line)
    assert hashlib.sha256(kept).hexdigest() == ESTIMATE_PINNED[preset, fmt]
