"""Golden outputs of the float solver path and of the resource report.

The ``reference`` benchmark's job shape (solver series, merged division,
the three CSVs, a Gillespie batch and the sampler's tables) over
N = 2..20, three kernels and two step sizes, plus three rational corpora.
The digests were recorded with the per-cell CSV writer, the masked float
step and the sampler tables built with each row, so these tests show that
the column-batched writer and the full-edge step write the same bytes.
The ``constant-exact`` and ``product-exact`` digests were recorded while
the solver still added each old value outside its step map, so they show
that the map's unit diagonal leaves exact runs as they were.
The ``estimate`` digests pin each preset's JSON report, less its
``generated_at`` line, and one CSV report; the ``arcsine-fit`` digests
pin one quantized coefficient file the same way, and its table.  The
arcsine corpus pins every table row's core and extension fit (or its
``DegreeTooLowError``), its 45-digit ``verify`` value, its quantized
coefficients and its error sweep at the ``circuit`` benchmark's width,
with and without the gap (or the error the gap sweep raises),
the coefficients recorded before fits were skipped on a lower bound and
grids on an upper bound, the sweeps while the pipeline still ran on
``FixedPointValue`` registers; property tests check that those bounds
are sound.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cloudq import arcsine
from cloudq.arcsine import (
    DegreeTooLowError,
    chebyshev_fit,
    linf_error,
    min_pieces,
    verify,
)
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
from cloudq.fixedpoint import (
    EXTENSION_DOMAIN,
    CarryOutError,
    emulate_up_pipeline,
    estimate_eps_calculation,
    quantize_arcsine,
    sweep_inputs,
)
from cloudq.presets import PIECEWISE_ARCSINE_TABLE
import scalar_rule
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
    "constant-exact": {
        "division_probabilities.csv":
            "7357dca4105a614c4daccf244f6cfc1e8b61ca2fecadd460fabeea31d3a8b125",
        "entries":
            "be408f10210188b2068e894966f30bca7cfdb2fb358168c4182ca069c9a41c89",
        "events":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "expected_counts.csv":
            "5f3c6aa4d859057563b31a7d5de1eb064d0b6696f6cb08f1cd1116b07edf3350",
        "probabilities.csv":
            "76de94a2786ee57acbd95fe73dbeb919b7b9e060a3329cbd33b2c77684357b7c",
        "ssa":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "product-exact": {
        "division_probabilities.csv":
            "8af28f29987a1917e71c178de53569b192b6937dd7ea0791af81e7ebc7ca8a43",
        "entries":
            "3dcb948598b0b7e4beca0af5c25a661731ce12347c85a8fbb4df39bf19b7357a",
        "events":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "expected_counts.csv":
            "705e6212c6da3dcc524090ecf976c01c4e4b9d4ddbabcb0ed21ff7d5fc6106ee",
        "probabilities.csv":
            "d7b5bebf2c00d50395f60fe88d7e24b081744dc4313ea1d04a20a4fdea589eee",
        "ssa":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
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
            op = table
            for state in enumerate_states(n):
                event_rate, _, cdf = op.events(op.index(state))
                digests["events"].update(repr((float(event_rate), cdf.tolist())).encode())
    return {part: digest.hexdigest() for part, digest in digests.items()}


CORPUS = {
    f"{kind}-{share}": (kind, 1.3, share, range(2, 21), STEPS)
    for kind in ("constant", "sum", "product")
    for share in (0.5, 0.9)
}
CORPUS["sum-exact"] = ("sum", Fraction(3, 2), Fraction(9, 10), range(2, 10), 6)
CORPUS.update({
    f"{kind}-exact": (kind, Fraction(3, 2), Fraction(9, 10), range(2, 17), 10)
    for kind in ("constant", "product")
})


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_outputs_match_pinned_digests(case, tmp_path):
    assert _corpus_digests(*CORPUS[case], tmp_path) == PINNED[case]


def _masked_steps(p0, table, steps):
    # the float step as it was: mask the edges by prob != 0 each step and
    # accumulate only the moving flows
    op = table
    keys = [op.index(s) for s in p0.entries]
    sources = [k for k, v in zip(keys, p0.entries.values()) if v != 0]
    prog = op.program(sources, steps)
    every = enumerate_states(op.num_bins)  # vectors over every rank
    size = len(every)
    # the edges of the states within steps - 1 collisions of a source, read
    # off the operator's rows in ascending (counts, label) order, not off
    # the program's step map
    stepping, level = set(sources), set(sources)
    for _ in range(steps - 1):
        level = {t for k in level for t in scalar_rule.row(op, k).targets} - stepping
        stepping |= level
    edge_src, edge_dst, edge_rate = map(np.array, zip(*(
        (k, t, r)
        for k in sorted(stepping, key=lambda k: every[k].counts)
        for row in [scalar_rule.row(op, k)]
        for t, r in zip(row.targets, [p * op.dt for p in row.propensities])
    )))
    order = list(keys)
    present = np.zeros(size, dtype=bool)
    present[order] = True
    prob = prog.vector(size, order, list(p0.entries.values()))
    stay = np.arange(size)
    out = [p0]
    for step in range(p0.step + 1, p0.step + steps + 1):
        moving = (prob != 0)[edge_src]
        src, dst = edge_src[moving], edge_dst[moving]
        flow = prob[src] * edge_rate[moving]
        fresh = list(dict.fromkeys(dst[~present[dst]].tolist()))
        order.extend(fresh)
        present[fresh] = True
        prob = np.bincount(
            np.concatenate([stay, src, dst]), np.concatenate([prob, -flow, flow]), minlength=size
        )
        out.append(ProbabilityTable(
            dict(zip([every[k] for k in order], prob[order].tolist())), step=step
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


@pytest.mark.parametrize("prefill", ["ssa", "evolve"])
@pytest.mark.parametrize("k0", [1.5, Fraction(3, 2)], ids=["float", "fraction"])
@pytest.mark.parametrize("kind", ["constant", "sum", "product"])
def test_runs_match_on_an_operator_holding_other_states(kind, k0, prefill):
    # the operator first indexes states in another run's order, most of
    # them beyond this run's reach; the runs must not see them
    n, steps = 14, 6
    one = type(k0)(1)
    start = MassDistribution.monodisperse(n)
    p0 = ProbabilityTable({MassDistribution((n - 4, 2) + (0,) * (n - 2)): 0 * one, start: one})

    def runs(table):
        tables = evolve_series(p0, table, steps) + [run_merged(table, steps)]
        return [(t.step, [(s.counts, type(v), repr(v)) for s, v in t.entries.items()])
                for t in tables]

    fresh = _table(n, kind, k0, type(k0)(9) / 10)
    want = runs(fresh)
    table = _table(n, kind, k0, type(k0)(9) / 10)
    if prefill == "ssa":
        ssa_population_estimate(table, SsaConfig(n_runs=20, seed=n, t_end=5.0))
    else:
        other = MassDistribution((n - 6, 1, 0, 1) + (0,) * (n - 4))
        evolve_series(ProbabilityTable({other: one}), table, n)
    held = dict(table.states)
    assert runs(table) == want
    # the prefill met states the runs never list; every state keeps the one
    # index, its rank, whatever the table met before it
    listed = {counts for _, entries in want for counts, _, _ in entries}
    assert {s.counts for s in held.values()} - listed
    assert all(table.states[k] is state for k, state in held.items())
    assert table.states.keys() > fresh.states.keys()
    assert all(table.index(state) == k for k, state in fresh.states.items())


@pytest.mark.parametrize("sequential", [False, True], ids=["solver", "division"])
@pytest.mark.parametrize("k0", [1.5, Fraction(3, 2)], ids=["float", "fraction"])
@pytest.mark.parametrize("kind", ["constant", "sum", "product"])
def test_step_sums_each_row_in_stored_order(kind, k0, sequential):
    # one step against a Python loop that sums each row's terms from zero,
    # left to right: a build that reorders or fuses a multiply-add fails it
    n = 12
    table = _table(n, kind, k0, type(k0)(9) / 10)
    op = table
    start = op.index(MassDistribution.monodisperse(n))
    prog = op.program([start], n, sequential)
    size, ranks = len(prog.ranks), prog.ranks.tolist()
    draws = np.random.default_rng(n).integers(1, 10**6, size).tolist()
    # every fifth state empty: on float64 its terms add +-0.0
    prob = prog.vector(size, range(size), [
        0 * k0 if k % 5 == 0 else type(k0)(draw) / 10**6 for k, draw in enumerate(draws)
    ])
    def value(x):
        # an exact table's numbers, its program's included, are ints over its scale
        return x if table.is_float else Fraction(x, table.scale)

    assert prog.scale == table.scale
    terms = list(zip(prog.row.tolist(), prog.col.tolist(), map(value, prog.coef.tolist())))
    [read] = prog.run(prob, 1)
    out = read(np.arange(size)).tolist()
    want, values = [0 * k0] * size, prob.tolist()
    for r, c, coef in terms:
        want[r] = want[r] + values[c] * coef
    assert repr(out) == repr(want)

    def label(c, r):
        row = scalar_rule.row(op, ranks[c])
        return row.labels[row.targets.index(ranks[r])]

    # within a row: the solver's unit diagonal, its outflows in label order,
    # then its inflows by (source counts, label); the division model's hold
    # child, then its inflows by label
    for r in range(size):
        mine = [(c, coef) for row, c, coef in terms if row == r]
        own = [coef for c, coef in mine if c == r]
        assert [c == r for c, _ in mine] == [True] * len(own) + [False] * (len(mine) - len(own))
        inflows = [(op.states[ranks[c]].counts, label(c, r)) for c, _ in mine if c != r]
        if sequential:
            assert own == ([value(w) for h, _, w in op.children(ranks[r]) if h == 0]
                           if own else [])
            assert [h for _, h in inflows] == sorted({h for _, h in inflows})
        else:
            assert own == ([type(k0)(1)] + [-value(p) * op.dt for p in scalar_rule.row(
                op, ranks[r]).propensities] if own else [])
            assert inflows == sorted(inflows)


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


# sha256 of ``arcsine-fit --d 7 --eps 1e-13 --n-eps 42`` outputs, without
# the ``generated_at`` line
ARCSINE_FIT_PINNED = {
    "arcsine_coefficients.json": "f462e52317004c26ad4025438f99cafeca59b09749edaf0e6f358e486a43dd48",
    "arcsine_table.csv": "39e6d449f7b26f9562d43797b5a4219c76318217401f388e739aafc68a07db2b",
}


def test_arcsine_fit_matches_pinned_digest(tmp_path):
    argv = ["arcsine-fit", "--d", "7", "--eps", "1e-13", "--n-eps", "42", "--out", str(tmp_path)]
    assert main(argv) == 0
    for name, digest in ARCSINE_FIT_PINNED.items():
        lines = (tmp_path / name).read_bytes().splitlines(keepends=True)
        kept = b"".join(line for line in lines if b'"generated_at"' not in line)
        assert hashlib.sha256(kept).hexdigest() == digest, name


# sha256 of ``repr(core) + "\n" + repr(extension)`` per table row, the
# extension being its DegreeTooLowError where the fit fails, and of
# ``repr(quantize_arcsine(core, width, extension))`` at ``CIRCUIT_WIDTH``
ARCSINE_CORPUS_PINNED = {
    (1e-12, 4): (
        "52da32f939cc543d4ff266c2172e4865d457f365cba57cfd49b85250afde07eb",
        "865f7f3fd979222e16b03d988eab96e4b63e85e6d61bd0fb43537e43da721383",
    ),
    (1e-12, 5): (
        "78ad3a72fc7b80d8690b012a8673e8a4bec0038ca4924636fc79dc54c69c6af4",
        "806ce9a7a892872d74e7c7f94339c0b90d46d2aeb8ca4f8a5e9ab8fb5b4a4b61",
    ),
    (1e-12, 6): (
        "7c01fc7721d9aa5bfe90ec7618eed65f75422500521185e2a75a028cb94f19cc",
        "7bf88730601c74b8ea7b26b0afafb7244fba151b14b69223a30fc1623d408aef",
    ),
    (1e-13, 5): (
        "1f735b50ac2bb53a5d73ee8ece0c82405dc1be26b4827d3766dec998f7e49f16",
        "ca2b143451a929faeb7c271a6369541aea514be48583e18e1fd6a8bb93885921",
    ),
    (1e-13, 6): (
        "5ab32c3d6302e28ceeac2af611382a0d81d6dbfa2f821fc42c93c5439431a4a8",
        "5480711b9d5a0b8df718054f7a10bc89732d2075a713468e430d873c230c25ad",
    ),
    (1e-13, 7): (
        "ee081e3dcdafa06417d7e746207d0afc394bb2401300a2dfd584f45fe1e503f9",
        "f7f5484be6282b49c654f5dc7285de74e2c1237c8bcea5715563fe1351dda9c8",
    ),
    (1e-14, 5): (
        "9e4e1de050d59c4787d593de69e030d5f594ba43f7027ad567a194dff592554d",
        "b4a68dbdc35cb451523e74b85b6ac8de56fed9754c4ef1e76b0cedd8a6940ad6",
    ),
    (1e-14, 6): (
        "de43ac69e4a0f67850985b29bb16390deed7cf163dfe43a18d2e917117aff111",
        "2d66f7f8cb23f5814d14b47c510a6d04ab518e314f569708d977680d847b3df1",
    ),
    (1e-14, 7): (
        "07e4b9c9115ec65aae6865956ce1920b6ce6f53873f060799274cb8057b86eed",
        "796917470c8ad22dd2894bc61d1b66e51c263f30762259ce3e37da342ed9e087",
    ),
    (1e-14, 8): (
        "47a55cf8fed6c934c966b946c152dbf0ff6f94b52b5e385a862dc9c33cd2bff2",
        "80f6a846dfce18ce29de632c17350a26a76923d84449c2de0b949b296257e69f",
    ),
    (1e-15, 6): (
        "a1762038786ddb11a5ff2eeb57d27a92d0c44282595e1c8ad67bf4a08a36ed39",
        "539f741d60a3f81d07ebab437e028413b86f59025eca86697c533f82cea331d8",
    ),
    (1e-15, 7): (
        "cb7185be098ecd66a4132fa09e73dcd39d3972db52e9288c279f43deb4d9d5b2",
        "93d3490c1237ea8cdce9bd79280b5024b4afeec703bd7ba746afdd19a835248e",
    ),
    (1e-15, 8): (
        "dfeee5098059dce6fef6289f1fc2abc294c1f7ff4248ede5c74edf018bf2bdc7",
        "78000f8ad04a040e95ae5147fe0a3d0a67dd515ae2922246e0f7a0f16cc5c9f5",
    ),
    (1e-15, 9): (  # the noise row: its extension fit raises
        "ce4428d847d08f3af62390fbf53291ea0eede7bd4456a026931dabf4f823f0d0",
        None,
    ),
}

# verify(core, 10) per table row
VERIFY_PINNED = {
    (1e-12, 4): 9.138226868963041e-13,
    (1e-12, 5): 8.857503545428922e-13,
    (1e-12, 6): 9.186215148195562e-13,
    (1e-13, 5): 8.066289096644044e-14,
    (1e-13, 6): 9.640851588812168e-14,
    (1e-13, 7): 8.851770014700929e-14,
    (1e-14, 5): 9.709782821710498e-15,
    (1e-14, 6): 8.951471674652889e-15,
    (1e-14, 7): 9.549372948465781e-15,
    (1e-14, 8): 7.517550645342931e-15,
    (1e-15, 6): 8.53529116582642e-16,
    (1e-15, 7): 9.2230679671393e-16,
    (1e-15, 8): 8.050598901662439e-16,
    (1e-15, 9): 6.761573204524859e-16,
}

# (max_error, mean_error) of estimate_eps_calculation(CIRCUIT_WIDTH[eps],
# quantize_arcsine(core, width, extension), samples=1000) per table row
# whose extension fit exists, recorded with the FixedPointValue pipeline
SWEEP_PINNED = {
    (1e-12, 4): (1.6633361354934095e-12, 6.077716385721743e-13),
    (1e-12, 5): (1.7690848785889557e-12, 7.88245718696956e-13),
    (1e-12, 6): (1.7822410214307638e-12, 8.525671557624293e-13),
    (1e-13, 5): (1.0969003483296547e-13, 4.5335079440489423e-14),
    (1e-13, 6): (1.2811973704174306e-13, 5.245516174201548e-14),
    (1e-13, 7): (1.4432899320127035e-13, 5.506740549665601e-14),
    (1e-14, 5): (1.3156142841808105e-14, 4.6310559553841554e-15),
    (1e-14, 6): (1.479372180313021e-14, 5.45739495261266e-15),
    (1e-14, 7): (1.7041923427996153e-14, 6.294503113180028e-15),
    (1e-14, 8): (1.4099832412739488e-14, 6.429950322184297e-15),
    (1e-15, 6): (1.226796442210798e-14, 5.1275476919965256e-15),
    (1e-15, 7): (1.2823075934420558e-14, 6.119087875289253e-15),
    (1e-15, 8): (1.2934098236883074e-14, 5.948557618706829e-15),
}

# the same sweeps with include_gap=True, which reach the extension pieces:
# (max_error, mean_error), or the error class and message the row raises;
# recorded while the pipeline still had its FixedPointValue wrapper
GAP_SWEEP_PINNED = {
    (1e-12, 4): (1.8783863353633024e-12, 5.295701238638983e-13),
    (1e-12, 5): (1.7172929744901921e-12, 6.494322996042357e-13),
    (1e-12, 6): (1.8116619315833304e-12, 7.043685773533426e-13),
    (1e-13, 5): (1.2034817586936697e-13, 4.1482383500435205e-14),
    (1e-13, 6): (1.5487611193520934e-13, 4.7138414699388065e-14),
    (1e-13, 7): (CarryOutError, "arcsine result overflow"),
    (1e-14, 5): (1.459943277382081e-14, 4.4162000445435724e-15),
    (1e-14, 6): (1.3766765505351941e-14, 5.1131980594032456e-15),
    (1e-14, 7): (2.3314683517128287e-14, 6.101740640529485e-15),
    (1e-14, 8): (CarryOutError, "arcsine result overflow"),
    (1e-15, 6): (1.1546319456101628e-14, 4.516564205969686e-15),
    (1e-15, 7): (1.3346962424165554e-14, 5.284394449800445e-15),
    (1e-15, 8): (1.459943277382081e-14, 5.567723365684785e-15),
}

# register width per arcsine target, as in the ``circuit`` benchmark
CIRCUIT_WIDTH = {1e-12: 42, 1e-13: 46, 1e-14: 49, 1e-15: 49}
ARCSINE_ROWS = [(eps, degree) for eps, degree, _ in PIECEWISE_ARCSINE_TABLE]
ROW_IDS = [f"{eps:g}-d{degree}" for eps, degree in ARCSINE_ROWS]


@pytest.fixture(scope="module")
def arcsine_fits():
    fits = {}
    for eps, degree in ARCSINE_ROWS:
        try:
            extension = min_pieces(degree, eps, domain=EXTENSION_DOMAIN)
        except DegreeTooLowError as exc:
            extension = exc
        fits[eps, degree] = min_pieces(degree, eps), extension
    return fits


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("row", ARCSINE_ROWS, ids=ROW_IDS)
def test_arcsine_fits_match_pinned_digests(arcsine_fits, row):
    core, extension = arcsine_fits[row]
    fit_digest, quantized_digest = ARCSINE_CORPUS_PINNED[row]
    assert _sha(repr(core) + "\n" + repr(extension)) == fit_digest
    if quantized_digest is None:
        assert isinstance(extension, DegreeTooLowError)
        return
    quantized = quantize_arcsine(core, CIRCUIT_WIDTH[row[0]], extension)
    assert _sha(repr(quantized)) == quantized_digest


@pytest.mark.parametrize("row", ARCSINE_ROWS, ids=ROW_IDS)
def test_verify_matches_pinned_values(arcsine_fits, row):
    assert verify(arcsine_fits[row][0], 10) == VERIFY_PINNED[row]


@pytest.mark.parametrize("row", list(SWEEP_PINNED), ids=[f"{e:g}-d{d}" for e, d in SWEEP_PINNED])
def test_sweep_matches_pinned_values(arcsine_fits, row):
    core, extension = arcsine_fits[row]
    width = CIRCUIT_WIDTH[row[0]]
    report = estimate_eps_calculation(width, quantize_arcsine(core, width, extension), 1000)
    assert (report.max_error, report.mean_error) == SWEEP_PINNED[row]


@pytest.mark.parametrize(
    "row", list(GAP_SWEEP_PINNED), ids=[f"{e:g}-d{d}" for e, d in GAP_SWEEP_PINNED]
)
def test_gap_sweep_matches_pinned_values(arcsine_fits, row):
    core, extension = arcsine_fits[row]
    width = CIRCUIT_WIDTH[row[0]]
    table = quantize_arcsine(core, width, extension)
    pinned = GAP_SWEEP_PINNED[row]
    if isinstance(pinned[0], type):
        error, message = pinned
        with pytest.raises(error, match=f"^{message}$") as raised:
            estimate_eps_calculation(width, table, 1000, include_gap=True)
        assert type(raised.value) is error
        return
    report = estimate_eps_calculation(width, table, 1000, include_gap=True)
    assert (report.max_error, report.mean_error) == pinned


def test_gap_sweep_overflow_stays_at_sample_96(arcsine_fits):
    # the open overflow of `cloudq emulate --d 7 --eps 1e-13 --n-eps 46
    # --include-gap`: sample 96 takes the complement branch into an
    # extension piece whose biased constant carries the result past 2
    core, extension = arcsine_fits[1e-13, 7]
    table = quantize_arcsine(core, 46, extension)
    with pytest.raises(CarryOutError, match="^arcsine result overflow$"):
        estimate_eps_calculation(46, table, samples=100, include_gap=True)
    inputs = sweep_inputs(97, include_gap=True)
    for n_i, n_j, kdt, s in inputs[:96]:
        emulate_up_pipeline(n_i, n_j, kdt, s, 46, table)
    with pytest.raises(CarryOutError, match="^arcsine result overflow$"):
        emulate_up_pipeline(*inputs[96], 46, table)


_ULPS = st.integers(min_value=1, max_value=1 << 22)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    a=st.floats(min_value=0.0, max_value=0.99),
    width=st.one_of(st.floats(min_value=1e-9, max_value=1.0), _ULPS),
    degree=st.integers(min_value=1, max_value=9),
    log2_ratio=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
)
def test_lower_bound_dooms_only_failing_fits(a, width, degree, log2_ratio):
    # widths as an integer count ulps of a: near-degenerate candidates
    b = min(1.0, a + width * math.ulp(a) if isinstance(width, int) else a + width)
    assume(a < b)
    err = linf_error(chebyshev_fit(a, b, degree), a, b)
    # eps just above the fit's own error (``0.0`` gives the next float up)
    # is the tightest case a sound bound must not doom
    eps = max(math.nextafter(err, math.inf), err * 2.0**log2_ratio)
    assert not arcsine._fit_is_doomed(a, b, degree, eps)
    tighter = err / 2.0**log2_ratio
    if tighter > 0 and arcsine._fit_is_doomed(a, b, degree, tighter):
        assert err >= tighter


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    a=st.floats(min_value=0.0, max_value=0.99),
    width=st.floats(min_value=1e-9, max_value=1.0),
    degree=st.integers(min_value=1, max_value=9),
    shift=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
    stretch=st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=4.0)),
    reach=st.floats(min_value=0.0, max_value=1.0),
)
def test_budget_bound_dooms_no_passing_fit_within_reach(a, width, degree, shift, stretch, reach):
    # a fit that passes on an interval at least as wide, further right
    # inside [a, reach], must keep [a, a + width] from dooming with reach
    b, top = a + width, a + width + reach * (1.0 - a - width)
    assume(b <= top <= 1.0)
    wider = min(width * stretch, top - a)
    left = a + shift * (top - a - wider)
    right = min(top, left + wider)
    assume(a <= left < right and right - left >= width)
    err = linf_error(chebyshev_fit(left, right, degree), left, right)
    assert not arcsine._fit_is_doomed(a, b, degree, math.nextafter(err, math.inf), reach=top)


def test_lower_bound_dooms_wide_candidates_and_never_degenerate_ones():
    assert arcsine._fit_is_doomed(0.0, 0.5, 5, 1e-12)
    assert arcsine._fit_is_doomed(0.5, 0.875, 9, 1e-15)
    assert arcsine._fit_is_doomed(0.0, 2.0**-12, 1, 6e-17, reach=0.5)
    assert not arcsine._fit_is_doomed(0.0, 2.0**-12, 1, 1e-7, reach=0.5)
    a = 0.3
    for ulps in (0, 1, 2, 7, 4095, 4096, 65535):
        b = a + ulps * math.ulp(a)
        assert not arcsine._fit_is_doomed(a, b, 5, 1e-300)


@settings(max_examples=10, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=0.8),
    width=st.floats(min_value=0.01, max_value=0.1),
    degree=st.integers(min_value=4, max_value=6),
    eps_exponent=st.integers(min_value=-13, max_value=-9),
    noise=st.one_of(st.just(0.0), st.floats(min_value=-1e-9, max_value=1e-9)),
)
def test_verify_skips_only_bounded_pieces(a, width, degree, eps_exponent, noise):
    pp = min_pieces(degree, 10.0**eps_exponent, domain=(a, a + width))
    # a nudged constant can move the maximum to the first piece
    first = pp.pieces[0]
    nudged = (first.coefficients[0] + noise,) + first.coefficients[1:]
    pieces = (arcsine.PolynomialPiece(first.lower, first.upper, nudged, first.max_error),)
    pp = arcsine.PiecewisePolynomial(pieces + pp.pieces[1:], degree, pp.eps, pp.domain)
    errors = []
    for piece in pp.pieces:
        diff = arcsine._diff_series(piece.coefficients, piece.lower, piece.upper)
        errors.append(arcsine._grid_max(diff, 4096))  # the reference error on a 4096 grid
        assert errors[-1] <= arcsine._series_bound(diff)
        assert arcsine._series_bound(diff) <= arcsine._prebound(
            piece.coefficients, piece.lower, piece.upper
        )
    assert verify(pp, grid_factor=1) == max(errors)


@pytest.mark.parametrize("row, pieces", [((1e-12, 4), 43), ((1e-15, 8), 12)])
def test_prebound_covers_the_series_bound_of_every_piece(arcsine_fits, row, pieces):
    core = arcsine_fits[row][0]
    assert core.piece_count == pieces
    for piece in core.pieces:
        diff = arcsine._diff_series(piece.coefficients, piece.lower, piece.upper)
        bound = arcsine._prebound(piece.coefficients, piece.lower, piece.upper)
        assert arcsine._series_bound(diff) <= bound <= arcsine._series_bound(diff) * (1 + 1e-11)


@pytest.mark.parametrize("row", [(1e-12, 4), (1e-15, 8)])
def test_prebound_covers_the_series_bound_of_every_extension_piece(arcsine_fits, row):
    # past 1/2 the Taylor series at each midpoint converges more slowly
    extension = arcsine_fits[row][1]
    assert extension.domain == EXTENSION_DOMAIN and extension.piece_count > 1
    for piece in extension.pieces:
        diff = arcsine._diff_series(piece.coefficients, piece.lower, piece.upper)
        bound = arcsine._prebound(piece.coefficients, piece.lower, piece.upper)
        assert arcsine._series_bound(diff) <= bound <= arcsine._series_bound(diff) * (1 + 1e-11)


def _pushed_taylor_terms(taylor_terms, push):
    """``_taylor_terms`` with every floor ``push`` units lower: the two
    arcsine floors, the square root's and each step's, fed forward, and the
    ceiling of ``asin(b)`` ``push`` units higher, over the same terms."""

    def pushed(mid, rad, b, last):
        found = taylor_terms(mid, rad, b, last)
        if found is None:
            return None
        terms, tail = found
        ceiling = tail + sum(terms) + push
        q = (1 << 2 * arcsine._FIXED_BITS) - mid * mid
        d = [terms[0] - push, terms[1] - push]
        for m in range(2, len(terms)):
            step = (m - 1) * (2 * m - 3) * mid * rad * d[-1] + (m - 2) ** 2 * rad * rad * d[-2]
            d.append(step // (m * (m - 1) * q) - push)
        return d, ceiling - sum(d)

    return pushed


@pytest.mark.parametrize("push", [1, 1 << 100], ids=["worst-floor", "2^-100"])
@pytest.mark.parametrize("row", [(1e-12, 5), (1e-15, 8)])
def test_prebound_survives_the_worst_floors(arcsine_fits, monkeypatch, row, push):
    # a push of one unit is each floor at its worst; 2**100 units (2**-100)
    # is far past it, and shows in the float bound, through the tail alone
    pieces = arcsine_fits[row][0].pieces
    series = [
        arcsine._series_bound(arcsine._diff_series(p.coefficients, p.lower, p.upper))
        for p in pieces
    ]
    bounds = [arcsine._prebound(p.coefficients, p.lower, p.upper) for p in pieces]
    monkeypatch.setattr(
        arcsine, "_taylor_terms", _pushed_taylor_terms(arcsine._taylor_terms, push)
    )
    pushed = [arcsine._prebound(p.coefficients, p.lower, p.upper) for p in pieces]
    assert all(s <= b <= p < math.inf for s, b, p in zip(series, bounds, pushed))
    if push > 1:
        assert all(b < p for b, p in zip(bounds, pushed))


@pytest.mark.parametrize(
    "lower, upper",
    [(1 - 2.0**-20, 1.0), (5e-324, 2.0**-20), (0.5, 0.999)],
    ids=["b-is-one", "mid-not-dyadic", "series-does-not-settle"],
)
def test_prebound_is_inf_where_the_taylor_series_cannot_serve(lower, upper):
    # each such piece runs the 45-digit series, and verify reads its grid
    piece = arcsine.PolynomialPiece(lower, upper, tuple(chebyshev_fit(lower, upper, 5)), 0.0)
    assert arcsine._prebound(piece.coefficients, lower, upper) == math.inf
    expected = arcsine._grid_max(arcsine._diff_series(piece.coefficients, lower, upper), 4096)
    pp = arcsine.PiecewisePolynomial((piece,), 5, 1.0, (lower, upper))
    assert verify(pp, grid_factor=1) == expected


def test_verify_runs_the_series_only_where_the_maximum_can_move(arcsine_fits, monkeypatch):
    # the circuit benchmark's rows: the noise row's extension fit raises
    rows = [row for row in ARCSINE_ROWS if not isinstance(arcsine_fits[row][1], DegreeTooLowError)]
    truth_series, runs = arcsine._truth_series, []

    def counted(*args):
        runs.append(args)
        return truth_series(*args)

    monkeypatch.setattr(arcsine, "_truth_series", counted)
    for row in rows:
        assert verify(arcsine_fits[row][0], 10) == VERIFY_PINNED[row]
    assert (len(runs), sum(arcsine_fits[row][0].piece_count for row in rows)) == (22, 230)
