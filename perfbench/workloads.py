"""Seeded inputs and item lists for the three benchmark workloads.

Every input is generated here from the benchmark seed and written as a
`.smg` file through `morita.formats.dump_semigroup`; the program under test
only ever reads those files.  Each item carries its expectation, so a
wrong verdict is caught where it is produced.

Items too long to repeat within a timed run (`timed=False`: `morita I_4
I_4'`, `psh-equiv I_3'`, the `syminv2` oracle budget exhaustion) run only
in the traced run.

Workloads (see README.md for why each was chosen):

* ``decide``     -- `morita S T` on large pairs, plus `cauchy_vs_span(I_3)`;
* ``presheaf``   -- `psh-equiv` over seven inverse semigroups;
* ``crosscheck`` -- validate/analyze/oracle sweep of the builtin corpus,
  random subsemigroups, and the enlarge -> biset -> ogpd chain.
"""

import ast
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from morita import bisets, categories, corpus, formats, semigroups
from morita.semigroups import (
    FiniteSemigroup,
    brandt,
    chain_semilattice,
    cyclic_group,
    group_with_zero,
    symmetric_inverse_monoid,
)

# Oracle settings of acceptance criterion 2.
ORACLE_BUDGET = 200_000
ORACLE_MAX_SIZE = 7
ORACLE_POINTS = {True: 6, False: 4}

# Random subsemigroups for the oracle sweep.  Which isomorphism types the
# seed draws decides their cost: on a 2-core VM 1 s to a 9 s budget
# exhaustion on sizes 6-7, 0.27-0.45 s on size 5 (next to crosscheck's tail
# item), a few ms on size 3.  Size 3 keeps the draw from moving the
# end-to-end figures.  Budget exhaustion stays measured by the fixed
# syminv2 self-pair from the curated list.
RANDOM_PAIRS = 6
RANDOM_SIZE = 3

# Curated oracle pairs that exhaust their budget (~10 s): traced run only.
UNTIMED_PAIRS = {("syminv2", "syminv2")}

# psh-equiv samples per item.  Sampled presheaves and actions differ in
# size, so when the benchmark seed chose them the workload took 15-25 s over
# seeds 1-5 on a 2-core VM.  The samples are therefore fixed per item
# (psh-equiv --seed 0, 1, ...) and the benchmark seed relabels the input
# semigroups.  I_3 runs with --samples 0: with one sample it took 4.1-9.2 s
# over seeds 1-6, its representable checks alone a steady 3.9 s.
PSH_SAMPLES = 2

# Relabelled copies per member.  Cost grows down the list (then I_3), so
# the counts put both the median and the tail percentile (10 items beyond)
# inside the B1_4/B2_3 group, not on a boundary between unlike items.  One
# pass over the list takes ~4 s, so each item runs about eight times in 30 s.
PSH_MEMBERS = [
    ("Z2", lambda: group_with_zero(cyclic_group(2)), 4),
    ("chain4", lambda: chain_semilattice(4), 4),
    ("I2", lambda: symmetric_inverse_monoid(2), 6),
    ("B1_4", lambda: brandt(cyclic_group(1), 4), 8),
    ("B2_3", lambda: brandt(cyclic_group(2), 3), 8),
    ("B3_3", lambda: brandt(cyclic_group(3), 3), 6),
]


@dataclass
class Item:
    """One unit of work: a CLI invocation or a library cross-check.

    `verdict` is the expected last report line value (CLI) or the expected
    return value (library).  `may_exhaust` marks oracle items for which exit
    code 3 (budget exhausted) is an accepted outcome; `pair` and `budget`
    name them in the output.  `timed=False` items run in the traced run only.
    """

    label: str
    timed: bool = True
    argv: list = None
    call: object = None
    verdict: object = None
    may_exhaust: bool = False
    pair: tuple = ()
    budget: int = 0
    checks: dict = field(default_factory=dict)  # report check -> expected value


# -- seeded input generation --------------------------------------------------

def relabel(S, rng) -> FiniteSemigroup:
    """A copy of S with elements permuted: t'[p i, p j] = p t[i, j].

    Idempotents keep their places and the other elements are shuffled.  A
    full shuffle also reorders the idempotents, which are the objects of
    C(S) and the base of every sampled action, and that alone moved the
    cost of one psh-equiv item by up to 2x between seeds.
    """
    n = len(S)
    tab = S.table
    others = [i for i in range(n) if tab[i, i] != i]
    moved = others[:]
    rng.shuffle(moved)
    perm = list(range(n))
    for i, j in zip(others, moved):
        perm[i] = j
    p = np.array(perm, dtype=np.int64)
    table = np.empty_like(S.table)
    table[np.ix_(p, p)] = p[S.table]
    names = [None] * n
    for i in range(n):
        names[p[i]] = S.names[i]
    return FiniteSemigroup(tuple(names), table)


def enlargement_idempotent(T, rng) -> int:
    """A seeded idempotent e with TeT = T, so T enlarges eTe."""
    tab = T.table
    n = len(T)
    full = np.arange(n)
    cands = [e for e in range(n)
             if tab[e, e] == e
             and len(np.unique(tab[tab[full, e][:, None], full[None, :]])) == n]
    return cands[rng.randrange(len(cands))]


def local_submonoid(T, e) -> list:
    tab = T.table
    return [s for s in range(len(T)) if tab[tab[e, s], e] == s]


class Inputs:
    """Writes the generated `.smg` files into one directory."""

    def __init__(self, workdir: Path):
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, S) -> str:
        fname = f"{name}.smg"
        (self.dir / fname).write_text(formats.dump_semigroup(S), encoding="utf-8")
        return fname


# -- expectations ---------------------------------------------------------------

def morita_item(a, b, expected, oracle=False, timed=True):
    argv = ["morita", a, b]
    label = f"morita {a} {b}"
    if oracle:
        points = ORACLE_POINTS[expected]
        argv = ["--budget", str(ORACLE_BUDGET), "--max-points", str(points)] + argv
        argv.append("--oracle")
        label += f" --oracle (max-points {points}, budget {ORACLE_BUDGET})"
    return Item(label, timed=timed, argv=argv, verdict="true" if expected else "false",
                may_exhaust=oracle, pair=(a, b),
                budget=ORACLE_BUDGET if oracle else 0)


# Library items look functions up on their modules at call time, so a
# traced run sees them through the tracer's wrappers.

def _cauchy_vs_span(path):
    def run():
        S = semigroups.as_inverse(formats.load_semigroup(path))
        return categories.cauchy_vs_span(S)
    return run


def _pipeline(path, left_names):
    def run():
        R = formats.load_semigroup(path)
        sub = [R.names.index(nm) for nm in left_names]
        out = bisets.enlargement_pipeline(R, sub, range(len(R)))
        return sorted(out.items())
    return run


def _all_true(pairs):
    return all(v for (_k, v) in pairs)


# -- workloads ------------------------------------------------------------------

def decide(seed: int, inputs: Inputs) -> list:
    rng = random.Random(f"decide:{seed}")
    w = inputs.write
    items = []
    I4, I3, I2 = (symmetric_inverse_monoid(n) for n in (4, 3, 2))
    items.append(morita_item(w("I4", I4), w("I4~r", relabel(I4, rng)), True, timed=False))
    i3 = w("I3", I3)
    for k in range(4):
        items.append(morita_item(i3, w(f"I3~r{k}", relabel(I3, rng)), True))
    i2 = w("I2", I2)
    items.append(morita_item(i3, i2, False))
    items.append(morita_item(w("I3~n", relabel(I3, rng)),
                             w("I2~n", relabel(I2, rng)), False))
    groups = {k: cyclic_group(k) for k in (1, 2, 3)}
    canon = {(k, n): w(f"B{k}_{n}", brandt(groups[k], n))
             for k in (1, 2, 3) for n in (1, 2, 3, 4)}
    for k in (1, 2, 3):
        for n in (1, 2, 3, 4):
            for n2 in range(n + 1, 5):
                other = w(f"B{k}_{n2}~r{n}", relabel(brandt(groups[k], n2), rng))
                items.append(morita_item(canon[(k, n)], other, True))
        gz = w(f"Z{k}", group_with_zero(groups[k]))
        for n in (1, 2, 3, 4):
            other = w(f"B{k}_{n}~z", relabel(brandt(groups[k], n), rng))
            items.append(morita_item(other, gz, True))
    for n in (1, 2, 3, 4):
        other = w(f"B3_{n}~x", relabel(brandt(groups[3], n), rng))
        items.append(morita_item(canon[(2, n)], other, False))
    spans = [("I2", I2), ("B2_3", brandt(groups[2], 3)), ("B3_3", brandt(groups[3], 3)),
             ("B2_4", brandt(groups[2], 4)), ("I3", I3)]
    for name, S in spans:
        f = w(f"{name}~s", relabel(S, rng))
        items.append(Item(f"cauchy_vs_span {f}", timed=name != "I3",
                          call=_cauchy_vs_span(inputs.dir / f), verdict=True))
    return items


def presheaf(seed: int, inputs: Inputs) -> list:
    rng = random.Random(f"presheaf:{seed}")
    items = []
    for name, make, copies in PSH_MEMBERS:
        S = make()
        for v in range(copies):
            f = inputs.write(f"{name}~r{v}", relabel(S, rng))
            items.append(Item(f"psh-equiv {f} --samples {PSH_SAMPLES} --seed {v}",
                              argv=["--seed", str(v), "psh-equiv", f,
                                    "--samples", str(PSH_SAMPLES)],
                              verdict="pass"))
    f = inputs.write("I3~r", relabel(symmetric_inverse_monoid(3), rng))
    items.append(Item(f"psh-equiv {f} --samples 0", timed=False,
                      argv=["psh-equiv", f, "--samples", "0"], verdict="pass"))
    return items


def _random_members(seed: int) -> list:
    out = []
    for S in corpus.random_inverse_subsemigroups(seed, 400):
        if len(S) == RANDOM_SIZE:
            out.append(S)
            if len(out) == RANDOM_PAIRS:
                return out
    raise RuntimeError(f"seed {seed}: fewer than {RANDOM_PAIRS} random members")


def crosscheck(seed: int, inputs: Inputs) -> list:
    rng = random.Random(f"crosscheck:{seed}")
    w = inputs.write
    items = []
    sizes = {}
    for name, S in corpus.builtin_corpus():
        f = w(name, S)
        sizes[name] = len(S)
        tab = S.table
        idem = [e for e in range(len(S)) if tab[e, e] == e]
        cmor = sum(int(tab[tab[e, s], f2] == s)
                   for e in idem for f2 in idem for s in range(len(S)))
        items.append(Item(f"validate {f}", argv=["validate", f], verdict="pass"))
        items.append(Item(f"analyze {f}", argv=["analyze", f], verdict="pass",
                          checks={"elements": str(len(S)),
                                  "idempotents": str(len(idem)),
                                  "C_morphisms": str(cmor)}))
    for (a, b, expected, _why) in corpus.expected_morita_pairs():
        oracle = max(sizes[a], sizes[b]) <= ORACLE_MAX_SIZE
        items.append(morita_item(f"{a}.smg", f"{b}.smg", expected, oracle,
                                 timed=(a, b) not in UNTIMED_PAIRS))
    for k, S in enumerate(_random_members(seed)):
        a = w(f"rand{k}", S)
        b = w(f"rand{k}~r", relabel(S, rng))
        items.append(morita_item(a, b, True, oracle=True))
    for (g, n) in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)):
        T = relabel(brandt(cyclic_group(g), n), rng)
        t = w(f"T{g}_{n}", T)
        e = enlargement_idempotent(T, rng)
        left = [T.names[s] for s in local_submonoid(T, e)]
        biset = f"T{g}_{n}.biset"
        items.append(Item(f"enlarge {t} eTe e={T.names[e]} --emit-biset {biset}",
                          argv=["enlarge", t, "--left", " ".join(left),
                                "--right", "all", "--emit-biset", biset],
                          verdict="pass"))
        items.append(Item(f"biset-check {biset}", argv=["biset-check", biset],
                          verdict="pass"))
        ogpd = f"T{g}_{n}.ogpd"
        items.append(Item(f"biset-enlarge {biset} --emit-ogpd {ogpd}",
                          argv=["biset-enlarge", biset, "--emit-ogpd", ogpd],
                          verdict="pass"))
        items.append(Item(f"enlargement_pipeline {t} eTe e={T.names[e]}",
                          call=_pipeline(inputs.dir / t, left), verdict=_all_true))
    return items


WORKLOADS = {"decide": decide, "presheaf": presheaf, "crosscheck": crosscheck}


def build(name: str, seed: int, workdir) -> list:
    return WORKLOADS[name](seed, Inputs(workdir))


# -- checking one outcome ---------------------------------------------------------

def judge(item: Item, rc, text: str) -> str:
    """'ok', 'exhausted' (accepted budget exit), or a reason the outcome is wrong."""
    if item.call is not None:
        if rc != 0:
            return f"raised: {text.strip()[:200]}"
        want = item.verdict
        got = ast.literal_eval(text)
        ok = want(got) if callable(want) else got == want
        return "ok" if ok else f"library result {text.strip()[:200]}"
    if rc == 3 and item.may_exhaust:
        return "exhausted"
    if rc != 0:
        return f"exit code {rc}"
    lines = text.splitlines()
    if not lines or lines[-1] != f"verdict={item.verdict}":
        return f"verdict {lines[-1] if lines else '<none>'}, expected {item.verdict}"
    values = {}
    for line in lines[1:-1]:
        fields = dict(kv.split("=", 1) for kv in line.split(" ") if "=" in kv)
        status = fields.get("status")
        if status not in ("ok", "info"):
            return f"check {fields.get('check')} status={status}"
        values.setdefault(fields.get("check"), fields.get("value"))
    for check, want in item.checks.items():
        if values.get(check) != want:
            return f"check {check}={values.get(check)}, expected {want}"
    return "ok"
