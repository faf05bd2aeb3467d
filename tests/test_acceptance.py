"""Acceptance criteria, one test per criterion.

Every check is exact (the library is exact combinatorics; there are no
numeric tolerances to calibrate).  Each test prints one PASS line when it
completes; pytest -v lists one PASSED/FAILED row per criterion either way.
"""

import io
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np

from morita import corpus
from morita.actions import (
    I_star,
    Q_of,
    R_of,
    U_of,
    action_homs,
    counit_UR,
    etale_morphism_check,
    fullness_faithfulness_check,
    i_shriek_with_maps,
    is_unitary,
    principal_action,
    unit_UR,
    unit_iso_check,
    RightAction,
)
from morita.bisets import (
    enlargement_pipeline,
    exhaustive_biset_search,
    morita_equivalent,
    verify_biset,
)
from morita.categories import (
    C_of,
    L_of,
    cauchy_vs_span,
    check_weak_equivalence,
    is_right_cancellative,
)
from morita.cli import main
from morita.errors import BudgetExceeded
from morita.semigroups import (
    FiniteSemigroup,
    as_inverse,
    assoc_witness,
    brandt,
    chain_semilattice,
    cyclic_group,
    group_with_zero,
    idempotents,
    is_locally_E_unitary,
    natural_order,
)
from reference_loops import assert_witnesses_of_the_built_categories

MUTANT_SEED = 0
SAMPLE_SEED = 42
ORACLE_BUDGET = 200_000


def _corpus():
    return corpus.builtin_corpus()


def test_criterion_1_axiom_suite():
    # every corpus semigroup passes the axioms
    for name, S in _corpus():
        assert assoc_witness(S) is None, name
        rebuilt = as_inverse(FiniteSemigroup(S.names, S.table))
        assert np.array_equal(rebuilt.star, S.star), name
        E = idempotents(S)
        for e in E:
            for f in E:
                assert S.mul(e, f) == S.mul(f, e), name
        leq = natural_order(S.table, S.star)
        assert leq.diagonal().all(), name
        assert not (leq & leq.T & ~np.eye(len(S), dtype=bool)).any(), name
    # every seeded single-cell mutant is detected by at least one check
    originals = corpus.corpus_by_name()
    for name, mutant, _cell in corpus.seeded_mutants(MUTANT_SEED, 20):
        star = originals[name.split("[")[0]].star
        assert corpus.axiom_violations(mutant, star=star), f"undetected: {name}"
    print("ACCEPTANCE 1 (axiom suite): PASS")


def test_criterion_2_morita_decision():
    by_name = corpus.corpus_by_name()
    positives = [("brandt_1_2", "brandt_1_3"), ("brandt_1_2", "chain2"),
                 ("brandt_c2_2", "c2_zero")]
    positives += [(name, name) for name, _S in _corpus()]
    negatives = [("cyclic2", "cyclic3"), ("chain2", "chain3"), ("cyclic2", "chain2")]
    skipped = []
    for a, b in positives:
        d = morita_equivalent(by_name[a], by_name[b])
        assert d.equivalent
        assert check_weak_equivalence(d.forward)
        assert check_weak_equivalence(d.backward)
        assert_witnesses_of_the_built_categories(d)
    for a, b in negatives:
        assert not morita_equivalent(by_name[a], by_name[b]).equivalent
    # oracle cross-check wherever the budget permits (sizes <= 7)
    for (a, b), expected in (
        [(pair, True) for pair in positives]
        + [(pair, False) for pair in negatives]
    ):
        S, T = by_name[a], by_name[b]
        if len(S) > 7 or len(T) > 7:
            continue
        try:
            found = exhaustive_biset_search(
                S, T, max_points=6 if expected else 4, budget=ORACLE_BUDGET)
        except BudgetExceeded:
            skipped.append((a, b))
            continue
        assert (found is not None) == expected, (len(S), len(T))
        if found is not None:
            assert verify_biset(found).passed
    for a, b in skipped:
        print(f"ACCEPTANCE 2: oracle skipped {a} vs {b} on budget ({ORACLE_BUDGET} cells)")
    print(f"ACCEPTANCE 2 (morita decision): PASS (oracle skipped {len(skipped)}"
          f" pair(s) on budget)")


def test_criterion_3_four_notion_agreement():
    # positive pairs realized as (T, eTe), run end to end
    cases = []
    for T in (brandt(cyclic_group(1), 2), brandt(cyclic_group(1), 3),
              brandt(cyclic_group(2), 2)):
        e = idempotents(T)[0]
        eTe = [s for s in range(len(T)) if T.mul(T.mul(e, s), e) == s]
        cases.append((T, eTe))
    for T, sub in cases:
        out = enlargement_pipeline(T, sub, range(len(T)))
        assert all(out.values()), out
    print("ACCEPTANCE 3 (four-notion agreement): PASS")


def test_criterion_4_closed_actions_vs_presheaves():
    members = [chain_semilattice(2), chain_semilattice(3),
               brandt(cyclic_group(1), 2), group_with_zero(cyclic_group(2))]
    for S in members:
        C = C_of(S)
        E = C.extra["obj_elt"]
        reps = [Q_of(principal_action(S, e), C) for e in E]
        for P in reps + corpus.sample_presheaves(reps, SAMPLE_SEED, 20):
            assert unit_iso_check(P)
        actions = corpus.sample_closed_actions(S, SAMPLE_SEED, 21)
        Q = [Q_of(X, C) for X in actions]
        for i in range(20):
            assert fullness_faithfulness_check(actions[i], actions[i + 1],
                                               Q[i], Q[i + 1])
        tab = S.table
        for d in E:
            for e in E:
                homs = action_homs(principal_action(S, d), principal_action(S, e))
                eSd = [s for s in range(len(S)) if tab[tab[e, s], d] == s]
                assert len(homs) == len(eSd)
    print("ACCEPTANCE 4 (closed actions vs presheaves): PASS")


def test_criterion_5_etale_functor_suite():
    for name, S in _corpus():
        C = C_of(S)
        obj_elt = C.extra["obj_elt"]
        for X in corpus.sample_etale_actions(S):
            res = i_shriek_with_maps(X, C)
            P = res.presheaf
            # cardinality and naturality of I_!(p)(e) = Xe
            for o, e in enumerate(obj_elt):
                Xe = [x for x in range(len(X)) if X.base.act[x, e] == x]
                assert P.fiber_size(o) == len(Xe), name
                assert sorted(res.beta[o].values()) == sorted(Xe), name
            for m, (e, a, f) in enumerate(C._payload_array.tolist()):
                co, do = obj_elt.index(e), obj_elt.index(f)
                for ci in range(P.fiber_size(co)):
                    assert (res.beta[do][int(P.maps[m][ci])]
                            == int(X.base.act[res.beta[co][ci], a])), name
            # monad carriers R(U(p)) and I*(I_!(p)) agree with structure
            IS = I_star(P)
            RU = R_of(U_of(X))
            pos = {p: i for i, p in enumerate(RU.base.extra["pairs"])}
            fwd = np.array(
                [pos[(obj_elt[o], res.beta[o][ci])]
                 for (o, ci) in IS.base.extra["pairs"]],
                dtype=np.int64,
            )
            assert etale_morphism_check(fwd, IS, RU), name
            assert sorted(fwd.tolist()) == list(range(len(RU))), name
            # triangle identities for U -| R
            RUX, unit = unit_UR(X)
            assert etale_morphism_check(unit, X, RUX), name
            _r, counit = counit_UR(U_of(X))
            assert all(int(counit[unit[x]]) == x for x in range(len(X))), name
        # counit surjectivity iff unitary
        orphan = RightAction(("a", "b"), S, np.zeros((2, len(S)), dtype=np.int64))
        for X in (principal_action(S, idempotents(S)[0]), orphan):
            _r, counit = counit_UR(X)
            surjective = set(counit.tolist()) == set(range(len(X)))
            assert surjective == is_unitary(X), name
    print("ACCEPTANCE 5 (etale functor suite): PASS")


def test_criterion_6_locally_e_unitary_vs_right_cancellative():
    samples = [S for _n, S in _corpus()]
    samples += corpus.random_inverse_subsemigroups(SAMPLE_SEED, 50)
    for S in samples:
        assert is_locally_E_unitary(S) == is_right_cancellative(L_of(S))
    # both outcomes are exercised
    outcomes = {is_locally_E_unitary(S) for S in samples}
    assert outcomes == {True, False}
    print("ACCEPTANCE 6 (locally E-unitary vs right-cancellative): PASS")


def test_criterion_7_span_suite():
    for name, S in _corpus():
        assert cauchy_vs_span(S), name
    print("ACCEPTANCE 7 (span suite): PASS")


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def test_criterion_8_determinism(tmp_path):
    out1 = tmp_path / "c1"
    out2 = tmp_path / "c2"
    assert _run_cli(["corpus", str(out1)])[0] == 0
    assert _run_cli(["corpus", str(out2)])[0] == 0
    files1 = sorted(p.name for p in out1.iterdir())
    assert files1 == sorted(p.name for p in out2.iterdir())
    for nm in files1:
        assert (out1 / nm).read_bytes() == (out2 / nm).read_bytes(), nm

    b12 = str(out1 / "brandt_1_2.smg")
    ch2 = str(out1 / "chain2.smg")
    rc, _ = _run_cli(["enlarge", b12, "--left", "(1,1) 0", "--right", "all",
                      "--emit-biset", str(tmp_path / "b.biset")])
    assert rc == 0
    commands = [
        ["validate", b12],
        ["analyze", b12],
        ["--max-points", "6", "morita", b12, ch2, "--oracle"],
        ["biset-check", str(tmp_path / "b.biset")],
        ["biset-enlarge", str(tmp_path / "b.biset")],
        ["enlarge", b12, "--left", "(1,1) 0", "--right", "all"],
        ["--seed", "42", "psh-equiv", ch2, "--samples", "5"],
        ["--format", "json", "analyze", ch2],
    ]
    for argv in commands:
        rc1, text1 = _run_cli(argv)
        rc2, text2 = _run_cli(argv)
        assert rc1 == rc2 and text1 == text2, argv
    # cross-process determinism for one command
    proc = [sys.executable, "-m", "morita.cli", "analyze", b12]
    r1 = subprocess.run(proc, capture_output=True)
    r2 = subprocess.run(proc, capture_output=True)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    print("ACCEPTANCE 8 (determinism): PASS")
