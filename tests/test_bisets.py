import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morita.bisets import (
    EquivalenceBiset,
    biset_from_ordered_enlargement,
    biset_from_regular_enlargement,
    build_bipartite_U,
    build_R_semigroupoid,
    enlargement_pipeline,
    exhaustive_biset_search,
    morita_equivalent,
    verify_biset,
)
from morita.categories import (
    check_morita_context,
    check_weak_equivalence,
    is_bipartite,
    is_left_cancellative,
)
from morita.errors import (
    BudgetExceeded,
    NotAnEnlargement,
    PreconditionFailed,
)
from morita.groupoids import (
    OrderedGroupoid,
    inductive_groupoid_of,
    is_enlargement,
    ordered_groupoid_of,
    semigroupoid_violations,
    validate_ordered_groupoid,
)
from morita.semigroups import cyclic_group, symmetric_inverse_monoid


def group_self_biset(G):
    """X = G with <x,y> = xy* and [x,y] = x*y."""
    n = len(G)
    left = G.table.copy()
    right = G.table.copy()
    innS = np.array([[G.mul(x, G.inv(y)) for y in range(n)] for x in range(n)])
    innT = np.array([[G.mul(G.inv(x), y) for y in range(n)] for x in range(n)])
    return EquivalenceBiset(G, G, G.names, left, right, innS, innT)


def b12_enlargement_biset(b12):
    e11 = b12.index("(1,1)")
    zero = b12.index("0")
    return biset_from_regular_enlargement(b12, [e11, zero], range(len(b12)))


def test_group_self_biset():
    for n in (1, 2, 3, 4):
        assert verify_biset(group_self_biset(cyclic_group(n))).passed


def test_extracted_biset_passes(b12):
    B = b12_enlargement_biset(b12)
    assert len(B) == 3
    report = verify_biset(B)
    assert report.passed and not report.failures()


def test_self_enlargement_biset(b12, sim2):
    # R = S = T: X is the set of (x, x*) pairs
    for S in (cyclic_group(3), b12, sim2):
        B = biset_from_regular_enlargement(S, range(len(S)), range(len(S)))
        assert len(B) == len(S)
        assert verify_biset(B).passed


def test_perturbed_biset_fails(b12):
    B = b12_enlargement_biset(b12)
    for table_name in ("inner_S", "inner_T"):
        arr = getattr(B, table_name).copy()
        arr.setflags(write=True)
        n_vals = len(B.S) if table_name == "inner_S" else len(B.T)
        arr[0, 1] = (arr[0, 1] + 1) % n_vals
        Bbad = EquivalenceBiset(
            B.S, B.T, B.points, B.left_act, B.right_act,
            arr if table_name == "inner_S" else B.inner_S,
            arr if table_name == "inner_T" else B.inner_T,
        )
        rep = verify_biset(Bbad)
        assert not rep.passed
        names = {n for (n, _w) in rep.failures()}
        assert names & {"M1", "M2", "M3", "M4", "M5", "M6", "M7"}


def test_preconditions(b12, chain2):
    with pytest.raises(PreconditionFailed):
        # {z} is a subsemigroup of the chain, but the chain is not its enlargement
        biset_from_regular_enlargement(chain2, [1], [0, 1])
    with pytest.raises(PreconditionFailed):
        # not a subsemigroup at all
        biset_from_regular_enlargement(b12, [b12.index("(1,2)")], range(len(b12)))


def test_derived_pairing_identities(b12):
    # <x,x>x = x, x[x,x] = x, <sx,y> = s<x,y>, and s = <x, s*x> when ds = s
    for B in (b12_enlargement_biset(b12), group_self_biset(cyclic_group(3))):
        S, T = B.S, B.T
        nx = len(B)
        for x in range(nx):
            assert B.left_act[B.inner_S[x, x], x] == x
            assert B.right_act[x, B.inner_T[x, x]] == x
            for y in range(nx):
                for s in range(len(S)):
                    lhs = B.inner_S[B.left_act[s, x], y]
                    assert lhs == S.mul(s, int(B.inner_S[x, y]))
            d = int(B.inner_S[x, x])
            for s in range(len(S)):
                if S.mul(d, s) != s:
                    continue
                sx = int(B.left_act[S.inv(s), x])
                assert int(B.inner_S[x, sx]) == s


def test_R_semigroupoid(b12):
    B = b12_enlargement_biset(b12)
    Rg = build_R_semigroupoid(B)
    assert semigroupoid_violations(Rg.names, Rg.table) == []
    assert len(Rg) == len(B.S) + len(B.T) + 2 * len(B)
    pos = Rg.extra["pos"]
    # (1,x,2)(2,x,1)(1,x,2) = (1,x,2) for every x
    for x in range(len(B)):
        xi, yi = pos[("X", x)], pos[("Y", x)]
        assert Rg.table[int(Rg.table[xi, yi]), xi] == xi
        assert Rg.table[int(Rg.table[yi, xi]), yi] == yi


def test_R_semigroupoid_group_case():
    # a group biset gives the 2x2 matrix groupoid: 4|G| elements, 2 idempotents
    G = cyclic_group(3)
    Rg = build_R_semigroupoid(group_self_biset(G))
    assert len(Rg) == 4 * len(G)
    idem = [e for e in range(len(Rg)) if Rg.table[e, e] == e]
    assert len(idem) == 2
    for a in range(len(Rg)):
        b = int(Rg.star[a])
        assert Rg.table[int(Rg.table[a, b]), a] == a


def test_bipartite_U(b12):
    B = b12_enlargement_biset(b12)
    U, s_objs, t_objs, P, Q = build_bipartite_U(B)
    assert is_bipartite(U, s_objs, t_objs)
    assert is_left_cancellative(U)
    assert check_morita_context(P.source, Q.source, U, P, Q)
    # group case: two objects, both isomorphic
    Ug, sg, tg, Pg, Qg = build_bipartite_U(group_self_biset(cyclic_group(2)))
    assert Ug.n_objects == 2
    assert is_bipartite(Ug, sg, tg) and is_left_cancellative(Ug)
    # Cor Ulc uniqueness: s is recovered from x and s*x as <x, s*x>
    S = B.S
    for x in range(len(B)):
        d = int(B.inner_S[x, x])
        for s in range(len(S)):
            if S.mul(d, s) == s:
                assert int(B.inner_S[x, int(B.left_act[S.inv(s), x])]) == s


def test_ordered_groupoid_of_R(b12):
    B = b12_enlargement_biset(b12)
    Rg = build_R_semigroupoid(B)
    G = ordered_groupoid_of(Rg)
    s_part = list(Rg.extra["s_part"])
    t_part = list(Rg.extra["t_part"])
    assert is_enlargement(G, s_part)
    assert is_enlargement(G, t_part)
    # enlargements of principally inductive groupoids stay principally inductive
    from morita.groupoids import is_principally_inductive

    assert is_principally_inductive(G)
    # round trip back to a biset
    B2 = biset_from_ordered_enlargement(G, B.S, B.T,
                                        np.array(s_part), np.array(t_part))
    assert verify_biset(B2).passed


def test_joint_enlargement_gives_L_equivalence(b12):
    # when a bipartite groupoid is an enlargement of both parts, the two
    # pair categories L(G(S)) and L(G(T)) of the parts are equivalent
    from morita.categories import categories_equivalent
    from morita.categories import L_of as L_of_semigroup
    from morita.groupoids import L_of_groupoid

    B = b12_enlargement_biset(b12)
    Rg = build_R_semigroupoid(B)
    G = ordered_groupoid_of(Rg)
    assert is_enlargement(G, list(Rg.extra["s_part"]))
    assert is_enlargement(G, list(Rg.extra["t_part"]))
    LS = L_of_groupoid(inductive_groupoid_of(B.S))
    LT = L_of_groupoid(inductive_groupoid_of(B.T))
    pair = categories_equivalent(LS, LT)
    assert pair is not None
    assert check_weak_equivalence(pair[0]) and check_weak_equivalence(pair[1])
    # and both agree with the semigroup-level pair categories
    assert categories_equivalent(LS, L_of_semigroup(B.S)) is not None
    assert categories_equivalent(LT, L_of_semigroup(B.T)) is not None


def test_biset_from_own_inductive_groupoid(b12):
    # G(S) with T = S and identity embeddings: the self-equivalence biset
    G = inductive_groupoid_of(b12)
    emb = np.arange(G.n_arrows)
    B = biset_from_ordered_enlargement(G, b12, b12, emb, emb)
    assert len(B) == len(b12)
    assert verify_biset(B).passed


def test_disjoint_union_is_not_enlargement(chain2, chain3):
    GS = inductive_groupoid_of(chain2)
    GT = inductive_groupoid_of(chain3)
    n1, m1 = GS.n_objects, GS.n_arrows
    n2, m2 = GT.n_objects, GT.n_arrows
    comp = np.full((m1 + m2, m1 + m2), -1, dtype=np.int64)
    comp[:m1, :m1] = GS.comp
    filled = GT.comp.copy()
    filled[filled >= 0] += m1
    comp[m1:, m1:] = filled
    obj_leq = np.zeros((n1 + n2, n1 + n2), dtype=bool)
    obj_leq[:n1, :n1] = GS.obj_leq
    obj_leq[n1:, n1:] = GT.obj_leq
    leq = np.zeros((m1 + m2, m1 + m2), dtype=bool)
    leq[:m1, :m1] = GS.leq
    leq[m1:, m1:] = GT.leq
    G = OrderedGroupoid(
        tuple(f"s_{o}" for o in GS.objects) + tuple(f"t_{o}" for o in GT.objects),
        obj_leq,
        tuple(f"s_{a}" for a in GS.arrows) + tuple(f"t_{a}" for a in GT.arrows),
        np.concatenate([GS.dom, GT.dom + n1]),
        np.concatenate([GS.cod, GT.cod + n1]),
        comp,
        np.concatenate([GS.inv, GT.inv + m1]),
        np.concatenate([GS.identity, GT.identity + m1]),
        leq,
    )
    assert validate_ordered_groupoid(G) == []
    with pytest.raises(NotAnEnlargement):
        biset_from_ordered_enlargement(
            G, chain2, chain3, np.arange(m1), np.arange(m2) + m1)


def test_morita_decisions(b12, b13, bc22, c2z, chain2, chain3):
    assert morita_equivalent(b12, b13).equivalent
    assert morita_equivalent(b12, chain2).equivalent
    assert morita_equivalent(bc22, c2z).equivalent
    assert not morita_equivalent(cyclic_group(2), cyclic_group(3)).equivalent
    assert not morita_equivalent(chain2, chain3).equivalent
    assert not morita_equivalent(cyclic_group(2), chain2).equivalent
    d = morita_equivalent(b12, b13)
    assert check_weak_equivalence(d.forward) and check_weak_equivalence(d.backward)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), relabel_seed=st.integers(0, 2**32 - 1))
def test_morita_relabel_invariance_and_symmetry(seed, relabel_seed):
    from morita.corpus import random_inverse_subsemigroups, random_relabelling

    S, T = random_inverse_subsemigroups(seed, 2)
    d = morita_equivalent(S, random_relabelling(S, random.Random(relabel_seed)))
    assert d.equivalent
    assert check_weak_equivalence(d.forward) and check_weak_equivalence(d.backward)
    assert morita_equivalent(S, T).equivalent == morita_equivalent(T, S).equivalent


def test_exhaustive_search_penalties(b12, chain2):
    # self-biset found at |X| = |S| or smaller
    found = exhaustive_biset_search(cyclic_group(2), cyclic_group(2), 2)
    assert found is not None and verify_biset(found).passed
    # negative at tiny scale
    assert exhaustive_biset_search(cyclic_group(2), cyclic_group(3), 4) is None
    # positive cross-checked against the enlargement construction
    found = exhaustive_biset_search(chain2, b12, 6)
    assert found is not None and verify_biset(found).passed
    assert len(found) == len(b12_enlargement_biset(b12))
    with pytest.raises(BudgetExceeded):
        exhaustive_biset_search(symmetric_inverse_monoid(2),
                                symmetric_inverse_monoid(2), 7, budget=10_000)


def test_manifest_expectations_hold():
    from morita.corpus import corpus_by_name, expected_morita_pairs

    by_name = corpus_by_name()
    for (a, b, expected, _why) in expected_morita_pairs():
        assert morita_equivalent(by_name[a], by_name[b]).equivalent == expected, (a, b)


def test_pipeline(b12, bc22):
    e11 = b12.index("(1,1)")
    zero = b12.index("0")
    out = enlargement_pipeline(b12, [e11, zero], range(len(b12)))
    assert all(out.values()), out
    e11c = bc22.index("(1,g0,1)")
    zeroc = bc22.index("0")
    sub = [i for i in range(len(bc22))
           if bc22.mul(bc22.mul(e11c, i), e11c) == i]
    assert zeroc in sub
    out = enlargement_pipeline(bc22, sub, range(len(bc22)))
    assert all(out.values()), out
