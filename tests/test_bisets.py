import itertools
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from morita import corpus
from morita.bisets import (
    BisetReport,
    CauchySkeleton,
    EquivalenceBiset,
    MoritaDecision,
    _BisetSearch,
    _skeleton_holds,
    biset_from_ordered_enlargement,
    biset_from_regular_enlargement,
    build_bipartite_U,
    build_R_semigroupoid,
    check_decision_witness,
    enlargement_pipeline,
    exhaustive_biset_search,
    morita_equivalent,
    verify_biset,
)
from morita.categories import (
    FiniteCategory,
    Functor,
    check_morita_context,
    check_weak_equivalence,
    inverse_functor,
    is_bipartite,
    is_functor,
    is_left_cancellative,
)
from morita.errors import (
    AssociativityFailure,
    BudgetExceeded,
    InvalidBiset,
    InvariantBroken,
    MoritaError,
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
from morita.semigroups import (
    FiniteSemigroup,
    chain_semilattice,
    cyclic_group,
    symmetric_inverse_monoid,
)
from reference_loops import (
    LoopBisetSearch,
    assert_witnesses_of_the_built_categories,
    loop_categories_equivalent,
)


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
    # the null semigroup on {0, a, b}: a and b have no inverse; a is the witness
    null = FiniteSemigroup(("0", "a", "b"), np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(PreconditionFailed, match="R is not regular") as exc:
        biset_from_regular_enlargement(null, [0], [0])
    assert exc.value.witness == 1


def test_only_library_errors_become_preconditions(b12, monkeypatch):
    # a programming error inside restrict_inverse is not a bad subset
    from morita import bisets

    def broken(R, subset):
        raise IndexError("broken")

    monkeypatch.setattr(bisets, "restrict_inverse", broken)
    with pytest.raises(IndexError):
        biset_from_regular_enlargement(b12, [b12.index("(1,1)")], range(len(b12)))


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
    # the blocks S', T', X, Y in order, so X starts after the T part
    oX = Rg.extra["t_part"][-1] + 1
    # (1,x,2)(2,x,1)(1,x,2) = (1,x,2) for every x
    for x in range(len(B)):
        xi, yi = oX + x, oX + len(B) + x
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
    from morita.categories import L_of as L_of_semigroup
    from morita.groupoids import L_of_groupoid

    B = b12_enlargement_biset(b12)
    Rg = build_R_semigroupoid(B)
    G = ordered_groupoid_of(Rg)
    assert is_enlargement(G, list(Rg.extra["s_part"]))
    assert is_enlargement(G, list(Rg.extra["t_part"]))
    LS = L_of_groupoid(inductive_groupoid_of(B.S))
    LT = L_of_groupoid(inductive_groupoid_of(B.T))
    pair = loop_categories_equivalent(LS, LT)
    assert pair is not None
    assert check_weak_equivalence(pair[0]) and check_weak_equivalence(pair[1])
    # and both agree with the semigroup-level pair categories
    assert loop_categories_equivalent(LS, L_of_semigroup(B.S)) is not None
    assert loop_categories_equivalent(LT, L_of_semigroup(B.T)) is not None


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
    for S, T in ((b12, b13), (b12, chain2), (bc22, c2z)):
        d = morita_equivalent(S, T)
        assert d.equivalent
        assert check_weak_equivalence(d.forward) and check_weak_equivalence(d.backward)
        assert_witnesses_of_the_built_categories(d)
    assert not morita_equivalent(cyclic_group(2), cyclic_group(3)).equivalent
    assert not morita_equivalent(chain2, chain3).equivalent
    assert not morita_equivalent(cyclic_group(2), chain2).equivalent


def _broken_certificates(d):
    """(kind, decision) for mutants of d's certificate on the S side, where
    o is the first object that is no representative:

    * phi with the first two morphisms whose swap makes it no functor;
      phi replaced by the constant functor on the identity of one object;
      phi taken from a decision on a relabelled copy of S, or of T, kept
      on that copy's skeleton;
    * to_rep[o] replaced by an element of hom(o, rep o) that is no
      isomorphism, by E[rep o], which ends at rep o but starts elsewhere,
      or by E[o], which starts at o but ends elsewhere;
    * rep sending an object p to another object q of its class that rep
      does not fix, with to_rep[p] an isomorphism p -> q, so that every
      other part of the check still holds;
    * rep and to_rep moving o's class onto o, each object by its least
      isomorphism to o: consistent, but the skeleton keeps rep o instead;
    * the skeleton's table with the composite a.1 of a morphism a and an
      identity moved to another morphism of hom(dom a, cod a), or with a
      composite defined off the composable pairs; the first object with
      another endomorphism taking it for its identity; the skeleton
      without its last morphism that is no identity, or with that
      morphism twice; each with phi carried over to it.
    """
    S, sk, phi = d.S, d.skeleton_S, d.phi
    A, B = sk.cat, phi.target
    for i, j in itertools.combinations(range(A.n_mor), 2):
        mm = phi.mor_map.copy()
        mm[[i, j]] = mm[[j, i]]
        swapped = Functor(A, B, phi.obj_map, mm)
        if not is_functor(swapped):
            yield "phi", replace(d, phi=swapped)
            break
    if A.n_mor > 1:
        z = int(phi.obj_map[0])
        constant = Functor(A, B, np.full(A.n_objects, z), np.full(A.n_mor, B.identity[z]))
        assert is_functor(constant)
        yield "phi_constant", replace(d, phi=constant)
    # the isomorphism found for a relabelled copy of S, or of T, on the
    # skeletons of the copy and of the other semigroup
    other = morita_equivalent(corpus.random_relabelling(S, random.Random(0)), d.T).phi
    yield "phi_source", replace(d, phi=Functor(other.source, B, other.obj_map, other.mor_map))
    other = morita_equivalent(S, corpus.random_relabelling(d.T, random.Random(0))).phi
    yield "phi_target", replace(d, phi=Functor(A, other.target, other.obj_map, other.mor_map))
    F, tab, star = S.cauchy, S.table, S.star
    E = F.E
    non_reps = np.flatnonzero(sk.rep != np.arange(len(E))).tolist()
    for o in non_reps[:1]:
        r = int(sk.rep[o])
        non_iso = [t for t in range(len(S)) if tab[tab[E[r], t], E[o]] == t
                   and not (tab[star[t], t] == E[o] and tab[t, star[t]] == E[r])]
        if non_iso:
            to_rep = sk.to_rep.copy()
            to_rep[o] = non_iso[0]
            yield "to_rep", replace(d, skeleton_S=CauchySkeleton(A, sk.rep, to_rep))
        for kind, t in (("to_rep_domain", E[r]), ("to_rep_range", E[o])):
            to_rep = sk.to_rep.copy()
            to_rep[o] = t
            yield kind, replace(d, skeleton_S=CauchySkeleton(A, sk.rep, to_rep))
        rep, to_rep = sk.rep.copy(), sk.to_rep.copy()
        for p in np.flatnonzero(sk.rep == r).tolist():
            rep[p] = o
            to_rep[p] = np.flatnonzero((F.d == p) & (F.r == o))[0]
        yield "rep_moved", replace(d, skeleton_S=CauchySkeleton(A, rep, to_rep))
    for p, q in itertools.permutations(non_reps, 2):
        if sk.rep[p] == sk.rep[q]:
            rep, to_rep = sk.rep.copy(), sk.to_rep.copy()
            rep[p] = q
            to_rep[p] = np.flatnonzero((F.d == p) & (F.r == q))[0]
            yield "rep", replace(d, skeleton_S=CauchySkeleton(A, rep, to_rep))
            break
    every = np.arange(A.n_mor)
    sizes = A.hom_sizes()
    if sizes.max() > 1:
        a, b = A.hom(*np.argwhere(sizes > 1)[0])[:2]
        comp = A.comp.copy()
        comp[a, A.identity[A.dom[a]]] = b
        yield "comp", _with_table(d, every, comp)
    for o in np.flatnonzero(np.diagonal(sizes) > 1)[:1]:
        identity = A.identity.copy()
        identity[o] = next(m for m in A.hom(o, o) if m != A.identity[o])
        yield "identity", _with_table(d, every, A.comp, identity)
    off = np.argwhere(A.dom[:, None] != A.cod[None, :])
    if len(off):
        comp = A.comp.copy()
        comp[tuple(off[0])] = off[0][0]
        yield "off", _with_table(d, every, comp)
    for x in sorted(set(every.tolist()) - set(A.identity.tolist()))[-1:]:
        yield "dropped", _with_table(d, np.delete(every, x), A.comp)
        yield "duplicated", _with_table(d, np.append(every, x), A.comp)


def _with_table(d, keep, comp, identity=None):
    """d with the S skeleton replaced by the category on its objects with
    the morphisms `keep`, in order, composed by `comp` and with identities
    `identity` (the skeleton's by default), both in the skeleton's
    numbering, and with phi restricted to it.  A composite off `keep` is
    undefined, and one kept twice is read as its last copy."""
    sk, phi = d.skeleton_S, d.phi
    A = sk.cat
    new = np.full(A.n_mor, -1)
    new[keep] = np.arange(len(keep))
    sub = comp[np.ix_(keep, keep)]
    B = FiniteCategory(A.objects, [A.mor_labels[m] for m in keep], A.dom[keep], A.cod[keep],
                       np.where(sub >= 0, new[sub], -1),
                       new[A.identity if identity is None else identity], A.extra)
    B._payload_array = A._payload_array[keep]
    return replace(d, skeleton_S=CauchySkeleton(B, sk.rep, sk.to_rep),
                   phi=Functor(B, phi.target, phi.obj_map, phi.mor_map[keep]))


def test_the_witness_check_rejects_a_broken_certificate():
    # each mutant breaks one part of the certificate; check_decision_witness
    # rejects it, on S's side and, for those that keep phi, on T's, and
    # each but a broken phi fails _skeleton_holds on its own.  Where the
    # witness C(S) -> C(T) can still be built from it,
    # check_weak_equivalence rejects that functor too.  A moved class is
    # another valid choice of representatives, so its functor may be a weak
    # equivalence; the certificate still fails, as phi was found on the
    # skeleton over the old ones.  The witnesses map through the skeleton's
    # payloads, not its table, so a broken table does not reach them.  A
    # representative that is no object of the skeleton has no morphisms
    # there, and a constant phi has no inverse to build the backward
    # witness from: reading either witness raises InvariantBroken
    members = corpus.corpus_by_name()
    pairs = [(members[a], members[b])
             for a, b, expected, _why in corpus.expected_morita_pairs() if expected]
    pairs.append((symmetric_inverse_monoid(3), symmetric_inverse_monoid(3)))
    made, made_T, built = Counter(), Counter(), Counter()
    for S, T in pairs:
        d = morita_equivalent(S, T)
        assert check_decision_witness(d)
        # the mutants that keep phi, made on T's side: on the decision read
        # the other way, then put back on T's side of d
        flipped = MoritaDecision(T, S, d.skeleton_T, d.skeleton_S, inverse_functor(d.phi))
        assert check_decision_witness(flipped)
        for kind, mutant in _broken_certificates(flipped):
            if mutant.phi is flipped.phi and mutant.skeleton_S.cat is d.skeleton_T.cat:
                made_T[kind] += 1
                assert not check_decision_witness(replace(d, skeleton_T=mutant.skeleton_S)), kind
        for kind, mutant in _broken_certificates(d):
            made[kind] += 1
            assert not check_decision_witness(mutant), kind
            assert _skeleton_holds(S, mutant.skeleton_S) == kind.startswith("phi"), kind
            if kind in ("rep", "phi_constant"):
                for side in ("forward", "backward"):
                    with pytest.raises(InvariantBroken):
                        getattr(mutant, side)
                continue
            if kind not in ("phi", "to_rep", "to_rep_domain", "to_rep_range"):
                continue
            try:
                forward = mutant.forward
            except MoritaError:
                continue
            built[kind] += 1
            assert not check_weak_equivalence(forward), kind
    assert min(made.values()) >= 2
    assert set(made) == {"phi", "phi_constant", "phi_source", "phi_target", "to_rep",
                         "to_rep_domain", "to_rep_range", "rep", "rep_moved", "comp", "identity",
                         "off", "dropped", "duplicated"}
    assert set(made_T) == {"to_rep", "to_rep_domain", "to_rep_range", "rep", "rep_moved"}
    assert all(built[kind] == made[kind] for kind in ("phi", "to_rep"))
    # a decision that found no isomorphism has no certificate
    assert not check_decision_witness(morita_equivalent(cyclic_group(2), cyclic_group(3)))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), relabel_seed=st.integers(0, 2**32 - 1))
def test_morita_relabel_invariance_and_symmetry(seed, relabel_seed):
    from morita.corpus import random_inverse_subsemigroups, random_relabelling

    S, T = random_inverse_subsemigroups(seed, 2)
    d = morita_equivalent(S, random_relabelling(S, random.Random(relabel_seed)))
    assert d.equivalent
    assert check_weak_equivalence(d.forward) and check_weak_equivalence(d.backward)
    assert_witnesses_of_the_built_categories(d)
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


def _search_outcomes(search_class, S, T, budget):
    """(nx, assignments so far, tables found / None / "budget") per carrier
    size, run as `exhaustive_biset_search` runs them: one counter, smallest
    carrier first, up to 6 points, stopping at the first biset or budget."""
    out, counter = [], [0]
    for nx in range(1, 7):
        if nx * nx < max(len(S), len(T)):
            continue
        try:
            found = search_class(S, T, nx, budget, counter).solve()
        except BudgetExceeded:
            out.append((nx, counter[0], "budget"))
            break
        if found is not None:
            out.append((nx, counter[0], [a.tolist() for a in (
                found.left_act, found.right_act, found.inner_S, found.inner_T)]))
            break
        out.append((nx, counter[0], None))
    return out


def test_compiled_biset_search_matches_the_loop():
    # the compiled instances must make the loop search's assignments in the
    # loop's order: same counters, same biset, same budget stops
    by_name = corpus.corpus_by_name()
    pairs = [(S, S) for _n, S in corpus.builtin_corpus() if len(S) <= 7]
    pairs += [(by_name[a], by_name[b]) for a, b in (
        ("brandt_1_2", "chain2"), ("cyclic2", "cyclic3"), ("chain2", "chain3"),
        ("cyclic2", "chain2"), ("c2_zero", "brandt_1_1"))]
    rng = random.Random(3)
    subs = [S for S in corpus.random_inverse_subsemigroups(5, 40) if len(S) <= 5][:6]
    for i, S in enumerate(subs):
        pairs.append((S, corpus.random_relabelling(S, rng)))
        pairs.append((S, subs[i - 1]))
    for S, T in pairs:
        for budget in (50, 500, 3_000):
            assert (_search_outcomes(_BisetSearch, S, T, budget)
                    == _search_outcomes(LoopBisetSearch, S, T, budget)), (S.names, T.names, budget)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), relabel_seed=st.integers(0, 2**32 - 1))
def test_oracle_agrees_with_the_decision_on_small_random_semigroups(seed, relabel_seed):
    small = [S for S in corpus.random_inverse_subsemigroups(seed, 30) if len(S) <= 4]
    assume(len(small) >= 2)
    S, T = small[:2]
    # S and a relabelled copy of S are Morita equivalent
    copy = corpus.random_relabelling(S, random.Random(relabel_seed))
    found = exhaustive_biset_search(S, copy, 4, budget=200_000)
    assert found is not None and verify_biset(found).passed
    try:
        found = exhaustive_biset_search(S, T, 4, budget=200_000)
    except BudgetExceeded:
        return
    assert (found is not None) == morita_equivalent(S, T).equivalent


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


def test_R_names_the_part_and_the_identity_that_fails(local_submonoid_bisets, monkeypatch):
    # R(S,T;X) of a verified biset satisfies both enlargement identities for
    # both parts, so each message is reached by answering one of them false
    from morita import bisets

    B = local_submonoid_bisets[0]
    for k, message in enumerate(["S' = S'RS' fails", "R = RS'R fails",
                                 "T' = T'RT' fails", "R = RT'R fails"]):
        answers = iter([(k != 0, k != 1), (k != 2, k != 3)])
        monkeypatch.setattr(bisets, "enlargement_identities", lambda *_a: next(answers))
        with pytest.raises(InvalidBiset) as info:
            build_R_semigroupoid(B)
        assert str(info.value) == message


def test_chain_checks_each_structure_once(tmp_path, monkeypatch):
    # count the real work: biset reports, semigroupoid passes, the
    # isomorphisms of U and of the ordered groupoid G(R) of R, and category
    # checks of G(R); the pipeline's bipartite test of G(R) reads the
    # inverses G keeps, so no isomorphism table of G(R) is built
    from collections import Counter

    from morita import bisets, categories, cli, formats, groupoids
    from morita.semigroups import brandt

    counts = Counter()

    def count(module, name, key):
        real = getattr(module, name)

        def counted(*args):
            counts[key(*args)] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    count(bisets, "_biset_report", lambda B: "biset reports")
    count(groupoids, "semigroupoid_violations", lambda *a: "semigroupoid passes")
    count(categories, "_iso_table", lambda C: C.extra.get("kind"))
    count(groupoids, "check_category", lambda C: "category checks")

    def work():
        out = {k: counts[k] for k in ("biset reports", "semigroupoid passes",
                                      "bipartite_U", "groupoid", "category checks")}
        counts.clear()
        return out

    T = brandt(cyclic_group(1), 3)
    e = T.index("(1,1)")
    eTe = [s for s in range(len(T)) if T.mul(T.mul(e, s), e) == s]
    assert all(enlargement_pipeline(T, eTe, range(len(T))).values())
    assert work() == {"biset reports": 2, "semigroupoid passes": 1, "bipartite_U": 1,
                      "groupoid": 0, "category checks": 0}

    (tmp_path / "T.smg").write_text(formats.dump_semigroup(T))
    biset = str(tmp_path / "T.biset")
    assert cli.main(["enlarge", str(tmp_path / "T.smg"), "--left",
                     " ".join(T.names[s] for s in eTe), "--right", "all",
                     "--emit-biset", biset]) == 0
    assert work() == {"biset reports": 1, "semigroupoid passes": 0, "bipartite_U": 0,
                      "groupoid": 0, "category checks": 0}
    assert cli.main(["biset-enlarge", biset]) == 0
    assert work() == {"biset reports": 2, "semigroupoid passes": 1, "bipartite_U": 1,
                      "groupoid": 0, "category checks": 0}


# -- the array checks against interpreted reference loops ---------------------

def loop_verify_biset(B):
    """A scan per outer index, kept as the reference for the array pass."""
    S, T = B.S, B.T
    L, R, P, Q = B.left_act, B.right_act, B.inner_S, B.inner_T
    tS, tT = S.table, T.table
    sS, sT = S.star, T.star
    nx = len(B)
    ns, nt = len(S), len(T)
    xs = np.arange(nx)
    entries = []

    def add(name, witness_fn):
        w = witness_fn()
        entries.append((name, w is None, "" if w is None else str(w)))

    def scan(outer, inner_cond):
        for i in outer:
            bad = np.argwhere(~inner_cond(i))
            if bad.size:
                return (i, *map(int, bad[0]))
        return None

    if nx == 0:
        for name in ("left_action_law", "right_action_law", "biset_compatibility",
                     "M1", "M2", "M3", "M4", "M5", "M6", "M7"):
            entries.append((name, True, ""))
    else:
        add("left_action_law", lambda: scan(
            ((s1, s2) for s1 in range(ns) for s2 in range(ns)),
            lambda p: L[tS[p[0], p[1]], :] == L[p[0], L[p[1], :]]))
        add("right_action_law", lambda: scan(
            ((t1, t2) for t1 in range(nt) for t2 in range(nt)),
            lambda p: R[:, tT[p[0], p[1]]] == R[R[:, p[0]], p[1]]))
        add("biset_compatibility", lambda: scan(
            ((s, t) for s in range(ns) for t in range(nt)),
            lambda p: R[L[p[0], :], p[1]] == L[p[0], R[:, p[1]]]))
        add("M1", lambda: scan(range(ns), lambda s: P[L[s, :], :] == tS[s, P]))
        add("M2", lambda: scan([0], lambda _: P.T == sS[P]))
        add("M3", lambda: scan([0], lambda _: L[P[xs, xs], xs] == xs))
        add("M4", lambda: scan(range(nt), lambda t: Q[:, R[:, t]] == tT[Q, t]))
        add("M5", lambda: scan([0], lambda _: Q == sT[Q.T]))
        add("M6", lambda: scan([0], lambda _: R[xs, Q[xs, xs]] == xs))
        add("M7", lambda: scan(range(nx), lambda z: L[P, z] == R[:, Q[:, z]]))
    surj_S = set(int(v) for v in P.ravel()) == set(range(ns))
    entries.append(("inner_S_surjective", surj_S,
                    "" if surj_S else "some element of S is not an inner product"))
    surj_T = set(int(v) for v in Q.ravel()) == set(range(nt))
    entries.append(("inner_T_surjective", surj_T,
                    "" if surj_T else "some element of T is not an inner product"))
    return entries


def loop_R_table(B):
    """R(S,T;X) filled pair by pair from the eight product rules."""
    S, T = B.S, B.T
    nx = len(B)
    elems = ([("S", s) for s in range(len(S))] + [("T", t) for t in range(len(T))]
             + [("X", x) for x in range(nx)] + [("Y", x) for x in range(nx)])
    pos = {e: i for i, e in enumerate(elems)}
    rules = {
        ("S", "S"): lambda a, b: ("S", int(S.table[a, b])),
        ("T", "T"): lambda a, b: ("T", int(T.table[a, b])),
        ("S", "X"): lambda a, b: ("X", int(B.left_act[a, b])),
        ("X", "T"): lambda a, b: ("X", int(B.right_act[a, b])),
        ("T", "Y"): lambda a, b: ("Y", int(B.right_act[b, int(T.star[a])])),
        ("Y", "S"): lambda a, b: ("Y", int(B.left_act[int(S.star[b]), a])),
        ("Y", "X"): lambda a, b: ("T", int(B.inner_T[a, b])),
        ("X", "Y"): lambda a, b: ("S", int(B.inner_S[a, b])),
    }
    table = np.full((len(elems), len(elems)), -1, dtype=np.int64)
    for i, (ka, va) in enumerate(elems):
        for j, (kb, vb) in enumerate(elems):
            rule = rules.get((ka, kb))
            if rule is not None:
                table[i, j] = pos[rule(va, vb)]
    return table


def test_verify_biset_and_R_table_match_loops_on_mutants(b12, local_submonoid_bisets):
    rng = random.Random(17)
    bisets = local_submonoid_bisets + [group_self_biset(cyclic_group(3)),
                                       b12_enlargement_biset(b12)]
    for B in bisets:
        assert verify_biset(B).entries == loop_verify_biset(B)
        assert np.array_equal(build_R_semigroupoid(B).table, loop_R_table(B))
    failed = set()
    for B in bisets:
        for which, hi in (("left_act", len(B)), ("right_act", len(B)),
                          ("inner_S", len(B.S)), ("inner_T", len(B.T))):
            for _ in range(3):
                tables = {name: getattr(B, name).copy()
                          for name in ("left_act", "right_act", "inner_S", "inner_T")}
                arr = tables[which]
                for _ in range(rng.randint(1, 2)):
                    arr[rng.randrange(arr.shape[0]), rng.randrange(arr.shape[1])] = \
                        rng.randrange(hi)
                Bm = EquivalenceBiset(B.S, B.T, B.points, **tables)
                entries = verify_biset(Bm).entries
                assert entries == loop_verify_biset(Bm)
                failed.update(name for (name, ok, _w) in entries if not ok)
    # the mutants reach every axiom that a single table can break
    assert failed >= {"left_action_law", "right_action_law", "biset_compatibility",
                      "M1", "M2", "M3", "M4", "M5", "M6", "M7"}


def test_R_semigroupoid_failures_keep_their_errors(monkeypatch):
    # let every biset pass verification, so that build_R_semigroupoid meets
    # random tables; the semigroupoid's first failure picks the error
    from morita import bisets

    monkeypatch.setattr(bisets, "_biset_report", lambda B: BisetReport([]))
    rng = np.random.default_rng(3)
    seen = set()
    for S in (cyclic_group(1), chain_semilattice(2)):
        ns = len(S)
        for nx in (1, 2):
            for _ in range(60):
                B = EquivalenceBiset(S, S, tuple(f"x{i}" for i in range(nx)),
                                     rng.integers(0, nx, (ns, nx)),
                                     rng.integers(0, nx, (nx, ns)),
                                     rng.integers(0, ns, (nx, nx)),
                                     rng.integers(0, ns, (nx, nx)))
                table = loop_R_table(B)
                bad = semigroupoid_violations(range(len(table)), table)
                if not bad:
                    continue
                # blocks of R(S,T;X) compose like the arrows of a groupoid on
                # two objects, so definedness is always coherent
                assert not any("definedness" in m for m in bad)
                assoc = [m for m in bad if "associativity" in m]
                error, message = ((AssociativityFailure, assoc[0]) if assoc else
                                  (InvalidBiset, "semigroupoid checks fail: " + bad[0]))
                with pytest.raises(error) as exc:
                    build_R_semigroupoid(B)
                assert str(exc.value) == message
                seen.add(error)
    assert seen == {AssociativityFailure, InvalidBiset}


def test_biset_check_report_names_the_loop_witness(tmp_path, capsys, local_submonoid_bisets):
    from morita.cli import main
    from morita.formats import dump_biset, dump_semigroup

    B = local_submonoid_bisets[-1]
    (tmp_path / "S.smg").write_text(dump_semigroup(B.S))
    (tmp_path / "T.smg").write_text(dump_semigroup(B.T))
    right = B.right_act.copy()
    right[1, 2] = (right[1, 2] + 1) % len(B)
    Bm = EquivalenceBiset(B.S, B.T, B.points, B.left_act, right, B.inner_S, B.inner_T)
    path = tmp_path / "m.biset"
    path.write_text(dump_biset(Bm, "S.smg", "T.smg"))
    assert main(["biset-check", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    expected = [f"check={name} status={'ok' if ok else 'fail'}"
                + (f" value={w}" if w else "")
                for (name, ok, w) in loop_verify_biset(Bm)]
    assert lines[2:-1] == expected
