import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from morita.categories import categories_isomorphic, check_weak_equivalence, Functor
from morita.errors import (
    NotASubgroupoid,
    NotBelow,
    NotPrincipallyInductive,
    UndefinedPseudoproduct,
)
from morita.groupoids import (
    C_of_groupoid,
    L_of_groupoid,
    L_of_ordered_functor,
    OrderedFunctor,
    OrderedGroupoid,
    corestriction,
    check_ordered_functor,
    inductive_groupoid_of,
    is_enlargement,
    is_local_isomorphism,
    is_principally_inductive,
    local_isomorphism_report,
    make_inverse_semigroupoid,
    meet_objects,
    ordered_groupoid_of,
    pseudoproduct,
    restriction,
    semigroupoid_violations,
    sub_ordered_groupoid,
    validate_ordered_groupoid,
)
from morita.categories import C_of, L_of
from morita.semigroups import chain_semilattice, cyclic_group


def antichain_groupoid():
    """Three objects e > a, e > b with a, b incomparable: no meet of a and b."""
    obj_leq = np.eye(3, dtype=bool)
    obj_leq[1, 0] = obj_leq[2, 0] = True  # a <= e, b <= e
    return OrderedGroupoid(
        ("e", "a", "b"), obj_leq, ("ide", "ida", "idb"),
        np.arange(3), np.arange(3),
        np.diag(np.arange(3)) - (1 - np.eye(3, dtype=np.int64)),
        np.arange(3), np.arange(3), obj_leq.copy(),
    )


def test_inductive_groupoid_invariants(small_corpus):
    for S in small_corpus:
        G = inductive_groupoid_of(S)
        assert validate_ordered_groupoid(G) == []
        assert is_principally_inductive(G)


def test_inductive_groupoid_shapes(b12, chain2):
    G = inductive_groupoid_of(cyclic_group(3))
    assert G.n_objects == 1
    assert np.array_equal(G.leq, np.eye(3, dtype=bool))
    Gc = inductive_groupoid_of(chain2)
    # only identity arrows, ordered as the chain
    assert (Gc.comp >= 0).sum() == 2
    assert Gc.leq[1, 0] and not Gc.leq[0, 1]
    GB = inductive_groupoid_of(b12)
    composable = int((GB.comp >= 0).sum())
    expected = sum(
        1 for s in range(len(b12)) for t in range(len(b12))
        if b12.mul(b12.inv(s), s) == b12.mul(t, b12.inv(t))
    )
    assert composable == expected


def test_restriction(b12):
    G = inductive_groupoid_of(b12)
    zero_obj = G.objects.index("0")
    arrow = b12.index("(1,2)")
    # restriction of (1,2) to the zero object is the zero arrow
    assert G.arrows[restriction(G, zero_obj, arrow)] == "0"
    # e = dom(g) restricts to g itself
    assert restriction(G, int(G.dom[arrow]), arrow) == arrow
    assert corestriction(G, arrow, int(G.cod[arrow])) == arrow
    with pytest.raises(NotBelow):
        restriction(G, G.objects.index("(1,1)"), arrow)
    # restriction of an identity to a smaller object is that identity
    Gc = inductive_groupoid_of(chain_semilattice(2))
    assert restriction(Gc, 1, int(Gc.identity[0])) == int(Gc.identity[1])


def test_pseudoproduct_matches_semigroup(small_corpus):
    for S in small_corpus:
        G = inductive_groupoid_of(S)
        for s in range(len(S)):
            for t in range(len(S)):
                assert pseudoproduct(G, s, t) == S.mul(s, t)


def test_pseudoproduct_meet_cases(chain3):
    G = inductive_groupoid_of(chain3)
    # identities compose to the meet in a semilattice
    for e in range(3):
        for f in range(3):
            assert pseudoproduct(G, e, f) == max(e, f)
    A = antichain_groupoid()
    assert validate_ordered_groupoid(A) == []
    assert meet_objects(A, 1, 2) is None
    assert pseudoproduct(A, 1, 2) is None
    assert not is_principally_inductive(A)
    with pytest.raises(NotPrincipallyInductive):
        C_of_groupoid(A)


def test_L_C_of_groupoid_agree(b12, chain2):
    for S in (b12, chain2, cyclic_group(3)):
        G = inductive_groupoid_of(S)
        assert categories_isomorphic(L_of_groupoid(G), L_of(S)) is not None
        assert categories_isomorphic(C_of_groupoid(G), C_of(S)) is not None


def test_is_enlargement(b12):
    G = inductive_groupoid_of(b12)
    all_arrows = list(range(G.n_arrows))
    assert is_enlargement(G, all_arrows)
    # the rank-one part {(1,1),(1,2),(2,1),(2,2)} is full but not an order ideal
    rank1 = [b12.index(n) for n in ("(1,1)", "(1,2)", "(2,1)", "(2,2)")]
    assert not is_enlargement(G, rank1)
    with pytest.raises(NotASubgroupoid):
        is_enlargement(G, [b12.index("(1,2)")])


def test_local_isomorphism(b12):
    G = inductive_groupoid_of(b12)
    ident = OrderedFunctor(G, G, np.arange(G.n_objects), np.arange(G.n_arrows))
    assert check_ordered_functor(ident)
    assert is_local_isomorphism(ident)
    # constant functor onto the top of the 2-chain: LI2 fails
    Gc = inductive_groupoid_of(chain_semilattice(2))
    const = OrderedFunctor(Gc, Gc, np.zeros(2, dtype=np.int64),
                           np.zeros(2, dtype=np.int64))
    rep = local_isomorphism_report(const)
    assert not rep["li2"] and not rep["local_isomorphism"]
    assert not check_weak_equivalence(L_of_ordered_functor(const))


def test_local_iso_matches_C_weak_equivalence(b12):
    # is_local_isomorphism(theta) == check_weak_equivalence(C(theta)) for
    # principally inductive groupoids
    G = inductive_groupoid_of(b12)
    CG = C_of_groupoid(G)
    cidx = CG.extra["index"]

    def C_of_functor(F):
        src = C_of_groupoid(F.source)
        dst = C_of_groupoid(F.target)
        didx = dst.extra["index"]
        om = F.obj_map.copy()
        mm = np.array(
            [didx[(int(F.obj_map[e]), int(F.arr_map[x]), int(F.obj_map[f]))]
             for (e, x, f) in src.extra["payload"]],
            dtype=np.int64,
        )
        return Functor(src, dst, om, mm)

    ident = OrderedFunctor(G, G, np.arange(G.n_objects), np.arange(G.n_arrows))
    assert is_local_isomorphism(ident) == check_weak_equivalence(C_of_functor(ident))
    Gc = inductive_groupoid_of(chain_semilattice(2))
    const = OrderedFunctor(Gc, Gc, np.zeros(2, dtype=np.int64),
                           np.zeros(2, dtype=np.int64))
    assert local_isomorphism_report(const)["local_isomorphism"] \
        == check_weak_equivalence(C_of_functor(const))


def test_ordered_groupoid_of_semigroup(b12, chain3):
    # an inverse semigroup, viewed as an everywhere-defined semigroupoid,
    # yields its inductive groupoid
    for S in (b12, chain3):
        R = make_inverse_semigroupoid(S.names, S.table)
        assert np.array_equal(R.star, S.star)
        G = ordered_groupoid_of(R)
        H = inductive_groupoid_of(S)
        assert np.array_equal(G.comp, H.comp)
        assert np.array_equal(G.leq, H.leq)
        assert G.objects == H.objects


def test_sub_ordered_groupoid_enlargement_inclusion(b12):
    G = inductive_groupoid_of(b12)
    H, incl = sub_ordered_groupoid(G, range(G.n_arrows))
    assert validate_ordered_groupoid(H) == []
    assert check_ordered_functor(incl)
    assert is_local_isomorphism(incl)


# -- the array checks against interpreted reference loops ---------------------

def loop_semigroupoid_violations(names, table):
    """The interpreted O(n^3) loop, kept as the reference for the array pass."""
    bad = []
    n = len(names)
    tab = table
    for a in range(n):
        for b in range(n):
            ab = int(tab[a, b])
            for c in range(n):
                bc = int(tab[b, c])
                if ab >= 0 and bc >= 0:
                    if tab[ab, c] < 0 or tab[a, bc] < 0 or tab[ab, c] != tab[a, bc]:
                        bad.append(f"associativity fails at ({a},{b},{c})")
                elif ab >= 0 and tab[ab, c] >= 0 and bc < 0:
                    bad.append(f"definedness incoherent at ({a},{b},{c})")
    for a in range(n):
        if not any(tab[int(tab[a, b]), a] == a and tab[int(tab[b, a]), b] == b
                   for b in range(n) if tab[a, b] >= 0 and tab[b, a] >= 0):
            bad.append(f"element {a} has no inverse")
    idem = [e for e in range(n) if tab[e, e] == e]
    for e in idem:
        for f in idem:
            ef, fe = int(tab[e, f]), int(tab[f, e])
            if (ef >= 0) != (fe >= 0) or (ef >= 0 and ef != fe):
                bad.append(f"idempotents {e},{f} do not commute")
    if not bad:
        for a in range(n):
            invs = [b for b in range(n)
                    if tab[a, b] >= 0 and tab[b, a] >= 0
                    and tab[int(tab[a, b]), a] == a and tab[int(tab[b, a]), b] == b]
            if len(invs) != 1:
                bad.append(f"element {a} has {len(invs)} inverses")
    return bad


def loop_star(table):
    """The first inverse of each element, by a loop over candidates."""
    n = len(table)
    star = []
    for a in range(n):
        for b in range(n):
            if (table[a, b] >= 0 and table[b, a] >= 0
                    and table[int(table[a, b]), a] == a
                    and table[int(table[b, a]), b] == b):
                star.append(b)
                break
    return star


def assert_matches_loop(table):
    table = np.asarray(table, dtype=np.int64)
    names = tuple(str(i) for i in range(len(table)))
    bad = semigroupoid_violations(names, table)
    assert bad == loop_semigroupoid_violations(names, table)
    if not bad:
        R = make_inverse_semigroupoid(names, table)
        assert R.star.tolist() == loop_star(table)


def test_semigroupoid_checks_match_loop_on_corpus_and_R_mutants(local_submonoid_bisets):
    from morita.bisets import build_R_semigroupoid
    from morita.corpus import builtin_corpus

    for _name, S in builtin_corpus():
        assert_matches_loop(S.table)
    rng = np.random.default_rng(5)
    for B in local_submonoid_bisets:
        table = build_R_semigroupoid(B).table.copy()
        assert semigroupoid_violations(range(len(table)), table) == []
        assert_matches_loop(table)
        n = len(table)
        for _ in range(4):
            t = table.copy()
            for _ in range(int(rng.integers(1, 3))):
                i, j = rng.integers(0, n, size=2)
                t[i, j] = rng.integers(-1, n)
            assert_matches_loop(t)


@st.composite
def partial_tables(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    cells = draw(st.lists(st.integers(-1, max(n - 1, 0)), min_size=n * n, max_size=n * n))
    return np.array(cells, dtype=np.int64).reshape(n, n)


@settings(max_examples=150, deadline=None)
@given(table=partial_tables())
@example(table=np.zeros((0, 0), dtype=np.int64))
@example(table=np.zeros((1, 1), dtype=np.int64))
@example(table=np.full((1, 1), -1, dtype=np.int64))
def test_semigroupoid_violations_match_loop_on_random_tables(table):
    assert_matches_loop(table)


def test_semigroupoid_violations_over_several_row_blocks():
    # n = 40 runs the associativity pass in blocks of 2**15 // 40**2 = 20 rows
    from morita._util import row_blocks

    assert len(row_blocks(40, 40 * 40)) == 2
    rng = np.random.default_rng(9)
    zero = np.zeros((40, 40), dtype=np.int64)   # a null semigroup: no inverses
    assert_matches_loop(zero)
    t = rng.integers(-1, 40, size=(40, 40))
    assert_matches_loop(t)
    # a group table with a few cells broken late in the row order
    from morita.semigroups import cyclic_group as Cn

    g = Cn(40).table.copy()
    g[33, 5] = -1
    g[38, 2] = int(g[38, 3])
    assert_matches_loop(g)


def test_pseudoproduct_raises_when_the_composite_is_missing(b12):
    G = inductive_groupoid_of(b12)
    s, t = b12.index("(1,2)"), b12.index("(2,1)")
    comp = G.comp.copy()
    comp[s, t] = -1
    H = OrderedGroupoid(G.objects, G.obj_leq, G.arrows, G.dom, G.cod, comp,
                        G.inv, G.identity, G.leq)
    with pytest.raises(UndefinedPseudoproduct):
        pseudoproduct(H, s, t)
