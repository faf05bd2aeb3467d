import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from morita.categories import (
    Functor,
    categories_isomorphic,
    check_category,
    check_weak_equivalence,
)
from morita.errors import (
    NotASubgroupoid,
    NotBelow,
    NotInverseSemigroupoid,
    NotPrincipallyInductive,
    NotUnique,
    UndefinedPseudoproduct,
)
from morita.groupoids import (
    C_of_groupoid,
    InverseSemigroupoid,
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
    is_subgroupoid,
    local_isomorphism_report,
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

    def C_of_functor(F):
        src = C_of_groupoid(F.source)
        dst = C_of_groupoid(F.target)
        e, x, f = src._payload_array.T
        return Functor(src, dst, F.obj_map.copy(),
                       dst.mor_of(F.obj_map[e], F.arr_map[x], F.obj_map[f]))

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
        R = InverseSemigroupoid(S.names, S.table)
        assert np.array_equal(R.star, S.star)
        G = ordered_groupoid_of(R)
        H = inductive_groupoid_of(S)
        assert np.array_equal(G.comp, H.comp)
        assert np.array_equal(G.leq, H.leq)
        assert G.objects == H.objects


def test_an_inverse_semigroupoid_orders_a_category(local_submonoid_bisets):
    # ordered_groupoid_of runs no check_category: the checks an
    # InverseSemigroupoid passes when it is made already make G(R) a
    # category.  No one-cell mutant of an R table is an inverse
    # semigroupoid, so the tables here are sub-semigroupoids of R tables,
    # the closures of 1-3 random elements under products and star, each
    # renumbered by a random permutation.
    from morita.bisets import build_R_semigroupoid
    from morita.groupoids import _ordered_groupoid

    rng = np.random.default_rng(31)
    seen = set()
    for B in local_submonoid_bisets:
        R = build_R_semigroupoid(B)
        for _ in range(16):
            keep = np.unique(rng.integers(len(R), size=int(rng.integers(1, 4))))
            while True:
                prods = R.table[np.ix_(keep, keep)]
                grown = np.union1d(np.union1d(keep, R.star[keep]), prods[prods >= 0])
                if len(grown) == len(keep):
                    break
                keep = grown
            p = rng.permutation(len(keep))
            new = np.full(len(R), -1)
            new[keep] = p
            table = np.full((len(keep),) * 2, -1)
            sub = R.table[np.ix_(keep, keep)]
            table[p[:, None], p[None, :]] = np.where(sub >= 0, new[sub], -1)
            names = tuple(str(i) for i in range(len(keep)))
            Rsub = InverseSemigroupoid(names, table)
            G = _ordered_groupoid(Rsub, {})
            assert check_category(G.cat) == []
            seen.add((len(keep), table.tobytes()))
    assert len(seen) >= 100 and len({n for n, _ in seen}) >= 10


def test_inverse_semigroupoid_is_checked_when_made():
    # a left-zero band (its idempotents do not commute), a null semigroup
    # (1 has no inverse) and a partial table that is not associative
    tables = ([[0, 0], [1, 1]], [[0, 0], [0, 0]], [[1, -1], [-1, 1]])
    for table in tables:
        names = tuple(str(i) for i in range(len(table)))
        bad = semigroupoid_violations(names, np.array(table))
        assert bad
        with pytest.raises(NotInverseSemigroupoid) as exc:
            InverseSemigroupoid(names, table)
        assert exc.value.witness == bad[0]


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
        R = InverseSemigroupoid(names, table)
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


# -- the ordered-groupoid layer against its interpreted reference loops -------

def loop_validate_ordered_groupoid(G):
    """The validator with its own category checks and its pair loops."""
    from morita.groupoids import _is_partial_order

    bad = []
    na = G.n_arrows
    dom, cod, comp, inv, leq = G.dom, G.cod, G.comp, G.inv, G.leq
    defined = comp >= 0
    if not np.array_equal(defined, dom[:, None] == cod[None, :]):
        bad.append("composition not defined exactly on matching pairs")
    for o in range(G.n_objects):
        i = int(G.identity[o])
        if dom[i] != o or cod[i] != o:
            bad.append(f"identity of {o} has wrong endpoints")
    g, f = np.nonzero(defined)
    if g.size:
        if not (np.all(dom[comp[g, f]] == dom[f]) and np.all(cod[comp[g, f]] == cod[g])):
            bad.append("composite endpoints wrong")
    ids = G.identity
    ar = np.arange(na)
    if na and not np.all(comp[ids[cod], ar] == ar):
        bad.append("left identity fails")
    if na and not np.all(comp[ar, ids[dom]] == ar):
        bad.append("right identity fails")
    if na and not np.all(comp[ar, inv] == ids[cod]):
        bad.append("g . g^-1 != id")
    if na and not np.all(comp[inv, ar] == ids[dom]):
        bad.append("g^-1 . g != id")
    for h in range(na):
        hg = comp[h]
        mask = defined & (hg >= 0)[:, None]
        if not mask.any():
            continue
        idx = np.where(defined, comp, 0)
        x = comp[h, idx]
        y = comp[np.where(hg >= 0, hg, 0)]
        if not np.array_equal(x[mask], y[mask]):
            bad.append("associativity fails")
            break
    if not _is_partial_order(G.leq):
        bad.append("arrow order is not a partial order")
    if not _is_partial_order(G.obj_leq):
        bad.append("object order is not a partial order")
    for a in range(G.n_objects):
        for b in range(G.n_objects):
            if G.obj_leq[a, b] != leq[int(ids[a]), int(ids[b])]:
                bad.append("object order disagrees with identity-arrow order")
                break
    x, y = np.nonzero(leq)
    if x.size:
        if not np.all(leq[inv[x], inv[y]]):
            bad.append("order not stable under inverse")
        if not np.all(G.obj_leq[dom[x], dom[y]]):
            bad.append("dom not monotone")
        if not np.all(G.obj_leq[cod[x], cod[y]]):
            bad.append("cod not monotone")
    for (a, b) in zip(x, y):
        for (u, v) in zip(x, y):
            if comp[a, u] >= 0 and comp[b, v] >= 0:
                if not leq[comp[a, u], comp[b, v]]:
                    bad.append("composition not monotone")
                    break
        else:
            continue
        break
    for g_ in range(na):
        dg = int(dom[g_])
        for e in range(G.n_objects):
            if not G.obj_leq[e, dg]:
                continue
            below = [h for h in range(na) if leq[h, g_] and dom[h] == e]
            if len(below) != 1:
                bad.append(f"restriction of arrow {g_} to object {e} not unique")
    return bad


_LOOP_CATEGORY_MESSAGES = (
    "composition not defined exactly on matching pairs", "identity of ",
    "composite endpoints wrong", "left identity fails", "right identity fails",
    "associativity fails",
)


def in_loop_wording(msg):
    """A check_category message in the words of the reference loop."""
    msg = msg.replace("composition defined off the composable pairs",
                      "composition not defined exactly on matching pairs")
    msg = msg.replace("identity of object ", "identity of ").replace(" law fails", " fails")
    return msg.split(" around morphism")[0]


def assert_validator_matches_loop(G):
    from morita.categories import check_category

    new, old = validate_ordered_groupoid(G), loop_validate_ordered_groupoid(G)
    cat = check_category(G.cat)
    is_cat = [m.startswith(_LOOP_CATEGORY_MESSAGES) for m in old]
    assert new[:len(cat)] == cat
    assert [in_loop_wording(m) for m in cat] == [m for m, c in zip(old, is_cat) if c]
    assert new[len(cat):] == [m for m, c in zip(old, is_cat) if not c]
    return new


def loop_inductive_groupoid_of(S):
    from morita.semigroups import idempotents
    from reference_loops import loop_natural_leq

    tab, star = S.table, S.star
    E = idempotents(S)
    obj_of = {e: i for i, e in enumerate(E)}
    n = len(S)
    dom = [obj_of[int(tab[star[s], s])] for s in range(n)]
    cod = [obj_of[int(tab[s, star[s]])] for s in range(n)]
    comp = [[int(tab[s, t]) if tab[star[s], s] == tab[t, star[t]] else -1
             for t in range(n)] for s in range(n)]
    leq = [[loop_natural_leq(S, s, t) for t in range(n)] for s in range(n)]
    obj_leq = [[bool(tab[e, f] == e) for f in E] for e in E]
    return (tuple(S.names[e] for e in E), obj_leq, S.names, dom, cod, comp,
            S.star.tolist(), E, leq)


def loop_check_ordered_functor(F):
    G, H = F.source, F.target
    om, am = F.obj_map, F.arr_map
    if om.shape != (G.n_objects,) or am.shape != (G.n_arrows,):
        return False
    if any(H.dom[am[g]] != om[G.dom[g]] or H.cod[am[g]] != om[G.cod[g]]
           for g in range(G.n_arrows)):
        return False
    if any(am[G.identity[o]] != H.identity[om[o]] for o in range(G.n_objects)):
        return False
    if any(am[G.inv[g]] != H.inv[am[g]] for g in range(G.n_arrows)):
        return False
    for g in range(G.n_arrows):
        for f in range(G.n_arrows):
            if G.comp[g, f] >= 0 and am[G.comp[g, f]] != H.comp[am[g], am[f]]:
                return False
    return all(H.leq[am[a], am[b]] for a in range(G.n_arrows)
               for b in range(G.n_arrows) if G.leq[a, b])


def loop_restriction(G, e, g, ends):
    """The arrows below g whose end (dom or cod) is e, or None when e is not below."""
    if not G.obj_leq[e, int(ends[g])]:
        return None
    return tuple(h for h in range(G.n_arrows) if G.leq[h, g] and ends[h] == e)


def loop_meet_objects(G, a, b):
    lower = [c for c in range(G.n_objects) if G.obj_leq[c, a] and G.obj_leq[c, b]]
    return next((m for m in lower if all(G.obj_leq[c, m] for c in lower)), None)


def loop_is_principally_inductive(G):
    for e in range(G.n_objects):
        down = [f for f in range(G.n_objects) if G.obj_leq[f, e]]
        if any(loop_meet_objects(G, a, b) is None for a in down for b in down):
            return False
    return True


def loop_li2(F):
    """(LI2): every y <= F(a) has exactly one b <= a with F(b) = y."""
    G, H, om = F.source, F.target, F.obj_map
    return all(sum(1 for b in range(G.n_objects) if G.obj_leq[b, a] and om[b] == y) == 1
               for a in range(G.n_objects) for y in range(H.n_objects)
               if H.obj_leq[y, om[a]])


def assert_restrictions_match_loop(G, rng):
    for _ in range(6):
        e, a = (int(v) for v in rng.integers(0, G.n_objects, size=2))
        g = int(rng.integers(0, G.n_arrows))
        assert meet_objects(G, e, a) == loop_meet_objects(G, e, a)
        for fn, ends, key in ((restriction, G.dom, lambda e, g: (e, g)),
                              (corestriction, G.cod, lambda e, g: (g, e))):
            below = loop_restriction(G, e, g, ends)
            args = (G, e, g) if fn is restriction else (G, g, e)
            if below is None:
                with pytest.raises(NotBelow) as info:
                    fn(*args)
                assert info.value.witness == key(e, g)
            elif len(below) != 1:
                with pytest.raises(NotUnique) as info:
                    fn(*args)
                assert info.value.witness == key(e, g) + (below,)
                assert all(type(h) is int for h in info.value.witness[2])
            else:
                assert fn(*args) == below[0] and type(below[0]) is int


def loop_pseudoproduct(G, g, h):
    """g o h from the loop meet and restrictions: an arrow, None where there is
    no meet, or the type of the error pseudoproduct raises."""
    e = loop_meet_objects(G, int(G.dom[g]), int(G.cod[h]))
    if e is None:
        return None
    gr, hc = loop_restriction(G, e, g, G.dom), loop_restriction(G, e, h, G.cod)
    if len(gr) != 1 or len(hc) != 1:
        return NotUnique
    out = int(G.comp[gr[0], hc[0]])
    return out if out >= 0 else UndefinedPseudoproduct


def assert_pseudoproducts_match_loop(G, cells):
    for g, h in cells:
        expected = loop_pseudoproduct(G, g, h)
        try:
            got = pseudoproduct(G, g, h)
        except (NotUnique, UndefinedPseudoproduct) as exc:
            got = type(exc)
        assert got == expected
        assert G._pseudoproducts[g, h] == (expected if type(expected) is int else -1)


def loop_is_subgroupoid(G, arrows):
    A = set(int(a) for a in arrows)
    if not A:
        return False
    if any(int(G.inv[a]) not in A for a in A):
        return False
    for a in A:
        for b in A:
            c = int(G.comp[a, b])
            if c >= 0 and c not in A:
                return False
    objs = {int(G.dom[a]) for a in A} | {int(G.cod[a]) for a in A}
    return all(int(G.identity[o]) in A for o in objs)


def loop_is_enlargement(G, A):
    """None where A is not a subgroupoid, else the three enlargement conditions."""
    if not loop_is_subgroupoid(G, A):
        return None
    A = set(int(a) for a in A)
    objs = {int(G.dom[a]) for a in A} | {int(G.cod[a]) for a in A}
    for m in range(G.n_arrows):
        if int(G.dom[m]) in objs and int(G.cod[m]) in objs and m not in A:
            return False
        if m not in A and any(G.leq[m, a] for a in A):
            return False
    return all(o in objs or any(int(G.dom[m]) == o and int(G.cod[m]) in objs
                                for m in range(G.n_arrows))
               for o in range(G.n_objects))


def loop_sub_ordered_groupoid_fields(G, arrows):
    A = sorted(set(int(a) for a in arrows))
    objs = sorted({int(G.dom[a]) for a in A} | {int(G.cod[a]) for a in A})
    opos = {o: i for i, o in enumerate(objs)}
    apos = {a: i for i, a in enumerate(A)}
    comp = [[apos[int(G.comp[a, b])] if G.comp[a, b] >= 0 else -1 for b in A] for a in A]
    return (tuple(G.objects[o] for o in objs), G.obj_leq[np.ix_(objs, objs)].tolist(),
            tuple(G.arrows[a] for a in A), [opos[int(G.dom[a])] for a in A],
            [opos[int(G.cod[a])] for a in A], comp, [apos[int(G.inv[a])] for a in A],
            [apos[int(G.identity[o])] for o in objs], G.leq[np.ix_(A, A)].tolist())


def assert_subgroupoids_match_loops(G, rng):
    """Subgroupoid, enlargement and sub-groupoid construction on arrow sets of G:
    everything, each local group, each full subgroupoid on a set of objects
    (down-closed or not) and random sets."""
    objects = [np.ones(G.n_objects, dtype=bool)]
    objects += [np.arange(G.n_objects) == o for o in range(G.n_objects)]
    objects += [rng.random(G.n_objects) < 0.5 for _ in range(4)]
    objects += [G.obj_leq[:, o] for o in range(G.n_objects)]
    sets = [np.flatnonzero(O[G.dom] & O[G.cod]) for O in objects]
    sets += [np.flatnonzero((G.dom == o) & (G.cod == o)) for o in range(G.n_objects)]
    sets += [np.flatnonzero(rng.random(G.n_arrows) < 0.3) for _ in range(4)]
    for A in sets:
        expected = loop_is_enlargement(G, A)
        assert is_subgroupoid(G, A) == (expected is not None)
        if expected is None:
            with pytest.raises(NotASubgroupoid):
                is_enlargement(G, A)
            continue
        assert is_enlargement(G, A) == expected
        H, incl = sub_ordered_groupoid(G, A)
        fields = (H.objects, H.obj_leq.tolist(), H.arrows, H.dom.tolist(),
                  H.cod.tolist(), H.comp.tolist(), H.inv.tolist(),
                  H.identity.tolist(), H.leq.tolist())
        assert fields == loop_sub_ordered_groupoid_fields(G, A)
        assert incl.arr_map.tolist() == sorted(set(A.tolist()))


def groupoid_mutants(G, rng, count):
    """Copies of G with up to two flipped order cells, or a changed composite or inverse."""
    na, no = G.n_arrows, G.n_objects
    for k in range(count):
        leq, obj_leq = G.leq.copy(), G.obj_leq.copy()
        comp, inv = G.comp.copy(), G.inv.copy()
        kind = k % 4
        if kind == 0:
            i, j = rng.integers(0, na, size=(2, 2))
            leq[i, j] = ~leq[i, j]
        elif kind == 1:
            i, j = rng.integers(0, no, size=(2, 2))
            obj_leq[i, j] = ~obj_leq[i, j]
        elif kind == 2:
            i, j = rng.integers(0, na, size=2)
            comp[i, j] = rng.integers(-1, na)
        else:
            inv[rng.integers(0, na)] = rng.integers(0, na)
        yield OrderedGroupoid(G.objects, obj_leq, G.arrows, G.dom, G.cod, comp,
                              inv, G.identity, leq)


def test_ordered_groupoid_layer_matches_loops(local_submonoid_bisets):
    from morita.bisets import build_R_semigroupoid
    from morita.corpus import builtin_corpus, random_inverse_subsemigroups
    from morita.semigroups import symmetric_inverse_monoid

    semigroups = ([S for _name, S in builtin_corpus()] + [symmetric_inverse_monoid(3)]
                  + random_inverse_subsemigroups(3, 25))
    groupoids = []
    for S in semigroups:
        G = inductive_groupoid_of(S)
        fields = (G.objects, G.obj_leq.tolist(), G.arrows, G.dom.tolist(),
                  G.cod.tolist(), G.comp.tolist(), G.inv.tolist(),
                  G.identity.tolist(), G.leq.tolist())
        assert fields == loop_inductive_groupoid_of(S)
        assert G.extra == {"kind": "inductive", "sgrp": S}
        groupoids.append(G)
    groupoids += [ordered_groupoid_of(build_R_semigroupoid(B))
                  for B in local_submonoid_bisets]
    point = OrderedGroupoid(("1",), [[True]], ("1",), [0], [0], [[0]], [0], [0], [[True]])
    rng = np.random.default_rng(17)
    extra_rng = np.random.default_rng(23)   # the subgroupoid and pseudoproduct samples
    verdicts, li2_seen = set(), set()
    for G in groupoids:
        assert assert_validator_matches_loop(G) == []
        assert_restrictions_match_loop(G, rng)
        assert_subgroupoids_match_loops(G, extra_rng)
        assert_pseudoproducts_match_loop(G, np.argwhere(np.ones((G.n_arrows,) * 2)))
        assert is_principally_inductive(G) == loop_is_principally_inductive(G)
        ident = OrderedFunctor(G, G, np.arange(G.n_objects), np.arange(G.n_arrows))
        assert check_ordered_functor(ident) and loop_check_ordered_functor(ident)
        # the local group at each o (li2 fails when anything lies below o),
        # and the functor onto the trivial group (no lift is unique below a
        # non-minimal object)
        for F in [sub_ordered_groupoid(G, np.flatnonzero((G.dom == o) & (G.cod == o)))[1]
                  for o in range(G.n_objects)] + [
                OrderedFunctor(G, point, np.zeros(G.n_objects), np.zeros(G.n_arrows))]:
            li2 = local_isomorphism_report(F)["li2"]
            assert li2 is loop_li2(F)
            li2_seen.add(li2)
        for H in groupoid_mutants(G, rng, 8):
            verdicts.add(bool(assert_validator_matches_loop(H)))
            assert_restrictions_match_loop(H, rng)
            cells = extra_rng.integers(0, H.n_arrows, size=(20, 2))
            assert_pseudoproducts_match_loop(H, cells)
            assert is_principally_inductive(H) == loop_is_principally_inductive(H)
            for F in (OrderedFunctor(G, H, ident.obj_map, ident.arr_map),
                      OrderedFunctor(G, G, ident.obj_map,
                                     rng.integers(0, G.n_arrows, size=G.n_arrows)),
                      OrderedFunctor(G, G, rng.integers(0, G.n_objects, size=G.n_objects),
                                     ident.arr_map)):
                assert check_ordered_functor(F) == loop_check_ordered_functor(F)
    assert verdicts == li2_seen == {False, True}


def test_check_ordered_functor_rejects_out_of_range_arrow_maps(b12):
    G = inductive_groupoid_of(b12)
    om, am = np.arange(G.n_objects), np.arange(G.n_arrows)
    assert check_ordered_functor(OrderedFunctor(G, G, om, am))
    for bad in (-1, G.n_arrows):
        wrong = am.copy()
        wrong[0] = bad
        assert not check_ordered_functor(OrderedFunctor(G, G, om, wrong))
