import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from morita.actions import (
    EtaleAction,
    Presheaf,
    I_shriek,
    I_star,
    Q_of,
    Q_shriek,
    R_of,
    RightAction,
    U_of,
    action_homs,
    action_isomorphic,
    check_action,
    check_etale,
    check_presheaf,
    coequalizer_action,
    coproduct_action,
    counit_UR,
    empty_action,
    etale_morphism_check,
    etale_of_presheaf,
    fullness_faithfulness_check,
    i_shriek_with_maps,
    indecomposable_projective_check,
    is_closed,
    is_indecomposable,
    is_unitary,
    munn_action,
    presheaf_nats,
    presheaf_of_etale,
    principal_action,
    principal_etale,
    product_action,
    q_shriek_with_unit,
    quotient_action,
    regular_action,
    tensor_with_S,
    unit_UR,
    unit_iso_check,
    unit_iso_checks,
)
from morita.categories import C_of, L_of
from morita.errors import BudgetExceeded, InvariantBroken, NotClosed, WrongSite
from morita.semigroups import chain_semilattice, cyclic_group, idempotents
from morita._util import components
from reference_loops import UnionFind, category_of_elements, loop_etale_of_fibers


def orphan_action(S):
    """Two points, everything acts onto the first: x1 never hit."""
    act = np.zeros((2, len(S)), dtype=np.int64)
    return RightAction(("x0", "x1"), S, act)


def test_unitary(chain2, b12):
    assert is_unitary(regular_action(b12))
    one = RightAction(("pt",), chain2, np.zeros((1, 2), dtype=np.int64))
    assert is_unitary(one)
    assert not is_unitary(orphan_action(chain2))


def test_tensor_and_closed(chain2, b12):
    for e in idempotents(b12):
        t = tensor_with_S(principal_action(b12, e))
        assert t.surjective and t.injective
    t = tensor_with_S(orphan_action(chain2))
    assert not t.surjective
    assert not is_closed(orphan_action(chain2))


def _sub_action(X, x):
    """The sub-action of X on x and its orbit x.S."""
    pts = np.unique(np.concatenate(([x], X.act[x])))
    point = np.full(len(X), -1, dtype=np.int64)
    point[pts] = np.arange(len(pts))
    return RightAction(tuple(X.carrier[p] for p in pts), X.sgrp, point[X.act[pts]])


def _all_actions(S, n):
    """Every action of S on n points: the tables that satisfy the action law."""
    ns = len(S)
    tables = np.array(list(itertools.product(range(n), repeat=n * ns)),
                      dtype=np.int64).reshape(-1, n, ns)
    k = np.arange(len(tables))[:, None, None, None]
    law = tables[k, tables[..., None], np.arange(ns)] == tables[:, :, S.table]
    return [RightAction(tuple(range(n)), S, a) for a in tables[law.all(axis=(1, 2, 3))]]


def test_closed_is_the_tensor_test_on_inverse_semigroups():
    # is_closed reads unitarity on an inverse semigroup; the tensor decides
    # closedness from its definition, on closed and non-unitary actions alike
    from morita.corpus import (
        builtin_corpus,
        random_inverse_subsemigroups,
        sample_closed_actions,
    )

    members = [S for _name, S in builtin_corpus()]
    randoms = random_inverse_subsemigroups(5, 8)
    outcomes, exhaustive = set(), 0
    for k, S in enumerate(members + randoms):
        samples = sample_closed_actions(S, 3, 4) + [orphan_action(S), empty_action(S)]
        samples.append(coproduct_action([samples[0], orphan_action(S)]))
        samples += [_sub_action(X, x) for X in samples for x in range(len(X))]
        if k < len(members) and len(S) <= 3:
            small = [X for n in (1, 2, 3) for X in _all_actions(S, n)]
            exhaustive += len(small)
            samples += small
        for X in samples:
            t, closed = tensor_with_S(X), is_closed(X)
            assert closed == (t.surjective and t.injective) == is_unitary(X)
            outcomes.add(closed)
    # every action on 1 to 3 points of the 9 members of order at most 3
    assert outcomes == {True, False} and exhaustive == 291


def test_is_closed_raises_on_a_non_action(b12):
    from morita.actions import action_law_witness

    X = regular_action(b12)
    act = X.act.copy()
    act[1, 2] = (act[1, 2] + 1) % len(X)
    Xm = RightAction(X.carrier, b12, act)
    bad = action_law_witness(Xm)
    assert bad is not None
    with pytest.raises(InvariantBroken) as exc:
        is_closed(Xm)
    assert exc.value.witness == bad


def test_closed_differs_from_unitary_without_inverses():
    # a and b are left identities, so no edge joins q (x) a or q (x) b to
    # another node: two classes over q
    from morita.semigroups import FiniteSemigroup, local_unit_flags

    S = FiniteSemigroup(("z", "a", "b"), np.array([[0, 0, 0], [0, 1, 2], [0, 1, 2]]))
    X = RightAction(("p", "q"), S, np.array([[0, 0, 0], [0, 1, 1]]))
    assert local_unit_flags(S).right_local_units
    assert check_action(X) and is_unitary(X)
    t = tensor_with_S(X)
    assert t.surjective and not t.injective
    assert not is_closed(X)


def test_munn(chain2, b12):
    M = munn_action(chain2)
    # z.e = z and e.z = z
    assert M.base.carrier == ("e0", "e1")
    assert M.base.act[1, 0] == 1
    assert M.base.act[0, 1] == 1
    MB = munn_action(b12)
    i = list(MB.base.extra["elt_of_point"]).index(b12.index("(1,1)"))
    res = int(MB.base.act[i, b12.index("(1,2)")])
    assert MB.base.carrier[res] == "(2,2)"
    assert check_etale(MB)


def test_check_etale_and_morphisms(b12):
    for e in idempotents(b12):
        assert check_etale(principal_etale(b12, e))
    # alpha_s : dS -> eS, t -> st is an injective etale morphism
    L = L_of(b12)
    for (e, s) in L._payload_array.tolist():
        d = b12.mul(b12.inv(s), s)
        dS = principal_etale(b12, d)
        eS = principal_etale(b12, e)
        pts = dS.base.extra["elt_of_point"]
        pos = {s: i for i, s in enumerate(eS.base.extra["elt_of_point"])}
        f = np.array([pos[b12.mul(s, t)] for t in pts], dtype=np.int64)
        assert etale_morphism_check(f, dS, eS)
        assert len(set(f.tolist())) == len(f)  # injective
    # breaking the anchor is detected
    M = munn_action(b12)
    bad = np.arange(len(M))
    assert etale_morphism_check(bad, M, M)
    if len(M) >= 2:
        bad = bad.copy()
        bad[[0, 1]] = bad[[1, 0]]
        assert not etale_morphism_check(bad, M, M)


def test_presheaf_roundtrip(small_corpus):
    for S in small_corpus:
        L = L_of(S)
        for X in [munn_action(S)] + [principal_etale(S, e) for e in idempotents(S)]:
            P = presheaf_of_etale(X, L)
            assert check_presheaf(P)
            Y = etale_of_presheaf(P)
            assert check_etale(Y)
            # explicit mutually inverse point maps
            obj_elt = L.extra["obj_elt"]
            obj_of = {e: i for i, e in enumerate(obj_elt)}
            fwd = np.empty(len(X), dtype=np.int64)
            pairs = Y.base.extra["pairs"]
            ppos = {p: i for i, p in enumerate(pairs)}
            for x in range(len(X)):
                o = obj_of[int(X.anchor[x])]
                fwd[x] = ppos[(o, P.pts[o].index(x))]
            assert etale_morphism_check(fwd, X, Y)
            assert sorted(fwd.tolist()) == list(range(len(Y)))


def test_representable_fiber_sizes(b12):
    # fiber of the presheaf of eS over d counts {s : ss* <= e, s*s = d}
    S = b12
    L = L_of(S)
    for e in idempotents(S):
        P = presheaf_of_etale(principal_etale(S, e), L)
        for o, d in enumerate(L.extra["obj_elt"]):
            expected = [
                s for s in range(len(S))
                if S.mul(e, s) == s and S.mul(S.inv(s), s) == d
            ]
            assert P.fiber_size(o) == len(expected)


def test_category_of_elements(chain2, b12):
    L = L_of(chain2)
    P = presheaf_of_etale(munn_action(chain2), L)
    cat, K = category_of_elements(P)
    assert cat.n_objects == 2 and cat.n_mor == 3
    # representable presheaves have a terminal object in their element category
    C = C_of(b12)
    Pe = Q_of(principal_action(b12, idempotents(b12)[0]), C)
    cat, _ = category_of_elements(Pe)
    terminals = [
        o for o in range(cat.n_objects)
        if all(len(cat.hom(x, o)) == 1 for x in range(cat.n_objects))
    ]
    assert terminals  # Yoneda: the element category of a representable has one
    # empty presheaf
    Pempty = Q_of(empty_action(b12), C)
    cat, _ = category_of_elements(Pempty)
    assert cat.n_objects == 0 and cat.n_mor == 0


def test_Q_of(b12):
    S = b12
    C = C_of(S)
    X = regular_action(S)
    P = Q_of(X, C)
    for o, e in enumerate(C.extra["obj_elt"]):
        Se = [s for s in range(len(S)) if S.mul(s, e) == s]
        assert P.fiber_size(o) == len(Se)
    with pytest.raises(NotClosed):
        Q_of(orphan_action(chain_semilattice(2)))


def test_Q_shriek_representables(b12):
    S = b12
    C = C_of(S)
    for e in idempotents(S):
        P = Q_of(principal_action(S, e), C)
        X = Q_shriek(P)
        assert action_isomorphic(X, principal_action(S, e)) is not None
    # coproduct of two representables
    E = idempotents(S)
    P = Q_of(coproduct_action([principal_action(S, E[0]),
                               principal_action(S, E[1])]), C)
    X = Q_shriek(P)
    Y = coproduct_action([principal_action(S, E[0]), principal_action(S, E[1])])
    assert action_isomorphic(X, Y) is not None


def test_Q_shriek_rejects_non_functorial_maps(b12):
    C = C_of(b12)
    P = Q_of(regular_action(b12), C)
    m = next(m for m in range(C.n_mor)
             if m not in C.identity and P.fiber_size(int(C.dom[m])) >= 2
             and P.fiber_size(int(C.cod[m])) >= 1)
    maps = list(P.maps)
    maps[m] = maps[m].copy()
    maps[m][0] = (maps[m][0] + 1) % P.fiber_size(int(C.dom[m]))
    bad = Presheaf(C, P.fibers, tuple(maps))
    assert not check_presheaf(bad)
    with pytest.raises(InvariantBroken):
        Q_shriek(bad)


def test_unit_iso(b12, chain2):
    for S in (b12, chain2):
        C = C_of(S)
        for e in idempotents(S):
            assert unit_iso_check(Q_of(principal_action(S, e), C))
        assert unit_iso_check(Q_of(regular_action(S), C))
    # wrong site is rejected
    P = presheaf_of_etale(munn_action(chain2), L_of(chain2))
    with pytest.raises(WrongSite):
        unit_iso_check(P)


def test_constructions_refuse_a_site_of_another_kind_or_semigroup(b12, chain2):
    X = munn_action(chain2)
    for wrong in (C_of(chain2), L_of(b12)):
        with pytest.raises(WrongSite, match="site must be L"):
            presheaf_of_etale(X, wrong)
    for wrong in (L_of(chain2), C_of(b12)):
        with pytest.raises(WrongSite, match="site must be C"):
            Q_of(X.base, wrong)
        with pytest.raises(WrongSite, match="site must be C"):
            i_shriek_with_maps(X, wrong)
    # a batch of unit checks is empty, or shares one site
    assert unit_iso_checks([]) == []
    P = Q_of(principal_action(chain2, 0))
    with pytest.raises(WrongSite, match="common site"):
        unit_iso_checks([P, Q_of(principal_action(chain2, 0))])
    assert unit_iso_checks([P, P]) == [True, True]


def test_hom_counts_and_fullness(b12):
    S = b12
    tab = S.table
    E = idempotents(S)
    for d in E:
        for e in E:
            dS = principal_action(S, d)
            eS = principal_action(S, e)
            homs = action_homs(dS, eS)
            eSd = [s for s in range(len(S)) if tab[tab[e, s], d] == s]
            assert len(homs) == len(eSd)
            # evaluation at d is a bijection hom(dS, eS) -> eSd
            dpt = dS.extra["elt_of_point"].index(d)
            evals = sorted(int(h[dpt]) for h in homs)
            expected = sorted(eS.extra["elt_of_point"].index(s) for s in eSd)
            assert evals == expected
    X = principal_action(S, E[0])
    Y = coproduct_action([principal_action(S, E[1]), principal_action(S, E[2])])
    C = C_of(S)
    assert fullness_faithfulness_check(X, Y, Q_of(X, C), Q_of(Y, C))


def test_R_U_adjunction(b12, chain2):
    S = b12
    X = regular_action(S)
    RX = R_of(X)
    assert check_etale(RX)
    # |R(eS)| counts pairs (d, x) with xd = x
    for e in idempotents(S):
        eS = principal_action(S, e)
        ReS = R_of(eS)
        expected = sum(
            1 for d in idempotents(S) for x in range(len(eS))
            if eS.act[x, d] == x
        )
        assert len(ReS) == expected
    # counit surjective iff unitary
    _RX, counit = counit_UR(X)
    assert set(counit.tolist()) == set(range(len(X)))
    orphan = orphan_action(chain2)
    _RO, counit_o = counit_UR(orphan)
    assert set(counit_o.tolist()) != set(range(len(orphan)))
    # unit is an etale morphism and the triangle identities hold pointwise
    for p in (munn_action(S), principal_etale(S, idempotents(S)[0])):
        RU, unit = unit_UR(p)
        assert etale_morphism_check(unit, p, RU)
        # triangle 1: counit_{U(p)} . U(unit_p) = id
        _R2, counit2 = counit_UR(U_of(p))
        assert all(int(counit2[unit[x]]) == x for x in range(len(p)))
    # triangle 2: R(counit_X) . unit_{R(X)} = id on R(X)
    RX_pairs = RX.base.extra["pairs"]
    RU_RX, unit_RX = unit_UR(RX)
    _R3, counit3 = counit_UR(U_of(RX))
    pos3 = {p: i for i, p in enumerate(R_of(X).base.extra["pairs"])}
    for i in range(len(RX)):
        e, x = RX_pairs[i]
        j = int(unit_RX[i])             # (e, (e, x)) inside RUR(X)
        assert int(counit3[j]) == i
        assert pos3[(e, x)] == i


def test_I_star_etale(b12):
    C = C_of(b12)
    P = Q_of(regular_action(b12), C)
    assert check_etale(I_star(P))


def test_I_shriek_and_monads(b12, chain2, small_corpus):
    from morita.corpus import sample_etale_actions

    for S in (b12, chain2):
        C = C_of(S)
        obj_elt = C.extra["obj_elt"]
        for X in sample_etale_actions(S):
            res = i_shriek_with_maps(X, C)
            P = res.presheaf
            assert check_presheaf(P)
            for o, e in enumerate(obj_elt):
                Xe = [x for x in range(len(X)) if X.base.act[x, e] == x]
                assert P.fiber_size(o) == len(Xe)
                assert sorted(res.beta[o].values()) == sorted(Xe)
            # naturality of the bijection: beta(P(m)(c)) = beta(c) . a
            for m, (e, a, f) in enumerate(C._payload_array.tolist()):
                co, do = obj_elt.index(e), obj_elt.index(f)
                for ci in range(P.fiber_size(co)):
                    lhs = res.beta[do][int(P.maps[m][ci])]
                    rhs = int(X.base.act[res.beta[co][ci], a])
                    assert lhs == rhs
            # monad carriers agree: I*(I_!(p)) vs R(U(p))
            IS = I_star(P)
            RU = R_of(U_of(X))
            pairs = RU.base.extra["pairs"]
            pos = {p: i for i, p in enumerate(pairs)}
            fwd = np.empty(len(IS), dtype=np.int64)
            for k, (o, ci) in enumerate(IS.base.extra["pairs"]):
                fwd[k] = pos[(obj_elt[o], res.beta[o][ci])]
            assert etale_morphism_check(fwd, IS, RU)
            assert sorted(fwd.tolist()) == list(range(len(RU)))


def test_indecomposable_projective(b12):
    S = b12
    E = idempotents(S)
    for e in E:
        w = indecomposable_projective_check(principal_action(S, e))
        assert w is not None
        assert action_isomorphic(principal_action(S, w),
                                 principal_action(S, e)) is not None
    co = coproduct_action([principal_action(S, E[0]), principal_action(S, E[1])])
    assert not is_indecomposable(co)
    assert indecomposable_projective_check(co) is None
    # indecomposable but not projective: the one-point action of a group
    C2 = cyclic_group(2)
    pt = RightAction(("pt",), C2, np.zeros((1, 2), dtype=np.int64))
    assert is_indecomposable(pt) and is_closed(pt)
    assert indecomposable_projective_check(pt) is None


def test_quotient_and_coequalizer(b12):
    S = b12
    E = idempotents(S)
    X = principal_action(S, E[0])
    Y = coproduct_action([X, X])
    # the fold map and the identity-on-first-summand have a coequalizer
    f = np.arange(len(X), dtype=np.int64)
    g = np.arange(len(X), dtype=np.int64) + len(X)
    Z = coequalizer_action(f, g, X, Y)
    assert check_action(Z) and is_unitary(Z)
    assert len(Z) == len(X)
    # Q preserves the coequalizer: compare fiberwise with the set coequalizer
    C = C_of(S)
    PY = Q_of(Y, C)
    PZ = Q_of(Z, C)
    classes = Z.extra["classes"]
    rep_of = {}
    for i, cls in enumerate(classes):
        for y in cls:
            rep_of[y] = i
    for o, e in enumerate(C.extra["obj_elt"]):
        Ye = [y for y in range(len(Y)) if Y.act[y, e] == y]
        uf = UnionFind(Ye)
        for x in range(len(X)):
            if X.act[x, e] == x:
                uf.union(int(f[x]), int(g[x]))
        fiber_classes = uf.classes()
        assert PZ.fiber_size(o) == len(fiber_classes)
        # the canonical map from the fiberwise coequalizer is a bijection
        images = {frozenset(rep_of[y] for y in cls) for cls in fiber_classes}
        assert all(len(s) == 1 for s in images)
        assert len(images) == len(fiber_classes)


def test_equalizer_created_in_sets(b12):
    from morita.actions import equalizer_action

    S = b12
    E = idempotents(S)
    X = coproduct_action([principal_action(S, E[0]), principal_action(S, E[0])])
    Y = principal_action(S, E[0])
    homs = action_homs(X, Y)
    f, g = homs[0], homs[-1]
    Z = equalizer_action(f, g, X)
    assert check_action(Z)
    expected = [x for x in range(len(X)) if f[x] == g[x]]
    assert len(Z) == len(expected)
    assert is_unitary(Z)


def test_product_action(chain2):
    S = chain2
    E = idempotents(S)
    X = principal_action(S, E[0])
    Y = principal_action(S, E[1])
    P = product_action(X, Y)
    assert check_action(P) and is_unitary(P)
    pairs = P.extra["pairs"]
    # projections are equivariant
    for i, (x, y) in enumerate(pairs):
        for s in range(len(S)):
            px, py = pairs[int(P.act[i, s])]
            assert px == int(X.act[x, s]) and py == int(Y.act[y, s])
    # universal property against maps from eS
    Z = principal_action(S, E[0])
    for hx in action_homs(Z, X):
        for hy in action_homs(Z, Y):
            mediating = [pairs.index((hx[z], hy[z])) for z in range(len(Z))]
            assert all(
                pairs[int(P.act[mediating[z], s])]
                == (int(X.act[hx[z], s]), int(Y.act[hy[z], s]))
                for z in range(len(Z)) for s in range(len(S))
            )


def test_empty_action_everywhere(b12):
    X = empty_action(b12)
    assert is_unitary(X) and is_closed(X)
    P = Q_of(X)
    assert all(P.fiber_size(o) == 0 for o in range(P.site.n_objects))
    assert len(Q_shriek(P)) == 0
    empty_etale = EtaleAction(X, np.empty(0, dtype=np.int64))
    assert check_etale(empty_etale)
    PE = I_shriek(empty_etale)
    assert all(PE.fiber_size(o) == 0 for o in range(PE.site.n_objects))


# -- reference colimits: the union-find constructions the array code replaced ---

def _uf_classes(nodes, edges):
    uf = UnionFind(nodes)
    for x, y in edges:
        uf.union(x, y)
    classes = uf.classes()
    return classes, {v: i for i, cls in enumerate(classes) for v in cls}


def _ref_tensor(X):
    S = X.sgrp
    n, ns = len(X), len(S)
    classes, _ = _uf_classes(
        [(x, s) for x in range(n) for s in range(ns)],
        [((int(X.act[x, s]), t), (x, int(S.table[s, t])))
         for x in range(n) for s in range(ns) for t in range(ns)])
    mu = []
    for cls in classes:
        vals = {int(X.act[x, s]) for (x, s) in cls}
        assert len(vals) == 1
        mu.append(vals.pop())
    return mu, set(mu) == set(range(n)), len(set(mu)) == len(mu)


def _ref_quotient_action(X, pairs):
    uf = UnionFind(range(len(X)))
    stack = [tuple(p) for p in pairs]
    while stack:
        a, b = stack.pop()
        if uf.find(a) == uf.find(b):
            continue
        uf.union(a, b)
        stack.extend((int(X.act[a, s]), int(X.act[b, s])) for s in range(len(X.sgrp)))
    classes = uf.classes()
    rep_of = {x: i for i, cls in enumerate(classes) for x in cls}
    act = [[rep_of[int(X.act[cls[0], s])] for s in range(len(X.sgrp))]
           for cls in classes]
    return tuple(X.carrier[cls[0]] for cls in classes), act, classes


def _ref_q_shriek(P):
    S, C = P.site.extra["sgrp"], P.site
    obj_elt = C.extra["obj_elt"]
    elements, _K = category_of_elements(P)
    eobjs = elements.extra["objs"]
    tab = S.table

    def ideal(e):
        return [s for s in range(len(S)) if tab[e, s] == s]

    edges = []
    for m, (f, _i) in enumerate(elements._payload_array.tolist()):
        src, dst = int(elements.dom[m]), int(elements.cod[m])
        a = int(C._payload_array[f, 1])
        edges.extend(((dst, int(tab[a, u])), (src, u))
                     for u in ideal(obj_elt[eobjs[src][0]]))
    classes, rep_of = _uf_classes(
        [(k, u) for k, (o, _i) in enumerate(eobjs) for u in ideal(obj_elt[o])], edges)
    act = [[rep_of[(cls[0][0], int(tab[cls[0][1], s]))] for s in range(len(S))]
           for cls in classes]
    unit = {(o, i): rep_of[(k, obj_elt[o])] for k, (o, i) in enumerate(eobjs)}
    return act, unit


def _ref_i_shriek(X, C):
    S = X.sgrp
    obj_elt = C.extra["obj_elt"]
    obj_of_elt = {e: i for i, e in enumerate(obj_elt)}
    tab, star, anchor = S.table, S.star, X.anchor
    xmors = [(int(X.base.act[y, s]), y, s)
             for y in range(len(X)) for s in range(len(S))
             if tab[anchor[y], s] == s
             and anchor[X.base.act[y, s]] == tab[star[s], s]]
    fibers, rep_ofs, betas = [], [], []
    for e in obj_elt:
        eo = obj_of_elt[e]
        edges = []
        for (x, y, s) in xmors:
            smor = int(C.mor_of(anchor[y], s, anchor[x]))
            edges.extend(((x, m), (y, int(C.comp[smor, m])))
                         for m in C.hom(eo, obj_of_elt[int(anchor[x])]))
        classes, rep_of = _uf_classes(
            [(x, m) for x in range(len(X))
             for m in C.hom(eo, obj_of_elt[int(anchor[x])])], edges)
        beta = {}
        for ci, cls in enumerate(classes):
            vals = {int(X.base.act[x, C._payload_array[m, 1]]) for (x, m) in cls}
            assert len(vals) == 1
            beta[ci] = vals.pop()
        fibers.append(classes)
        rep_ofs.append(rep_of)
        betas.append(beta)
    maps = []
    for m, (e, _a, f) in enumerate(C._payload_array.tolist()):
        co, do = obj_of_elt[e], obj_of_elt[f]
        row = []
        for cls in fibers[co]:
            vals = {rep_ofs[do][(x, int(C.comp[mm, m]))] for (x, mm) in cls}
            assert len(vals) == 1
            row.append(vals.pop())
        maps.append(row)
    return [len(f) for f in fibers], maps, betas


def _ref_quotient_presheaf(P, idents):
    site = P.site
    uf = UnionFind((o, i) for o in range(site.n_objects) for i in range(P.fiber_size(o)))
    stack = list(idents)
    while stack:
        o, i, j = stack.pop()
        if uf.find((o, i)) == uf.find((o, j)):
            continue
        uf.union((o, i), (o, j))
        stack.extend((int(site.dom[m]), int(P.maps[m][i]), int(P.maps[m][j]))
                     for m in range(site.n_mor) if int(site.cod[m]) == o)
    per_obj = [[] for _ in range(site.n_objects)]
    for cls in uf.classes():
        per_obj[cls[0][0]].append(cls)
    new_of = {node: ci for cls_list in per_obj for ci, cls in enumerate(cls_list)
              for node in cls}
    fibers = [tuple(P.fibers[o][cls[0][1]] for cls in per_obj[o])
              for o in range(site.n_objects)]
    maps = [[new_of[(int(site.dom[m]), int(P.maps[m][cls[0][1]]))]
             for cls in per_obj[int(site.cod[m])]] for m in range(site.n_mor)]
    return fibers, maps


def _reference_cases():
    from morita.corpus import builtin_corpus, random_inverse_subsemigroups
    from morita.semigroups import symmetric_inverse_monoid

    return ([S for _name, S in builtin_corpus()] + [symmetric_inverse_monoid(3)]
            + random_inverse_subsemigroups(7, 6))


def _representables(S, C):
    """Q(eS) for each object e of C = C(S), as `sample_presheaves` takes them."""
    return [Q_of(principal_action(S, e), C) for e in C.extra["obj_elt"]]


def test_colimits_match_union_find_reference():
    import random

    from morita.corpus import (
        coproduct_presheaf,
        quotient_presheaf,
        sample_closed_actions,
        sample_etale_actions,
        sample_presheaves,
    )

    rng = random.Random(2024)
    for S in _reference_cases():
        C = C_of(S)
        big = len(C.extra["obj_elt"]) > 4
        for X in sample_closed_actions(S, 5, 2 if big else 6):
            t = tensor_with_S(X)
            assert (t.mu, t.surjective, t.injective) == _ref_tensor(X)
            assert is_indecomposable(X) == (
                len(X) > 0 and len(_uf_classes(
                    range(len(X)), [(x, int(X.act[x, s])) for x in range(len(X))
                                    for s in range(len(S))])[0]) == 1)
            if len(X) >= 2:
                pairs = [(rng.randrange(len(X)), rng.randrange(len(X)))
                         for _ in range(rng.randint(1, 3))]
                Z = quotient_action(X, pairs)
                carrier, act, classes = _ref_quotient_action(X, pairs)
                assert Z.carrier == carrier and Z.act.tolist() == act
                assert Z.extra["classes"] == classes
        for P in sample_presheaves(_representables(S, C), 5, 1 if big else 4):
            res = q_shriek_with_unit(P)
            act, unit = _ref_q_shriek(P)
            assert res.action.act.tolist() == act and res.unit == unit
            assert res.action.carrier == tuple(f"q{c}" for c in range(len(act)))
            Q = coproduct_presheaf(C, [P, P])
            idents = [(o, rng.randrange(Q.fiber_size(o)), rng.randrange(Q.fiber_size(o)))
                      for o in (rng.randrange(C.n_objects) for _ in range(2))
                      if Q.fiber_size(o)]
            R = quotient_presheaf(Q, idents)
            fibers, maps = _ref_quotient_presheaf(Q, idents)
            assert list(R.fibers) == fibers
            assert [m.tolist() for m in R.maps] == maps
        for X in sample_etale_actions(S)[:3 if big else None]:
            _assert_i_shriek_matches_the_reference(X, C)


def _assert_i_shriek_matches_the_reference(X, C):
    res = i_shriek_with_maps(X, C)
    sizes, maps, betas = _ref_i_shriek(X, C)
    P = res.presheaf
    assert [P.fiber_size(o) for o in range(C.n_objects)] == sizes
    assert P.fibers == tuple(tuple(f"i{c}" for c in range(k)) for k in sizes)
    assert [m.tolist() for m in P.maps] == maps
    assert list(res.beta) == betas


def test_i_shriek_matches_the_reference_on_random_subsemigroups():
    from morita.corpus import random_inverse_subsemigroups, sample_etale_actions

    subs = [S for S in random_inverse_subsemigroups(23, 20) if len(S) <= 20]
    assert len(subs) >= 15
    for S in subs:
        C = C_of(S)
        for X in sample_etale_actions(S):
            _assert_i_shriek_matches_the_reference(X, C)


def test_presheaf_layout_agrees_with_its_fibers(b12):
    from morita.corpus import coproduct_presheaf, quotient_presheaf

    C, L = C_of(b12), L_of(b12)
    Q = Q_of(regular_action(b12), C)
    QQ = coproduct_presheaf(C, [Q, Q])
    for P in (Q, presheaf_of_etale(munn_action(b12), L), QQ,
              quotient_presheaf(QQ, [(0, 0, 1)]), I_shriek(R_of(regular_action(b12)), C),
              Presheaf(C, Q.fibers, Q.maps), Presheaf(C, [()] * C.n_objects, [()] * C.n_mor)):
        sizes = [len(f) for f in P.fibers]
        assert P.fib_off.tolist() == [0, *itertools.accumulate(sizes)]
        obj, idx = P.elements
        assert list(zip(obj.tolist(), idx.tolist())) == [
            (o, i) for o, k in enumerate(sizes) for i in range(k)]
        assert not any(a.flags.writeable for a in (P.fib_off, obj, idx))
        assert P.fib_off is P.fib_off and P.elements is P.elements


def test_presheaf_coproduct_and_quotient_match_loops():
    import random

    from morita.corpus import coproduct_presheaf, quotient_presheaf, sample_presheaves
    from reference_loops import loop_coproduct_presheaf, loop_quotient_presheaf

    def outcome(P):
        return (P.fibers, [m.tolist() for m in P.maps], [m.dtype for m in P.maps])

    rng = random.Random(6)
    for S in _reference_cases():
        C = C_of(S)
        reps = _representables(S, C)
        for P in sample_presheaves(reps, 4, 2):
            parts = [P] + [reps[rng.randrange(len(reps))] for _ in range(2)]
            Q = coproduct_presheaf(C, parts)
            assert outcome(Q) == outcome(loop_coproduct_presheaf(C, parts))
            # the presheaf and mutants of it with 1 to 3 entries changed
            for changes in range(4):
                maps = [m.copy() for m in Q.maps]
                for _ in range(changes):
                    m = rng.randrange(C.n_mor)
                    if len(maps[m]):
                        size = len(Q.fibers[int(C.dom[m])])
                        maps[m][rng.randrange(len(maps[m]))] = rng.randrange(size)
                Qm = Presheaf(C, Q.fibers, tuple(maps))
                idents = [(o, rng.randrange(len(Q.fibers[o])), rng.randrange(len(Q.fibers[o])))
                          for o in (rng.randrange(C.n_objects) for _ in range(2))
                          if Q.fibers[o]]
                assert (outcome(quotient_presheaf(Qm, idents))
                        == outcome(loop_quotient_presheaf(Qm, idents)))


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 20))
    node = st.integers(0, max(n - 1, 0))
    return n, draw(st.lists(st.tuples(node, node), max_size=30 if n else 0))


@settings(max_examples=200, deadline=None)
@example((0, []))
@example((6, []))
@given(graphs())
def test_components_match_union_find(graph):
    n, edges = graph
    root, cls = components(n, [x for x, _y in edges], [y for _x, y in edges])
    classes, rep_of = _uf_classes(range(n), edges)
    assert cls.tolist() == [rep_of[v] for v in range(n)]
    assert root.tolist() == [classes[rep_of[v]][0] for v in range(n)]


def _loop_check_presheaf(P):
    """The O(m^2) loop over composable pairs, kept as the reference."""
    C = P.site
    if len(P.fibers) != C.n_objects or len(P.maps) != C.n_mor:
        return False
    for m in range(C.n_mor):
        arr = P.maps[m]
        if len(arr) != P.fiber_size(int(C.cod[m])):
            return False
        if len(arr) and (arr.min() < 0
                         or arr.max() >= P.fiber_size(int(C.dom[m]))):
            return False
    for o in range(C.n_objects):
        m = P.maps[int(C.identity[o])]
        if not np.array_equal(m, np.arange(len(m))):
            return False
    for g in range(C.n_mor):
        for f in range(C.n_mor):
            h = int(C.comp[g, f])
            if h >= 0:
                lhs = P.maps[h]
                rhs = P.maps[f][P.maps[g]]
                if len(lhs) != len(rhs) or not np.array_equal(lhs, rhs):
                    return False
    return True


def test_check_presheaf_matches_loop_on_samples_and_mutants(b12, bc22, sim2):
    import random

    from morita.corpus import sample_presheaves

    rng = random.Random(31)
    verdicts = set()
    for S in (b12, bc22, sim2, chain_semilattice(3)):
        C = C_of(S)
        for P in sample_presheaves(_representables(S, C), 3, 4):
            assert check_presheaf(P) == _loop_check_presheaf(P)
            movable = [m for m in range(C.n_mor)
                       if len(P.maps[m]) and P.fiber_size(int(C.dom[m])) >= 2]
            for _ in range(4 if movable else 0):
                maps = [m.copy() for m in P.maps]
                m = rng.choice(movable)
                maps[m][rng.randrange(len(maps[m]))] = \
                    rng.randrange(P.fiber_size(int(C.dom[m])))
                Pm = Presheaf(C, P.fibers, tuple(maps))
                verdicts.add(check_presheaf(Pm))
                assert check_presheaf(Pm) == _loop_check_presheaf(Pm)
    assert verdicts == {True, False}


# -- the fiber transports against the per-direction loops ----------------------

def _ref_presheaf_of_etale(X, L):
    S = X.sgrp
    obj_elt = L.extra["obj_elt"]
    fibers = []
    pos = []
    for e in obj_elt:
        pts = [x for x in range(len(X)) if X.anchor[x] == e]
        fibers.append(tuple(X.base.carrier[x] for x in pts))
        pos.append({x: i for i, x in enumerate(pts)})
    fiber_pts = [sorted(p, key=p.get) for p in pos]
    obj_of_elt = {e: i for i, e in enumerate(obj_elt)}
    maps = []
    for (e, s) in L._payload_array.tolist():
        co = obj_of_elt[e]
        do = obj_of_elt[int(S.table[S.star[s], s])]
        maps.append(np.array([pos[do][int(X.base.act[x, s])] for x in fiber_pts[co]],
                             dtype=np.int64))
    P = Presheaf(L, tuple(fibers), tuple(maps))
    P.pts = tuple(tuple(f) for f in fiber_pts)
    return P


def _ref_Q_of(X, C):
    obj_elt = C.extra["obj_elt"]
    pts, pos, fibers = [], [], []
    for e in obj_elt:
        p = [x for x in range(len(X)) if X.act[x, e] == x]
        pts.append(p)
        pos.append({x: i for i, x in enumerate(p)})
        fibers.append(tuple(X.carrier[x] for x in p))
    obj_of_elt = {e: i for i, e in enumerate(obj_elt)}
    maps = []
    for (e, s, f) in C._payload_array.tolist():
        co, do = obj_of_elt[e], obj_of_elt[f]
        maps.append(np.array([pos[do][int(X.act[x, s])] for x in pts[co]],
                             dtype=np.int64))
    P = Presheaf(C, tuple(fibers), tuple(maps))
    P.pts = tuple(tuple(p) for p in pts)
    return P


def _assert_same_presheaf(P, ref):
    assert P.site is ref.site and P.fibers == ref.fibers and P.pts == ref.pts
    assert len(P.maps) == len(ref.maps)
    assert all(a.dtype == b.dtype and a.tolist() == b.tolist()
               for a, b in zip(P.maps, ref.maps))


def _assert_same_etale(Y, ref):
    assert Y.base.carrier == ref.base.carrier and Y.base.sgrp is ref.base.sgrp
    assert Y.base.act.tolist() == ref.base.act.tolist()
    assert Y.base.extra == ref.base.extra and Y.anchor.tolist() == ref.anchor.tolist()


def test_fiber_transports_match_loops():
    from morita.corpus import (
        coproduct_presheaf,
        sample_closed_actions,
        sample_etale_actions,
        sample_presheaves,
    )

    for S in _reference_cases():
        C, L = C_of(S), L_of(S)
        for X in sample_etale_actions(S):
            P = presheaf_of_etale(X, L)
            _assert_same_presheaf(P, _ref_presheaf_of_etale(X, L))
            for Q in (P, coproduct_presheaf(L, [P, P])):
                _assert_same_etale(etale_of_presheaf(Q),
                                   loop_etale_of_fibers(Q, "L", "etale_of_presheaf"))
        for X in sample_closed_actions(S, 3, 4) + [munn_action(S).base, empty_action(S)]:
            _assert_same_presheaf(Q_of(X, C), _ref_Q_of(X, C))
        for P in sample_presheaves(_representables(S, C), 3, 3):
            _assert_same_etale(I_star(P), loop_etale_of_fibers(P, "C", "I_star"))


# -- the array passes of psh-equiv against their loop forms ---------------------

def test_psh_equiv_array_passes_match_loops():
    import random

    from morita.actions import _fiber_presheaf, action_law_witness
    from morita.corpus import (
        builtin_corpus,
        random_inverse_subsemigroups,
        sample_closed_actions,
        sample_etale_actions,
        sample_presheaves,
    )
    from morita.semigroups import symmetric_inverse_monoid
    from reference_loops import (
        loop_action_homs,
        loop_fiber_presheaf,
        loop_is_unitary,
        loop_munn_action,
        loop_principal_action,
        loop_unit_iso_check,
    )

    rng = random.Random(9)
    cases = ([S for _name, S in builtin_corpus()] + [symmetric_inverse_monoid(3)]
             + random_inverse_subsemigroups(11, 10))
    hom_counts, verdicts = set(), set()
    for S in cases:
        C, L = C_of(S), L_of(S)
        obj_elt = list(C.extra["obj_elt"])
        big = len(obj_elt) > 4
        for e in range(len(S)):
            X, ref = principal_action(S, e), loop_principal_action(S, e)
            assert X.carrier == ref.carrier and X.act.tolist() == ref.act.tolist()
            assert X.extra == ref.extra
        _assert_same_etale(munn_action(S), loop_munn_action(S))
        actions = sample_closed_actions(S, 5, 3 if big else 5) + [empty_action(S)]
        for X in actions + [orphan_action(S)]:
            assert is_unitary(X) is loop_is_unitary(X)
        for X in actions:
            member = X.act[:, obj_elt].T == np.arange(len(X))
            _assert_same_presheaf(_fiber_presheaf(C, X, member),
                                  loop_fiber_presheaf(C, X, member))
            for Y in actions:
                homs = action_homs(X, Y)
                assert homs == loop_action_homs(X, Y)
                hom_counts.add(min(len(homs), 2))
        for X in sample_etale_actions(S)[:3 if big else None]:
            member = X.anchor[None, :] == np.array(L.extra["obj_elt"])[:, None]
            _assert_same_presheaf(_fiber_presheaf(L, X.base, member),
                                  loop_fiber_presheaf(L, X.base, member))
        for P in sample_presheaves(_representables(S, C), 5, 2 if big else 4):
            assert unit_iso_check(P) is loop_unit_iso_check(P) is True
            movable = [m for m in range(C.n_mor)
                       if len(P.maps[m]) and P.fiber_size(int(C.dom[m])) >= 2]
            # mutants with 1 to 6 entries changed: the colimit action and the
            # unit's naturality hold by construction, so the loop form, which
            # still tests naturality, agrees with the bijectivity test alone
            for _ in range(6 if movable else 0):
                maps = [m.copy() for m in P.maps]
                for _ in range(rng.randint(1, 6)):
                    m = rng.choice(movable)
                    i = rng.randrange(len(maps[m]))
                    size = P.fiber_size(int(C.dom[m]))
                    maps[m][i] = (maps[m][i] + rng.randrange(1, size)) % size
                Pm = Presheaf(C, P.fibers, tuple(maps))
                assert action_law_witness(q_shriek_with_unit(Pm).action) is None
                got = unit_iso_check(Pm)
                assert got is loop_unit_iso_check(Pm)
                verdicts.add(got)
    assert hom_counts == {0, 1, 2}
    assert verdicts == {False, True}


# -- unit checks: one colimit per pass against one per presheaf -----------------

@functools.cache
def _unit_check_cases():
    """(S, C(S), the representables) for the corpus and random subsemigroups of I_3."""
    from morita.corpus import builtin_corpus, random_inverse_subsemigroups

    out = []
    for S in ([S for _name, S in builtin_corpus()]
              + random_inverse_subsemigroups(13, 12)):
        C = C_of(S)
        out.append((S, C, _representables(S, C)))
    return out


def _moved(P, rng, changes):
    """P with `changes` entries moved to another element of their fiber, or None."""
    C = P.site
    movable = [m for m in range(C.n_mor)
               if len(P.maps[m]) and P.fiber_size(int(C.dom[m])) >= 2]
    if not movable:
        return None
    maps = [m.copy() for m in P.maps]
    for _ in range(changes):
        m = rng.choice(movable)
        i = rng.randrange(len(maps[m]))
        size = P.fiber_size(int(C.dom[m]))
        maps[m][i] = (maps[m][i] + rng.randrange(1, size)) % size
    return Presheaf(C, P.fibers, tuple(maps))


@settings(max_examples=100, deadline=None)
@given(case=st.integers(0, 2**16), seed=st.integers(0, 2**16), samples=st.integers(0, 5),
       changes=st.integers(1, 6), where=st.integers(0, 2**16),
       budget=st.sampled_from([1, 300, 2**20]))
def test_unit_iso_checks_match_one_colimit_per_presheaf(case, seed, samples, changes,
                                                        where, budget):
    import random
    from unittest import mock

    from morita import actions
    from morita.corpus import sample_presheaves
    from reference_loops import loop_unit_iso_checks

    cases = _unit_check_cases()
    _S, C, reps = cases[case % len(cases)]
    rng = random.Random(seed)
    batch = reps + sample_presheaves(reps, seed, samples)
    mutant = _moved(batch[where % len(batch)], rng, changes)
    with mock.patch.object(actions, "_PASS_EDGES", budget):
        assert unit_iso_checks(batch) == loop_unit_iso_checks(batch) == [True] * len(batch)
        if mutant is None:
            return
        # one mutant among valid presheaves: only its own verdict can fail,
        # and alone it is the one-presheaf check
        alone = loop_unit_iso_checks([mutant])
        k = where % (len(batch) + 1)
        mixed = batch[:k] + [mutant] + batch[k:]
        assert unit_iso_checks(mixed) == [True] * k + alone + [True] * (len(batch) - k)
        assert unit_iso_checks([mutant]) == alone
        assert unit_iso_check(mutant) is alone[0]


def test_a_failing_mutant_fails_only_itself_in_its_pass():
    import random

    from morita.corpus import sample_presheaves
    from reference_loops import loop_unit_iso_checks

    rng = random.Random(17)
    failed = 0
    for _S, _C, reps in _unit_check_cases():
        batch = reps + sample_presheaves(reps, 3, 3)
        for _ in range(3):
            mutant = _moved(batch[rng.randrange(len(batch))], rng, rng.randint(1, 6))
            if mutant is None or loop_unit_iso_checks([mutant]) != [False]:
                continue
            assert not check_presheaf(mutant)
            k = rng.randrange(len(batch) + 1)
            verdicts = unit_iso_checks(batch[:k] + [mutant] + batch[k:])
            assert verdicts == [True] * k + [False] + [True] * (len(batch) - k)
            failed += 1
    assert failed >= 10


def test_maps_leaving_their_fiber_raise_before_the_closure():
    # a map value past the end of its fiber names a node of another fiber;
    # `congruence` could loop on it, raise IndexError or return a quotient,
    # so the alarm turns a hang into a failure
    import random
    import signal

    from morita.corpus import (
        coproduct_presheaf,
        quotient_presheaf,
        random_inverse_subsemigroups,
        sample_presheaves,
    )

    def hung(_signum, _frame):
        raise TimeoutError("quotient_presheaf did not return")

    rng = random.Random(15)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        for S in random_inverse_subsemigroups(3, 30):
            C = C_of(S)
            reps = _representables(S, C)
            for P in sample_presheaves(reps, 1, 3):
                Q = coproduct_presheaf(C, [P] + rng.sample(reps, min(2, len(reps))))
                n = sum(len(f) for f in Q.fibers)
                m = rng.choice([m for m in range(C.n_mor) if len(Q.maps[m])])
                size = Q.fiber_size(int(C.dom[m]))
                maps = [a.copy() for a in Q.maps]
                past = size + rng.randrange(max(1, n - size))
                maps[m][rng.randrange(len(maps[m]))] = rng.choice([-1, past])
                Qm = Presheaf(C, Q.fibers, tuple(maps))
                assert not check_presheaf(Qm)
                o = rng.choice([o for o in range(C.n_objects) if Q.fibers[o]])
                idents = [(o, rng.randrange(Q.fiber_size(o)), rng.randrange(Q.fiber_size(o)))]
                for build in (lambda: quotient_presheaf(Qm, idents),
                              lambda: coproduct_presheaf(C, [P, Qm])):
                    with pytest.raises(InvariantBroken, match="leaves the fiber") as err:
                        build()
                    assert err.value.witness == m
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_presheaf_keeps_its_fiber_check(b12):
    # the arrays of a presheaf are read-only, so its fiber check runs on
    # first read and is kept: a representable reused in many coproducts is
    # checked once
    from morita.actions import coproduct_presheaf

    C = C_of(b12)
    P = Q_of(principal_action(b12, idempotents(b12)[0]), C)
    assert "out_of_fiber" not in vars(P)
    coproduct_presheaf(C, [P, P])
    assert vars(P)["out_of_fiber"] is None
    m = int(np.flatnonzero(np.diff(P.map_off))[0])
    values = P.values.copy()
    values[P.map_off[m]] = -1
    Pm = Presheaf.from_flat(C, P.fibers, values, P.map_off)
    assert not check_presheaf(Pm) and vars(Pm)["out_of_fiber"] == m
    with pytest.raises(InvariantBroken, match="leaves the fiber") as err:
        coproduct_presheaf(C, [P, Pm])
    assert err.value.witness == m

def test_action_law_witness_matches_the_loop_across_blocks():
    import random

    from morita.actions import action_law_witness
    from morita.semigroups import symmetric_inverse_monoid
    from reference_loops import loop_action_law_witness

    rng = random.Random(4)
    I3 = symmetric_inverse_monoid(3)
    # 34 points of 34 x 34 cells each span two blocks of about 2**15 cells
    X = coproduct_action([regular_action(I3), munn_action(I3).base])
    assert action_law_witness(X) is None
    witnesses = set()
    for x in (0, 1, len(X) - 1, len(X) // 2, *rng.sample(range(len(X)), 6)):
        act = X.act.copy()
        s = rng.randrange(len(I3))
        act[x, s] = (act[x, s] + 1) % len(X)
        Xm = RightAction(X.carrier, I3, act)
        w = action_law_witness(Xm)
        assert w is not None and w == loop_action_law_witness(Xm)
        witnesses.add(w[0])
    assert max(witnesses) >= 2**15 // len(I3) ** 2      # one past the first block


# -- the orbit search against the searches it replaced ------------------------

def _relabel(X, perm):
    """X with point x renamed perm[x]."""
    perm = np.asarray(perm, dtype=np.int64)
    act = np.empty_like(X.act)
    act[perm] = perm[X.act]
    carrier = [None] * len(X)
    for x, p in enumerate(perm.tolist()):
        carrier[p] = X.carrier[x]
    return RightAction(carrier, X.sgrp, act)


def test_presheaf_nats_matches_the_loop():
    from morita.corpus import (
        builtin_corpus,
        random_inverse_subsemigroups,
        sample_closed_actions,
        sample_presheaves,
    )
    from reference_loops import loop_presheaf_nats

    counts = set()
    for S in [S for _name, S in builtin_corpus()] + random_inverse_subsemigroups(5, 12):
        C = C_of(S)
        big = C.n_objects > 3
        zero = Presheaf(C, [()] * C.n_objects, [()] * C.n_mor)
        Ps = ([zero] + sample_presheaves(_representables(S, C), 7, 1 if big else 3)
              + [Q_of(X, C) for X in sample_closed_actions(S, 7, 1 if big else 3)
                 + [empty_action(S)]])
        for P1 in Ps:
            for P2 in Ps:
                nats = presheaf_nats(P1, P2)
                assert nats == loop_presheaf_nats(P1, P2)
                counts.add(min(len(nats), 2))
    assert counts == {0, 1, 2}


def test_the_orbit_search_goes_deeper_than_the_recursion_limit():
    # the trivial group on 1 100 points: every point is an orbit of its own,
    # so the search has one level per point
    S = cyclic_group(1)
    X, Y = coproduct_action([regular_action(S)] * 1100), regular_action(S)
    C = C_of(S)
    assert action_homs(X, Y) == [(0,) * 1100]
    assert presheaf_nats(Q_of(X, C), Q_of(Y, C)) == [(0,) * 1100]
    assert action_isomorphic(X, X) == list(range(1100))


def test_the_orbit_searches_run_under_a_budget():
    # the trivial group on 3 points: each search places one value per point,
    # so a budget of 3 finds the map and one of 2 stops at the third placement
    S = cyclic_group(1)
    X, Y = coproduct_action([regular_action(S)] * 3), regular_action(S)
    C = C_of(S)
    PX, PY = Q_of(X, C), Q_of(Y, C)
    assert action_homs(X, Y, 3) == [(0, 0, 0)]
    assert presheaf_nats(PX, PY, 3) == [(0, 0, 0)]
    assert action_isomorphic(X, X, 3) == [0, 1, 2]
    for search, name in (
            (lambda: action_homs(X, Y, 2), "hom search between actions of 3 and 1 points"),
            (lambda: presheaf_nats(PX, PY, 2),
             "natural transformation search between presheaves of 3 and 1 elements"),
            (lambda: action_isomorphic(X, X, 2), "isomorphism search between actions of 3 points")):
        with pytest.raises(BudgetExceeded) as exc:
            search()
        assert str(exc.value) == f"{name} used up its budget of 2 placements"


def test_action_isomorphic_matches_the_loop():
    import random

    from morita.corpus import (
        builtin_corpus,
        random_inverse_subsemigroups,
        sample_closed_actions,
    )
    from reference_loops import loop_action_isomorphic

    rng = random.Random(12)
    verdicts = set()
    for S in [S for _name, S in builtin_corpus()] + random_inverse_subsemigroups(6, 12):
        actions = sample_closed_actions(S, 3, 4) + [empty_action(S)]
        actions += [_relabel(X, rng.sample(range(len(X)), len(X))) for X in actions]
        for X in actions:
            for Y in actions:
                f = action_isomorphic(X, Y)
                assert (f is None) == (loop_action_isomorphic(X, Y) is None)
                if f is not None:
                    assert sorted(f) == list(range(len(Y)))
                    assert np.array_equal(np.asarray(f, dtype=np.int64)[X.act],
                                          Y.act[f])
                verdicts.add(f is None)
    assert verdicts == {False, True}


def test_fullness_faithfulness_witness_is_the_first_in_hom_element_order(b12):
    from morita.corpus import sample_closed_actions
    from reference_loops import loop_fullness_faithfulness_check

    C = C_of(b12)
    actions = sample_closed_actions(b12, 4, 6)
    raised = 0
    for X in actions:
        for Y in actions:
            PX, PY = Q_of(X, C), Q_of(Y, C)
            assert fullness_faithfulness_check(X, Y, PX, PY) is True
            # homs out of a relabelled X, restricted along the points of PX
            Xr = _relabel(X, np.arange(len(X))[::-1])
            try:
                want = loop_fullness_faithfulness_check(Xr, Y, PX, PY)
            except InvariantBroken as exc:
                with pytest.raises(InvariantBroken) as got:
                    fullness_faithfulness_check(Xr, Y, PX, PY)
                assert got.value.witness == exc.witness
                raised += 1
            else:
                assert fullness_faithfulness_check(Xr, Y, PX, PY) is want
    assert raised


def test_etale_checks_match_the_loops():
    import random

    from morita.corpus import builtin_corpus, sample_etale_actions
    from reference_loops import loop_check_etale, loop_etale_morphism_check

    rng = random.Random(5)
    verdicts = set()
    for _name, S in builtin_corpus():
        C = C_of(S)
        obj_elt = C.extra["obj_elt"]
        for X in sample_etale_actions(S):
            # the etale actions and maps of acceptance criterion 5
            res = i_shriek_with_maps(X, C)
            IS, RU = I_star(res.presheaf), R_of(U_of(X))
            pos = {p: i for i, p in enumerate(RU.base.extra["pairs"])}
            fwd = np.array([pos[(obj_elt[o], res.beta[o][ci])]
                            for (o, ci) in IS.base.extra["pairs"]], dtype=np.int64)
            for Z in (X, IS, RU):
                assert check_etale(Z) is loop_check_etale(Z) is True
            assert etale_morphism_check(fwd, IS, RU) is True
            assert loop_etale_morphism_check(fwd, IS, RU) is True
            # an anchor of the wrong length or out of range is no anchor
            for anchor in (X.anchor[:-1], np.append(X.anchor, X.anchor[0]),
                           np.where(np.arange(len(X)) == 0, len(S), X.anchor)):
                assert check_etale(EtaleAction(X.base, anchor)) is False
            RUX, unit = unit_UR(X)
            assert etale_morphism_check(unit, X, RUX) is True
            assert loop_etale_morphism_check(unit, X, RUX) is True
            for _ in range(3):
                anchor = X.anchor.copy()
                anchor[rng.randrange(len(X))] = rng.randrange(len(S))
                Xm = EtaleAction(X.base, anchor)
                got = check_etale(Xm)
                assert got is loop_check_etale(Xm)
                verdicts.add(got)
                f = unit.copy()
                f[rng.randrange(len(X))] = rng.randrange(len(RUX))
                got = etale_morphism_check(f, X, RUX)
                assert got is loop_etale_morphism_check(f, X, RUX)
                verdicts.add(got)
    assert verdicts == {False, True}


# -- constructions on composite points against their position-dict loops --------

def _same_build(build, ref, *args):
    """build(*args) and ref(*args) raise alike, or agree field for field.

    Returns what they raise, (type, message, witness), or None.
    """
    from morita.errors import MoritaError

    def run(make):
        try:
            return make(*args), None
        except MoritaError as exc:
            return None, (type(exc), str(exc), exc.witness)

    (got, fault), (want, ref_fault) = run(build), run(ref)
    assert fault == ref_fault
    if fault is None:
        for a, b in zip(got, want) if isinstance(got, tuple) else [(got, want)]:
            if isinstance(a, EtaleAction):
                _assert_same_etale(a, b)
            elif isinstance(a, RightAction):
                assert a.carrier == b.carrier and a.sgrp is b.sgrp and a.extra == b.extra
                assert a.act.tolist() == b.act.tolist()
            else:
                assert a.dtype == b.dtype and a.tolist() == b.tolist()
    return fault


def test_composite_point_actions_match_loops(numbering_cases):
    from morita.actions import _etale_of_fibers, equalizer_action
    from morita.corpus import sample_closed_actions, sample_etale_actions
    from reference_loops import (
        loop_counit_UR,
        loop_equalizer_action,
        loop_etale_of_fibers,
        loop_principal_etale,
        loop_product_action,
        loop_R_of,
        loop_unit_UR,
    )

    rng = np.random.default_rng(17)
    faults = {}

    def check(name, build, ref, *args):
        fault = _same_build(build, ref, *args)
        faults.setdefault(name, set()).add(None if fault is None else fault[0])

    for S in numbering_cases:
        C, L = C_of(S), L_of(S)
        actions = sample_closed_actions(S, 3, 3) + [empty_action(S)]
        # non-actions: a sample with one cell moved
        mutants = []
        for X in [X for X in actions if len(X)][:2]:
            act = X.act.copy()
            act[rng.integers(len(X)), rng.integers(len(S))] = rng.integers(len(X))
            mutants.append(RightAction(X.carrier, S, act))
        small = min((X for X in actions if len(X)), key=len)
        for X in actions[:2] + mutants:
            check("R", R_of, loop_R_of, X)
        for X in actions[:1] + mutants:
            check("product", product_action, loop_product_action, X, small)
        check("counit", counit_UR, loop_counit_UR, actions[0])
        for X in [X for X in actions if len(X)][:2]:
            ident = np.arange(len(X))
            moved = ident.copy()
            moved[rng.integers(len(X))] = -1             # not equivariant, as a rule
            homs = action_homs(X, X)[:3] if len(X) <= 6 else []
            for g in homs + [moved]:
                check("equalizer", equalizer_action, loop_equalizer_action, ident, g, X)
        for e in idempotents(S):
            check("principal", principal_etale, loop_principal_etale, S, e)
        etale = sample_etale_actions(S)
        for Y in etale[:2]:
            anchor = Y.anchor.copy()
            anchor[rng.integers(len(Y))] = rng.integers(len(S))
            for Z in (Y, EtaleAction(Y.base, anchor)):
                check("unit", unit_UR, loop_unit_UR, Z)
        # the fibers of the Munn action over L(S) and of eS over C(S), and
        # both with one map entry moved, perhaps out of its fiber
        for kind, P in (("L", presheaf_of_etale(etale[0], L)), ("C", Q_of(etale[1].base, C))):
            values = P.values.copy()
            values[rng.integers(len(values))] = rng.integers(-1, 3)
            for Q in (P, Presheaf.from_flat(P.site, P.fibers, values, P.map_off)):
                check(kind, _etale_of_fibers, loop_etale_of_fibers, Q, kind, "tag")
    assert faults == {"R": {None, InvariantBroken}, "counit": {None},
                      "product": {None, InvariantBroken},
                      "equalizer": {None, InvariantBroken}, "principal": {None},
                      "unit": {None, InvariantBroken}, "L": {None, InvariantBroken},
                      "C": {None, InvariantBroken}}


def test_composite_point_actions_raise_typed_errors(chain2, b12):
    from morita.actions import equalizer_action

    # each of these raised a bare KeyError before its points were numbered
    # through `_util.positions`; (a e1) e0 = a but a (e1 e0) = b
    moved = RightAction(("a", "b"), chain2, np.array([[0, 1], [0, 0]]))
    assert not check_action(moved)
    with pytest.raises(InvariantBroken, match="leaves R") as exc:
        R_of(moved)
    assert exc.value.witness == ((0, 0), 1)
    with pytest.raises(InvariantBroken, match="leaves the product") as exc:
        product_action(moved, moved)
    assert exc.value.witness == ((0, 0), 1)
    X = principal_action(b12, 0)
    with pytest.raises(InvariantBroken, match="not equivariant") as exc:
        equalizer_action([0, 1, 2], [0, 1, 1], X)
    assert exc.value.witness == (0, 2)
    Y = principal_etale(b12, 0)
    bad = EtaleAction(Y.base, np.full(len(Y), int(b12.index("(1,2)"))))
    with pytest.raises(InvariantBroken, match="anchor") as exc:
        unit_UR(bad)
    assert exc.value.witness == 0
