"""Interpreted reference versions of constructions the library builds with arrays.

Each function here is the loop (or per-cell callback) form of a library
construction.  The tests compare the library against them field for field;
they are not part of the package.
"""

import re
from itertools import combinations, permutations
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from morita._util import congruence, inverse_relation
from morita.actions import (
    EtaleAction,
    Presheaf,
    RightAction,
    _read_site,
    action_homs,
    check_action,
    check_etale,
    presheaf_nats,
    principal_action,
    q_shriek_with_unit,
)
from morita.bisets import EquivalenceBiset, verify_biset
from morita.categories import (
    C_of,
    FiniteCategory,
    Functor,
    L_of,
    _joint_invariants,
    categories_isomorphic,
    check_category,
    is_functor,
    iso_partner,
    skeleton_witnesses,
    span_category,
)
from morita.errors import (
    BudgetExceeded,
    CospanMismatch,
    InvalidBiset,
    InvariantBroken,
    MoritaError,
    NoPullbacks,
    NotASubsemigroup,
    NotAssociative,
    NotPrincipallyInductive,
    ParseError,
    PreconditionFailed,
    UndefinedPseudoproduct,
    WrongSite,
)
from morita.formats import _check_names, _need, _tokens, load_semigroup
from morita.groupoids import (
    OrderedGroupoid,
    corestriction,
    is_principally_inductive,
    meet_objects,
    restriction,
    validate_ordered_groupoid,
)
from morita.semigroups import (
    FiniteSemigroup,
    InverseSemigroup,
    LocalUnitFlags,
    _product_set,
    as_inverse,
    assoc_witness,
    idempotents,
    is_semigroup_enlargement,
)


class UnionFind:
    """Union-find over hashable keys, with path splitting."""

    def __init__(self, items=()):
        self.parent = {x: x for x in items}

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x):
        p = self.parent
        while p[x] != x:
            x, p[x] = p[x], p[p[x]]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # keep the smaller root so representatives are deterministic
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx

    def classes(self):
        """Partition as a sorted list of sorted lists."""
        buckets = {}
        for x in self.parent:
            buckets.setdefault(self.find(x), []).append(x)
        out = [sorted(v) for v in buckets.values()]
        out.sort()
        return out


def build_category(objects, mors, compose, identity_payload, extra=None):
    """Assemble a FiniteCategory from payload-keyed morphisms.

    mors: list of (dom, cod, label, payload) with hashable unique payloads.
    compose(pg, pf) must return the payload of g.f for composable pairs.
    """
    index = {}
    dom, cod, labels, payloads = [], [], [], []
    for d, c, lab, pay in mors:
        if pay in index:
            raise ValueError(f"duplicate morphism payload {pay!r}")
        index[pay] = len(payloads)
        dom.append(d)
        cod.append(c)
        labels.append(lab)
        payloads.append(pay)
    m = len(payloads)
    comp = np.full((m, m), -1, dtype=np.int64)
    for g in range(m):
        for f in range(m):
            if dom[g] == cod[f]:
                comp[g, f] = index[compose(payloads[g], payloads[f])]
    ident = np.array([index[identity_payload(o)] for o in range(len(objects))],
                     dtype=np.int64)
    cat = FiniteCategory(tuple(objects), tuple(labels), np.array(dom, dtype=np.int64),
                         np.array(cod, dtype=np.int64), comp, ident, dict(extra or {}))
    if all(isinstance(p, tuple) for p in payloads):
        # payloads of ints, as `_table_category` keeps them
        width = len(payloads[0]) if m else 0
        cat._payload_array = np.array(payloads, dtype=np.int64).reshape(m, width)
    return cat


# -- the natural order --------------------------------------------------------------

def loop_natural_leq(S: InverseSemigroup, s: int, t: int) -> bool:
    """s <= t in the natural partial order, one cell at a time: s = t(s*s)."""
    tab = S.table
    return tab[t, tab[S.star[s], s]] == s


def loop_hasse_edges(S: InverseSemigroup) -> list:
    """The covering pairs a < b of the natural order, one loop_natural_leq call per cell."""
    n = len(S)
    leq = [[loop_natural_leq(S, a, b) for b in range(n)] for a in range(n)]
    edges = []
    for a in range(n):
        for b in range(n):
            if a == b or not leq[a][b]:
                continue
            if any(leq[a][c] and leq[c][b] and c not in (a, b) for c in range(n)):
                continue
            edges.append((a, b))
    return edges


def loop_is_locally_E_unitary(S: InverseSemigroup) -> bool:
    """is_locally_E_unitary over every (e, s, d) in turn."""
    tab = S.table
    E = idempotents(S)
    for e in E:
        for s in range(len(S)):
            if tab[tab[e, s], e] != s:
                continue
            if tab[s, s] == s:
                continue
            for d in E:
                if tab[tab[e, d], e] != d:
                    continue
                if tab[s, d] == d:  # d <= s for idempotent d
                    return False
    return True


def loop_order_is_antisymmetric(S: InverseSemigroup) -> bool:
    """No s != t with s <= t and t <= s, one pair at a time."""
    n = len(S)
    for s in range(n):
        for t in range(n):
            if loop_natural_leq(S, s, t) and loop_natural_leq(S, t, s) and s != t:
                return False
    return True


# -- categories -----------------------------------------------------------------

def loop_check_category(C: FiniteCategory) -> list:
    """check_category with its associativity loop over every h and dense m x m rows."""
    bad = []
    m, n = C.n_mor, C.n_objects
    dom, cod, comp = C.dom, C.cod, C.comp
    defined = comp >= 0
    should = dom[:, None] == cod[None, :]
    if not np.array_equal(defined, should):
        bad.append("composition defined off the composable pairs")
    for o in range(n):
        i = int(C.identity[o])
        if dom[i] != o or cod[i] != o:
            bad.append(f"identity of object {o} has wrong endpoints")
    if m:
        g, f = np.nonzero(defined)
        if not (np.all(dom[comp[g, f]] == dom[f]) and np.all(cod[comp[g, f]] == cod[g])):
            bad.append("composite endpoints wrong")
        ids = C.identity
        if not np.all(comp[ids[cod], np.arange(m)] == np.arange(m)):
            bad.append("left identity law fails")
        if not np.all(comp[np.arange(m), ids[dom]] == np.arange(m)):
            bad.append("right identity law fails")
        idx = np.where(defined, comp, 0)
        for h in range(m):
            hg = comp[h]
            both = defined & (hg >= 0)[:, None]
            if not both.any():
                continue
            x = comp[h, idx]                       # h.(g.f)
            y = comp[np.where(hg >= 0, hg, 0)]     # (h.g).f rows by g
            if not np.array_equal(x[both], y[both]):
                bad.append(f"associativity fails around morphism {h}")
                break
    return bad


def loop_first_repeat(comp):
    """First (row, c1, c2) with comp[row, c1] == comp[row, c2] defined and
    c1 < c2, or None; one numpy pass per row.  On comp it is
    left_cancellation_witness, and on comp.T right_cancellation_witness."""
    for g in range(comp.shape[0]):
        row = comp[g]
        defined = np.flatnonzero(row >= 0)
        vals = row[defined]
        if np.unique(vals).size == vals.size:
            continue
        # rare: recover the first repeat in column order
        seen = {}
        for f in defined:
            v = int(row[f])
            if v in seen:
                return (g, seen[v], int(f))
            seen[v] = int(f)
    return None


def loop_check_weak_equivalence(F: Functor) -> bool:
    """check_weak_equivalence, one hom-set and one morphism at a time."""
    if not is_functor(F):
        return False
    C, D = F.source, F.target
    for a in range(C.n_objects):
        for b in range(C.n_objects):
            image = [int(F.mor_map[m]) for m in C.hom(a, b)]
            if len(set(image)) != len(image):
                return False  # not faithful
            target_hom = D.hom(int(F.obj_map[a]), int(F.obj_map[b]))
            if set(image) != set(target_hom):
                return False  # not full
    partner = iso_partner(D)
    hit = set()
    for a in range(C.n_objects):
        hit.add(int(F.obj_map[a]))
    reachable = set(hit)
    for m in range(D.n_mor):
        if partner[m] >= 0 and int(D.dom[m]) in hit:
            reachable.add(int(D.cod[m]))
    return reachable == set(range(D.n_objects))


def loop_is_bipartite(U: FiniteCategory, A, B) -> bool:
    """is_bipartite over a partition of the objects, one morphism at a time."""
    if set(A) & set(B) or set(A) | set(B) != set(range(U.n_objects)):
        return False
    partner = iso_partner(U)
    for objs, other in ((A, set(B)), (B, set(A))):
        for o in objs:
            if not any(partner[m] >= 0 and int(U.cod[m]) in other
                       for m in range(U.n_mor) if U.dom[m] == o):
                return False
    return True


def loop_iso_table(C: FiniteCategory) -> np.ndarray:
    """The two-sided inverse of each morphism or -1, one pair of objects at a time."""
    out = np.full(C.n_mor, -1, dtype=np.int64)
    for a in range(C.n_objects):
        for b in range(C.n_objects):
            M, W = np.array(C.hom(a, b), dtype=np.int64), np.array(C.hom(b, a), dtype=np.int64)
            if not (len(M) and len(W)):
                continue
            ok = ((C.comp[np.ix_(M, W)] == C.identity[b])
                  & (C.comp[np.ix_(W, M)].T == C.identity[a]))
            has = ok.any(axis=1)
            out[M[has]] = W[ok.argmax(axis=1)[has]]
    return out


def loop_skeleton_with_maps(C: FiniteCategory) -> SimpleNamespace:
    """A skeleton of any finite category, kept as (cat, incl, retract): a
    union loop over the isomorphisms and a scan of hom(o, rep o) for each
    object pick the least object of each class and the least isomorphism
    into it; the full subcategory on those objects is cut out of C, and the
    inclusion and the retraction m: a -> b to to_rep(b).m.from_rep(a) are
    filled one object and one morphism at a time."""
    partner = iso_partner(C)
    n = C.n_objects
    rep = np.arange(n)
    for m in range(C.n_mor):
        if partner[m] >= 0:
            a, b = int(C.dom[m]), int(C.cod[m])
            ra, rb = int(rep[a]), int(rep[b])
            # union by smallest representative
            lo, hi = min(ra, rb), max(ra, rb)
            if lo != hi:
                rep[rep == hi] = lo
    to_rep = np.full(n, -1, dtype=np.int64)
    from_rep = np.full(n, -1, dtype=np.int64)
    for o in range(n):
        r = int(rep[o])
        if r == o:
            to_rep[o] = from_rep[o] = C.identity[o]
            continue
        for m in C.hom(o, r):
            if partner[m] >= 0:
                to_rep[o] = m
                from_rep[o] = partner[m]
                break
    reps = [o for o in range(n) if rep[o] == o]
    keep = [m for m in range(C.n_mor) if C.dom[m] in reps and C.cod[m] in reps]
    kept = np.full(C.n_mor + 1, -1, dtype=np.int64)   # kept[-1] = -1: undefined stays
    kept[keep] = np.arange(len(keep))
    sk = FiniteCategory(
        tuple(C.objects[r] for r in reps), tuple(C.mor_labels[m] for m in keep),
        [reps.index(int(C.dom[m])) for m in keep], [reps.index(int(C.cod[m])) for m in keep],
        kept[C.comp[np.ix_(keep, keep)]], kept[C.identity[reps]],
        {"kind": "skeleton", "parent": C})
    retract = []
    for m in range(C.n_mor):
        a, b = int(C.dom[m]), int(C.cod[m])
        retract.append(kept[C.compose(C.compose(int(to_rep[b]), m), int(from_rep[a]))])
    return SimpleNamespace(cat=sk, incl=Functor(sk, C, reps, keep),
                           retract=Functor(C, sk, [reps.index(int(rep[o])) for o in range(n)],
                                           retract))


def loop_categories_equivalent(C: FiniteCategory, D: FiniteCategory):
    """Weak equivalences C -> D and D -> C, or None: one isomorphism search
    between the loop skeletons of C and D, composed with their inclusions
    and retractions."""
    skC, skD = loop_skeleton_with_maps(C), loop_skeleton_with_maps(D)
    phi = categories_isomorphic(skC.cat, skD.cat)
    return None if phi is None else skeleton_witnesses(skC, skD, phi)


def assert_witnesses_of_the_built_categories(d):
    """The witnesses of an equivalent decision equal, array for array, those
    found on C(S) and C(T) themselves: through the loop skeleton of each,
    one isomorphism search between those skeletons, and its composites with
    their inclusions and retractions."""
    built = loop_categories_equivalent(C_of(d.S), C_of(d.T))
    assert built is not None
    for lazy, full in zip((d.forward, d.backward), built):
        for name in ("obj_map", "mor_map"):
            a, b = getattr(lazy, name), getattr(full, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def _intern(rows) -> np.ndarray:
    """Number the distinct rows of a 2-d array in order of first appearance."""
    table = {}
    return np.array([table.setdefault(r.tobytes(), len(table))
                     for r in np.ascontiguousarray(rows)], dtype=np.int64)


def loop_joint_invariants(C, D):
    """_joint_invariants keyed by the multisets themselves: each round sorts
    the (class, composite class) codes of every dense row and column of the
    composition table and interns them as byte strings, one category at a
    time, counting with np.add.at."""
    cats = (C, D)
    mC, nC = C.n_mor, C.n_objects

    def initial(cat):
        is_id = np.zeros(cat.n_mor, dtype=np.int64)
        is_id[cat.identity] = 1
        return 4 * is_id + 2 * (iso_partner(cat) >= 0) + (cat.dom == cat.cod)

    def obj_classes(inv):
        K = int(inv.max()) + 1 if len(inv) else 1
        keys = []
        for cat, ci in zip(cats, (inv[:mC], inv[mC:])):
            outs = np.zeros((cat.n_objects, K), dtype=np.int64)
            ins = np.zeros((cat.n_objects, K), dtype=np.int64)
            np.add.at(outs, (cat.dom, ci), 1)
            np.add.at(ins, (cat.cod, ci), 1)
            keys.append(np.column_stack([ci[cat.identity], outs, ins]))
        return _intern(np.vstack(keys))

    def codes(inv, K, transpose):
        out = []
        for cat, ci in zip(cats, (inv[:mC], inv[mC:])):
            comp = cat.comp.T if transpose else cat.comp
            c = np.where(comp >= 0, ci[None, :] * K + ci[comp], -1)
            out.append(np.sort(c, axis=1))
        return _intern(np.vstack(out))

    inv = np.concatenate([initial(C), initial(D)])
    if len(inv):
        for _ in range(max(mC, 1)):
            ok = obj_classes(inv)
            okC, okD = ok[:nC], ok[nC:]
            K = int(inv.max()) + 1
            new = _intern(np.column_stack([
                inv,
                np.concatenate([okC[C.dom], okD[D.dom]]),
                np.concatenate([okC[C.cod], okD[D.cod]]),
                codes(inv, K, False),
                codes(inv, K, True),
            ]))
            stable = (np.count_nonzero(np.bincount(new[:mC]))
                      == np.count_nonzero(np.bincount(inv[:mC])))
            inv = new
            if stable:
                break

    ok = obj_classes(inv)
    ocC, ocD = ok[:nC], ok[nC:]
    ocD = np.where(np.isin(ocD, ocC), ocD, -1)
    return inv[:mC], inv[mC:], ocC, ocD


def loop_categories_isomorphic(C: FiniteCategory, D: FiniteCategory):
    """categories_isomorphic as two mutual recursions, one level per placement.

    The recursion depth grows with the number of morphisms, so this form
    stops at Python's recursion limit on skeletons of about 1 000 morphisms.
    """
    if C.n_objects != D.n_objects or C.n_mor != D.n_mor:
        return None
    invC, invD, ocC, ocD = _joint_invariants(C, D)
    if (not np.array_equal(np.sort(invC), np.sort(invD))
            or not np.array_equal(np.sort(ocC), np.sort(ocD)) or -1 in ocD):
        return None
    obj_map = np.full(C.n_objects, -1, dtype=np.int64)
    mor_map = np.full(C.n_mor, -1, dtype=np.int64)
    used_obj = np.zeros(D.n_objects, dtype=bool)
    used_mor = np.zeros(D.n_mor, dtype=bool)
    hsC, hsD = C.hom_sizes(), D.hom_sizes()
    obj_candidates = [np.flatnonzero(ocD == ocC[o1]).tolist()
                      for o1 in range(C.n_objects)]
    obj_order = sorted(range(C.n_objects), key=lambda o: (len(obj_candidates[o]), o))
    is_id = np.zeros(C.n_mor, dtype=bool)
    is_id[C.identity] = True
    class_size = np.bincount(invD, minlength=int(invC.max(initial=0)) + 1)
    non_id = sorted(np.flatnonzero(~is_id).tolist(),
                    key=lambda m: (int(class_size[invC[m]]), m))

    def placed(line):
        f = np.flatnonzero((mor_map >= 0) & (line >= 0))
        f = f[mor_map[line[f]] >= 0]
        return mor_map[f], mor_map[line[f]]

    def assign_mor(pos):
        if pos == len(non_id):
            F = Functor(C, D, obj_map.copy(), mor_map.copy())
            return F if is_functor(F) else None
        m = non_id[pos]
        a, b = int(obj_map[C.dom[m]]), int(obj_map[C.cod[m]])
        right, right_to = placed(C.comp[m])
        left, left_to = placed(C.comp[:, m])
        for w in D.hom(a, b):
            if used_mor[w] or invD[w] != invC[m]:
                continue
            if not (np.array_equal(D.comp[w, right], right_to)
                    and np.array_equal(D.comp[left, w], left_to)):
                continue
            mor_map[m] = w
            used_mor[w] = True
            res = assign_mor(pos + 1)
            if res is not None:
                return res
            mor_map[m] = -1
            used_mor[w] = False
        return None

    def assign_obj(pos):
        if pos == len(obj_order):
            return assign_mor(0)
        o = obj_order[pos]
        for o2 in obj_candidates[o]:
            if used_obj[o2]:
                continue
            done = obj_order[:pos]
            images = obj_map[done]
            if (hsC[o, o] != hsD[o2, o2]
                    or not np.array_equal(hsC[o, done], hsD[o2, images])
                    or not np.array_equal(hsC[done, o], hsD[images, o2])):
                continue
            obj_map[o] = o2
            used_obj[o2] = True
            im = int(D.identity[o2])
            mor_map[C.identity[o]] = im
            used_mor[im] = True
            res = assign_obj(pos + 1)
            if res is not None:
                return res
            used_mor[im] = False
            mor_map[C.identity[o]] = -1
            obj_map[o] = -1
            used_obj[o2] = False
        return None

    return assign_obj(0)


def loop_pullback(C: FiniteCategory, f: int, g: int):
    """The first terminal cone over (f, g) in (p, q) order, one cone at a time."""
    if C.cod[f] != C.cod[g]:
        raise CospanMismatch(witness=(f, g))
    P = np.flatnonzero(C.cod == C.dom[f])
    Q = np.flatnonzero(C.cod == C.dom[g])
    i, j = np.nonzero((C.dom[P][:, None] == C.dom[Q][None, :])
                      & (C.comp[f, P][:, None] == C.comp[g, Q][None, :]))
    P, Q = P[i], Q[j]
    for p0, q0 in zip(P.tolist(), Q.tolist()):
        apex = int(C.dom[p0])
        # every cone must factor through (p0, q0) exactly once
        U = np.flatnonzero(C.cod == apex)
        hits = ((C.comp[p0, U][None, :] == P[:, None])
                & (C.comp[q0, U][None, :] == Q[:, None]))
        if np.all(hits.sum(axis=1) == 1):
            return apex, p0, q0
    return None


def _canonical_span(C, partner, l, r):
    """The least (l.u, r.u) over the isomorphisms u into the apex."""
    U = np.flatnonzero((partner >= 0) & (C.cod == C.dom[l]))
    ls, rs = C.comp[l, U], C.comp[r, U]
    best = int(ls.min())
    return best, int(rs[ls == best].min())


def callback_span_category(L: FiniteCategory) -> FiniteCategory:
    """span_category with one pullback call per cospan and a compose callback."""
    partner = iso_partner(L)
    pullbacks = {}
    for f in range(L.n_mor):
        for g in range(L.n_mor):
            if L.cod[f] == L.cod[g]:
                pb = loop_pullback(L, f, g)
                if pb is None:
                    raise NoPullbacks(witness=(f, g))
                pullbacks[f, g] = pb
    reps = set()
    for l in range(L.n_mor):
        for r in range(L.n_mor):
            if L.dom[l] == L.dom[r]:
                reps.add(_canonical_span(L, partner, l, r))
    mors = [(int(L.cod[r]), int(L.cod[l]), f"[{L.mor_labels[l]};{L.mor_labels[r]}]", (l, r))
            for (l, r) in sorted(reps)]

    def compose(pg, pf):
        (l2, r2), (l1, r1) = pg, pf
        _, p, q = pullbacks[r2, l1]
        return _canonical_span(L, partner, int(L.comp[l2, p]), int(L.comp[r1, q]))

    def ident(o):
        i = int(L.identity[o])
        return _canonical_span(L, partner, i, i)

    return build_category(L.objects, mors, compose, ident, {"kind": "span", "base": L})


# -- ordered groupoids and the enlargement chain -------------------------------------

def _cell_pseudoproduct(G, g, h):
    """g o h = (g|e)(e|h) for one pair, from the meet and restriction lookups."""
    e = meet_objects(G, int(G.dom[g]), int(G.cod[h]))
    if e is None:
        return None
    out = int(G.comp[restriction(G, e, g), corestriction(G, h, e)])
    if out < 0:
        raise UndefinedPseudoproduct("restriction and corestriction do not compose",
                                     witness=(g, h))
    return out


def _defined_pseudoproduct(G, g, h):
    out = _cell_pseudoproduct(G, g, h)
    if out is None:
        raise UndefinedPseudoproduct("no meet of dom(g) and cod(h)", witness=(g, h))
    return out


def callback_L_of_groupoid(G) -> FiniteCategory:
    """Pairs (e, g) with cod(g) <= e, one pseudoproduct call per composable pair."""
    mors = [(int(G.dom[g]), e, f"({G.objects[e]},{G.arrows[g]})", (e, g))
            for e in range(G.n_objects) for g in range(G.n_arrows)
            if G.obj_leq[int(G.cod[g]), e]]
    return build_category(G.objects, mors,
                          lambda pg, pf: (pg[0], _defined_pseudoproduct(G, pg[1], pf[1])),
                          lambda o: (o, int(G.identity[o])),
                          {"kind": "L_groupoid", "gpd": G})


def callback_C_of_groupoid(G) -> FiniteCategory:
    """Triples (e, x, f) with dom(x) <= f and cod(x) <= e, composed per cell."""
    if not is_principally_inductive(G):
        raise NotPrincipallyInductive()
    mors = [(f, e, f"({G.objects[e]},{G.arrows[x]},{G.objects[f]})", (e, x, f))
            for e in range(G.n_objects) for f in range(G.n_objects)
            for x in range(G.n_arrows)
            if G.obj_leq[int(G.cod[x]), e] and G.obj_leq[int(G.dom[x]), f]]
    return build_category(
        G.objects, mors,
        lambda pg, pf: (pg[0], _defined_pseudoproduct(G, pg[1], pf[1]), pf[2]),
        lambda o: (o, int(G.identity[o]), o),
        {"kind": "C_groupoid", "gpd": G})


def callback_bipartite_U(Rg) -> FiniteCategory:
    """The category U of pairs (c, r) with c idempotent and cr = r in R(S,T;X)."""
    tab, star = Rg.table, Rg.star
    n = len(Rg)
    idem = [e for e in range(n) if tab[e, e] == e]
    obj_of = {e: i for i, e in enumerate(idem)}
    mors = [(obj_of[int(tab[star[r], r])], obj_of[c], f"({Rg.names[c]}|{Rg.names[r]})",
             (c, r))
            for c in idem for r in range(n) if tab[c, r] == r]

    def compose(pg, pf):
        (c1, r1), (_c2, r2) = pg, pf
        v = int(tab[r1, r2])
        if v < 0:
            raise InvariantBroken("composable morphisms of U have no composite in R",
                                  witness=(r1, r2))
        return (c1, v)

    return build_category(tuple(Rg.names[e] for e in idem), mors, compose,
                          lambda o: (idem[o], idem[o]),
                          {"kind": "bipartite_U", "sgpd": Rg})


def loop_ordered_enlargement_tables(G, S, T, emb_S, emb_T):
    """(X, left, right, innS, innT) of biset_from_ordered_enlargement, per cell."""
    s_of_arrow = {int(a): s for s, a in enumerate(emb_S)}
    t_of_arrow = {int(a): t for t, a in enumerate(emb_T)}
    s_objs = {int(G.dom[int(a)]) for a in emb_S} | {int(G.cod[int(a)]) for a in emb_S}
    t_objs = {int(G.dom[int(a)]) for a in emb_T} | {int(G.cod[int(a)]) for a in emb_T}
    X = [x for x in range(G.n_arrows)
         if int(G.dom[x]) in t_objs and int(G.cod[x]) in s_objs]
    pos = {x: i for i, x in enumerate(X)}

    def pp(a, b):
        v = _cell_pseudoproduct(G, a, b)
        if v is None:
            raise UndefinedPseudoproduct(witness=(a, b))
        return v

    nx = len(X)
    left = np.empty((len(S), nx), dtype=np.int64)
    right = np.empty((nx, len(T)), dtype=np.int64)
    innS = np.empty((nx, nx), dtype=np.int64)
    innT = np.empty((nx, nx), dtype=np.int64)
    for i, x in enumerate(X):
        for s in range(len(S)):
            left[s, i] = pos[pp(int(emb_S[s]), x)]
        for t in range(len(T)):
            right[i, t] = pos[pp(x, int(emb_T[t]))]
    for i, x in enumerate(X):
        for j, y in enumerate(X):
            v = pp(x, int(G.inv[y]))
            if v not in s_of_arrow:
                raise InvalidBiset("pairing <x,y> lands outside the S part")
            innS[i, j] = s_of_arrow[v]
            w = pp(int(G.inv[x]), y)
            if w not in t_of_arrow:
                raise InvalidBiset("pairing [x,y] lands outside the T part")
            innT[i, j] = t_of_arrow[w]
    return tuple(X), left, right, innS, innT


# -- presheaves -------------------------------------------------------------------

def category_of_elements(P):
    """The category of elements with its discrete fibration to the site."""
    C = P.site
    objs = [(o, i) for o in range(C.n_objects) for i in range(P.fiber_size(o))]
    opos = {p: i for i, p in enumerate(objs)}
    mors = []
    for f in range(C.n_mor):
        a, b = int(C.dom[f]), int(C.cod[f])
        for i in range(P.fiber_size(b)):
            x = int(P.maps[f][i])
            mors.append((opos[(a, x)], opos[(b, i)],
                         f"{C.mor_labels[f]}@{i}", (f, i)))

    def compose(pg, pf):
        (g, i2), (f, _i1) = pg, pf
        return (int(C.comp[g, f]), i2)

    def ident(oi):
        o, i = objs[oi]
        return (int(C.identity[o]), i)

    labels = tuple(f"({C.objects[o]},{P.fibers[o][i]})" for (o, i) in objs)
    cat = build_category(labels, mors, compose, ident,
                         {"kind": "elements", "objs": tuple(objs)})
    payloads = cat._payload_array.tolist()
    K = Functor(cat, C,
                np.array([o for (o, _i) in objs], dtype=np.int64),
                np.array([f for (f, _i) in payloads], dtype=np.int64))
    # verify K is a discrete fibration: unique lift of each f into K(y)
    for f in range(C.n_mor):
        b = int(C.cod[f])
        for i in range(P.fiber_size(b)):
            lifts = [m for m, (ff, ii) in enumerate(payloads)
                     if ff == f and ii == i]
            if len(lifts) != 1:
                raise InvariantBroken("element category lost the fibration property",
                                      witness=(f, i))
    return cat, K


def loop_action_law_witness(X: RightAction):
    """First (x, s, t) with (xs)t != x(st), or None; one numpy pass per point."""
    act, table = X.act, X.sgrp.table
    for x in range(act.shape[0]):
        left = act[act[x], :]           # [s, t] -> (xs)t
        right = act[x][table]           # [s, t] -> x(st)
        bad = np.argwhere(left != right)
        if bad.size:
            s, t = bad[0]
            return (x, int(s), int(t))
    return None


def loop_principal_action(S: FiniteSemigroup, e: int) -> RightAction:
    """The right ideal eS, one cell of the action at a time."""
    tab = S.table
    pts = [s for s in range(len(S)) if tab[e, s] == s]
    pos = {s: i for i, s in enumerate(pts)}
    act = np.empty((len(pts), len(S)), dtype=np.int64)
    for i, x in enumerate(pts):
        for s in range(len(S)):
            act[i, s] = pos[int(tab[x, s])]
    return RightAction(
        tuple(S.names[s] for s in pts), S, act,
        {"kind": "principal", "e": e, "elt_of_point": tuple(pts)},
    )


def loop_fiber_presheaf(site: FiniteCategory, X: RightAction, member) -> Presheaf:
    """The presheaf of the fibers of X, one map per site morphism."""
    pts = [np.flatnonzero(row).tolist() for row in member]
    pos = [{x: i for i, x in enumerate(p)} for p in pts]
    maps = tuple(
        np.array([pos[d][int(X.act[x, pay[1]])] for x in pts[c]], dtype=np.int64)
        for d, c, pay in zip(site.dom.tolist(), site.cod.tolist(), site._payload_array.tolist())
    )
    P = Presheaf(site, tuple(tuple(X.carrier[x] for x in p) for p in pts), maps)
    P.pts = tuple(tuple(p) for p in pts)
    return P


def loop_unit_iso_check(P: Presheaf) -> bool:
    """The unit P -> Q(Q_!(P)) is a natural bijection, read from the unit dict."""
    _read_site(P.site, "C")
    C = P.site
    obj_elt = C.extra["obj_elt"]
    res = q_shriek_with_unit(P)
    X = res.action
    for o, e in enumerate(obj_elt):
        fixed = [w for w in range(len(X)) if X.act[w, e] == w]
        image = [res.unit[(o, i)] for i in range(P.fiber_size(o))]
        if len(set(image)) != len(image) or set(image) != set(fixed):
            return False
    for m, (e, s, f) in enumerate(C._payload_array.tolist()):
        co = obj_elt.index(e)
        do = obj_elt.index(f)
        for i in range(P.fiber_size(co)):
            lhs = res.unit[(do, int(P.maps[m][i]))]
            rhs = int(X.act[res.unit[(co, i)], s])
            if lhs != rhs:
                return False
    return True


def loop_unit_iso_checks(presheaves) -> list:
    """`unit_iso_check` of each presheaf, one colimit per presheaf."""
    out = []
    for P in presheaves:
        C = P.site
        res = q_shriek_with_unit(P)
        X, unit = res.action, res.points
        n = len(X)
        Ea = np.array(C.extra["obj_elt"], dtype=np.int64)
        hits = np.bincount(res.elements[0] * n + unit, minlength=C.n_objects * n)
        out.append(bool(np.array_equal(hits.reshape(C.n_objects, n),
                                       X.act[:, Ea].T == np.arange(n))))
    return out


def loop_hom_counts(S: InverseSemigroup) -> list:
    """|hom(dS, eS)| for the objects d, e of C(S) in (d, e) order, one
    orbit search per pair."""
    E = C_of(S).extra["obj_elt"]
    principal = {e: principal_action(S, e) for e in E}
    return [len(action_homs(principal[d], principal[e])) for d in E for e in E]


def loop_is_unitary(X: RightAction) -> bool:
    """Every point is in the image of the action, read into a Python set."""
    hit = set(int(v) for v in X.act.ravel())
    return hit == set(range(len(X)))


def loop_munn_action(S: InverseSemigroup) -> EtaleAction:
    """E(S) with e.s = s*es, one cell of the action at a time."""
    E = idempotents(S)
    pos = {e: i for i, e in enumerate(E)}
    tab, star = S.table, S.star
    act = np.empty((len(E), len(S)), dtype=np.int64)
    for i, e in enumerate(E):
        for s in range(len(S)):
            act[i, s] = pos[int(tab[tab[star[s], e], s])]
    base = RightAction(tuple(S.names[e] for e in E), S, act,
                       {"kind": "munn", "elt_of_point": tuple(E)})
    return EtaleAction(base, np.array(E, dtype=np.int64))


def loop_eSd(S: FiniteSemigroup, e: int, d: int) -> list:
    """The elements s with (es)d = s, the set `psh-equiv` counts homs dS -> eS by."""
    tab = S.table
    return [s for s in range(len(S)) if tab[tab[e, s], d] == s]


def loop_coproduct_presheaf(site: FiniteCategory, parts) -> Presheaf:
    """The disjoint union of presheaves, one morphism and one value at a time."""
    fibers, maps = [], []
    for o in range(site.n_objects):
        fib = []
        for k, P in enumerate(parts):
            fib.extend(f"c{k}_{lbl}" for lbl in P.fibers[o])
        fibers.append(tuple(fib))
    for m in range(site.n_mor):
        do = int(site.dom[m])
        arr = []
        off_d = 0
        for P in parts:
            arr.extend(int(v) + off_d for v in P.maps[m])
            off_d += P.fiber_size(do)
        maps.append(np.array(arr, dtype=np.int64))
    return Presheaf(site, tuple(fibers), tuple(maps))


def loop_quotient_presheaf(P: Presheaf, idents) -> Presheaf:
    """Quotient by identifications (object, i, j), one morphism at a time."""
    site = P.site
    k = site.n_objects
    nfib = np.array([P.fiber_size(o) for o in range(k)], dtype=np.int64)
    off = np.concatenate([[0], np.cumsum(nfib)])
    n = int(off[-1])
    move = np.full((n, site.n_mor), -1, dtype=np.int64)
    for m in range(site.n_mor):
        co, do = int(site.cod[m]), int(site.dom[m])
        move[off[co]:off[co + 1], m] = off[do] + P.maps[m]
    idents = np.asarray(idents, dtype=np.int64).reshape(-1, 3)
    base = off[idents[:, 0]]
    root, cls = congruence(n, base + idents[:, 1], base + idents[:, 2], move)
    obj = np.repeat(np.arange(k), nfib)
    across = np.flatnonzero(obj[root] != obj)
    if len(across):
        raise InvariantBroken("identified elements across fibers",
                              witness=(int(root[across[0]]), int(across[0])))
    reps = np.flatnonzero(root == np.arange(n))
    first = np.searchsorted(reps, off)
    local = cls - first[obj]
    fibers = tuple(
        tuple(P.fibers[o][r] for r in (reps[first[o]:first[o + 1]] - off[o]).tolist())
        for o in range(k)
    )
    maps = []
    for m in range(site.n_mor):
        co = int(site.cod[m])
        val = local[move[off[co]:off[co + 1], m]]
        if not np.array_equal(val, val[root[off[co]:off[co + 1]] - off[co]]):
            raise InvariantBroken("quotient transition not well-defined", witness=m)
        maps.append(val[reps[first[co]:first[co + 1]] - off[co]])
    return Presheaf(site, fibers, tuple(maps))


def loop_action_homs(X: RightAction, Y: RightAction) -> list:
    """All equivariant maps X -> Y: backtracking that propagates one point
    and one s at a time."""
    if X.sgrp is not Y.sgrp:
        raise ValueError("homs need a common semigroup")
    n, ns = len(X), len(X.sgrp)
    out = []
    f = [-1] * n

    def propagate(assigned):
        stack = list(assigned)
        changes = []
        while stack:
            x = stack.pop()
            for s in range(ns):
                xs = int(X.act[x, s])
                want = int(Y.act[f[x], s])
                if f[xs] == -1:
                    f[xs] = want
                    changes.append(xs)
                    stack.append(xs)
                elif f[xs] != want:
                    return changes, False
        return changes, True

    def rec():
        try:
            x0 = f.index(-1)
        except ValueError:
            out.append(tuple(f))
            return
        for y in range(len(Y)):
            f[x0] = y
            changes, ok = propagate([x0])
            if ok:
                rec()
            for c in changes:
                f[c] = -1
            f[x0] = -1

    if n == 0:
        return [()]
    rec()
    return sorted(out)


def loop_presheaf_nats(P1: Presheaf, P2: Presheaf) -> list:
    """All natural transformations P1 -> P2, one element at a time, each
    choice tested against the naturality squares it completes."""
    C = P1.site
    if P2.site is not C:
        raise WrongSite("natural transformations need a common site")
    vars_ = [(o, i) for o in range(C.n_objects) for i in range(P1.fiber_size(o))]
    pos = {v: k for k, v in enumerate(vars_)}
    # each morphism m: a -> b forces alpha_a(P1(m)(i)) = P2(m)(alpha_b(i))
    insts = []
    for m in range(C.n_mor):
        a, b = int(C.dom[m]), int(C.cod[m])
        for i in range(P1.fiber_size(b)):
            insts.append((pos[(a, int(P1.maps[m][i]))], pos[(b, i)], m))
    watch = {}
    for t in insts:
        watch.setdefault(t[0], []).append(t)
        watch.setdefault(t[1], []).append(t)
    out = []
    alpha = [-1] * len(vars_)

    def rec(k):
        if k == len(vars_):
            for (dst, src, m) in insts:
                if alpha[dst] != int(P2.maps[m][alpha[src]]):
                    return
            out.append(tuple(alpha))
            return
        o = vars_[k][0]
        for y in range(P2.fiber_size(o)):
            alpha[k] = y
            ok = True
            for (dst, src, m) in watch.get(k, ()):
                if alpha[src] != -1 and alpha[dst] != -1:
                    if alpha[dst] != int(P2.maps[m][alpha[src]]):
                        ok = False
                        break
            if ok:
                rec(k + 1)
            alpha[k] = -1

    rec(0)
    return sorted(out)


def loop_fullness_faithfulness_check(X: RightAction, Y: RightAction,
                                     PX: Presheaf, PY: Presheaf) -> bool:
    """hom(X, Y) against Nat(PX, PY), restricting one hom and one point at a time."""
    C = PX.site
    homs = action_homs(X, Y)
    nats = presheaf_nats(PX, PY)
    if len(homs) != len(nats):
        return False
    obj_elt = C.extra["obj_elt"]
    vars_ = [(o, i) for o in range(C.n_objects) for i in range(PX.fiber_size(o))]
    restricted = set()
    for h in homs:
        alpha = []
        for (o, i) in vars_:
            y = int(h[PX.pts[o][i]])
            if Y.act[y, obj_elt[o]] != y:
                raise InvariantBroken("hom does not map Xe into Ye", witness=(o, y))
            alpha.append(PY.pts[o].index(y))
        restricted.add(tuple(alpha))
    return len(restricted) == len(homs) and restricted == set(nats)


def loop_action_isomorphic(X: RightAction, Y: RightAction):
    """An equivariant bijection X -> Y, or None: orbit-signature pruning and
    propagation along the action one pair at a time."""
    if X.sgrp is not Y.sgrp or len(X) != len(Y):
        return None

    def sigs(Z):
        indeg = [0] * len(Z)
        for x in range(len(Z)):
            for s in range(len(Z.sgrp)):
                indeg[int(Z.act[x, s])] += 1
        return [
            (indeg[x], sum(1 for s in range(len(Z.sgrp)) if Z.act[x, s] == x))
            for x in range(len(Z))
        ]

    sx, sy = sigs(X), sigs(Y)
    if sorted(sx) != sorted(sy):
        return None
    n, ns = len(X), len(X.sgrp)
    f = [-1] * n
    used = [False] * n

    def rec(x0):
        while x0 < n and f[x0] != -1:
            x0 += 1
        if x0 == n:
            return list(f)
        for y in range(n):
            if used[y] or sy[y] != sx[x0]:
                continue
            stack = [(x0, y)]
            trail = []
            ok = True
            while stack and ok:
                a, b = stack.pop()
                if f[a] == b:
                    continue
                if f[a] != -1 or used[b]:
                    ok = False
                    break
                f[a] = b
                used[b] = True
                trail.append((a, b))
                for s in range(ns):
                    stack.append((int(X.act[a, s]), int(Y.act[b, s])))
            if ok:
                res = rec(x0 + 1)
                if res is not None:
                    return res
            for (a, b) in trail:
                f[a] = -1
                used[b] = False
        return None

    if n == 0:
        return []
    return rec(0)


def loop_check_etale(X: EtaleAction) -> bool:
    """Action law, x.p(x) = x, and p(xs) = s*p(x)s, one point and one s at a time."""
    S = X.sgrp
    if not isinstance(S, InverseSemigroup):
        return False
    if not check_action(X.base):
        return False
    act, anchor, tab, star = X.base.act, X.anchor, S.table, S.star
    for x in range(len(X)):
        e = int(anchor[x])
        if tab[e, e] != e or act[x, e] != x:
            return False
        for s in range(len(S)):
            if anchor[int(act[x, s])] != tab[tab[star[s], e], s]:
                return False
    return True


def loop_etale_morphism_check(f, X: EtaleAction, Y: EtaleAction) -> bool:
    """f commutes with the actions and preserves anchors, point by point."""
    f = np.ascontiguousarray(f, dtype=np.int64)
    if f.shape != (len(X),):
        return False
    if len(X) and (f.min() < 0 or f.max() >= len(Y)):
        return False
    for x in range(len(X)):
        if Y.anchor[int(f[x])] != X.anchor[x]:
            return False
        for s in range(len(X.sgrp)):
            if f[int(X.base.act[x, s])] != Y.base.act[int(f[x]), s]:
                return False
    return True


# -- .smg: one cell at a time ---------------------------------------------------

def loop_parse_semigroup(text: str) -> FiniteSemigroup:
    """parse_semigroup with the table filled one cell at a time."""
    lines = _tokens(text)
    if not lines:
        raise ParseError("empty input")
    if len(lines[0]) != 1:
        raise ParseError("first line must be the element count")
    try:
        n = int(lines[0][0])
    except ValueError:
        raise ParseError(f"bad element count {lines[0][0]!r}")
    if n < 1:
        raise ParseError("need at least one element")
    if len(lines) != n + 2:
        raise ParseError(f"expected {n + 2} content lines, found {len(lines)}")
    names = lines[1]
    if len(names) != n:
        raise ParseError(f"expected {n} names, found {len(names)}")
    _check_names(names)
    pos = {nm: i for i, nm in enumerate(names)}
    table = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        row = lines[2 + i]
        if len(row) != n:
            raise ParseError(f"row {i} has {len(row)} entries, expected {n}")
        for j, nm in enumerate(row):
            if nm not in pos:
                raise ParseError(f"unknown element {nm!r} in row {i}")
            table[i, j] = pos[nm]
    S = FiniteSemigroup(tuple(names), table)
    w = assoc_witness(S)
    if w is not None:
        i, j, k = w
        raise NotAssociative(
            f"({names[i]} {names[j]}) {names[k]} != {names[i]} ({names[j]} {names[k]})",
            witness=w,
        )
    return S


# -- .cat, .act, .biset, .ogpd: one loop and one pattern per section ------------

def loop_dump_category(C: FiniteCategory) -> str:
    lines = ["objects: " + " ".join(str(o) for o in C.objects), "morphisms:"]
    for m in range(C.n_mor):
        lines.append(f"{C.mor_labels[m]} : {C.objects[int(C.dom[m])]}"
                     f" -> {C.objects[int(C.cod[m])]}")
    lines.append("compose:")
    for g in range(C.n_mor):
        for f in range(C.n_mor):
            h = int(C.comp[g, f])
            if h >= 0:
                lines.append(f"{C.mor_labels[g]} . {C.mor_labels[f]}"
                             f" = {C.mor_labels[h]}")
    return "\n".join(lines) + "\n"


def loop_parse_category(text: str) -> FiniteCategory:
    objects, mors, comps = [], [], []
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("objects:"):
            objects = line[len("objects:"):].split()
            continue
        if line == "morphisms:":
            section = "morphisms"
            continue
        if line == "compose:":
            section = "compose"
            continue
        if section == "morphisms":
            m = re.match(r"^(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$", line)
            if not m:
                raise ParseError(f"bad morphism line {line!r}")
            mors.append(m.groups())
        elif section == "compose":
            m = re.match(r"^(\S+)\s*\.\s*(\S+)\s*=\s*(\S+)$", line)
            if not m:
                raise ParseError(f"bad compose line {line!r}")
            comps.append(m.groups())
        else:
            raise ParseError(f"unexpected line {line!r}")
    if not objects:
        raise ParseError("no objects")
    opos = {o: i for i, o in enumerate(objects)}
    labels = [lab for (lab, _d, _c) in mors]
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate morphism labels")
    mpos = {lab: i for i, lab in enumerate(labels)}
    dom = np.empty(len(mors), dtype=np.int64)
    cod = np.empty(len(mors), dtype=np.int64)
    for i, (lab, d, c) in enumerate(mors):
        if d not in opos or c not in opos:
            raise ParseError(f"morphism {lab!r} uses unknown object")
        dom[i] = opos[d]
        cod[i] = opos[c]
    comp = np.full((len(mors), len(mors)), -1, dtype=np.int64)
    for (g, f, h) in comps:
        for lab in (g, f, h):
            if lab not in mpos:
                raise ParseError(f"unknown morphism {lab!r} in compose")
        comp[mpos[g], mpos[f]] = mpos[h]
    # identities: the unique endomorphism acting as a unit
    identity = np.full(len(objects), -1, dtype=np.int64)
    for o in range(len(objects)):
        for m in range(len(mors)):
            if dom[m] != o or cod[m] != o:
                continue
            left = all(comp[m, f] == f for f in range(len(mors)) if cod[f] == o)
            right = all(comp[g, m] == g for g in range(len(mors)) if dom[g] == o)
            if left and right:
                identity[o] = m
                break
        if identity[o] < 0:
            raise ParseError(f"object {objects[o]!r} has no identity morphism")
    C = FiniteCategory(tuple(objects), tuple(labels), dom, cod, comp, identity)
    bad = check_category(C)
    if bad:
        raise ParseError("not a category: " + bad[0])
    return C


# -- .act ------------------------------------------------------------------------

def loop_dump_action(X: RightAction, smg_path: str, anchor=None) -> str:
    S = X.sgrp
    lines = [f"semigroup: {smg_path}", "points: " + " ".join(X.carrier), "act:"]
    for x in range(len(X)):
        for s in range(len(S)):
            lines.append(f"{X.carrier[x]} . {S.names[s]}"
                         f" = {X.carrier[int(X.act[x, s])]}")
    if anchor is not None:
        lines.append("anchor:")
        for x in range(len(X)):
            lines.append(f"{X.carrier[x]} -> {S.names[int(anchor[x])]}")
    return "\n".join(lines) + "\n"


def loop_parse_action(text: str, base_dir=".", semigroup: FiniteSemigroup = None):
    """Returns RightAction or EtaleAction (when anchor lines are present)."""
    points, acts, anchors = [], [], []
    S = semigroup
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("semigroup:"):
            ref = line[len("semigroup:"):].strip()
            if S is None:
                S = load_semigroup(Path(base_dir) / ref)
            continue
        if line.startswith("points:"):
            points = line[len("points:"):].split()
            continue
        if line == "act:":
            section = "act"
            continue
        if line == "anchor:":
            section = "anchor"
            continue
        if section == "act":
            m = re.match(r"^(\S+)\s*\.\s*(\S+)\s*=\s*(\S+)$", line)
            if not m:
                raise ParseError(f"bad act line {line!r}")
            acts.append(m.groups())
        elif section == "anchor":
            m = re.match(r"^(\S+)\s*->\s*(\S+)$", line)
            if not m:
                raise ParseError(f"bad anchor line {line!r}")
            anchors.append(m.groups())
        else:
            raise ParseError(f"unexpected line {line!r}")
    if S is None:
        raise ParseError("no semigroup reference")
    _check_names(points)
    ppos = {p: i for i, p in enumerate(points)}
    spos = {nm: i for i, nm in enumerate(S.names)}
    act = np.full((len(points), len(S)), -1, dtype=np.int64)
    for (x, s, y) in acts:
        if x not in ppos or y not in ppos:
            raise ParseError(f"unknown point in act line {x!r}/{y!r}")
        if s not in spos:
            raise ParseError(f"unknown semigroup element {s!r}")
        act[ppos[x], spos[s]] = ppos[y]
    if (act < 0).any():
        raise ParseError("action table incomplete")
    X = RightAction(tuple(points), S, act)
    if not check_action(X):
        raise ParseError("action law fails")
    if not anchors:
        return X
    anchor = np.full(len(points), -1, dtype=np.int64)
    for (x, e) in anchors:
        if x not in ppos or e not in spos:
            raise ParseError(f"bad anchor line {x!r} -> {e!r}")
        anchor[ppos[x]] = spos[e]
    if (anchor < 0).any():
        raise ParseError("anchor incomplete")
    E = EtaleAction(RightAction(tuple(points), as_inverse(S), act), anchor)
    if not check_etale(E):
        raise ParseError("etale axioms fail")
    return E


# -- .biset ----------------------------------------------------------------------

def loop_dump_biset(B: EquivalenceBiset, s_path: str, t_path: str) -> str:
    S, T = B.S, B.T
    lines = [f"S: {s_path}", f"T: {t_path}", "points: " + " ".join(B.points)]
    lines.append("lact:")
    for s in range(len(S)):
        for x in range(len(B)):
            lines.append(f"{S.names[s]} . {B.points[x]}"
                         f" = {B.points[int(B.left_act[s, x])]}")
    lines.append("ract:")
    for x in range(len(B)):
        for t in range(len(T)):
            lines.append(f"{B.points[x]} . {T.names[t]}"
                         f" = {B.points[int(B.right_act[x, t])]}")
    lines.append("innS:")
    for x in range(len(B)):
        for y in range(len(B)):
            lines.append(f"{B.points[x]} , {B.points[y]}"
                         f" = {S.names[int(B.inner_S[x, y])]}")
    lines.append("innT:")
    for x in range(len(B)):
        for y in range(len(B)):
            lines.append(f"{B.points[x]} , {B.points[y]}"
                         f" = {T.names[int(B.inner_T[x, y])]}")
    return "\n".join(lines) + "\n"


def loop_parse_biset(text: str, base_dir=".") -> EquivalenceBiset:
    S = T = None
    points = []
    sections = {"lact": [], "ract": [], "innS": [], "innT": []}
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("S:"):
            S = as_inverse(load_semigroup(Path(base_dir) / line[2:].strip()))
            continue
        if line.startswith("T:"):
            T = as_inverse(load_semigroup(Path(base_dir) / line[2:].strip()))
            continue
        if line.startswith("points:"):
            points = line[len("points:"):].split()
            continue
        if line.rstrip(":") in sections and line.endswith(":"):
            section = line.rstrip(":")
            continue
        if section is None:
            raise ParseError(f"unexpected line {line!r}")
        m = re.match(r"^(\S+)\s*[.,]\s*(\S+)\s*=\s*(\S+)$", line)
        if not m:
            raise ParseError(f"bad table line {line!r}")
        sections[section].append(m.groups())
    if S is None or T is None:
        raise ParseError("biset needs S: and T: references")
    if not points:
        raise ParseError("biset needs points")
    _check_names(points)
    ppos = {p: i for i, p in enumerate(points)}
    spos = {nm: i for i, nm in enumerate(S.names)}
    tpos = {nm: i for i, nm in enumerate(T.names)}
    nx = len(points)
    left = np.full((len(S), nx), -1, dtype=np.int64)
    right = np.full((nx, len(T)), -1, dtype=np.int64)
    innS = np.full((nx, nx), -1, dtype=np.int64)
    innT = np.full((nx, nx), -1, dtype=np.int64)

    for (s, x, y) in sections["lact"]:
        left[_need(spos, s, "S element"),
             _need(ppos, x, "point")] = _need(ppos, y, "point")
    for (x, t, y) in sections["ract"]:
        right[_need(ppos, x, "point"),
              _need(tpos, t, "T element")] = _need(ppos, y, "point")
    for (x, y, s) in sections["innS"]:
        innS[_need(ppos, x, "point"),
             _need(ppos, y, "point")] = _need(spos, s, "S element")
    for (x, y, t) in sections["innT"]:
        innT[_need(ppos, x, "point"),
             _need(ppos, y, "point")] = _need(tpos, t, "T element")
    for arr, nm in ((left, "lact"), (right, "ract"), (innS, "innS"), (innT, "innT")):
        if (arr < 0).any():
            raise ParseError(f"{nm} table incomplete")
    return EquivalenceBiset(S, T, tuple(points), left, right, innS, innT)


# -- .ogpd -----------------------------------------------------------------------

def loop_dump_ordered_groupoid(G: OrderedGroupoid) -> str:
    lines = ["objects: " + " ".join(str(o) for o in G.objects)]
    for a in range(G.n_objects):
        for b in range(G.n_objects):
            if a != b and G.obj_leq[a, b]:
                lines.append(f"{G.objects[a]} <= {G.objects[b]}")
    lines.append("arrows:")
    for g in range(G.n_arrows):
        lines.append(f"{G.arrows[g]} : {G.objects[int(G.dom[g])]}"
                     f" -> {G.objects[int(G.cod[g])]}")
    lines.append("compose:")
    for g in range(G.n_arrows):
        for f in range(G.n_arrows):
            h = int(G.comp[g, f])
            if h >= 0:
                lines.append(f"{G.arrows[g]} . {G.arrows[f]} = {G.arrows[h]}")
    lines.append("order:")
    for g in range(G.n_arrows):
        for h in range(G.n_arrows):
            if g != h and G.leq[g, h]:
                lines.append(f"{G.arrows[g]} <= {G.arrows[h]}")
    lines.append("inverse:")
    for g in range(G.n_arrows):
        lines.append(f"{G.arrows[g]} -> {G.arrows[int(G.inv[g])]}")
    return "\n".join(lines) + "\n"


def loop_parse_ordered_groupoid(text: str) -> OrderedGroupoid:
    objects, obj_leq_pairs = [], []
    arrows, comps, order_pairs, inv_pairs = [], [], [], []
    section = "objects"
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("objects:"):
            objects = line[len("objects:"):].split()
            section = "objects"
            continue
        for name in ("arrows", "compose", "order", "inverse"):
            if line == name + ":":
                section = name
                break
        else:
            if section == "objects":
                m = re.match(r"^(\S+)\s*<=\s*(\S+)$", line)
                if not m:
                    raise ParseError(f"bad object order line {line!r}")
                obj_leq_pairs.append(m.groups())
            elif section == "arrows":
                m = re.match(r"^(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$", line)
                if not m:
                    raise ParseError(f"bad arrow line {line!r}")
                arrows.append(m.groups())
            elif section == "compose":
                m = re.match(r"^(\S+)\s*\.\s*(\S+)\s*=\s*(\S+)$", line)
                if not m:
                    raise ParseError(f"bad compose line {line!r}")
                comps.append(m.groups())
            elif section == "order":
                m = re.match(r"^(\S+)\s*<=\s*(\S+)$", line)
                if not m:
                    raise ParseError(f"bad order line {line!r}")
                order_pairs.append(m.groups())
            elif section == "inverse":
                m = re.match(r"^(\S+)\s*->\s*(\S+)$", line)
                if not m:
                    raise ParseError(f"bad inverse line {line!r}")
                inv_pairs.append(m.groups())
            continue
    if not objects:
        raise ParseError("no objects")
    opos = {o: i for i, o in enumerate(objects)}
    labels = [lab for (lab, _d, _c) in arrows]
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate arrow labels")
    apos = {lab: i for i, lab in enumerate(labels)}
    n, m = len(objects), len(arrows)
    dom = np.array([_need(opos, d, "object") for (_l, d, _c) in arrows], dtype=np.int64)
    cod = np.array([_need(opos, c, "object") for (_l, _d, c) in arrows], dtype=np.int64)
    obj_leq = np.eye(n, dtype=bool)
    for (a, b) in obj_leq_pairs:
        obj_leq[_need(opos, a, "object"), _need(opos, b, "object")] = True
    comp = np.full((m, m), -1, dtype=np.int64)
    for (g, f, h) in comps:
        comp[_need(apos, g, "arrow"), _need(apos, f, "arrow")] = _need(apos, h, "arrow")
    leq = np.eye(m, dtype=bool)
    for (g, h) in order_pairs:
        leq[_need(apos, g, "arrow"), _need(apos, h, "arrow")] = True
    inv = np.full(m, -1, dtype=np.int64)
    for (g, h) in inv_pairs:
        inv[_need(apos, g, "arrow")] = _need(apos, h, "arrow")
    if (inv < 0).any():
        raise ParseError("inverse table incomplete")
    identity = np.full(n, -1, dtype=np.int64)
    for o in range(n):
        for g in range(m):
            if dom[g] != o or cod[g] != o:
                continue
            left = all(comp[g, f] == f for f in range(m) if cod[f] == o)
            right = all(comp[h, g] == h for h in range(m) if dom[h] == o)
            if left and right:
                identity[o] = g
                break
        if identity[o] < 0:
            raise ParseError(f"object {objects[o]!r} has no identity arrow")
    G = OrderedGroupoid(tuple(objects), obj_leq, tuple(labels), dom, cod,
                        comp, inv, identity, leq)
    bad = validate_ordered_groupoid(G)
    if bad:
        raise ParseError("not an ordered groupoid: " + bad[0])
    return G


class LoopBisetSearch:
    """DFS with watched-constraint propagation over the four biset tables.

    The loop form of `bisets._BisetSearch`: named tuple instances, each
    evaluated by one `eval_inst` call.  The library compiles the same
    instances, in the same order, into flat int tuples; both make the same
    sequence of cell assignments.

    Cells: left action L[s,x], right action R[x,t], pairings P[x,y] -> S
    and Q[x,y] -> T.  Point relabelling symmetry is broken by requiring
    the diagonal signatures (P[x,x], Q[x,x]) to be non-decreasing in x.
    The budget counts cell assignments.
    """

    def __init__(self, S, T, nx, budget, counter):
        self.S, self.T, self.nx = S, T, nx
        self.tS, self.sS = S.table, S.star
        self.tT, self.sT = T.table, T.star
        ns, nt = len(S), len(T)
        self.ns, self.nt = ns, nt
        self.off_R = ns * nx
        self.off_P = self.off_R + nx * nt
        self.off_Q = self.off_P + nx * nx
        self.ncells = self.off_Q + nx * nx
        self.val = [-1] * self.ncells
        self.trail = []
        self.queue = []
        self.budget = budget
        self.counter = counter
        self._build_instances()
        self._build_order()

    # cell ids
    def L(self, s, x):
        return s * self.nx + x

    def R(self, x, t):
        return self.off_R + x * self.nt + t

    def P(self, x, y):
        return self.off_P + x * self.nx + y

    def Q(self, x, y):
        return self.off_Q + x * self.nx + y

    def _build_instances(self):
        nx, ns, nt = self.nx, self.ns, self.nt
        watch = [[] for _ in range(self.ncells)]
        insts = []

        def add(inst, cells):
            k = len(insts)
            insts.append(inst)
            for c in set(cells):
                watch[c].append(k)

        for s1 in range(ns):
            for s2 in range(ns):
                for x in range(nx):
                    add(("ll", s1, s2, x),
                        [self.L(s2, x), self.L(int(self.tS[s1, s2]), x)]
                        + [self.L(s1, v) for v in range(nx)])
        for x in range(nx):
            for t1 in range(nt):
                for t2 in range(nt):
                    add(("rl", x, t1, t2),
                        [self.R(x, t1), self.R(x, int(self.tT[t1, t2]))]
                        + [self.R(v, t2) for v in range(nx)])
        for s in range(ns):
            for x in range(nx):
                for t in range(nt):
                    add(("cp", s, x, t),
                        [self.L(s, x), self.R(x, t)]
                        + [self.R(v, t) for v in range(nx)]
                        + [self.L(s, w) for w in range(nx)])
        for s in range(ns):
            for x in range(nx):
                for y in range(nx):
                    add(("m1", s, x, y),
                        [self.L(s, x), self.P(x, y)]
                        + [self.P(v, y) for v in range(nx)])
        for x in range(nx):
            for y in range(x, nx):
                add(("m2", x, y), [self.P(x, y), self.P(y, x)])
                add(("m5", x, y), [self.Q(x, y), self.Q(y, x)])
        for x in range(nx):
            add(("m3", x), [self.P(x, x)])
            add(("m6", x), [self.Q(x, x)])
        for x in range(nx):
            for y in range(nx):
                for t in range(nt):
                    add(("m4", x, y, t),
                        [self.R(y, t), self.Q(x, y)]
                        + [self.Q(x, v) for v in range(nx)])
        for x in range(nx):
            for y in range(nx):
                for z in range(nx):
                    add(("m7", x, y, z),
                        [self.P(x, y), self.Q(y, z)]
                        + [self.L(v, z) for v in range(self.ns)]
                        + [self.R(x, w) for w in range(self.nt)])
        self.insts = insts
        self.watch = watch

    def _build_order(self):
        order = []
        for x in range(self.nx):
            order.append(self.P(x, x))
            order.append(self.Q(x, x))
            for s in range(self.ns):
                order.append(self.L(s, x))
            for t in range(self.nt):
                order.append(self.R(x, t))
            for y in range(x):
                order.extend([self.P(x, y), self.P(y, x),
                              self.Q(x, y), self.Q(y, x)])
        self.order = order
        dom = []
        for c in order:
            if c < self.off_R:
                dom.append(self.nx)
            elif c < self.off_P:
                dom.append(self.nx)
            elif c < self.off_Q:
                dom.append(self.ns)
            else:
                dom.append(self.nt)
        self.domain_of = dict(zip(order, dom))

    def assign(self, cell, v):
        cur = self.val[cell]
        if cur != -1:
            return cur == v
        self.counter[0] += 1
        if self.counter[0] > self.budget:
            raise BudgetExceeded(f"biset search exceeded {self.budget} cells")
        self.val[cell] = v
        self.trail.append(cell)
        self.queue.append(cell)
        return True

    def equate(self, c1, c2):
        v1, v2 = self.val[c1], self.val[c2]
        if v1 == -1 and v2 == -1:
            return True
        if v1 == -1:
            return self.assign(c1, v2)
        if v2 == -1:
            return self.assign(c2, v1)
        return v1 == v2

    def eval_inst(self, k):
        inst = self.insts[k]
        kind = inst[0]
        val = self.val
        if kind == "ll":
            _, s1, s2, x = inst
            va = val[self.L(s2, x)]
            if va == -1:
                return True
            return self.equate(self.L(s1, va), self.L(int(self.tS[s1, s2]), x))
        if kind == "rl":
            _, x, t1, t2 = inst
            va = val[self.R(x, t1)]
            if va == -1:
                return True
            return self.equate(self.R(va, t2), self.R(x, int(self.tT[t1, t2])))
        if kind == "cp":
            _, s, x, t = inst
            va = val[self.L(s, x)]
            vb = val[self.R(x, t)]
            if va == -1 or vb == -1:
                return True
            return self.equate(self.R(va, t), self.L(s, vb))
        if kind == "m1":
            _, s, x, y = inst
            va = val[self.L(s, x)]
            vp = val[self.P(x, y)]
            if va == -1 or vp == -1:
                return True
            lhs = self.P(va, y)
            want = int(self.tS[s, vp])
            return self.assign(lhs, want) if val[lhs] == -1 else val[lhs] == want
        if kind == "m2":
            _, x, y = inst
            vxy, vyx = val[self.P(x, y)], val[self.P(y, x)]
            if vxy != -1:
                want = int(self.sS[vxy])
                c = self.P(y, x)
                return self.assign(c, want) if val[c] == -1 else val[c] == want
            if vyx != -1:
                return self.assign(self.P(x, y), int(self.sS[vyx]))
            return True
        if kind == "m3":
            _, x = inst
            ve = val[self.P(x, x)]
            if ve == -1:
                return True
            c = self.L(ve, x)
            return self.assign(c, x) if val[c] == -1 else val[c] == x
        if kind == "m4":
            _, x, y, t = inst
            vb = val[self.R(y, t)]
            vq = val[self.Q(x, y)]
            if vb == -1 or vq == -1:
                return True
            lhs = self.Q(x, vb)
            want = int(self.tT[vq, t])
            return self.assign(lhs, want) if val[lhs] == -1 else val[lhs] == want
        if kind == "m5":
            _, x, y = inst
            vxy, vyx = val[self.Q(x, y)], val[self.Q(y, x)]
            if vxy != -1:
                want = int(self.sT[vxy])
                c = self.Q(y, x)
                return self.assign(c, want) if val[c] == -1 else val[c] == want
            if vyx != -1:
                return self.assign(self.Q(x, y), int(self.sT[vyx]))
            return True
        if kind == "m6":
            _, x = inst
            vf = val[self.Q(x, x)]
            if vf == -1:
                return True
            c = self.R(x, vf)
            return self.assign(c, x) if val[c] == -1 else val[c] == x
        # m7
        _, x, y, z = inst
        va = val[self.P(x, y)]
        vb = val[self.Q(y, z)]
        if va == -1 or vb == -1:
            return True
        return self.equate(self.L(va, z), self.R(x, vb))

    def propagate(self):
        while self.queue:
            c = self.queue.pop()
            for k in self.watch[c]:
                if not self.eval_inst(k):
                    self.queue.clear()
                    return False
        return True

    def prune(self):
        val, nx = self.val, self.nx
        # diagonal signature symmetry break
        for x in range(1, nx):
            a = (val[self.P(x - 1, x - 1)], val[self.Q(x - 1, x - 1)])
            b = (val[self.P(x, x)], val[self.Q(x, x)])
            if -1 not in a and -1 not in b and a > b:
                return False
        # surjectivity is still reachable
        pvals = [val[self.P(x, y)] for x in range(nx) for y in range(nx)]
        missing = self.ns - len(set(v for v in pvals if v != -1))
        if missing > sum(1 for v in pvals if v == -1):
            return False
        qvals = [val[self.Q(x, y)] for x in range(nx) for y in range(nx)]
        missing = self.nt - len(set(v for v in qvals if v != -1))
        if missing > sum(1 for v in qvals if v == -1):
            return False
        return True

    def solve(self):
        return self._dfs(0)

    def _dfs(self, pos):
        order, val = self.order, self.val
        while pos < len(order) and val[order[pos]] != -1:
            pos += 1
        if pos == len(order):
            return self._extract()
        cell = order[pos]
        for v in range(self.domain_of[cell]):
            mark = len(self.trail)
            ok = self.assign(cell, v) and self.propagate() and self.prune()
            if ok:
                res = self._dfs(pos + 1)
                if res is not None:
                    return res
            for c in self.trail[mark:]:
                val[c] = -1
            del self.trail[mark:]
            self.queue.clear()
        return None

    def _extract(self):
        nx, ns, nt = self.nx, self.ns, self.nt
        left = np.array([[self.val[self.L(s, x)] for x in range(nx)]
                         for s in range(ns)], dtype=np.int64)
        right = np.array([[self.val[self.R(x, t)] for t in range(nt)]
                          for x in range(nx)], dtype=np.int64)
        innS = np.array([[self.val[self.P(x, y)] for y in range(nx)]
                         for x in range(nx)], dtype=np.int64)
        innT = np.array([[self.val[self.Q(x, y)] for y in range(nx)]
                         for x in range(nx)], dtype=np.int64)
        B = EquivalenceBiset(self.S, self.T,
                             tuple(f"x{i}" for i in range(nx)),
                             left, right, innS, innT, {"kind": "searched"})
        if verify_biset(B).passed:
            return B
        return None


# -- constructions on composite points, numbered through position dicts ------------

def raised(build, *args):
    """(type, message, witness) of the MoritaError build(*args) raises, or None."""
    try:
        build(*args)
    except MoritaError as exc:
        return type(exc), str(exc), exc.witness
    return None


def _payload_index(C: FiniteCategory) -> dict:
    """payload -> morphism of a category made by `_table_category`."""
    return {tuple(p): i for i, p in enumerate(C._payload_array.tolist())}


def loop_is_subsemigroup(S: FiniteSemigroup, subset) -> bool:
    """Non-empty and closed, with the products read into a Python set."""
    A = sorted(set(int(a) for a in subset))
    if not A:
        return False
    prods = set(int(v) for v in S.table[np.ix_(A, A)].ravel())
    return prods <= set(A)


def loop_enlargement_identities(table, A) -> tuple:
    """(ATA = A, TAT = T) over Python sets of the defined products; -1 marks
    an undefined one."""
    A, T = set(int(a) for a in A), set(range(len(table)))

    def products(X, Y):
        return {int(table[x, y]) for x in X for y in Y if table[x, y] >= 0}

    return products(products(A, T), A) == A, products(products(T, A), T) == T


def loop_cauchy(table, star=None) -> dict:
    """The fields of `semigroups.cauchy`, one cell at a time: E, obj, below
    and above, and d and r given star (None without)."""
    t = np.asarray(table).tolist()
    n = len(t)
    E = [e for e in range(n) if t[e][e] == e]
    obj = [E.index(s) if s in E else -1 for s in range(n)]
    out = {"E": np.array(E, dtype=np.int64), "obj": np.array(obj, dtype=np.int64),
           "below": np.array([[t[e][s] == s for s in range(n)] for e in E],
                             dtype=bool).reshape(len(E), n),
           "above": np.array([[t[s][e] == s for s in range(n)] for e in E],
                             dtype=bool).reshape(len(E), n),
           "d": None, "r": None}
    if star is not None:
        out["d"] = np.array([obj[t[star[s]][s]] for s in range(n)], dtype=np.int64)
        out["r"] = np.array([obj[t[s][star[s]]] for s in range(n)], dtype=np.int64)
    return out


def loop_unit_flags(S: FiniteSemigroup) -> LocalUnitFlags:
    """`local_unit_flags` as product sets: SE(S), E(S)S and SE(S)S."""
    n = len(S)
    E = [e for e in range(n) if S.table[e, e] == e]
    full = np.arange(n)
    SE = _product_set(S.table, full, E)
    right = SE.size == n
    left = _product_set(S.table, E, full).size == n
    return LocalUnitFlags(right, left, right and left,
                          _product_set(S.table, SE, full).size == n)


def loop_restrict(S: FiniteSemigroup, subset):
    """The subsemigroup on `subset`, its table filled one cell at a time."""
    A = sorted(set(int(a) for a in subset))
    if not loop_is_subsemigroup(S, A):
        raise NotASubsemigroup(witness=tuple(A))
    new_of_old = {a: i for i, a in enumerate(A)}
    k = len(A)
    tab = np.empty((k, k), dtype=np.int64)
    for i, a in enumerate(A):
        for j, b in enumerate(A):
            tab[i, j] = new_of_old[int(S.table[a, b])]
    return FiniteSemigroup(tuple(S.names[a] for a in A), tab), A


def loop_subsemigroup_closure(S: FiniteSemigroup, seeds, star_closed: bool = False):
    """The closure of seeds under products (and stars), grown as a Python set."""
    cur = set(int(a) for a in seeds)
    if star_closed:
        cur |= {int(S.star[a]) for a in cur}
    while True:
        A = sorted(cur)
        prods = set(int(v) for v in S.table[np.ix_(A, A)].ravel())
        if star_closed:
            prods |= {int(S.star[a]) for a in prods}
        new = cur | prods
        if new == cur:
            return sorted(cur)
        cur = new


def loop_brandt(G: InverseSemigroup, k: int) -> InverseSemigroup:
    """B(G, k) with the triples (i, g, j) numbered through a dict."""
    m = len(G)
    n = k * k * m + 1
    elems = [(i, g, j) for i in range(1, k + 1) for g in range(m) for j in range(1, k + 1)]
    names = [f"({i},{j})" if m == 1 else f"({i},{G.names[g]},{j})" for (i, g, j) in elems]
    zero = n - 1
    pos = {e: t for t, e in enumerate(elems)}
    table = np.full((n, n), zero, dtype=np.int64)
    for t1, (i, g, j) in enumerate(elems):
        for t2, (p, h, q) in enumerate(elems):
            if j == p:
                table[t1, t2] = pos[(i, G.mul(g, h), q)]
    star = np.empty(n, dtype=np.int64)
    for t, (i, g, j) in enumerate(elems):
        star[t] = pos[(j, G.inv(g), i)]
    star[zero] = zero
    return InverseSemigroup(tuple(names) + ("0",), table, star)


def loop_symmetric_inverse_monoid(n: int) -> InverseSemigroup:
    """I_n with its partial injections as tuples, composed one cell at a time."""
    elems = []
    for k in range(n + 1):
        for dom in combinations(range(n), k):
            for img in permutations(range(n), k):
                f = [-1] * n
                for d, i in zip(dom, img):
                    f[d] = i
                elems.append((dom, img, tuple(f)))
    elems.sort(key=lambda e: (e[0], e[1]))
    elems = [f for (_, _, f) in elems]
    pos = {f: i for i, f in enumerate(elems)}
    m = len(elems)
    table = np.empty((m, m), dtype=np.int64)
    for a, f in enumerate(elems):
        for b, g in enumerate(elems):
            table[a, b] = pos[tuple(-1 if f[x] == -1 else g[f[x]] for x in range(n))]
    star = np.empty(m, dtype=np.int64)
    for a, f in enumerate(elems):
        back = [-1] * n
        for x in range(n):
            if f[x] != -1:
                back[f[x]] = x
        star[a] = pos[tuple(back)]
    names = []
    for f in elems:
        parts = [f"{x}to{f[x]}" for x in range(n) if f[x] != -1]
        names.append("_".join(parts) if parts else "nil")
    return InverseSemigroup(tuple(names), table, star)


def _point_of(pos, key, error):
    """pos[key], or error(), the typed error the array form raises where the
    dict misses."""
    if key not in pos:
        raise error()
    return pos[key]


def loop_product_action(X: RightAction, Y: RightAction) -> RightAction:
    """The bounded pairs (x, y), the action filled one cell at a time."""
    S = X.sgrp
    E = idempotents(S)
    pts = [(x, y) for x in range(len(X)) for y in range(len(Y))
           if any(X.act[x, e] == x and Y.act[y, e] == y for e in E)]
    pos = {p: i for i, p in enumerate(pts)}
    act = np.empty((len(pts), len(S)), dtype=np.int64)
    for i, (x, y) in enumerate(pts):
        for s in range(len(S)):
            act[i, s] = _point_of(
                pos, (int(X.act[x, s]), int(Y.act[y, s])), lambda: InvariantBroken(
                    "not an action: a pair leaves the product", witness=((x, y), s)))
    names = tuple(f"({X.carrier[x]},{Y.carrier[y]})" for (x, y) in pts)
    return RightAction(names, S, act, {"kind": "product", "pairs": tuple(pts)})


def loop_equalizer_action(f, g, X: RightAction) -> RightAction:
    """The points with f(x) = g(x), the action filled one cell at a time."""
    pts = [x for x in range(len(X)) if f[x] == g[x]]
    pos = {x: i for i, x in enumerate(pts)}
    act = np.empty((len(pts), len(X.sgrp)), dtype=np.int64)
    for i, x in enumerate(pts):
        for s in range(len(X.sgrp)):
            act[i, s] = _point_of(pos, int(X.act[x, s]), lambda: InvariantBroken(
                "f and g are not equivariant: a point leaves the equalizer", witness=(x, s)))
    return RightAction(tuple(X.carrier[x] for x in pts), X.sgrp, act, {"kind": "equalizer"})


def loop_R_of(X: RightAction) -> EtaleAction:
    """R(X) = {(e, x) : xe = x}, the action filled one cell at a time."""
    S = X.sgrp
    pts = [(e, x) for e in idempotents(S) for x in range(len(X)) if X.act[x, e] == x]
    pos = {p: i for i, p in enumerate(pts)}
    tab, star = S.table, S.star
    act = np.empty((len(pts), len(S)), dtype=np.int64)
    for i, (e, x) in enumerate(pts):
        for s in range(len(S)):
            key = (int(tab[tab[star[s], e], s]), int(X.act[x, s]))
            act[i, s] = _point_of(pos, key, lambda: InvariantBroken(
                "not an action: a point leaves R(X)", witness=((e, x), s)))
    names = tuple(f"({S.names[e]},{X.carrier[x]})" for (e, x) in pts)
    base = RightAction(names, S, act, {"kind": "R", "pairs": tuple(pts)})
    return EtaleAction(base, np.array([e for (e, _x) in pts], dtype=np.int64))


def loop_unit_UR(X: EtaleAction):
    """x -> (p(x), x), through a dict of the pairs of RU(X)."""
    RU = loop_R_of(X.base)
    pos = {p: i for i, p in enumerate(RU.base.extra["pairs"])}
    return RU, np.array([_point_of(pos, (int(X.anchor[x]), x), lambda: InvariantBroken(
        "the anchor of a point is not an idempotent fixing it", witness=x))
        for x in range(len(X))], dtype=np.int64)


def loop_counit_UR(X: RightAction):
    """(e, x) -> x, read off the pairs of R(X) one at a time."""
    RX = loop_R_of(X)
    return RX, np.array([x for (_e, x) in RX.base.extra["pairs"]], dtype=np.int64)


def loop_principal_etale(S: InverseSemigroup, e: int) -> EtaleAction:
    """eS with the anchor s*s, one point at a time."""
    base = loop_principal_action(S, e)
    return EtaleAction(base, np.array([int(S.table[S.star[s], s])
                                       for s in base.extra["elt_of_point"]], dtype=np.int64))


def loop_etale_of_fibers(P: Presheaf, kind: str, tag: str) -> EtaleAction:
    """The points (o, i) over L(S) or C(S), the action filled one cell at a time."""
    S, _E = _read_site(P.site, kind)
    site = P.site
    obj_elt = site.extra["obj_elt"]
    obj_of_elt = {e: i for i, e in enumerate(obj_elt)}
    idx = _payload_index(site)
    pts = [(o, i) for o in range(site.n_objects) for i in range(P.fiber_size(o))]
    pos = {p: i for i, p in enumerate(pts)}
    tab, star = S.table, S.star
    act = np.empty((len(pts), len(S)), dtype=np.int64)
    for k, (o, i) in enumerate(pts):
        e = obj_elt[o]
        for s in range(len(S)):
            es = int(tab[e, s])
            d = int(tab[tab[star[s], e], s])  # s*es
            m = idx[(e, es, d) if kind == "C" else (e, es)]
            value = int(P.maps[m][i]) if i < len(P.maps[m]) else -1
            act[k, s] = _point_of(pos, (obj_of_elt[d], value), lambda: InvariantBroken(
                "a presheaf map leaves the fiber over its domain", witness=((o, i), s)))
    names = tuple(f"{site.objects[o]}#{P.fibers[o][i]}" for (o, i) in pts)
    base = RightAction(names, S, act, {"kind": tag, "pairs": tuple(pts)})
    return EtaleAction(base, np.array([obj_elt[o] for (o, _i) in pts], dtype=np.int64))


def loop_idempotents_split(C: FiniteCategory) -> bool:
    """Every idempotent endo e = s.f with f.s = 1, searched hom-set by hom-set."""
    for e in range(C.n_mor):
        if C.dom[e] != C.cod[e] or C.comp[e, e] != e:
            continue
        c = int(C.dom[e])
        found = False
        for r in range(C.n_objects):
            for f in C.hom(c, r):
                if found:
                    break
                for s in C.hom(r, c):
                    if C.comp[s, f] == e and C.comp[f, s] == C.identity[r]:
                        found = True
                        break
            if found:
                break
        if not found:
            return False
    return True


def loop_cauchy_vs_span(S: InverseSemigroup) -> bool:
    """C(S) and Span(L(S)) are the same category, the functors built one
    morphism at a time through dicts of the payloads."""
    L = L_of(S)
    Sp, C = span_category(L), C_of(S)
    tab, star = S.table, S.star
    lidx, spidx, cidx = _payload_index(L), _payload_index(Sp), _payload_index(C)
    canon = L._spans[0]
    if C.objects != Sp.objects:
        return False
    phi = np.array([spidx[divmod(int(canon[lidx[(e, s)], lidx[(d, int(tab[star[s], s]))]]),
                                 L.n_mor)]
                    for (e, s, d) in C._payload_array.tolist()], dtype=np.int64)
    psi = np.empty(Sp.n_mor, dtype=np.int64)
    for w, (l, r) in enumerate(Sp._payload_array.tolist()):
        e, s = L._payload_array[l].tolist()
        d, t = L._payload_array[r].tolist()
        psi[w] = cidx[(e, int(tab[s, star[t]]), d)]
    if not (is_functor(Functor(C, Sp, np.arange(C.n_objects), phi))
            and is_functor(Functor(Sp, C, np.arange(Sp.n_objects), psi))):
        return False
    return (np.array_equal(psi[phi], np.arange(C.n_mor))
            and np.array_equal(phi[psi], np.arange(Sp.n_mor)))


def loop_L_of_ordered_functor(F) -> Functor:
    """L(F), one morphism of L(G) at a time."""
    LG, LH = callback_L_of_groupoid(F.source), callback_L_of_groupoid(F.target)
    idx = _payload_index(LH)
    mm = np.array([idx[(int(F.obj_map[e]), int(F.arr_map[g]))]
                   for (e, g) in LG._payload_array.tolist()], dtype=np.int64)
    return Functor(LG, LH, F.obj_map.copy(), mm)


def loop_biset_from_regular_enlargement(R, S_subset, T_subset) -> EquivalenceBiset:
    """The biset of a regular joint enlargement, its points numbered through a
    dict and its tables filled one cell at a time."""
    S_subset = sorted(set(int(a) for a in S_subset))
    T_subset = sorted(set(int(a) for a in T_subset))
    try:
        S, s_old = loop_restrict(R, S_subset)
        S = as_inverse(S)
        T, t_old = loop_restrict(R, T_subset)
        T = as_inverse(T)
    except MoritaError as exc:
        raise PreconditionFailed(f"subsets must be inverse subsemigroups: {exc}")
    inverse = inverse_relation(R.table)
    irregular = np.flatnonzero(~inverse.any(axis=1))
    if len(irregular):
        raise PreconditionFailed("R is not regular", witness=int(irregular[0]))
    if not is_semigroup_enlargement(R, S_subset):
        raise PreconditionFailed("R is not an enlargement of S")
    if not is_semigroup_enlargement(R, T_subset):
        raise PreconditionFailed("R is not an enlargement of T")
    tab = R.table
    full = np.arange(len(R))
    SR = np.unique(tab[np.ix_(S_subset, full)])
    SRT = set(int(v) for v in np.unique(tab[np.ix_(SR, T_subset)]))
    TR = np.unique(tab[np.ix_(T_subset, full)])
    TRS = set(int(v) for v in np.unique(tab[np.ix_(TR, S_subset)]))
    points = [(x, xp) for x in sorted(SRT)
              for xp in np.flatnonzero(inverse[x]).tolist() if xp in TRS]
    pos = {p: i for i, p in enumerate(points)}
    s_new = {a: i for i, a in enumerate(s_old)}
    t_new = {a: i for i, a in enumerate(t_old)}
    nx = len(points)
    left = np.empty((len(S), nx), dtype=np.int64)
    right = np.empty((nx, len(T)), dtype=np.int64)
    innS = np.empty((nx, nx), dtype=np.int64)
    innT = np.empty((nx, nx), dtype=np.int64)
    for i, (x, xp) in enumerate(points):
        for si, a in enumerate(s_old):
            key = (int(tab[a, x]), int(tab[xp, s_old[int(S.star[si])]]))
            left[si, i] = _point_of(
                pos, key, lambda: InvalidBiset(f"left action leaves X at {key}"))
        for ti, b in enumerate(t_old):
            key = (int(tab[x, b]), int(tab[t_old[int(T.star[ti])], xp]))
            right[i, ti] = _point_of(
                pos, key, lambda: InvalidBiset(f"right action leaves X at {key}"))
    for i, (x, xp) in enumerate(points):
        for j, (y, yp) in enumerate(points):
            innS[i, j] = _point_of(s_new, int(tab[x, yp]), lambda: InvalidBiset(
                f"inner product <{i},{j}> lands outside S"))
            innT[i, j] = _point_of(t_new, int(tab[xp, y]), lambda: InvalidBiset(
                f"inner product [{i},{j}] lands outside T"))
    names = tuple(f"({R.names[x]},{R.names[xp]})" for (x, xp) in points)
    B = EquivalenceBiset(S, T, names, left, right, innS, innT,
                         {"kind": "from_enlargement", "pairs": tuple(points),
                          "ambient": R, "s_old": tuple(s_old), "t_old": tuple(t_old)})
    report = verify_biset(B)
    if not report.passed:
        raise InvalidBiset(f"extracted biset fails: {report.failures()[:2]}")
    return B


def loop_bipartite_embeddings(B, U, Rg):
    """(S objects, T objects, P, Q) of `build_bipartite_U`, through dicts."""
    part = {"S": Rg.extra["s_part"], "T": Rg.extra["t_part"]}
    idem = U.extra["obj_elt"]
    obj_of = {e: i for i, e in enumerate(idem)}
    uidx = _payload_index(U)

    def embed(Lc, tag):
        pos = part[tag]
        om = np.array([obj_of[pos[e]] for e in Lc.extra["obj_elt"]], dtype=np.int64)
        mm = np.array([uidx[(pos[e], pos[s])]
                       for (e, s) in Lc._payload_array.tolist()], dtype=np.int64)
        return Functor(Lc, U, om, mm)

    return ([obj_of[e] for e in idem if e in part["S"]],
            [obj_of[e] for e in idem if e in part["T"]],
            embed(L_of(B.S), "S"), embed(L_of(B.T), "T"))
