"""Ordered groupoids, inductive groupoids, and inverse semigroupoids.

An ordered groupoid stores the arrow order as an explicit relation and
reads restrictions off it (the one arrow below g with the given domain)
rather than from a formula, so it also works for groupoids that do not
come from semigroups.  Its underlying category, `OrderedGroupoid.cat`,
shares its arrays, so the category axioms and the functor laws are checked
by `categories.check_category` and `categories.is_functor`.  The inductive
groupoid of an inverse semigroup and the groupoid of an inverse
semigroupoid are one construction: the elements as arrows, the restricted
product as composition, and the natural partial order.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._util import failures, inverse_relation, row_blocks
from .categories import (
    FiniteCategory,
    Functor,
    _table_category,
    check_category,
    check_weak_equivalence,
    is_functor,
)
from .errors import (
    InvariantBroken,
    NotAnOrderedFunctor,
    NotASubgroupoid,
    NotBelow,
    NotInverseSemigroupoid,
    NotPrincipallyInductive,
    NotUnique,
    UndefinedPseudoproduct,
)
from .semigroups import InverseSemigroup, cauchy, natural_order


@dataclass(eq=False)
class OrderedGroupoid:
    objects: tuple
    obj_leq: np.ndarray       # objects x objects, bool
    arrows: tuple             # labels
    dom: np.ndarray
    cod: np.ndarray
    comp: np.ndarray          # comp[g, f] = g.f, -1 undefined
    inv: np.ndarray
    identity: np.ndarray      # object -> identity arrow
    leq: np.ndarray           # arrows x arrows, bool
    extra: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.objects = tuple(self.objects)
        self.arrows = tuple(self.arrows)
        for name in ("dom", "cod", "comp", "inv", "identity"):
            a = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            a.setflags(write=False)
            setattr(self, name, a)
        for name in ("obj_leq", "leq"):
            a = np.ascontiguousarray(getattr(self, name), dtype=bool)
            a.setflags(write=False)
            setattr(self, name, a)

    @property
    def n_objects(self):
        return len(self.objects)

    @property
    def n_arrows(self):
        return len(self.arrows)

    @cached_property
    def cat(self) -> FiniteCategory:
        """The underlying category, over the same read-only arrays, with `inv`
        as its isomorphism table: that needs the inverse laws, which every G
        built here has, from an inverse table or by `_order_violations`."""
        C = FiniteCategory(self.objects, self.arrows, self.dom, self.cod,
                           self.comp, self.identity, {"kind": "groupoid", "gpd": self})
        C._partners = self.inv
        return C

    # Restrictions and meets are read from tables built once per groupoid;
    # the arrays they come from are read-only.
    @cached_property
    def _restrictions(self):
        """By dom, then by cod: [e, g] -> the one h <= g with that end at e,
        -1 where there are none or several."""
        tables = []
        for ends in (self.dom, self.cod):
            at = (ends == np.arange(self.n_objects)[:, None]).astype(np.int64)  # [e, h]
            count, total = at @ self.leq, (at * np.arange(self.n_arrows)) @ self.leq
            tables.append(np.where(count == 1, total, -1))   # total = h if count = 1
        return tables

    @cached_property
    def _meets(self):
        """[a, b]: the first lower bound of a and b above every other, or -1."""
        n = self.n_objects
        up = self.obj_leq.T                                  # [a, c]: c <= a
        outside = (~self.obj_leq).astype(np.int64)           # [c, m]: not c <= m
        meets = np.full((n, n), -1, dtype=np.int64)
        for rows in row_blocks(n, n * n):
            low = up[rows, None, :] & up[None, :, :]         # [a, b, c]
            top = low & ((low.astype(np.int64) @ outside) == 0)
            meets[rows] = np.where(top.any(axis=2), top.argmax(axis=2), -1)
        return meets

    @cached_property
    def _pseudoproducts(self):
        """[g, h]: g o h = (g|e)(e|h) over e = dom(g) meet cod(h), or -1 where
        there is no meet, a restriction is missing or the two do not compose."""
        ar = np.arange(self.n_arrows)
        e = self._meets[self.dom[:, None], self.cod[None, :]]
        ok = e >= 0
        e = np.maximum(e, 0)
        gr = self._restrictions[0][e, ar[:, None]]
        hc = self._restrictions[1][e, ar[None, :]]
        ok &= (gr >= 0) & (hc >= 0)
        return np.where(ok, self.comp[gr, hc], -1)

    def __repr__(self):
        return f"OrderedGroupoid(objects={self.n_objects}, arrows={self.n_arrows})"


def _is_partial_order(rel) -> bool:
    n = rel.shape[0]
    if not np.all(np.diag(rel)):
        return False
    if np.any(rel & rel.T & ~np.eye(n, dtype=bool)):
        return False
    closure = rel.astype(bool)
    return not np.any((closure @ closure) & ~closure)


def validate_ordered_groupoid(G: OrderedGroupoid) -> list:
    """All ordered-groupoid axioms; returns a list of violations.

    The category axioms come first, worded by `check_category`; then the
    inverse laws and the order axioms of `_order_violations`.
    """
    return check_category(G.cat) + _order_violations(G)


def _order_violations(G: OrderedGroupoid) -> list:
    """The inverse laws and the order axioms, each one array test."""
    bad = []
    dom, cod, comp, inv, leq, ids = G.dom, G.cod, G.comp, G.inv, G.leq, G.identity
    ar = np.arange(G.n_arrows)
    if not np.all(comp[ar, inv] == ids[cod]):
        bad.append("g . g^-1 != id")
    if not np.all(comp[inv, ar] == ids[dom]):
        bad.append("g^-1 . g != id")
    if not _is_partial_order(leq):
        bad.append("arrow order is not a partial order")
    if not _is_partial_order(G.obj_leq):
        bad.append("object order is not a partial order")
    # identities carry the object order; one message per object whose row differs
    rows = np.any(G.obj_leq != leq[np.ix_(ids, ids)], axis=1)
    bad.extend(["object order disagrees with identity-arrow order"] * int(rows.sum()))
    x, y = np.nonzero(leq)
    if x.size:
        if not np.all(leq[inv[x], inv[y]]):
            bad.append("order not stable under inverse")
        if not np.all(G.obj_leq[dom[x], dom[y]]):
            bad.append("dom not monotone")
        if not np.all(G.obj_leq[cod[x], cod[y]]):
            bad.append("cod not monotone")
    # a <= b and u <= v give au <= bv wherever both are defined, over
    # [(a, b), (u, v)]
    def unordered(rows):
        au, bv = comp[x[rows, None], x], comp[y[rows, None], y]
        return (au >= 0) & (bv >= 0) & ~leq[au, bv]

    if next(failures(x.size, x.size, unordered), None) is not None:
        bad.append("composition not monotone")
    # discrete fibration: unique restriction for every e <= dom(g)
    bad.extend(f"restriction of arrow {g} to object {e} not unique"
               for (g, e) in np.argwhere((G.obj_leq[:, dom] & (G._restrictions[0] < 0)).T))
    return bad


def inductive_groupoid_of(S: InverseSemigroup) -> OrderedGroupoid:
    """Arrows are the elements, composition is the restricted product."""
    return _ordered_groupoid(S, {"kind": "inductive", "sgrp": S})


def restriction(G: OrderedGroupoid, e: int, g: int) -> int:
    """The unique h <= g with dom(h) = e, for e <= dom(g)."""
    if not G.obj_leq[e, int(G.dom[g])]:
        raise NotBelow(witness=(e, g))
    h = int(G._restrictions[0][e, g])
    if h < 0:
        below = np.flatnonzero(G.leq[:, g] & (G.dom == e)).tolist()
        raise NotUnique(witness=(e, g, tuple(below)))
    return h


def corestriction(G: OrderedGroupoid, g: int, e: int) -> int:
    """The unique h <= g with cod(h) = e, for e <= cod(g)."""
    if not G.obj_leq[e, int(G.cod[g])]:
        raise NotBelow(witness=(g, e))
    h = int(G._restrictions[1][e, g])
    if h < 0:
        below = np.flatnonzero(G.leq[:, g] & (G.cod == e)).tolist()
        raise NotUnique(witness=(g, e, tuple(below)))
    return h


def meet_objects(G: OrderedGroupoid, a: int, b: int):
    """The greatest common lower bound of objects a and b, or None."""
    m = int(G._meets[a, b])
    return m if m >= 0 else None


def pseudoproduct(G: OrderedGroupoid, g: int, h: int):
    """g o h = (g|e)(e|h) over e = dom(g) meet cod(h); None when no meet."""
    out = int(G._pseudoproducts[g, h])
    if out >= 0:
        return out
    e = meet_objects(G, int(G.dom[g]), int(G.cod[h]))
    if e is None:
        return None
    # the table has no value here: name the factor that is missing
    restriction(G, e, g)
    corestriction(G, h, e)
    raise UndefinedPseudoproduct("restriction and corestriction do not compose",
                                 witness=(g, h))


def _defined_pseudoproducts(G: OrderedGroupoid, g, h) -> np.ndarray:
    """g o h over broadcast arrays of arrows, read off the pseudoproduct table.

    A cell where it is undefined raises what `pseudoproduct` raises there,
    or UndefinedPseudoproduct when dom(g) and cod(h) have no meet.
    """
    out = G._pseudoproducts[g, h]
    if (out < 0).any():
        g, h = np.broadcast_arrays(g, h)
        g, h = int(g[out < 0][0]), int(h[out < 0][0])
        pseudoproduct(G, g, h)
        raise UndefinedPseudoproduct("no meet of dom(g) and cod(h)", witness=(g, h))
    return out


def is_principally_inductive(G: OrderedGroupoid) -> bool:
    """Every principal downset of objects is a meet semilattice."""
    leq = G.obj_leq.astype(np.int64)
    below_one = (leq @ leq.T) > 0          # [a, b]: a, b <= e for some e
    return not np.any(below_one & (G._meets < 0))


def L_of_groupoid(G: OrderedGroupoid) -> FiniteCategory:
    """Pairs (e, g) with cod(g) <= e; composition via the pseudoproduct."""
    k = G.n_objects
    # morphisms in (e, g) order, numbered through idx[e, g]
    ei, gi = np.nonzero(G.obj_leq[G.cod].T)
    idx = np.full((k, G.n_arrows), -1, dtype=np.int64)
    idx[ei, gi] = np.arange(len(gi))
    return _table_category(
        G.objects, G.dom[gi], ei, lambda e, g: f"({G.objects[e]},{G.arrows[g]})", (ei, gi),
        idx[np.arange(k), G.identity],
        lambda g, f: idx[ei[g], _defined_pseudoproducts(G, gi[g], gi[f])],
        {"kind": "L_groupoid", "gpd": G})


def C_of_groupoid(G: OrderedGroupoid) -> FiniteCategory:
    """Triples (e, x, f) with dom(x) <= f and cod(x) <= e."""
    if not is_principally_inductive(G):
        raise NotPrincipallyInductive()
    k = G.n_objects
    # morphisms in (e, f, x) order, numbered through idx[e, f, x]
    below = G.obj_leq[G.cod].T[:, None, :] & G.obj_leq[G.dom].T[None, :, :]   # [e, f, x]
    ei, fi, xi = np.nonzero(below)
    idx = np.full((k, k, G.n_arrows), -1, dtype=np.int64)
    idx[ei, fi, xi] = np.arange(len(xi))
    return _table_category(
        G.objects, fi, ei,
        lambda e, x, f: f"({G.objects[e]},{G.arrows[x]},{G.objects[f]})", (ei, xi, fi),
        idx[np.arange(k), np.arange(k), G.identity],
        lambda g, f: idx[ei[g], fi[f], _defined_pseudoproducts(G, xi[g], xi[f])],
        {"kind": "C_groupoid", "gpd": G})


def _arrow_set(arrows) -> np.ndarray:
    return np.array(sorted({int(a) for a in arrows}), dtype=np.int64)


def _subgroupoid_objects(G, A) -> np.ndarray:
    return np.union1d(G.dom[A], G.cod[A])


def is_subgroupoid(G: OrderedGroupoid, arrows) -> bool:
    """Non-empty and closed under inverses, composition and identities."""
    A = _arrow_set(arrows)
    inside = np.bincount(A, minlength=G.n_arrows) > 0
    products = G.comp[np.ix_(A, A)]
    return bool(A.size and inside[G.inv[A]].all()
                and inside[products[products >= 0]].all()
                and inside[G.identity[_subgroupoid_objects(G, A)]].all())


def is_enlargement(G: OrderedGroupoid, sub_arrows) -> bool:
    """Full order-ideal subgroupoid meeting every isomorphism class of objects."""
    A = _arrow_set(sub_arrows)
    if not is_subgroupoid(G, A):
        raise NotASubgroupoid(witness=tuple(A.tolist()))
    inside = np.bincount(A, minlength=G.n_arrows) > 0
    objs = np.bincount(_subgroupoid_objects(G, A), minlength=G.n_objects) > 0
    full = inside[objs[G.dom] & objs[G.cod]].all()
    ideal = inside[G.leq[:, A].any(axis=1)].all()
    # every object outside has an arrow (an isomorphism) into the subgroupoid
    reached = np.bincount(G.dom[objs[G.cod]], minlength=G.n_objects) > 0
    return bool(full and ideal and (objs | reached).all())


def sub_ordered_groupoid(G: OrderedGroupoid, arrows):
    """The ordered subgroupoid on the given arrows plus its inclusion functor."""
    A = _arrow_set(arrows)
    if not is_subgroupoid(G, A):
        raise NotASubgroupoid(witness=tuple(A.tolist()))
    objs = _subgroupoid_objects(G, A)
    opos = np.full(G.n_objects, -1, dtype=np.int64)
    opos[objs] = np.arange(len(objs))
    apos = np.full(G.n_arrows, -1, dtype=np.int64)
    apos[A] = np.arange(len(A))
    sub = G.comp[np.ix_(A, A)]
    H = OrderedGroupoid(
        tuple(G.objects[o] for o in objs), G.obj_leq[np.ix_(objs, objs)],
        tuple(G.arrows[a] for a in A), opos[G.dom[A]], opos[G.cod[A]],
        np.where(sub >= 0, apos[sub], -1), apos[G.inv[A]], apos[G.identity[objs]],
        G.leq[np.ix_(A, A)], {"kind": "sub", "parent": G, "arrow_of": tuple(A.tolist())})
    return H, OrderedFunctor(H, G, objs, A)


@dataclass(eq=False)
class OrderedFunctor:
    source: OrderedGroupoid
    target: OrderedGroupoid
    obj_map: np.ndarray
    arr_map: np.ndarray

    def __post_init__(self):
        self.obj_map = np.ascontiguousarray(self.obj_map, dtype=np.int64)
        self.arr_map = np.ascontiguousarray(self.arr_map, dtype=np.int64)


def check_ordered_functor(F: OrderedFunctor) -> bool:
    """A functor of the underlying categories that keeps inverses and the order."""
    G, H = F.source, F.target
    am = F.arr_map
    if not is_functor(Functor(G.cat, H.cat, F.obj_map, am)):
        return False
    if not np.all(am[G.inv] == H.inv[am]):
        return False
    x, y = np.nonzero(G.leq)
    return bool(np.all(H.leq[am[x], am[y]]))


def L_of_ordered_functor(F: OrderedFunctor) -> Functor:
    """The induced functor L(G) -> L(H) on the pair categories."""
    LG = L_of_groupoid(F.source)
    LH = L_of_groupoid(F.target)
    e, g = LG._payload_array.T
    return Functor(LG, LH, F.obj_map.copy(), LH.mor_of(F.obj_map[e], F.arr_map[g]))


def local_isomorphism_report(F: OrderedFunctor) -> dict:
    """(LI1) groupoid weak equivalence and (LI2) poset discrete fibration."""
    if not check_ordered_functor(F):
        raise NotAnOrderedFunctor()
    G, H = F.source, F.target
    li1 = check_weak_equivalence(
        Functor(G.cat, H.cat, F.obj_map, F.arr_map)
    )
    # (LI2): every y <= F(a) has exactly one b <= a with F(b) = y
    om = F.obj_map
    lifts = G.obj_leq.T.astype(np.int64) @ (om[:, None] == np.arange(H.n_objects))
    li2 = bool(np.all(lifts[H.obj_leq[:, om].T] == 1))
    return {"li1": li1, "li2": li2, "local_isomorphism": li1 and li2}


def is_local_isomorphism(F: OrderedFunctor) -> bool:
    """(LI1) and (LI2); cross-checked against L(F) being a weak equivalence."""
    rep = local_isomorphism_report(F)
    lf_weak = check_weak_equivalence(L_of_ordered_functor(F))
    if rep["local_isomorphism"] != lf_weak:
        raise InvariantBroken("local isomorphism and L(theta) weak equivalence disagree")
    return rep["local_isomorphism"]


# -- inverse semigroupoids ------------------------------------------------------

@dataclass(eq=False)
class InverseSemigroupoid:
    """A partial table (-1 where undefined), checked once, when it is made.

    Raises NotInverseSemigroupoid, witnessed by the first message of
    `semigroupoid_violations`, unless the table is an inverse semigroupoid;
    `star` is then read off its unique inverses.
    """
    names: tuple
    table: np.ndarray  # -1 where undefined
    extra: dict = field(default_factory=dict, repr=False)
    star: np.ndarray = field(init=False)

    def __post_init__(self):
        self.names = tuple(self.names)
        t = np.ascontiguousarray(self.table, dtype=np.int64)
        t.setflags(write=False)
        self.table = t
        bad = semigroupoid_violations(self.names, t)
        if bad:
            raise NotInverseSemigroupoid("not an inverse semigroupoid", witness=bad[0])
        # the checks leave one inverse per row: its column is the star
        s = np.nonzero(inverse_relation(t))[1]
        s.setflags(write=False)
        self.star = s

    def __len__(self):
        return len(self.names)

    @cached_property
    def cauchy(self):
        """`semigroups.cauchy` of the table, derived once: it is read-only."""
        return cauchy(self.table, self.star)

    def __repr__(self):
        return f"InverseSemigroupoid(n={len(self)})"


def semigroupoid_violations(names, table) -> list:
    """Typed associativity, regularity, commuting idempotents, unique inverses.

    Array pass, first witness in the loop index order: the messages come
    out in the order of nested loops over (a, b, c), then a, then pairs of
    idempotents (e, f), then a.  Associativity and definedness are one
    `failures` scan over (a, b, c) with ab defined: with bc defined,
    (ab)c and a(bc) must be defined and equal; with bc undefined, (ab)c
    must be undefined.
    """
    n = len(names)
    tab = np.asarray(table, dtype=np.int64).reshape(n, n)
    d = tab >= 0
    safe = np.where(d, tab, 0)

    def fails(rows):
        ab_c = tab[safe[rows]]                  # (ab)c, [a, b, c]
        a_bc = tab[rows[:, None, None], safe]   # a(bc)
        return d[rows][:, :, None] & np.where(d, (ab_c < 0) | (ab_c != a_bc), ab_c >= 0)

    bad = [("associativity fails" if d[b, c] else "definedness incoherent")
           + f" at ({a},{b},{c})" for a, b, c in failures(n, n * n, fails)]
    inv = inverse_relation(tab)
    count = inv.sum(axis=1)
    bad.extend(f"element {a} has no inverse" for a in np.flatnonzero(count == 0))
    idem = np.flatnonzero(np.diagonal(tab) == np.arange(n))
    ef = tab[np.ix_(idem, idem)]
    # ef != fe covers both one side undefined and two different products
    bad.extend(f"idempotents {idem[i]},{idem[j]} do not commute"
               for (i, j) in np.argwhere(ef != ef.T))
    if not bad:
        bad.extend(f"element {a} has {count[a]} inverses"
                   for a in np.flatnonzero(count != 1))
    return bad


def _ordered_groupoid(T, extra) -> OrderedGroupoid:
    """Restricted product plus the natural partial order s <= t iff s = t(s*s).

    T is an inverse semigroup or semigroupoid, its table total or partial
    (-1 where undefined); the idempotents are the objects, and each s runs
    from s*s to ss*, as T's factorisation gives them.
    """
    tab, F = T.table, T.cauchy
    composable = F.d[:, None] == F.r[None, :]
    missing = np.argwhere(composable & (tab < 0))
    if missing.size:
        a, b = map(int, missing[0])
        raise NotInverseSemigroupoid(
            f"restricted product undefined at ({a},{b})", witness=(a, b))
    comp = np.where(composable, tab, -1)
    obj_leq = F.below[:, F.E].T                  # [e, f]: fe = e
    return OrderedGroupoid(
        tuple(T.names[e] for e in F.E), obj_leq, T.names, F.d, F.r, comp,
        T.star.copy(), F.E, natural_order(tab, T.star), extra,
    )


def ordered_groupoid_of(R: InverseSemigroupoid) -> OrderedGroupoid:
    """The ordered groupoid of R, checked against every ordered-groupoid axiom.

    The checks R passed when it was made make G(R) a category, so only the
    inverse laws and the order axioms are checked here.  g.f is R's product
    gf where g*g = ff* (`_ordered_groupoid` raises if R leaves it undefined);
    e = e* is the identity at e, as g(g*g) = g = (gg*)g; (gf)* = f*g* puts
    gf between f*f and gg*; associativity is R's, on a subset of its triples.
    """
    G = _ordered_groupoid(R, {"kind": "of_semigroupoid", "sgpd": R})
    bad = _order_violations(G)
    if bad:
        raise NotInverseSemigroupoid("ordered groupoid invariants fail: " + bad[0])
    return G
