"""Finite categories and the constructions attached to a semigroup.

A category is stored densely: morphisms are indices with dom/cod arrays
and an m x m composition table using -1 for "not composable"; hom-sets are
read from an index of the morphisms sorted by (dom, cod), and the
composable pairs with their composites are listed once, in row-major
order, from the endpoints.  Every category built from a semigroup, a
groupoid or spans comes out of one constructor, `_table_category`, which
fills the table with one pass over those pairs and keys each morphism by a
payload of ints; `FiniteCategory.mor_of` finds the morphisms of given
payloads, read across arrays of payload columns, through `_util.positions`.
The two key constructions are the left-cancellative category of an inverse
semigroup (pairs (e,s) with es=s) and the Cauchy completion (triples
(e,s,f) with esf=s), both read off the factorisation S keeps
(`semigroups.cauchy`); one triple enumeration, `_cauchy_category`, builds
C(S) and each of its full subcategories, so the one skeleton builder,
`bisets.cauchy_skeleton`, reads a skeleton of C(S) off S's D-classes
without building C(S).
Equivalence of finite categories is decided through skeletons:
two finite categories are equivalent iff their skeletons are isomorphic,
and the isomorphism search is a backtracking matcher with
invariant-refinement pruning that branches only on morphisms no placed pair
composes to.  Its inverse gives the backward witness, so each decision
searches once; `skeleton_witnesses` composes it with each skeleton's
inclusion and retraction.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._util import depth_first, failures, positions, ragged, row_blocks
from .errors import (
    DEFAULT_BUDGET,
    CospanMismatch,
    InvariantBroken,
    MoritaError,
    NoPullbacks,
    NotFullSubcategory,
    SourceTargetMismatch,
)
from .semigroups import FiniteSemigroup, InverseSemigroup


@dataclass(eq=False)
class FiniteCategory:
    objects: tuple
    mor_labels: tuple
    dom: np.ndarray
    cod: np.ndarray
    comp: np.ndarray      # comp[g, f] = g.f (g after f), -1 if undefined
    identity: np.ndarray  # object -> identity morphism
    extra: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.objects = tuple(self.objects)
        self.mor_labels = tuple(self.mor_labels)
        for name in ("dom", "cod", "comp", "identity"):
            a = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            a.setflags(write=False)
            setattr(self, name, a)

    @property
    def n_objects(self):
        return len(self.objects)

    @property
    def n_mor(self):
        return len(self.mor_labels)

    @cached_property
    def _spans(self):
        """`_span_tables(self)`, built once for pullbacks and span_category."""
        return _span_tables(self)

    @cached_property
    def _partners(self):
        """`_iso_table(self)`, built once for iso_partner."""
        return _iso_table(self)

    @cached_property
    def _hom_index(self):
        """Morphism ids sorted by (dom, cod), and where each hom-set starts.

        hom(a, b) is order[start[k]:start[k + 1]] with k = a * n_objects + b;
        the stable sort keeps each hom-set in ascending id order.  Cached
        once: the arrays it is built from are read-only.
        """
        n = self.n_objects
        key = self.dom * n + self.cod
        order = np.argsort(key, kind="stable")
        start = np.searchsorted(key[order], np.arange(n * n + 1))
        return order, start

    @cached_property
    def _composable(self):
        """The composable pairs (g, f) and their composites h = g.f, as three
        read-only arrays in row-major order: g ascending, and for each g every
        f into dom g, ascending.

        Listed from the endpoints, so no pass reads the m x m table for its
        defined cells; `_table_category` sets it from the composites it fills
        the table with, and any other category reads h off its table once.
        """
        g, f = _composable_pairs(self.dom, self.cod, self.n_objects)
        return _kept_pairs(g, f, self.comp.ravel()[g * self.n_mor + f])

    def mor_of(self, *columns) -> np.ndarray:
        """The morphism of each payload read across `columns`, which broadcast
        together; a payload of no morphism raises InvariantBroken, witnessed
        by the first one in C order.

        Only a category built by `_table_category` has payloads: it sets
        `_payload_array`, the (n_mor, width) array of them.
        """
        return positions(tuple(self._payload_array.T), columns, lambda at: InvariantBroken(
            "no morphism has this payload",
            witness=tuple(int(c[at]) for c in np.broadcast_arrays(*columns))))

    def _hom(self, a: int, b: int) -> np.ndarray:
        order, start = self._hom_index
        k = a * self.n_objects + b
        return order[start[k]:start[k + 1]]

    def hom(self, a: int, b: int) -> list:
        """Morphism ids from a to b, ascending."""
        return self._hom(a, b).tolist()

    def hom_sizes(self) -> np.ndarray:
        """hom_sizes()[a, b] = |hom(a, b)|."""
        n = self.n_objects
        return np.diff(self._hom_index[1]).reshape(n, n)

    def compose(self, g: int, f: int) -> int:
        return int(self.comp[g, f])

    def __repr__(self):
        return f"FiniteCategory(objects={self.n_objects}, morphisms={self.n_mor})"


def check_category(C: FiniteCategory) -> list:
    """Return a list of axiom violations (empty when C is a category)."""
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
        # associativity over the triples (h, g, f) with h.g and g.f defined,
        # one non-empty hom-set of g at a time, so the rows h and f are those
        # that compose with it; the message names the least h that fails
        order, start = C._hom_index
        least = m
        for k in np.flatnonzero(np.diff(start)):
            g = order[start[k]:start[k + 1]]
            H = np.flatnonzero(defined[:, g].any(axis=1))
            F = np.flatnonzero(defined[g].any(axis=0))
            gf = comp[np.ix_(g, F)]                                    # [g, f]

            def fails(rows):
                h = H[rows]
                hg = comp[np.ix_(h, g)]                                # [h, g]
                x = comp[h[:, None, None], np.maximum(gf, 0)[None]]    # h.(g.f)
                y = comp[np.maximum(hg, 0)[:, :, None], F]             # (h.g).f
                return (hg >= 0)[:, :, None] & (gf >= 0)[None] & (x != y)

            w = next(failures(len(H), len(g) * len(F), fails), None)
            if w is not None:
                least = min(least, int(H[w[0]]))
        if least < m:
            bad.append(f"associativity fails around morphism {least}")
    return bad


# -- L(S) and C(S) -----------------------------------------------------------

def _composable_pairs(dom, cod, n):
    """(g, f) over every pair with cod f = dom g, in row-major order.

    One stable argsort of cod lists the morphisms into each object in
    ascending order, and each g takes the run of its domain.
    """
    into = np.argsort(cod, kind="stable")
    cut = np.searchsorted(cod[into], np.arange(n + 1))
    lens = cut[dom + 1] - cut[dom]
    g = np.repeat(np.arange(len(dom)), lens)
    # pair k of g's run is the entry cut[dom g] + (k - where the run starts)
    f = into[np.arange(len(g)) + np.repeat(cut[dom] - (np.cumsum(lens) - lens), lens)]
    return g, f


def _kept_pairs(g, f, h) -> tuple:
    """(g, f, h) as the read-only int32 arrays a category keeps: half the
    memory of int64, and every id fits, as no m x m table with m >= 2**31
    could be built.  Readers gather through them with `take`, which reads
    int32 indices without first converting them as fancy indexing does."""
    kept = tuple(np.asarray(a, dtype=np.int32) for a in (g, f, h))
    for a in kept:
        a.setflags(write=False)
    return kept


def _table_category(objects, dom, cod, label, payload, ident, composite, extra):
    """A category of payload-keyed morphisms with its composition table.

    payload holds one int array per payload entry, over the morphisms, and
    label(*entries) names a morphism.  composite(g, f) maps arrays of
    composable morphism ids to the ids of g.f, and raises a MoritaError for
    the first pair, in array order, that has none; it is evaluated once,
    over the composable pairs, which the category keeps.  A failing pair is
    named as the loop over middle objects met it first: the least middle
    object, then row-major.
    """
    m = len(dom)
    g, f = _composable_pairs(dom, cod, len(objects))
    try:
        h = composite(g, f)
    except MoritaError:
        mid = np.argsort(dom[g], kind="stable")
        composite(g[mid], f[mid])
        raise
    comp = np.full((m, m), -1, dtype=np.int64)
    comp.ravel()[g * m + f] = h
    cat = FiniteCategory(objects, tuple(label(*p) for p in zip(*(c.tolist() for c in payload))),
                         dom, cod, comp, ident, extra)
    cat._payload_array = np.stack(payload, axis=1)
    cat._composable = _kept_pairs(g, f, h)
    return cat


def _pair_category(T, sep, extra) -> FiniteCategory:
    """Pairs (e, s) with e idempotent and es = s, from s*s to e, read off
    the factorisation of an inverse semigroup or semigroupoid T.

    (e, s).(f, t) = (e, st).  T's table may be partial (-1 where
    undefined); a composable pair whose product is undefined raises
    InvariantBroken.
    """
    tab, names, F = T.table, T.names, T.cauchy
    k, n = len(F.E), len(names)
    # morphisms in (e, s) order, numbered through idx[e, s]
    ei, s = np.nonzero(F.below)
    idx = np.full((k, n), -1, dtype=np.int64)
    idx[ei, s] = np.arange(len(s))

    def composite(g, f):
        st = tab[s[g], s[f]]
        if (st < 0).any():
            g, f = np.broadcast_arrays(g, f)
            raise InvariantBroken("composable morphisms have no composite",
                                  witness=(int(s[g][st < 0][0]), int(s[f][st < 0][0])))
        return idx[ei[g], st]

    E = tuple(F.E.tolist())
    return _table_category(
        tuple(names[e] for e in E), F.d[s], ei,
        lambda e, t: f"({names[e]}{sep}{names[t]})", (F.E[ei], s),
        idx[np.arange(k), F.E], composite, {**extra, "obj_elt": E})


def L_of(S: InverseSemigroup) -> FiniteCategory:
    """Left-cancellative category: morphisms (e,s) with es=s, from s*s to e."""
    return _pair_category(S, ",", {"kind": "L", "sgrp": S})


def C_of(S: FiniteSemigroup) -> FiniteCategory:
    """Cauchy completion: morphisms (e,s,f) with esf=s, from f to e."""
    return _cauchy_category(S, slice(None), "C")


def _cauchy_category(S, objs, kind) -> FiniteCategory:
    """The full subcategory of C(S) on the objects `objs`, an ascending index
    into E: the triples (e, s, f) with e and f among them and esf = s.

    esf = s exactly when es = s and sf = s (es = e.esf = esf), so the
    triples are read off the factorisation of S, which needs no star.  Given
    a star, (e, s, f) is an isomorphism exactly when s*s = f and ss* = e, and
    its inverse is (f, s*, e), so the category keeps that table when it is
    made.
    """
    tab, names, F = S.table, S.names, S.cauchy
    Ea = F.E[objs]
    E = tuple(Ea.tolist())
    k, n = len(E), len(S)
    # morphisms in (e, f, s) order, numbered through idx[e, f, s]
    ei, fi, s = np.nonzero(F.below[objs][:, None, :] & F.above[objs][None, :, :])
    idx = np.full((k, k, n), -1, dtype=np.int64)
    idx[ei, fi, s] = np.arange(len(s))
    # (e, s, f).(f, t, d) = (e, st, d), read as idx[e, d, st] through the
    # flat tables: each pair costs gathers of per-morphism offsets
    at_e, at_d, at_s = ei * (k * n), fi * n, s * n
    cat = _table_category(
        tuple(names[e] for e in E), fi, ei,
        lambda e, t, f: f"({names[e]},{names[t]},{names[f]})", (Ea[ei], s, Ea[fi]),
        idx[np.arange(k), np.arange(k), Ea],
        lambda g, f: idx.ravel()[at_e[g] + at_d[f] + tab.ravel()[at_s[g] + s[f]]],
        {"kind": kind, "sgrp": S, "obj_elt": E})
    if F.d is not None:
        o = np.arange(len(F.E))[objs]
        iso = (F.d[s] == o[fi]) & (F.r[s] == o[ei])
        partner = np.where(iso, idx[fi, ei, S.star[s]], -1)
        partner.setflags(write=False)
        cat._partners = partner
    return cat


def _first_repeat(row, col, h, m):
    """First (r, c1, c2) with h defined and equal at (r, c1) and (r, c2), c1 < c2,
    in (r, c2) order, or None.  The pairs come in ascending column order within
    each row, so after one stable sort by (row, h) each run of equal keys starts
    at c1, the first column of its value, and its later pairs are repeats."""
    keep = h >= 0
    key = row[keep].astype(np.int64) * m + h[keep]
    order = np.argsort(key, kind="stable")
    key, row, col = key[order], row[keep][order], col[keep][order]
    at = np.flatnonzero(key[1:] == key[:-1]) + 1
    if not len(at):
        return None
    at = at[row[at] == row[at[0]]]          # the repeats of the least row
    k = at[np.argmin(col[at])]
    return int(row[k]), int(col[np.searchsorted(key, key[k])]), int(col[k])


def left_cancellation_witness(C: FiniteCategory):
    """First (g, f1, f2) with g.f1 == g.f2 and f1 != f2, or None, read off the
    composable pairs: a table defined off its endpoint pairs is no category."""
    return _first_repeat(*C._composable, C.n_mor)


def right_cancellation_witness(C: FiniteCategory):
    """First (f, g1, g2) with g1.f == g2.f and g1 != g2, or None, read off the
    composable pairs."""
    g, f, h = C._composable
    return _first_repeat(f, g, h, C.n_mor)


def is_left_cancellative(C: FiniteCategory) -> bool:
    return left_cancellation_witness(C) is None


def is_right_cancellative(C: FiniteCategory) -> bool:
    return right_cancellation_witness(C) is None


def idempotents_split(C: FiniteCategory) -> bool:
    """Every endo e with ee=e factors as e = s.f with f.s an identity.

    One array test over the pairs (s, f) with f in hom(cod s, dom s) and
    f.s = 1_dom(s), of which s.f is split when it starts where f does.
    """
    s, f = _opposite_pairs(C)
    e = C.comp[s, f]
    split = np.zeros(C.n_mor, dtype=bool)
    split[e[(e >= 0) & (C.comp[f, s] == C.identity[C.dom[s]]) & (C.dom[e] == C.dom[f])]] = True
    ar = np.arange(C.n_mor)
    return bool(split[(C.dom == C.cod) & (np.diagonal(C.comp) == ar)].all())


# -- isomorphisms of objects -------------------------------------------------

def _opposite_pairs(C: FiniteCategory):
    """(m, w) over every morphism m and every w in hom(cod m, dom m): m
    ascending, and each hom-set in ascending id order."""
    order, start = C._hom_index
    h = C.cod * C.n_objects + C.dom
    m, i = ragged(start[h + 1] - start[h])
    return m, order[start[h[m]] + i]


def iso_partner(C: FiniteCategory) -> np.ndarray:
    """For each morphism, its two-sided inverse or -1; built once per category."""
    return C._partners


def _iso_table(C: FiniteCategory) -> np.ndarray:
    """[m]: the least w in hom(cod m, dom m) with w.m = 1_dom(m) and
    m.w = 1_cod(m), or -1; one test over the opposite pairs.

    In a category the inverse is unique; on a table that is no category the
    least such w is kept.
    """
    m, w = _opposite_pairs(C)
    ok = (C.comp[w, m] == C.identity[C.dom[m]]) & (C.comp[m, w] == C.identity[C.cod[m]])
    out = np.full(C.n_mor, C.n_mor, dtype=np.int64)
    np.minimum.at(out, m[ok], w[ok])
    out[out == C.n_mor] = -1
    out.setflags(write=False)
    return out


@dataclass(eq=False)
class Functor:
    source: FiniteCategory
    target: FiniteCategory
    obj_map: np.ndarray
    mor_map: np.ndarray

    def __post_init__(self):
        self.obj_map = np.ascontiguousarray(self.obj_map, dtype=np.int64)
        self.mor_map = np.ascontiguousarray(self.mor_map, dtype=np.int64)


# -- functors -----------------------------------------------------------------

def is_functor(F: Functor) -> bool:
    C, D = F.source, F.target
    om, mm = F.obj_map, F.mor_map
    if om.shape != (C.n_objects,) or mm.shape != (C.n_mor,):
        return False
    if C.n_mor and (mm.min() < 0 or mm.max() >= D.n_mor):
        return False
    if not np.all(D.dom[mm] == om[C.dom]) or not np.all(D.cod[mm] == om[C.cod]):
        return False
    if not np.all(mm[C.identity] == D.identity[om]):
        return False
    g, f, h = C._composable
    return bool(np.all(mm.take(h) == D.comp.ravel().take(mm.take(g) * D.n_mor + mm.take(f))))


def compose_functors(G: Functor, F: Functor) -> Functor:
    if F.target is not G.source:
        raise SourceTargetMismatch("functor composition endpoints differ")
    return Functor(F.source, G.target, G.obj_map[F.obj_map], G.mor_map[F.mor_map])


def check_weak_equivalence(F: Functor) -> bool:
    """Full + faithful + essentially surjective, each one array test.

    F is faithful when the triples (dom, cod, image) of the morphisms of C
    are distinct, and then full when every hom-set of C is as large as the
    one it maps into.  Every object of D must be hit, or be the codomain of
    an isomorphism out of an object that is.
    """
    if not is_functor(F):
        return False
    C, D = F.source, F.target
    om, mm = F.obj_map, F.mor_map
    triples = (C.dom * C.n_objects + C.cod) * D.n_mor + mm
    if (np.unique(triples).size != C.n_mor
            or not np.array_equal(C.hom_sizes(), D.hom_sizes()[np.ix_(om, om)])):
        return False
    hit = np.zeros(D.n_objects, dtype=bool)
    hit[om] = True
    reached = hit.copy()
    reached[D.cod[(iso_partner(D) >= 0) & hit[D.dom]]] = True
    return bool(reached.all())


def check_morita_context(A, B, U, P: Functor, Q: Functor) -> bool:
    """P: A -> U and Q: B -> U are both weak equivalences."""
    if P.source is not A or P.target is not U:
        raise SourceTargetMismatch("P must go from A to U")
    if Q.source is not B or Q.target is not U:
        raise SourceTargetMismatch("Q must go from B to U")
    return check_weak_equivalence(P) and check_weak_equivalence(Q)


def is_bipartite(U: FiniteCategory, A_objs, B_objs) -> bool:
    """Object set splits as A+B and every object has an iso into the other part."""
    A = sorted(set(int(a) for a in A_objs))
    B = sorted(set(int(b) for b in B_objs))
    for o in A + B:
        if not 0 <= o < U.n_objects:
            raise NotFullSubcategory(f"object {o} is not an object of U")
    if set(A) & set(B) or set(A) | set(B) != set(range(U.n_objects)):
        return False
    in_A = np.bincount(A, minlength=U.n_objects) > 0
    crossing = (iso_partner(U) >= 0) & (in_A[U.dom] != in_A[U.cod])
    return bool((np.bincount(U.dom[crossing], minlength=U.n_objects) > 0).all())


# -- category isomorphism and equivalence ------------------------------------

def _mix(x):
    """splitmix64's finaliser on uint64 arrays: a fixed bijection of 64-bit
    words that spreads every input bit over the output."""
    x = (x ^ (x >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> 27)) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> 31)


# odd multipliers, one per word of a key
_WEIGH = tuple(np.uint64(k) for k in (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                                      0x165667B19E3779F9, 0xD6E8FEB86659FD93, 1))


def _key(*words):
    """One 64-bit word per key, read across equally long uint64 arrays: the
    wrapping sum of the words, each weighed by an odd multiplier.

    Keys that differ in one word differ, as the weights are odd; keys that
    differ in several, whose words are sums of mixed labels, meet only by
    chance.
    """
    h = words[0] * _WEIGH[0]
    for w, k in zip(words[1:], _WEIGH[1:]):
        h += w * k
    return h


def _sums(key, n, vals):
    """[k]: the wrapping sum of vals over the entries with key k, k < n."""
    out = np.zeros(n, dtype=np.uint64)
    np.add.at(out, key, vals)
    return out


def _count(x) -> int:
    """The number of distinct values of a non-empty array."""
    srt = np.sort(x)
    return 1 + int(np.count_nonzero(srt[1:] != srt[:-1]))


def _first_appearance(x) -> np.ndarray:
    """Number the distinct values of x in order of first appearance."""
    _, first, inverse = np.unique(x, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


def _joint_invariants(C, D):
    """Composition-aware invariant classes shared between two categories.

    C and D have equally many morphisms.  Each round keys a morphism by its
    label, the labels of its endpoints, and the multisets of (label of f,
    label of g.f) over the f composable with it on the right and of (label
    of g, label of g.f) over the g composable with it on the left; an
    object's label keys its identity's label and the multisets of the
    labels of the morphisms out of and into it.  Rounds stop once C's
    partition stops splitting.  The classes are the final labels, numbered
    in order of first appearance.

    Colour refinement in the sense of McKay and Piperno: every key is
    preserved by an isomorphism of categories, so an isomorphism C -> D
    maps classes onto classes.  A label is a 64-bit word read off its key
    (`_key`), and a multiset of pairs (x, y) goes in as the wrapping sum of
    a(x) b(y), for two fixed mixing functions a and b.  Each label is a
    function of the same isomorphism-invariant data whatever the hashes
    do, so a collision can only merge classes: it weakens the pruning and
    never changes a verdict.  Without one the classes are those of keying
    by the multisets themselves.

    Everything is read on the disjoint union of C and D: D's morphisms
    follow C's, and D's objects follow C's; the rounds pass over the
    composable pairs of both.
    """
    mC, nC = C.n_mor, C.n_objects
    m, n = mC + D.n_mor, nC + D.n_objects
    dom = np.concatenate([C.dom, D.dom + nC])
    cod = np.concatenate([C.cod, D.cod + nC])
    ident = np.concatenate([C.identity, D.identity + mC])
    g, f, h = (np.concatenate([c, d + mC], dtype=np.int64)
               for c, d in zip(C._composable, D._composable))

    def obj_labels(lab):
        """The objects' labels, and the mixing functions a and b of lab: b is
        a rotated by 32 bits, so a(x) b(y) and a(y) b(x) differ."""
        al = _mix(lab ^ np.uint64(0x5851F42D4C957F2D))
        bl = (al << np.uint64(32)) | (al >> np.uint64(32))
        return _key(lab[ident], _sums(dom, n, al), _sums(cod, n, bl)), al, bl

    # the first labels: 4 for an identity, 2 for an isomorphism, 1 for an endomorphism
    kind = 2 * (np.concatenate([iso_partner(C), iso_partner(D)]) >= 0) + (dom == cod)
    kind[ident] += 4
    lab = kind.astype(np.uint64)
    if m:
        classes = _count(lab[:mC])
        for _ in range(max(mC, 1)):
            ol, al, bl = obj_labels(lab)
            bh = bl[h]
            lab = _key(lab, ol[dom], ol[cod], _sums(g, m, al[f] * bh), _sums(f, m, al[g] * bh))
            # refinement only ever splits classes, so equal counts mean a fixpoint
            classes, before = _count(lab[:mC]), classes
            if classes == before:
                break

    inv, ok = _first_appearance(lab), _first_appearance(obj_labels(lab)[0])
    ocC, ocD = ok[:nC], ok[nC:]
    in_C = np.zeros(len(ok), dtype=bool)
    in_C[ocC] = True
    ocD = np.where(in_C[ocD], ocD, -1)
    return inv[:mC], inv[mC:], ocC, ocD


def _factor_table(C: FiniteCategory, non_id) -> list:
    """[m]: the first (a, b) in row-major order with a.b = m and both a and b
    before m in `non_id`, or (-1, -1); one pass over the composable pairs.

    Identities come before every morphism of `non_id`, but a pair with an
    identity in it composes to its other member, so it never qualifies.
    """
    rank = np.full(C.n_mor, -1, dtype=np.int64)
    rank[non_id] = np.arange(len(non_id))
    a, b, m = C._composable
    rm = rank.take(m)
    keep = (rank.take(a) < rm) & (rank.take(b) < rm)
    a, b = a[keep], b[keep]
    m, first = np.unique(m[keep], return_index=True)
    out = np.full((C.n_mor, 2), -1, dtype=np.int64)
    out[m, 0], out[m, 1] = a[first], b[first]
    return out.tolist()


def categories_isomorphic(C: FiniteCategory, D: FiniteCategory, budget: int = DEFAULT_BUDGET):
    """Backtracking search for an isomorphism of categories.

    Prunes on morphism/object invariant classes refined through the
    composition tables; returns a witness Functor or None.  The objects are
    placed first, each with its identity, then the other morphisms.

    A morphism m = a.b whose factors a and b are placed before it is forced:
    every functor F that extends the placed map has F(m) = F(a).F(b), so that
    is its only candidate, kept if it is unused and of m's invariant class.
    Every other candidate roots a subtree that holds no functor, and the
    checks a forced placement skips (the hom-set, the composites with placed
    morphisms) only reject maps that are no functor, which the final
    `is_functor` rejects as well.  At the other levels a candidate w must
    agree with the placed composites and, for an endomorphism m, have powers
    that cycle as m's do: the search only completes maps that are bijective
    on morphisms, and such a functor sends m^k to w^k and keeps m^j = m^k.
    So the search still visits the subtrees that hold the functors it can
    return in the same order, and returns the same first functor as the
    search without forcing.

    Each object or morphism placement counts against `budget`, as
    `_util.depth_first` counts; BudgetExceeded names both skeleton sizes.
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
    factor = _factor_table(C, non_id)
    shapesC, shapesD = {}, {}

    def powers(cat, x, shapes):
        """(index, period) of the powers x, x.x, ... of an endomorphism x."""
        if x not in shapes:
            seen, p = {}, x
            while p not in seen:
                seen[p] = len(seen) + 1
                p = int(cat.comp[x, p])
            shapes[x] = (seen[p], len(seen) + 1 - seen[p])
        return shapes[x]

    def placed(line):
        """Morphisms f whose image and whose composite `line[f]` are placed."""
        f = np.flatnonzero((mor_map >= 0) & (line >= 0))
        f = f[mor_map[line[f]] >= 0]
        return mor_map[f], mor_map[line[f]]

    def free_candidates(m):
        """The unused w in hom(F(dom m), F(cod m)) and in m's class that send
        m.f to w.F(f) and f.m to F(f).w wherever both are placed, and whose
        powers cycle as m's do when m is an endomorphism."""
        right, right_to = placed(C.comp[m])
        left, left_to = placed(C.comp[:, m])
        shape = powers(C, m, shapesC) if C.dom[m] == C.cod[m] else None
        for w in D.hom(int(obj_map[C.dom[m]]), int(obj_map[C.cod[m]])):
            if (not used_mor[w] and invD[w] == invC[m]
                    and np.array_equal(D.comp[w, right], right_to)
                    and np.array_equal(D.comp[left, w], left_to)
                    and (shape is None or powers(D, w, shapesD) == shape)):
                yield w

    def place_mor(depth):
        m = non_id[depth - len(obj_order)]
        a, b = factor[m]
        if a < 0:
            candidates = free_candidates(m)
        else:
            w = int(D.comp[mor_map[a], mor_map[b]])
            candidates = () if used_mor[w] or invD[w] != invC[m] else (w,)
        for w in candidates:
            mor_map[m] = w
            used_mor[w] = True
            yield
            mor_map[m] = -1
            used_mor[w] = False

    def place_obj(pos):
        o = obj_order[pos]
        done = obj_order[:pos]
        images = obj_map[done]
        for o2 in obj_candidates[o]:
            # hom-size profile against already-placed objects
            if (used_obj[o2] or hsC[o, o] != hsD[o2, o2]
                    or not np.array_equal(hsC[o, done], hsD[o2, images])
                    or not np.array_equal(hsC[done, o], hsD[images, o2])):
                continue
            obj_map[o] = o2
            used_obj[o2] = True
            im = int(D.identity[o2])
            mor_map[C.identity[o]] = im
            used_mor[im] = True
            yield
            used_mor[im] = False
            mor_map[C.identity[o]] = -1
            obj_map[o] = -1
            used_obj[o2] = False

    def level(depth):
        if depth == len(obj_order) + len(non_id):
            return None
        return (place_obj if depth < len(obj_order) else place_mor)(depth)

    # a complete map that is no functor backtracks
    search = ("isomorphism search between skeletons of (objects, morphisms) ="
              f" ({C.n_objects}, {C.n_mor}) and ({D.n_objects}, {D.n_mor})")
    for _ in depth_first(level, budget, search):
        F = Functor(C, D, obj_map.copy(), mor_map.copy())
        if is_functor(F):
            return F
    return None


def _inverse_map(p, n, what) -> np.ndarray:
    """The inverse of p, a bijection onto range(n); otherwise InvariantBroken
    names the least v < n that p hits twice or misses, or else p's first
    value outside range(n)."""
    inside = (p >= 0) & (p < n)
    bad = np.flatnonzero(np.bincount(p[inside], minlength=n) != 1).tolist() + p[~inside].tolist()
    if bad:
        raise InvariantBroken(f"the {what} map is not a bijection", witness=bad[0])
    return np.argsort(p)


def inverse_functor(F: Functor) -> Functor:
    """The inverse of an isomorphism of categories."""
    return Functor(F.target, F.source, _inverse_map(F.obj_map, F.target.n_objects, "object"),
                   _inverse_map(F.mor_map, F.target.n_mor, "morphism"))


def skeleton_witnesses(skC, skD, phi: Functor) -> tuple:
    """Weak equivalences C -> D and D -> C from an isomorphism phi of their
    skeletons, each kept with its inclusion and retraction:
    incl_D . phi . retract_C and incl_C . phi^-1 . retract_D."""
    return (compose_functors(skD.incl, compose_functors(phi, skC.retract)),
            compose_functors(skC.incl, compose_functors(inverse_functor(phi), skD.retract)))


# -- pullbacks and the span category -----------------------------------------

def _span_tables(C: FiniteCategory):
    """Canonical spans and first pullbacks of C, as m x m tables.

    canon[l, r] codes the least (l.u, r.u) over the isomorphisms u into
    dom l = dom r as l' * m + r', and is -1 elsewhere.  (pb_p, pb_q)[f, g]
    is the first terminal cone over the cospan (f, g) in (p, q) order, or
    -1.  A cone (p, q) with apex x is terminal iff u -> (p.u, q.u) is
    injective on the morphisms into x and there are as many of them as cones.
    """
    m, n = C.n_mor, C.n_objects
    dom, cod, comp = C.dom, C.cod, C.comp
    iso = iso_partner(C) >= 0
    canon = np.full((m, m), -1, dtype=np.int64)
    monic = np.zeros((m, m), dtype=bool)   # u -> (l.u, r.u) is injective
    for x in range(n):
        out, into = np.flatnonzero(dom == x), np.flatnonzero(cod == x)
        lu = comp[np.ix_(out, into)]
        for rows in row_blocks(len(out), len(out) * len(into)):
            cell = np.ix_(out[rows], out)
            pairs = lu[rows, None, :] * m + lu[None, :, :]   # [l, r, u] -> (l.u, r.u)
            canon[cell] = pairs[:, :, iso[into]].min(axis=2)
            pairs.sort(axis=2)
            monic[cell] = (pairs[:, :, 1:] != pairs[:, :, :-1]).all(axis=2)
    n_into = np.bincount(cod, minlength=n)
    pb_p = np.full((m, m), -1, dtype=np.int64)
    pb_q = np.full((m, m), -1, dtype=np.int64)
    for a in range(n):
        for b in range(n):
            # spans (p, q) into (a, b) in (p, q) order, and cospans (f, g) out of it
            P, Q = np.flatnonzero(cod == a), np.flatnonzero(cod == b)
            i, j = np.nonzero(dom[P][:, None] == dom[Q][None, :])
            p, q = P[i], Q[j]
            F, G = np.flatnonzero(dom == a), np.flatnonzero(dom == b)
            i, j = np.nonzero(cod[F][:, None] == cod[G][None, :])
            f, g = F[i], G[j]
            if not len(p):
                continue   # no cone at all: these cospans have no pullback
            for rows in row_blocks(len(f), len(p)):
                cone = comp[f[rows, None], p] == comp[g[rows, None], q]   # [cospan, span]
                terminal = (cone & monic[p, q]
                            & (n_into[dom[p]] == cone.sum(axis=1)[:, None]))
                has = terminal.any(axis=1)
                first = terminal.argmax(axis=1)[has]
                pb_p[f[rows][has], g[rows][has]] = p[first]
                pb_q[f[rows][has], g[rows][has]] = q[first]
    return canon, pb_p, pb_q


def pullback(C: FiniteCategory, f: int, g: int):
    """Terminal cone over the cospan (f, g), or None.

    Returns (apex, p, q) with f.p = g.q; the first terminal cone in (p, q)
    order, read off the span tables of C.
    """
    if C.cod[f] != C.cod[g]:
        raise CospanMismatch(witness=(f, g))
    _, pb_p, pb_q = C._spans
    p = int(pb_p[f, g])
    return None if p < 0 else (int(C.dom[p]), p, int(pb_q[f, g]))


def span_category(L: FiniteCategory) -> FiniteCategory:
    """Spans in L up to span-isomorphism; composition by chosen pullbacks.

    A morphism from a to b is (the canonical representative of) a pair
    (l: x -> b, r: x -> a) with a common apex.  Every cospan of L must have
    a pullback; NoPullbacks names the first that does not, in row-major
    order.
    """
    canon, pb_p, pb_q = L._spans
    missing = np.argwhere((L.cod[:, None] == L.cod[None, :]) & (pb_p < 0))
    if missing.size:
        raise NoPullbacks(witness=tuple(missing[0].tolist()))
    codes = np.unique(canon[canon >= 0])
    l, r = np.divmod(codes, L.n_mor)

    def composite(g, f):
        # (l2, r2).(l1, r1) = (l2.p, r1.q) over the pullback (p, q) of (r2, l1)
        p, q = pb_p[r[g], l[f]], pb_q[r[g], l[f]]
        return np.searchsorted(codes, canon[L.comp[l[g], p], L.comp[r[f], q]])

    ids = L.identity
    return _table_category(
        L.objects, L.cod[r], L.cod[l], lambda a, b: f"[{L.mor_labels[a]};{L.mor_labels[b]}]",
        (l, r), np.searchsorted(codes, canon[ids, ids]), composite,
        {"kind": "span", "base": L})


def cauchy_vs_span(S: InverseSemigroup) -> bool:
    """The Cauchy completion and Span(L(S)) are the same category.

    Builds both functors ((e,s,d) -> spans and back) and checks they are
    mutually inverse on canonical representatives.
    """
    L = L_of(S)
    Sp = span_category(L)
    C = C_of(S)
    tab, star, F = S.table, S.star, S.cauchy
    canon = L._spans[0]   # built by span_category

    # objects of C, L, Sp are all E(S) in the same order
    if C.objects != Sp.objects:
        return False

    # (e, s, d) -> the canonical span of ((e, s), (d, s*s))
    e, s, d = C._payload_array.T
    code = canon[L.mor_of(e, s), L.mor_of(d, F.E[F.d[s]])]
    phi_m = Sp.mor_of(*np.divmod(code, L.n_mor))
    phi = Functor(C, Sp, np.arange(C.n_objects), phi_m)

    # the span ((e, s), (d, t)) -> (e, st*, d)
    (e, s), (d, t) = (L._payload_array[leg].T for leg in Sp._payload_array.T)
    psi_m = C.mor_of(e, tab[s, star[t]], d)
    psi = Functor(Sp, C, np.arange(Sp.n_objects), psi_m)

    if not (is_functor(phi) and is_functor(psi)):
        return False
    round1 = psi_m[phi_m]
    round2 = phi_m[psi_m]
    return bool(np.all(round1 == np.arange(C.n_mor))
                and np.all(round2 == np.arange(Sp.n_mor)))
