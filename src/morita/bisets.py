"""Equivalence bisets and the top-level Morita machinery.

An equivalence biset for inverse semigroups S and T is an (S,T)-biset X
with two surjective pairings X x X -> S and X x X -> T subject to the
seven compatibility axioms (M1)-(M7).  This module can

  * verify a candidate biset axiom by axiom, with witnesses,
  * extract a biset from a regular joint enlargement,
  * build the bipartite category [L(S), L(T)] and the intermediate
    inverse semigroupoid from a biset, and convert back,
  * decide Morita equivalence through skeletons of the Cauchy
    completions, read off S and T without building C(S) or C(T), and
  * search exhaustively for a biset of bounded size (the independent
    oracle for the decision procedure).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._util import components, failures, inverse_relation, positions
from .categories import (
    C_of,
    FiniteCategory,
    Functor,
    L_of,
    _cauchy_category,
    _pair_category,
    check_morita_context,
    categories_isomorphic,
    is_bipartite,
    is_functor,
    is_left_cancellative,
    skeleton_witnesses,
)
from .errors import (
    AssociativityFailure,
    DEFAULT_BUDGET,
    BudgetExceeded,
    InvalidBiset,
    InvariantBroken,
    MoritaError,
    NotAnEnlargement,
    NotInverseSemigroupoid,
    PreconditionFailed,
)
from .groupoids import (
    InverseSemigroupoid,
    OrderedFunctor,
    OrderedGroupoid,
    _defined_pseudoproducts,
    check_ordered_functor,
    inductive_groupoid_of,
    is_enlargement,
    ordered_groupoid_of,
)
from .semigroups import (
    InverseSemigroup,
    _product_set,
    enlargement_identities,
    is_semigroup_enlargement,
    restrict_inverse,
)


@dataclass(eq=False)
class EquivalenceBiset:
    S: InverseSemigroup
    T: InverseSemigroup
    points: tuple
    left_act: np.ndarray   # [s, x] -> x
    right_act: np.ndarray  # [x, t] -> x
    inner_S: np.ndarray    # [x, y] -> element of S
    inner_T: np.ndarray    # [x, y] -> element of T
    extra: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.points = tuple(self.points)
        nx = len(self.points)
        shapes = {
            "left_act": (len(self.S), nx),
            "right_act": (nx, len(self.T)),
            "inner_S": (nx, nx),
            "inner_T": (nx, nx),
        }
        for name, shape in shapes.items():
            a = np.ascontiguousarray(getattr(self, name), dtype=np.int64).reshape(shape)
            a.setflags(write=False)
            setattr(self, name, a)

    def __len__(self):
        return len(self.points)

    @cached_property
    def _report(self):
        """`_biset_report(self)`, computed once: the tables are read-only."""
        return _biset_report(self)

    def __repr__(self):
        return (f"EquivalenceBiset(|X|={len(self)}, "
                f"|S|={len(self.S)}, |T|={len(self.T)})")


@dataclass
class BisetReport:
    entries: list  # (check name, ok, witness or "")

    @property
    def passed(self) -> bool:
        return all(ok for (_n, ok, _w) in self.entries)

    def failures(self):
        return [(n, w) for (n, ok, w) in self.entries if not ok]


def verify_biset(B: EquivalenceBiset) -> BisetReport:
    """Check the action laws, (M1)-(M7), and pairing surjectivity.

    The report is computed on the first call and kept on B, so every later
    check of the same biset reads it.  A failure is a report entry with its
    witness; nothing raises.
    """
    return B._report


def _biset_report(B: EquivalenceBiset) -> BisetReport:
    """The axiom checks behind `verify_biset`.

    Each axiom marks its failures as one array with its outer index first
    (the pair (s1, s2) or (s, t) for the action laws) and is scanned by
    `failures`, so its witness is the first failure a nested loop over the
    indices would meet; a whole-table axiom is one block, with outer index
    0.  A failure becomes a report entry with that witness; nothing raises.
    """
    S, T = B.S, B.T
    L, R, P, Q = B.left_act, B.right_act, B.inner_S, B.inner_T
    tS, tT = S.table, T.table
    sS, sT = S.star, T.star
    nx = len(B)
    ns, nt = len(S), len(T)
    xs = np.arange(nx)
    entries = []

    def add(name, n, row_cells, fails, pair=False):
        w = next(failures(n, row_cells, fails), None)
        if w is not None and pair:
            w = (w[:2], w[2])      # the action laws name their witness ((i, j), x)
        entries.append((name, w is None, "" if w is None else str(w)))

    def whole(name, bad):
        add(name, 1, bad.size, lambda r: bad[None])

    x3 = xs[None, None, :]
    tt = np.arange(nt)
    # [s1, s2, x]: (s1 s2)x = s1(s2 x)
    add("left_action_law", ns, ns * nx,
        lambda r: L[tS[r]] != L[r[:, None, None], L[None]], pair=True)
    # [t1, t2, x]: x(t1 t2) = (x t1)t2
    add("right_action_law", nt, nt * nx,
        lambda r: R[x3, tT[r][:, :, None]]
        != R[R[x3, r[:, None, None]], tt[None, :, None]], pair=True)
    # [s, t, x]: (sx)t = s(xt)
    add("biset_compatibility", ns, nt * nx,
        lambda r: R[L[r][:, None, :], tt[None, :, None]]
        != L[r[:, None, None], R.T[None]], pair=True)
    # [s, x, y]: <sx, y> = s<x, y>
    add("M1", ns, nx * nx, lambda r: P[L[r]] != tS[r[:, None, None], P[None]])
    whole("M2", P.T != sS[P])
    whole("M3", L[P[xs, xs], xs] != xs)
    # [t, x, y]: [x, yt] = [x, y]t
    add("M4", nt, nx * nx, lambda r: Q[xs[None, :, None], R.T[r][:, None, :]]
        != tT[Q[None], r[:, None, None]])
    whole("M5", Q != sT[Q.T])
    whole("M6", R[xs, Q[xs, xs]] != xs)
    # [z, x, y]: <x, y>z = x[y, z]
    add("M7", nx, nx * nx, lambda r: L[P[None], r[:, None, None]]
        != R[xs[None, :, None], Q.T[r][:, None, :]])
    surj_S = set(int(v) for v in P.ravel()) == set(range(ns))
    entries.append(("inner_S_surjective", surj_S,
                    "" if surj_S else "some element of S is not an inner product"))
    surj_T = set(int(v) for v in Q.ravel()) == set(range(nt))
    entries.append(("inner_T_surjective", surj_T,
                    "" if surj_T else "some element of T is not an inner product"))
    return BisetReport(entries)


# -- biset from a regular joint enlargement ------------------------------------

def biset_from_regular_enlargement(R, S_subset, T_subset) -> EquivalenceBiset:
    """Extract the equivalence biset of a regular joint enlargement.

    X is the set of pairs (x, x') with x in SRT and x' an inverse of x
    lying in TRS; the actions are s(x,x') = (sx, x's*) and (x,x')t =
    (xt, t*x'), and the pairings multiply across the pair.  All inverse
    pairs are kept as distinct points.
    """
    S_subset = sorted(set(int(a) for a in S_subset))
    T_subset = sorted(set(int(a) for a in T_subset))
    try:
        S, s_old = restrict_inverse(R, S_subset)
        T, t_old = restrict_inverse(R, T_subset)
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

    def products(A, B):
        """[r]: r lies in the product set ARB."""
        inside = np.zeros(len(R), dtype=bool)
        inside[_product_set(tab, _product_set(tab, A, full), B)] = True
        return inside

    x, xp = np.nonzero(inverse & products(S_subset, T_subset)[:, None]
                       & products(T_subset, S_subset))
    a, b = np.array(s_old, dtype=np.int64), np.array(t_old, dtype=np.int64)
    ns = len(a)
    # point by point: s(x, x') = (sx, x's*) for each s of S, then
    # (x, x')t = (xt, t*x') for each t of T
    key = (np.concatenate([tab[a, x[:, None]], tab[x[:, None], b]], axis=1),
           np.concatenate([tab[xp[:, None], a[S.star]], tab[b[T.star], xp[:, None]]], axis=1))

    def leaves(at):
        side = "left" if at[1] < ns else "right"
        return InvalidBiset(f"{side} action leaves X at {(int(key[0][at]), int(key[1][at]))}")

    acts = positions((x, xp), key, leaves)
    left, right = acts[:, :ns].T, acts[:, ns:]
    # over (i, j): <i, j> = xy' must lie in S (part 0), then [i, j] = x'y in T (part 1)
    value = np.stack([tab[x[:, None], xp], tab[xp[:, None], x]], axis=2)

    def outside(at):
        i, j, part = at
        return InvalidBiset(f"inner product <{i},{j}> lands outside S" if part == 0
                            else f"inner product [{i},{j}] lands outside T")

    inner = positions((np.repeat([0, 1], [ns, len(b)]), np.concatenate([a, b])),
                      (np.array([0, 1]), value), outside)
    innS, innT = inner[:, :, 0], inner[:, :, 1] - ns
    points = tuple(zip(x.tolist(), xp.tolist()))
    names = tuple(f"({R.names[x]},{R.names[xp]})" for (x, xp) in points)
    B = EquivalenceBiset(S, T, names, left, right, innS, innT,
                         {"kind": "from_enlargement", "pairs": points, "ambient": R,
                          "s_old": tuple(a.tolist()), "t_old": tuple(b.tolist())})
    report = verify_biset(B)
    if not report.passed:
        raise InvalidBiset(f"extracted biset fails: {report.failures()[:2]}")
    return B


# -- the inverse semigroupoid R(S, T; X) ---------------------------------------

def build_R_semigroupoid(B: EquivalenceBiset) -> InverseSemigroupoid:
    """The four-part semigroupoid S' + T' + X-bridges, with the eight products.

    Raises InvalidBiset when B fails verification, and AssociativityFailure
    if the assembled table is not associative (which would be a bug, not a
    property of the input).
    """
    report = verify_biset(B)
    if not report.passed:
        raise InvalidBiset(f"biset fails verification: {report.failures()[:2]}")
    S, T = B.S, B.T
    nx = len(B)
    names = ([f"s_{a}" for a in S.names] + [f"t_{a}" for a in T.names]
             + [f"x_{p}" for p in B.points] + [f"y_{p}" for p in B.points])

    # the eight products, block by block; every other product is undefined
    ns, nt = len(S), len(T)
    oT, oX, oY = ns, ns + nt, ns + nt + nx
    n = oY + nx
    table = np.full((n, n), -1, dtype=np.int64)
    sl_S, sl_T = slice(0, oT), slice(oT, oX)
    sl_X, sl_Y = slice(oX, oY), slice(oY, n)
    table[sl_S, sl_S] = S.table                        # s s'
    table[sl_T, sl_T] = T.table + oT                   # t t'
    table[sl_S, sl_X] = B.left_act + oX                # s x
    table[sl_X, sl_T] = B.right_act + oX               # x t
    table[sl_T, sl_Y] = B.right_act[:, T.star].T + oY  # t y = (y t*)
    table[sl_Y, sl_S] = B.left_act[S.star].T + oY      # y s = (s* y)
    table[sl_Y, sl_X] = B.inner_T + oT                 # y x = [y, x]
    table[sl_X, sl_Y] = B.inner_S                      # x y = <x, y>
    try:
        Rg = InverseSemigroupoid(
            names, table,
            {"kind": "R_semigroupoid", "biset": B,
             "s_part": tuple(range(oT)), "t_part": tuple(range(oT, oX))},
        )
    except NotInverseSemigroupoid as exc:
        # the associativity messages come first.  R(S,T;X) defines ab exactly
        # when the blocks of a and b compose, so a defined ab with a defined
        # (ab)c always has bc defined: no definedness message can arise
        first = exc.witness
        if "associativity" in first:
            raise AssociativityFailure(first)
        raise InvalidBiset("semigroupoid checks fail: " + first)
    for name, part in (("S'", np.arange(oT)), ("T'", np.arange(oT, oX))):
        within, spans = enlargement_identities(table, part)
        if not within:
            raise InvalidBiset(f"{name} = {name}R{name} fails")
        if not spans:
            raise InvalidBiset(f"R = R{name}R fails")
    return Rg


def build_bipartite_U(B: EquivalenceBiset):
    """The bipartite category [L(S), L(T)] of a biset, with both embeddings.

    Morphisms are pairs (c, r) with c an idempotent of the semigroupoid
    R(S,T;X) and cr = r, built as `L_of` builds L(S), on the partial table
    of R; this realizes the four morphism classes (the two
    pair categories and the bridge morphisms (x,d), (x,e)) with the
    composition induced by the eight product rules.  Returns
    (U, S_part_objects, T_part_objects, P: L(S) -> U, Q: L(T) -> U).
    """
    Rg = build_R_semigroupoid(B)
    U = _pair_category(Rg, "|", {"kind": "bipartite_U", "sgpd": Rg})
    idem = np.array(U.extra["obj_elt"], dtype=np.int64)
    s_part, t_part = (np.array(Rg.extra[k], dtype=np.int64) for k in ("s_part", "t_part"))

    def embed(Lc, part):
        """L(S) or L(T) -> U: e -> part[e], (e, s) -> (part[e], part[s])."""
        om = positions(idem, part[list(Lc.extra["obj_elt"])], lambda at: InvariantBroken(
            "an idempotent of the part is not an object of U", witness=at[0]))
        e, s = Lc._payload_array.T
        return Functor(Lc, U, om, U.mor_of(part[e], part[s]))

    # the objects of a part are the ascending images of its embedding
    P, Q = embed(L_of(B.S), s_part), embed(L_of(B.T), t_part)
    return U, P.obj_map.tolist(), Q.obj_map.tolist(), P, Q


def biset_from_ordered_enlargement(G: OrderedGroupoid, S: InverseSemigroup,
                                   T: InverseSemigroup, emb_S, emb_T
                                   ) -> EquivalenceBiset:
    """Recover a biset from a bipartite ordered-groupoid enlargement.

    emb_S / emb_T map semigroup elements to arrows of G and must embed the
    inductive groupoids as enlargements.  X is the set of arrows with
    domain in the T part and codomain in the S part; actions and pairings
    are pseudoproducts.
    """
    emb_S = np.ascontiguousarray(emb_S, dtype=np.int64)
    emb_T = np.ascontiguousarray(emb_T, dtype=np.int64)
    for (sgrp, emb) in ((S, emb_S), (T, emb_T)):
        ig = inductive_groupoid_of(sgrp)
        F = OrderedFunctor(ig, G, G.dom[emb[ig.identity]], emb)
        if len(set(int(v) for v in emb)) != len(sgrp) or not check_ordered_functor(F):
            raise NotAnEnlargement("embedding is not an ordered-groupoid embedding")
    if not is_enlargement(G, [int(v) for v in emb_S]):
        raise NotAnEnlargement("G is not an enlargement of the image of G(S)")
    if not is_enlargement(G, [int(v) for v in emb_T]):
        raise NotAnEnlargement("G is not an enlargement of the image of G(T)")

    s_objs = np.union1d(G.dom[emb_S], G.cod[emb_S])
    t_objs = np.union1d(G.dom[emb_T], G.cod[emb_T])
    X = np.flatnonzero(np.isin(G.dom, t_objs) & np.isin(G.cod, s_objs))

    inv = G.inv
    left = positions(X, _defined_pseudoproducts(G, emb_S[:, None], X),
                     lambda _at: InvalidBiset("action s.x lands outside X"))
    right = positions(X, _defined_pseudoproducts(G, X[:, None], emb_T),
                      lambda _at: InvalidBiset("action x.t lands outside X"))
    innS = positions(emb_S, _defined_pseudoproducts(G, X[:, None], inv[X]),
                     lambda _at: InvalidBiset("pairing <x,y> lands outside the S part"))
    innT = positions(emb_T, _defined_pseudoproducts(G, inv[X][:, None], X),
                     lambda _at: InvalidBiset("pairing [x,y] lands outside the T part"))
    B = EquivalenceBiset(S, T, tuple(G.arrows[x] for x in X),
                         left, right, innS, innT,
                         {"kind": "from_ordered_enlargement",
                          "arrows": tuple(X.tolist())})
    report = verify_biset(B)
    if not report.passed:
        raise InvalidBiset(f"recovered biset fails: {report.failures()[:2]}")
    return B


# -- the decision procedure ------------------------------------------------------

@dataclass(eq=False)
class CauchySkeleton:
    """A skeleton of C(S) read off S: the full subcategory on the least
    idempotent of each D-class.  For each object o of C(S), rep[o] is the
    object of its class in the skeleton and to_rep[o] is an element s with
    s*s = E[o] and ss* = E[rep o], an isomorphism o -> rep o of C(S).
    `incl` and `retract` build C(S) once, on the first read of either."""
    cat: FiniteCategory
    rep: np.ndarray
    to_rep: np.ndarray

    @cached_property
    def incl(self) -> Functor:
        """skeleton -> C(S), each morphism to the one with its payload; an
        object goes where its identity does, here and in `retract`."""
        sk = self.cat
        C = C_of(sk.extra["sgrp"])
        mm = C.mor_of(*sk._payload_array.T)
        return Functor(sk, C, C.dom[mm[sk.identity]], mm)

    @cached_property
    def retract(self) -> Functor:
        """C(S) -> skeleton, (e, s, f) to (rep e, t s t'*, rep f) with
        t = to_rep[e] and t' = to_rep[f]."""
        C, sk = self.incl.target, self.cat
        S = sk.extra["sgrp"]
        tab, t, r = S.table, self.to_rep, S.cauchy.E[self.rep]
        s = C._payload_array[:, 1]
        mm = sk.mor_of(r[C.cod], tab[tab[t[C.cod], s], S.star[t[C.dom]]], r[C.dom])
        return Functor(C, sk, sk.dom[mm[C.identity]], mm)


def cauchy_skeleton(S: InverseSemigroup) -> CauchySkeleton:
    """The skeleton of C(S), built from S alone.

    An isomorphism f -> e of C(S) is an s with s*s = f and ss* = e, so the
    isomorphism classes of objects are the D-classes of E(S): `rep` joins
    the objects of s*s and ss* over every s, and names each class by its
    least idempotent.  to_rep[o] is the least s from o to rep o, the least
    isomorphism of hom(o, rep o) in C(S)'s numbering, and E[o], the
    identity, on a representative.  D is an equivalence relation, so some
    s joins each object to rep o directly.  The category is C(S)'s triple
    enumeration restricted to the representatives.
    """
    F = S.cauchy
    rep, _ = components(len(F.E), F.d, F.r)
    reps = np.flatnonzero(rep == np.arange(len(F.E)))
    to_rep = np.full(len(F.E), len(S))
    into = F.r == rep[F.d]
    np.minimum.at(to_rep, F.d[into], np.flatnonzero(into))
    to_rep[reps] = F.E[reps]
    return CauchySkeleton(_cauchy_category(S, reps, "skeleton"), rep, to_rep)


@dataclass(eq=False)
class MoritaDecision:
    """A decision, made of the two skeletons read off S and T and an
    isomorphism phi between them (None when there is none).

    The witnesses C(S) -> C(T) and back are `skeleton_witnesses` of the two
    skeletons and phi: each skeleton's own inclusion and retraction, which
    build C(S) and C(T) once each, on first read.
    """
    S: InverseSemigroup
    T: InverseSemigroup
    skeleton_S: CauchySkeleton
    skeleton_T: CauchySkeleton
    phi: Functor = None

    @property
    def equivalent(self) -> bool:
        return self.phi is not None

    @cached_property
    def _witnesses(self):
        if self.phi is None:
            return None, None
        return skeleton_witnesses(self.skeleton_S, self.skeleton_T, self.phi)

    @property
    def forward(self) -> Functor:
        """C(S) -> C(T) when equivalent."""
        return self._witnesses[0]

    @property
    def backward(self) -> Functor:
        """C(T) -> C(S) when equivalent."""
        return self._witnesses[1]


def morita_equivalent(S: InverseSemigroup, T: InverseSemigroup,
                      budget: int = DEFAULT_BUDGET) -> MoritaDecision:
    """Decide Morita equivalence through the Cauchy completions.

    S ~ T exactly when C(S) and C(T) are equivalent, that is when their
    skeletons are isomorphic.  Each skeleton is read off its semigroup by
    `cauchy_skeleton`, so no C(S) is built; one isomorphism search between
    them, under `budget` placements, decides.
    """
    skS, skT = cauchy_skeleton(S), cauchy_skeleton(T)
    return MoritaDecision(S, T, skS, skT, categories_isomorphic(skS.cat, skT.cat, budget))


def _skeleton_holds(S: InverseSemigroup, sk: CauchySkeleton) -> bool:
    """sk is a full subcategory of C(S) that meets every isomorphism class
    of objects, checked on S's table.  Object i of sk.cat stands for R[i],
    the i-th idempotent that rep fixes, and a morphism from i to j with s
    in the middle of its payload for the triple (R[j], s, R[i]).  Then:

    * rep sends each object to one it fixes, and each to_rep[o] = t has
      t*t = E[o] and tt* = E[rep o], an isomorphism o -> rep o;
    * the morphisms from f to e are the triples (e, s, f) with esf = s,
      each once;
    * the identities are the triples (e, e, e), and the table composes
      (e, s, f) after (f, t, d), and nothing else, to (e, st, d).
    """
    F, tab, rep, t = S.cauchy, S.table, sk.rep, sk.to_rep
    o = np.arange(len(F.E))
    C, reps = sk.cat, np.flatnonzero(rep == o)
    R, s = F.E[reps], C._payload_array[:, 1]
    k, n = len(R), len(S)
    esd = F.below[reps][:, None, :] & F.above[reps][None, :, :]   # [e, d, s]: esd = s
    met = np.zeros((C.n_objects, C.n_objects, n), dtype=bool)
    met[C.cod, C.dom, s] = True
    # a morphism is named by its key (cod, dom, s), and the composite of g
    # after f must be keyed (cod g, dom f, s_g s_f), read through
    # per-morphism offsets
    at_e, at_d, at_s = C.cod * (k * n), C.dom * n, s * n
    key = at_e + at_d + s
    g, f = (a.astype(np.int64) for a in C._composable[:2])
    ids = np.arange(k)
    return bool(np.array_equal(rep[rep], rep)
                and np.array_equal(F.d[t], o) and np.array_equal(F.r[t], rep)
                and np.array_equal(met, esd) and np.count_nonzero(met) == C.n_mor
                and np.array_equal(key[C.identity], (ids * k + ids) * n + R)
                and np.array_equal(C.comp >= 0, C.dom[:, None] == C.cod[None, :])
                and np.array_equal(key.take(C.comp.ravel().take(g * C.n_mor + f)),
                                   at_e.take(g) + at_d.take(f)
                                   + tab.ravel().take(at_s.take(g) + s.take(f))))


def check_decision_witness(d: MoritaDecision) -> bool:
    """The certificate of a decision, checked without C(S): phi is a functor
    between the two skeletons that is bijective on morphisms, and each
    skeleton passes `_skeleton_holds` on its own semigroup.  A functor
    bijective on morphisms is bijective on objects too (if F(m) = 1_b for
    m: a -> a', then b = Fa and F(1_a) = 1_b forces m = 1_a), so phi is an
    isomorphism.  Then C(S) is equivalent to its full subcategory sk(S),
    which phi makes isomorphic to sk(T), which is equivalent to C(T).  A
    decision without phi has no certificate."""
    phi, A, B = d.phi, d.skeleton_S.cat, d.skeleton_T.cat
    return bool(phi is not None and phi.source is A and phi.target is B and is_functor(phi)
                and np.array_equal(np.sort(phi.mor_map), np.arange(B.n_mor))
                and _skeleton_holds(d.S, d.skeleton_S) and _skeleton_holds(d.T, d.skeleton_T))


# -- exhaustive biset search (independent oracle) --------------------------------

# Kinds of compiled constraint instance, the two equate kinds first.  A cell
# an instance writes is read from a shared row list: one list per row or
# column of L, R, P and Q, indexed by the value of a watched cell.
_EQ1 = 0  # (a, row, c): cell row[val[a]] equals cell c
_EQ2 = 1  # (a, b, row1, row2): cells row1[val[a]] and row2[val[b]] are equal
_SET = 2  # (a, b, row, values): cell row[val[a]] is values[val[b]]
_INV = 3  # (a, b, star): val[b] = star[val[a]] and val[a] = star[val[b]]


class _BisetSearch:
    """DFS with watched-constraint propagation over the four biset tables.

    Cells: left action L[s,x], right action R[x,t], pairings P[x,y] -> S
    and Q[x,y] -> T.  Point relabelling symmetry is broken by requiring
    the diagonal signatures (P[x,x], Q[x,x]) to be non-decreasing in x.
    The budget counts cell assignments.

    The constraint instances are compiled once per (S, T, nx) into tuples
    of cells and shared row lists (see `_EQ1` .. `_INV`), held only in the
    watch table.  A cell's entry there is its list of (kind, instances)
    runs, one run per section of `_build_instances` that watches it, so
    `propagate` dispatches on the kind once per run.
    Which cells get assigned, and in what order, follows from four orders:
    the instance order, the order within each watch list (instances in the
    order they are made), the DFS cell and value order, and the LIFO queue.
    Keeping all four fixed keeps the meaning of the budget fixed: the same
    inputs stop at the same assignment, so a pair "skipped on budget" stays
    the same pair when the search gets faster.
    """

    def __init__(self, S, T, nx, budget, counter):
        self.S, self.T, self.nx = S, T, nx
        ns, nt = len(S), len(T)
        self.ns, self.nt = ns, nt
        self.off_R = ns * nx
        self.off_P = self.off_R + nx * nt
        self.off_Q = self.off_P + nx * nx
        self.val = [-1] * (self.off_Q + nx * nx)
        self.diagonal = [(self.off_P + x * (nx + 1), self.off_Q + x * (nx + 1))
                         for x in range(nx)]
        self.trail = []
        self.queue = []
        self.budget = budget
        self.counter = counter
        self._build_instances()
        self._build_order()

    def _build_instances(self):
        """Watch table of the compiled instances of the axioms.

        Six sections, in order: the left action law (s1 s2) x and the right
        action law x (t1 t2) (`_EQ1`), the biset law (s x) t (`_EQ2`), (M1)
        (`_SET`), (M2) beside (M5) (`_INV`), (M3) beside (M6) and then (M4)
        (`_SET`), (M7) (`_EQ2`).  Each section fills its own watch lists,
        and a cell keeps the non-empty ones as (kind, instances) runs in
        section order; as the sections are made in that order, each cell
        meets its instances in the order they are made.

        Each instance watches every cell whose value it reads or whose cell
        it may write, once.  A section knows which of those cells repeat:
        in the left law a = L[s2, x] lies in the row L[s1, .] iff s2 = s1, c
        = L[s1 s2, x] lies in it iff s1 s2 = s1, and c = a iff s1 s2 = s2
        (the right law is its mirror image); an (M2) or (M5) instance reads
        one cell when x = y; the other sections' cells are distinct.

        An (M7) instance (x, y, z), L[P[x, y], z] = R[x, Q[y, z]], does not
        watch the cells L[v, z].  Those watches decided nothing: without
        them the search makes the same number of assignments, finds the
        same bisets and stops on budget at the same point as the loop
        search, which keeps them, on every input tried (the curated pairs,
        `syminv2` and random subsemigroups of size <= 5, at budgets from 50
        to 200 000).  Fewer watches can only propagate less; propagation
        never prunes a biset and `_extract` verifies every leaf, so whenever
        the budget suffices the first biset in DFS order stays the same.
        """
        nx, ns, nt = self.nx, self.ns, self.nt
        oR, oP, oQ = self.off_R, self.off_P, self.off_Q
        tS, sS = self.S.table.tolist(), self.S.star.tolist()
        tT, sT = self.T.table.tolist(), self.T.star.tolist()
        colT = self.T.table.T.tolist()
        X = range(nx)
        # the cells of each row and column a value can point into
        L_row = [list(range(s * nx, s * nx + nx)) for s in range(ns)]
        L_col = [list(range(x, oR, nx)) for x in X]
        R_row = [list(range(oR + x * nt, oR + x * nt + nt)) for x in X]
        R_col = [list(range(oR + t, oP, nt)) for t in range(nt)]
        P_col = [list(range(oP + y, oQ, nx)) for y in X]
        Q_row = [list(range(oQ + x * nx, oQ + x * nx + nx)) for x in X]
        kinds = (_EQ1, _EQ2, _SET, _INV, _SET, _EQ2)
        tables = [[[] for _ in self.val] for _ in kinds]
        acts, biset, m1, m2_m5, m3_m6_m4, m7 = tables
        for s1 in range(ns):
            row = L_row[s1]
            for s2 in range(ns):
                s12 = tS[s1][s2]
                for x in X:
                    a, c = s2 * nx + x, s12 * nx + x
                    inst = (a, row, c)
                    for cell in row:
                        acts[cell].append(inst)
                    if s2 != s1:
                        acts[a].append(inst)
                    if s12 != s1 and s12 != s2:
                        acts[c].append(inst)
        for x in X:
            for t1 in range(nt):
                a = oR + x * nt + t1
                for t2 in range(nt):
                    t12 = tT[t1][t2]
                    c, col = oR + x * nt + t12, R_col[t2]
                    inst = (a, col, c)
                    for cell in col:
                        acts[cell].append(inst)
                    if t1 != t2:
                        acts[a].append(inst)
                    if t12 != t2 and t12 != t1:
                        acts[c].append(inst)
        for s in range(ns):
            row = L_row[s]
            for x in X:
                for t in range(nt):
                    # L[s, x] lies in row and R[x, t] in col
                    col = R_col[t]
                    inst = (s * nx + x, oR + x * nt + t, col, row)
                    for cell in col:
                        biset[cell].append(inst)
                    for cell in row:
                        biset[cell].append(inst)
        for s in range(ns):
            for x in X:
                a = s * nx + x
                for y in X:
                    # P[x, y] lies in col
                    col = P_col[y]
                    inst = (a, oP + x * nx + y, col, tS[s])
                    m1[a].append(inst)
                    for cell in col:
                        m1[cell].append(inst)
        for x in X:
            for y in range(x, nx):
                for off, star in ((oP, sS), (oQ, sT)):
                    p, q = off + x * nx + y, off + y * nx + x
                    inst = (p, q, star)
                    m2_m5[p].append(inst)
                    if q != p:
                        m2_m5[q].append(inst)
        for x in X:
            # (M3) and (M6) read one cell: a constant row
            p, q = oP + x * nx + x, oQ + x * nx + x
            m3_m6_m4[p].append((p, p, L_col[x], [x] * ns))
            m3_m6_m4[q].append((q, q, R_row[x], [x] * nt))
        for x in X:
            row = Q_row[x]
            for y in X:
                # Q[x, y] lies in row
                b = oQ + x * nx + y
                for t in range(nt):
                    a = oR + y * nt + t
                    inst = (a, b, row, colT[t])
                    m3_m6_m4[a].append(inst)
                    for cell in row:
                        m3_m6_m4[cell].append(inst)
        for x in X:
            row = R_row[x]
            for y in X:
                a = oP + x * nx + y
                for z in X:
                    b = oQ + y * nx + z
                    inst = (a, b, L_col[z], row)
                    m7[a].append(inst)
                    m7[b].append(inst)
                    for cell in row:
                        m7[cell].append(inst)
        self.watch = [[(kind, w[c]) for kind, w in zip(kinds, tables) if w[c]]
                      for c in range(len(self.val))]

    def _build_order(self):
        """DFS cell order, point by point, and each cell's domain size."""
        nx, ns, nt = self.nx, self.ns, self.nt
        oR, oP, oQ = self.off_R, self.off_P, self.off_Q
        order, domain = [], []
        for x in range(nx):
            order += [oP + x * nx + x, oQ + x * nx + x]
            order += range(x, oR, nx)
            order += range(oR + x * nt, oR + x * nt + nt)
            for y in range(x):
                order += [oP + x * nx + y, oP + y * nx + x,
                          oQ + x * nx + y, oQ + y * nx + x]
            domain += [ns, nt] + [nx] * (ns + nt) + [ns, ns, nt, nt] * x
        self.order, self.domain = order, domain

    def _over_budget(self):
        return BudgetExceeded(
            f"exhaustive biset search for |S|={self.ns}, |T|={self.nt} used up"
            f" its budget of {self.budget} cell assignments at carrier size"
            f" {self.nx}")

    def assign(self, cell, v):
        cur = self.val[cell]
        if cur != -1:
            return cur == v
        self.counter[0] += 1
        if self.counter[0] > self.budget:
            raise self._over_budget()
        self.val[cell] = v
        self.trail.append(cell)
        self.queue.append(cell)
        return True

    def propagate(self):
        """Evaluate the instances watching each queued cell, newest cell first.

        An instance that forces a cell assigns it (and queues it) at once;
        returns False at the first instance that cannot hold.  Two cells
        that must be equal and hold the same value, both unassigned
        included, force nothing.
        """
        val, trail, queue, watch = self.val, self.trail, self.queue, self.watch
        budget, count = self.budget, self.counter[0]
        try:
            while queue:
                for kind, insts in watch[queue.pop()]:
                    if kind == _EQ1:
                        for a, row, c2 in insts:
                            va = val[a]
                            if va < 0:
                                continue
                            c1 = row[va]
                            v1, v2 = val[c1], val[c2]
                            if v1 == v2:
                                continue
                            if v1 < 0:
                                c, v = c1, v2
                            elif v2 < 0:
                                c, v = c2, v1
                            else:
                                queue.clear()
                                return False
                            count += 1
                            if count > budget:
                                raise self._over_budget()
                            val[c] = v
                            trail.append(c)
                            queue.append(c)
                    elif kind == _EQ2:
                        for a, b, row1, row2 in insts:
                            va = val[a]
                            if va < 0:
                                continue
                            vb = val[b]
                            if vb < 0:
                                continue
                            c1, c2 = row1[va], row2[vb]
                            v1, v2 = val[c1], val[c2]
                            if v1 == v2:
                                continue
                            if v1 < 0:
                                c, v = c1, v2
                            elif v2 < 0:
                                c, v = c2, v1
                            else:
                                queue.clear()
                                return False
                            count += 1
                            if count > budget:
                                raise self._over_budget()
                            val[c] = v
                            trail.append(c)
                            queue.append(c)
                    elif kind == _SET:
                        for a, b, row, values in insts:
                            va = val[a]
                            if va < 0:
                                continue
                            vb = val[b]
                            if vb < 0:
                                continue
                            c, v = row[va], values[vb]
                            cur = val[c]
                            if cur == v:
                                continue
                            if cur >= 0:
                                queue.clear()
                                return False
                            count += 1
                            if count > budget:
                                raise self._over_budget()
                            val[c] = v
                            trail.append(c)
                            queue.append(c)
                    else:
                        for a, b, star in insts:
                            va = val[a]
                            if va >= 0:
                                c, v = b, star[va]
                            else:
                                vb = val[b]
                                if vb < 0:
                                    continue
                                c, v = a, star[vb]
                            cur = val[c]
                            if cur == v:
                                continue
                            if cur >= 0:
                                queue.clear()
                                return False
                            count += 1
                            if count > budget:
                                raise self._over_budget()
                            val[c] = v
                            trail.append(c)
                            queue.append(c)
            return True
        finally:
            self.counter[0] = count

    def prune(self):
        val = self.val
        # diagonal signature symmetry break
        sigs = [(val[p], val[q]) for p, q in self.diagonal]
        for a, b in zip(sigs, sigs[1:]):
            if -1 not in a and -1 not in b and a > b:
                return False
        # surjectivity is still reachable, as it always is with n cells free
        for vals, n in ((val[self.off_P:self.off_Q], self.ns),
                        (val[self.off_Q:], self.nt)):
            free = vals.count(-1)
            if free < n and n - len(set(vals) - {-1}) > free:
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
        for v in range(self.domain[pos]):
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
        val = np.array(self.val, dtype=np.int64)
        cut = np.split(val, [self.off_R, self.off_P, self.off_Q])
        B = EquivalenceBiset(self.S, self.T,
                             tuple(f"x{i}" for i in range(nx)),
                             cut[0].reshape(ns, nx), cut[1].reshape(nx, nt),
                             cut[2].reshape(nx, nx), cut[3].reshape(nx, nx),
                             {"kind": "searched"})
        if verify_biset(B).passed:
            return B
        return None


def exhaustive_biset_search(S: InverseSemigroup, T: InverseSemigroup,
                            max_points: int, budget: int = DEFAULT_BUDGET):
    """Search for an equivalence biset with at most max_points points.

    Independent of the category-equivalence decision route: a plain
    constraint search over the four tables with canonical-form pruning.
    Returns the first biset found (smallest carrier first) or None after
    exhausting every size; raises BudgetExceeded when the assignment
    budget runs out.
    """
    counter = [0]
    for nx in range(1, max_points + 1):
        if nx * nx < len(S) or nx * nx < len(T):
            continue  # pairings could not be surjective
        search = _BisetSearch(S, T, nx, budget, counter)
        found = search.solve()
        if found is not None:
            return found
    return None


# -- the end-to-end pipeline (used by the CLI and the acceptance suite) -----------

def biset_enlargement_chain(B: EquivalenceBiset):
    """biset -> bipartite U -> semigroupoid -> ordered groupoid -> biset.

    Runs every verification that follows a verified biset and reports each
    as a bool; returns (checks, G) with G the ordered groupoid of R(S,T;X).
    The semigroupoid, enlargement and round-trip entries come from checks
    made on the way: R(S,T;X) is checked once, when `build_R_semigroupoid`
    makes it (it raises unless the table passes `semigroupoid_violations`),
    and `biset_from_ordered_enlargement` raises unless G enlarges both parts
    and the recovered biset verifies.  Every structure is checked once: B
    keeps its `verify_biset` report and U its isomorphisms, so a chain
    computes two biset reports (B and the recovered biset), one
    `semigroupoid_violations` pass and one isomorphism table of U.
    """
    out = {}
    U, s_objs, t_objs, Pf, Qf = build_bipartite_U(B)
    out["bipartite"] = is_bipartite(U, s_objs, t_objs)
    out["U_left_cancellative"] = is_left_cancellative(U)
    out["morita_context"] = check_morita_context(Pf.source, Qf.source, U, Pf, Qf)
    out["semigroupoid_inverse"] = True
    Rg = U.extra["sgpd"]
    G = ordered_groupoid_of(Rg)
    biset_from_ordered_enlargement(G, B.S, B.T,
                                   np.array(Rg.extra["s_part"], dtype=np.int64),
                                   np.array(Rg.extra["t_part"], dtype=np.int64))
    out["enlargement_of_S"] = out["enlargement_of_T"] = out["roundtrip_biset"] = True
    return out, G


def enlargement_pipeline(R, S_subset, T_subset) -> dict:
    """enlarge -> biset -> bipartite U -> semigroupoid -> ordered groupoid.

    Runs every verification along the chain and reports each as a bool.
    """
    B = biset_from_regular_enlargement(R, S_subset, T_subset)
    out = {"biset_axioms": verify_biset(B).passed}
    checks, G = biset_enlargement_chain(B)
    out.update(checks)
    # each object of one part has an arrow to the other: the test U passes,
    # as G's objects are R's idempotents, which S' and T' split (a bridge x
    # has xx undefined), and every arrow of a groupoid is an isomorphism
    Rg = G.extra["sgpd"]
    s_objs, t_objs = (G.dom[list(Rg.extra[k])] for k in ("s_part", "t_part"))
    out["bipartite_objects"] = is_bipartite(G.cat, s_objs, t_objs)
    out["morita_equivalent"] = morita_equivalent(B.S, B.T).equivalent
    return out
