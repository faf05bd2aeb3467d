"""Right actions, etale actions, presheaves, and the functor web between them.

The comparison functors implemented here:

  Q   : closed right S-sets -> presheaves on the Cauchy completion,
        Q(X)(e) = Xe
  Q_!  : its left adjoint, a colimit over the category of elements
  U   : etale actions -> right S-sets (forget the anchor)
  R   : its right adjoint, R(X) = disjoint union of the Xe over E(S)
  I*  : presheaves on the Cauchy completion -> etale actions
  I_! : its left adjoint, computed fiberwise as a colimit

Every colimit and quotient is a disjoint union of points cut into the
connected components of its zig-zag relation by `_util.components` (or
`_util.congruence`, its closure under the action).  Points are numbered so
that integer order is the order of their (component, index) pairs, e.g.
x * |S| + s for the pair (x, s); a class is represented by its least point
and classes are numbered in order of it, so every construction is
deterministic.  The constructions on composite points (the pairs of a
product or of R(X), the fibers of I*) find the point each action value
lands on with `_util.positions`, and raise InvariantBroken, naming the
first point and element, where it is no point.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from ._util import components, congruence, depth_first, orbit_levels, positions, ragged
from .categories import C_of, FiniteCategory, L_of
from .errors import (DEFAULT_BUDGET, InvariantBroken, NoRightLocalUnits, NotClosed,
                     WrongSite)
from .semigroups import (
    FiniteSemigroup,
    InverseSemigroup,
    _action_law_witness,
    conjugates,
    idempotents,
    local_unit_flags,
)


@dataclass(eq=False)
class RightAction:
    carrier: tuple
    sgrp: FiniteSemigroup
    act: np.ndarray  # act[x, s]
    extra: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.carrier = tuple(self.carrier)
        a = np.ascontiguousarray(self.act, dtype=np.int64).reshape(
            len(self.carrier), len(self.sgrp)
        )
        a.setflags(write=False)
        self.act = a

    def __len__(self):
        return len(self.carrier)

    def apply(self, x: int, s: int) -> int:
        return int(self.act[x, s])

    def __repr__(self):
        return f"RightAction(points={len(self)}, sgrp_n={len(self.sgrp)})"


@dataclass(eq=False)
class EtaleAction:
    base: RightAction
    anchor: np.ndarray  # point -> idempotent element of the semigroup

    def __post_init__(self):
        a = np.ascontiguousarray(self.anchor, dtype=np.int64)
        a.setflags(write=False)
        self.anchor = a

    @property
    def sgrp(self):
        return self.base.sgrp

    def __len__(self):
        return len(self.base)

    def __repr__(self):
        return f"EtaleAction(points={len(self.base)}, sgrp_n={len(self.sgrp)})"


class Presheaf:
    """A presheaf on a finite site: per object a fiber of element labels,
    per morphism f a map P(f): P(cod f) -> P(dom f).

    The maps are stored flat and read-only: P(f) is
    values[map_off[f]:map_off[f + 1]].  `Presheaf(site, fibers, maps)` takes
    one array per morphism and concatenates them; the constructions of this
    package build the flat form directly with `from_flat`, and `maps` cuts
    the per-morphism arrays from it only when it is read.  The elements are
    laid out once, in (o, i) order, and read-only too: (o, i) is element
    fib_off[o] + i, set when P is made, and element k is (elements[0][k],
    elements[1][k]), cached when first read, as `out_of_fiber` is.
    """

    def __init__(self, site: FiniteCategory, fibers, maps):
        maps = [np.asarray(m, dtype=np.int64).ravel() for m in maps]
        map_off = np.concatenate([[0], np.cumsum([len(m) for m in maps], dtype=np.int64)])
        self._set(site, fibers, np.concatenate([*maps, np.zeros(0, dtype=np.int64)]),
                  map_off)

    @classmethod
    def from_flat(cls, site: FiniteCategory, fibers, values, map_off) -> "Presheaf":
        P = cls.__new__(cls)
        P._set(site, fibers, values, map_off)
        return P

    def _set(self, site, fibers, values, map_off):
        self.site = site
        self.fibers = tuple(tuple(f) for f in fibers)
        self.values = np.ascontiguousarray(values, dtype=np.int64)
        self.map_off = np.ascontiguousarray(map_off, dtype=np.int64)
        self.fib_off = np.array([0, *accumulate(map(len, self.fibers))], dtype=np.int64)
        for a in (self.values, self.map_off, self.fib_off):
            a.setflags(write=False)

    @cached_property
    def maps(self) -> tuple:
        off = self.map_off.tolist()
        return tuple(self.values[a:b] for a, b in zip(off, off[1:]))

    @cached_property
    def elements(self) -> tuple:
        obj, idx = ragged(np.diff(self.fib_off))
        obj.setflags(write=False)
        idx.setflags(write=False)
        return obj, idx

    @cached_property
    def out_of_fiber(self):
        """The first morphism f with a value of P(f) outside P(dom f), or None;
        one array test over the flat values, kept as they are read-only.  P
        must have a fiber per object of its site and a map per morphism."""
        off, f, v = self.fib_off, ragged(np.diff(self.map_off))[0], self.values
        # the fiber sizes by slicing: on small presheaves np.diff costs more than the test
        bad = np.flatnonzero((v < 0) | (v >= (off[1:] - off[:-1])[self.site.dom[f]]))
        return int(f[bad[0]]) if len(bad) else None

    def fiber_size(self, o: int) -> int:
        return len(self.fibers[o])

    def __repr__(self):
        return f"Presheaf(fibers={tuple(np.diff(self.fib_off).tolist())})"


def action_law_witness(X: RightAction):
    """First (x, s, t) with (xs)t != x(st), or None."""
    return _action_law_witness(X.act, X.sgrp.table)


def check_action(X: RightAction) -> bool:
    return action_law_witness(X) is None


def check_presheaf(P: Presheaf) -> bool:
    C = P.site
    if len(P.fibers) != C.n_objects or len(P.map_off) != C.n_mor + 1:
        return False
    (obj, idx), flat, off = P.elements, P.values, P.map_off
    size = np.diff(off)
    if not np.array_equal(size, np.diff(P.fib_off)[C.cod]):
        return False
    if P.out_of_fiber is not None:
        return False
    if not np.array_equal(flat[off[C.identity[obj]] + idx], idx):
        return False
    # functoriality P(g.f) = P(f) o P(g), one comparison per g over all its f
    for g in range(C.n_mor):
        f = np.flatnonzero(C.comp[g] >= 0)
        if not f.size:
            continue
        h = C.comp[g, f]
        mg = flat[off[g]:off[g + 1]]
        # on a site whose composites have the wrong endpoints the shapes differ
        if np.any(size[h] != len(mg)) or (len(mg) and mg.max() >= size[f].min()):
            return False
        lhs = flat[off[h][:, None] + np.arange(len(mg))]
        rhs = flat[off[f][:, None] + mg[None, :]]
        if not np.array_equal(lhs, rhs):
            return False
    return True


# -- basic action constructions ----------------------------------------------

def principal_action(S: FiniteSemigroup, e: int) -> RightAction:
    """The right ideal eS = {s : es = s} with right multiplication.

    One gather: xs lies in eS for x in eS, so the point of xs is read from
    an element -> point array.
    """
    tab = S.table
    elts = np.flatnonzero(tab[e] == np.arange(len(S)))
    point = np.full(len(S), -1, dtype=np.int64)
    point[elts] = np.arange(len(elts))
    pts = elts.tolist()
    act = point[tab[elts]]
    return RightAction(
        tuple(S.names[s] for s in pts), S, act,
        {"kind": "principal", "e": e, "elt_of_point": tuple(pts)},
    )


def regular_action(S: FiniteSemigroup) -> RightAction:
    return RightAction(S.names, S, S.table.copy(), {"kind": "regular"})


def empty_action(S: FiniteSemigroup) -> RightAction:
    return RightAction((), S, np.empty((0, len(S)), dtype=np.int64), {"kind": "empty"})


def coproduct_action(parts) -> RightAction:
    parts = list(parts)
    S = parts[0].sgrp
    names, rows = [], []
    for k, X in enumerate(parts):
        if X.sgrp is not S:
            raise ValueError("coproduct needs a common semigroup")
        off = len(names)
        names.extend(f"c{k}_{lbl}" for lbl in X.carrier)
        rows.append(X.act + off)
    act = np.vstack(rows) if rows else np.empty((0, len(S)), dtype=np.int64)
    return RightAction(tuple(names), S, act, {"kind": "coproduct"})


def quotient_action(X: RightAction, pairs) -> RightAction:
    """Quotient by the equivariant closure of the given point identifications."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    root, cls = congruence(len(X), pairs[:, 0], pairs[:, 1], X.act)
    reps = np.flatnonzero(root == np.arange(len(X)))
    classes = [[] for _ in reps]
    for x, c in enumerate(cls.tolist()):
        classes[c].append(x)
    names = tuple(X.carrier[x] for x in reps)
    return RightAction(names, X.sgrp, cls[X.act[reps]],
                       {"kind": "quotient", "classes": classes})


def product_action(X: RightAction, Y: RightAction) -> RightAction:
    """Binary product of unitary actions: pairs bounded by a common idempotent.

    The carrier is {(x, y) : some idempotent e fixes both x and y}; this is
    the right-action transcription of the bounded-pair product carrier.
    """
    S = X.sgrp
    if Y.sgrp is not S:
        raise ValueError("product needs a common semigroup")
    E = idempotents(S)
    fixes = [(A.act[:, E] == np.arange(len(A))[:, None]).astype(np.int64) for A in (X, Y)]
    x, y = np.nonzero(fixes[0] @ fixes[1].T)
    act = positions((x, y), (X.act[x], Y.act[y]), lambda at: InvariantBroken(
        "not an action: a pair leaves the product",
        witness=((int(x[at[0]]), int(y[at[0]])), at[1])))
    pts = tuple(zip(x.tolist(), y.tolist()))
    names = tuple(f"({X.carrier[a]},{Y.carrier[b]})" for (a, b) in pts)
    return RightAction(names, S, act, {"kind": "product", "pairs": pts})


def equalizer_action(f, g, X: RightAction) -> RightAction:
    """Equalizer of two equivariant maps out of X, created in sets."""
    pts = np.flatnonzero(np.asarray(f) == np.asarray(g))
    act = positions(pts, X.act[pts], lambda at: InvariantBroken(
        "f and g are not equivariant: a point leaves the equalizer",
        witness=(int(pts[at[0]]), at[1])))
    return RightAction(tuple(X.carrier[x] for x in pts), X.sgrp, act,
                       {"kind": "equalizer"})


def coequalizer_action(f, g, X: RightAction, Y: RightAction) -> RightAction:
    """Coequalizer of f, g : X -> Y, created in sets."""
    return quotient_action(Y, [(int(f[x]), int(g[x])) for x in range(len(X))])


# -- unitary / closed ----------------------------------------------------------

def is_unitary(X: RightAction) -> bool:
    """Every point is in the image of the action, and the image has no other value."""
    a = X.act.ravel()
    inside = ((a >= 0) & (a < len(X))).all()
    return bool(inside and np.bincount(a, minlength=len(X)).all())


@dataclass(eq=False)
class TensorResult:
    mu: list                 # per class of X (x) S, the common value xs
    surjective: bool
    injective: bool


def tensor_with_S(X: RightAction) -> TensorResult:
    """X (x) S with mu(x (x) s) = xs.

    The pair (x, s) is node x * |S| + s; (xs, t) and (x, st) are joined.
    """
    S = X.sgrp
    if not local_unit_flags(S).right_local_units:
        raise NoRightLocalUnits()
    n, ns = len(X), len(S)
    root, _cls = components(
        n * ns,
        X.act[:, :, None] * ns + np.arange(ns),
        np.arange(n)[:, None, None] * ns + S.table)
    xs = X.act.ravel()
    bad = np.flatnonzero(xs != xs[root])
    if len(bad):
        raise InvariantBroken("mu not constant on a tensor class",
                              witness=divmod(int(bad[0]), ns))
    mu = xs[root == np.arange(n * ns)]
    hits = np.bincount(mu, minlength=n)
    return TensorResult(mu.tolist(), bool((hits > 0).all()), bool((hits <= 1).all()))


def is_closed(X: RightAction) -> bool:
    """mu : X (x) S -> X, x (x) s |-> xs, is a bijection.

    On an inverse semigroup mu is always injective, so an action is closed
    exactly when it is unitary, and no colimit is built:
    - the edge (xs, s*s) ~ (x, s.s*s) = (x, s) puts the node (z, f) =
      (xs, s*s) in the class of (x, s), and zf = z by the action law;
    - if zf = z = zf', then (z, f) = (zf', f) ~ (z, f'f) and
      (z, f') = (zf, f') ~ (z, ff'); idempotents commute, so
      (z, f) ~ (z, f').
    So every class over z holds a node (z, f) with zf = z, and all of those
    are one class.  The argument needs the action law, which is checked
    first: a non-action raises `InvariantBroken` with its first failing
    (x, s, t).

    Other semigroups with right local units go through `tensor_with_S`,
    since there closed and unitary differ: on S with table
    [[0,0,0],[0,1,2],[0,1,2]] the action [[0,0,0],[0,1,1]] is unitary, but
    mu is not injective.
    """
    if isinstance(X.sgrp, InverseSemigroup):
        bad = action_law_witness(X)
        if bad is not None:
            raise InvariantBroken("not an action: (xs)t != x(st)", witness=bad)
        return is_unitary(X)
    t = tensor_with_S(X)
    return t.surjective and t.injective


# -- etale actions -------------------------------------------------------------

def munn_action(S: InverseSemigroup) -> EtaleAction:
    """E(S) with e.s = s*es and the identity anchor, as one gather."""
    F = S.cauchy
    E = tuple(F.E.tolist())
    base = RightAction(tuple(S.names[e] for e in E), S, F.obj[conjugates(S, F.E)],
                       {"kind": "munn", "elt_of_point": E})
    return EtaleAction(base, F.E)


def principal_etale(S: InverseSemigroup, e: int) -> EtaleAction:
    """eS -> E(S), s |-> s*s."""
    base = principal_action(S, e)
    elts = np.array(base.extra["elt_of_point"], dtype=np.int64)
    F = S.cauchy
    return EtaleAction(base, F.E[F.d[elts]])


def check_etale(X: EtaleAction) -> bool:
    """Action law, p(x) idempotent with x.p(x) = x, and p(xs) = s*p(x)s."""
    S = X.sgrp
    if not isinstance(S, InverseSemigroup):
        return False
    if not check_action(X.base):
        return False
    act, e, tab = X.base.act, X.anchor, S.table
    if e.shape != (len(X),) or (len(X) and (e.min() < 0 or e.max() >= len(S))):
        return False
    return bool((tab[e, e] == e).all()
                and (act[np.arange(len(X)), e] == np.arange(len(X))).all()
                and (e[act] == conjugates(S, e)).all())


def etale_morphism_check(f, X: EtaleAction, Y: EtaleAction) -> bool:
    """f commutes with the actions and preserves anchors."""
    f = np.ascontiguousarray(f, dtype=np.int64)
    if f.shape != (len(X),):
        return False
    if len(X) and (f.min() < 0 or f.max() >= len(Y)):
        return False
    return bool((Y.anchor[f] == X.anchor).all()
                and (f[X.base.act] == Y.base.act[f]).all())


def R_of(X: RightAction) -> EtaleAction:
    """Right adjoint of the forgetful U: carrier {(e,x) : xe = x}."""
    S = X.sgrp
    E = S.cauchy.E
    i, x = np.nonzero(X.act[:, E].T == np.arange(len(X)))
    e = E[i]
    # (e, x)s = (s*es, xs)
    act = positions((e, x), (conjugates(S, e), X.act[x]),
                    lambda at: InvariantBroken(
                        "not an action: a point leaves R(X)",
                        witness=((int(e[at[0]]), int(x[at[0]])), at[1])))
    pts = tuple(zip(e.tolist(), x.tolist()))
    names = tuple(f"({S.names[a]},{X.carrier[b]})" for (a, b) in pts)
    base = RightAction(names, S, act, {"kind": "R", "pairs": pts})
    return EtaleAction(base, e)


def U_of(X: EtaleAction) -> RightAction:
    return X.base


def counit_UR(X: RightAction):
    """(e, x) -> x from UR(X) to X; surjective iff X is unitary."""
    RX = R_of(X)
    return RX, np.array(RX.base.extra["pairs"], dtype=np.int64).reshape(-1, 2)[:, 1]


def unit_UR(X: EtaleAction):
    """x -> (p(x), x) from X to RU(X); always an etale morphism."""
    RU = R_of(X.base)
    e, x = np.array(RU.base.extra["pairs"], dtype=np.int64).reshape(-1, 2).T
    return RU, positions((e, x), (X.anchor, np.arange(len(X))), lambda at: InvariantBroken(
        "the anchor of a point is not an idempotent fixing it", witness=at[0]))


# -- presheaves on L(S) <-> etale actions --------------------------------------

def _read_site(site: FiniteCategory, kind: str, S=None):
    """(S, E): the semigroup of a site L(S) or C(S), as `kind` says, and its
    objects' idempotents; WrongSite for another kind, or another S if given."""
    extra = site.extra
    if (extra.get("kind") != kind or "sgrp" not in extra
            or S is not None and extra["sgrp"] is not S):
        raise WrongSite(f"site must be {kind}(S) for the semigroup in use")
    return extra["sgrp"], np.array(extra["obj_elt"], dtype=np.int64)


def _fiber_presheaf(site: FiniteCategory, X: RightAction, member) -> Presheaf:
    """The presheaf of the fibers of X over the objects of L(S) or C(S).

    member[o, x] says that point x lies in the fiber over object o.  A site
    morphism m with payload (e, s, ...) maps the fiber over cod(m) = e into
    the fiber over dom(m) by acting with s.  P.pts keeps the point indices
    of each fiber.  All the maps come from one gather over (m, point of the
    fiber over cod m), which is the flat form of the presheaf.
    """
    flat = np.nonzero(member)[1]                   # the fibers, concatenated
    size = member.sum(axis=1)
    off = np.concatenate([[0], np.cumsum(size)])
    rank = np.cumsum(member, axis=1) - 1           # rank[o, x]: index of x over o
    s_of = site._payload_array[:, 1]
    lens = size[site.cod]
    moff = np.concatenate([[0], np.cumsum(lens)])
    m, i = ragged(lens)
    x = flat[off[site.cod[m]] + i]
    xs = X.act[x, s_of[m]]
    if not member[site.dom[m], xs].all():
        raise InvariantBroken("a site morphism moves a point out of its fiber")
    pts = tuple(tuple(flat[off[o]:off[o + 1]].tolist()) for o in range(len(size)))
    P = Presheaf.from_flat(site, tuple(tuple(X.carrier[x] for x in p) for p in pts),
                           rank[site.dom[m], xs], moff)
    P.pts = pts
    return P


def presheaf_of_etale(X: EtaleAction, site: FiniteCategory = None) -> Presheaf:
    """Fiber map e -> p^{-1}(e); transitions act by the element of L(S)."""
    L = site if site is not None else L_of(X.sgrp)
    _, E = _read_site(L, "L", X.sgrp)
    return _fiber_presheaf(L, X.base, X.anchor[None, :] == E[:, None])


def _etale_of_fibers(P: Presheaf, kind: str, tag: str) -> EtaleAction:
    """Etale action on the disjoint union of the fibers of P over L(S) or C(S).

    The point i over e moves under s along the site morphism from s*es to e
    labelled es: payload (e, es) in L(S), (e, es, s*es) in C(S).
    """
    site = P.site
    S, E = _read_site(site, kind)
    (obj, idx), values, map_off = P.elements, P.values, P.map_off
    e = E[obj][:, None]
    es = S.table[e, np.arange(len(S))]
    d = conjugates(S, e[:, 0])                      # d = s*es, the object of dom m
    m = site.mor_of(e, es, d) if kind == "C" else site.mor_of(e, es)
    # P(m)(i), or -1 past the end of a map shorter than its codomain fiber
    inside = idx[:, None] < np.diff(map_off)[m]
    value = np.append(values, -1)[np.where(inside, map_off[m] + idx[:, None], -1)]
    act = positions((obj, idx), (site.dom[m], value), lambda at: InvariantBroken(
        "a presheaf map leaves the fiber over its domain",
        witness=((int(obj[at[0]]), int(idx[at[0]])), at[1])))
    pts = tuple(zip(obj.tolist(), idx.tolist()))
    names = tuple(f"{site.objects[o]}#{P.fibers[o][i]}" for (o, i) in pts)
    base = RightAction(names, S, act, {"kind": tag, "pairs": pts})
    return EtaleAction(base, e[:, 0])


def etale_of_presheaf(P: Presheaf) -> EtaleAction:
    """Total space of the fiber map, with the anchor remembering the fiber."""
    return _etale_of_fibers(P, "L", "etale_of_presheaf")


# -- Q and its left adjoint ----------------------------------------------------

def Q_of(X: RightAction, site: FiniteCategory = None) -> Presheaf:
    """Q(X)(e) = Xe with transitions x . (e,s,f) = xs; needs X closed."""
    if not is_closed(X):
        raise NotClosed()
    C = site if site is not None else C_of(X.sgrp)
    _, E = _read_site(C, "C", X.sgrp)
    return _fiber_presheaf(C, X, X.act[:, E].T == np.arange(len(X)))


@dataclass(eq=False)
class ColimitActionResult:
    """Q_!(P) with its unit P -> Q(Q_!(P)) as an array.

    points[k] is the image of element k of P, in (o, i) order; origin[w] is
    the element of P under the least node of point w; elements is
    `P.elements`, the (obj, idx) arrays of that order.
    """
    action: RightAction
    points: np.ndarray
    origin: np.ndarray
    elements: tuple = field(repr=False)

    @cached_property
    def unit(self) -> dict:
        """(object index of site, fiber element index) -> carrier point."""
        obj, idx = self.elements
        return dict(zip(zip(obj.tolist(), idx.tolist()), self.points.tolist()))


def q_shriek_with_unit(P: Presheaf) -> ColimitActionResult:
    """Colimit of eS over the category of elements of P, read off P directly.

    A node is a pair (element i of P(o), u in eS) for e the idempotent of o,
    numbered node_off[o] + i * |eS| + (rank of u in eS), which is the
    (element, u) order.  Each site morphism a: f -> e joins
    (i, au) to (P(a)(i), u) for every i in P(e) and u in fS.  The edges come
    in (a, i, rank of u) order from one pass over the entries (a, i) of the
    flat maps; the rank of au in eS depends on (a, u) alone and is read from
    a table with one row per morphism.

    The class action is an action whatever the maps of P are, so it is not
    checked: the edge (i, au) ~ (P(a)(i), u) gives, for t in S, the edge
    (i, aut) ~ (P(a)(i), ut) of the same morphism, since ut lies in fS.  The
    components are therefore a right congruence, and acting on classes by
    acting on a node is well defined and satisfies the action law.
    """
    C = P.site
    S, Ea = _read_site(C, "C")
    tab = S.table
    ideal = S.cauchy.below                     # ideal[o, u]: u in eS
    rank = np.cumsum(ideal, axis=1) - 1        # rank of u in eS
    elt = np.argsort(~ideal, axis=1, kind="stable")  # elt[o, rank] = u
    size = ideal.sum(axis=1)
    (obj, idx), fib_off, flat, map_off = P.elements, P.fib_off, P.values, P.map_off
    nfib = np.diff(fib_off)
    node_off = np.concatenate([[0], np.cumsum(nfib * size)])
    co, do = C.cod, C.dom
    # rank of au in eS for each site morphism a: f -> e and u in fS, at
    # au_off[a] + (rank of u in fS)
    m, r = ragged(size[do])
    au_off = np.concatenate([[0], np.cumsum(size[do])])
    au = rank[co[m], tab[C._payload_array[m, 1], elt[do[m], r]]]
    # the edges of entry (m, i) of the maps, one per rank r of u in fS
    m, i = ragged(nfib[co])
    a_base = node_off[co[m]] + i * size[co[m]]
    b_base = node_off[do[m]] + flat[map_off[m] + i] * size[do[m]]
    entry, r = ragged(size[do[m]])
    a = a_base[entry] + au[au_off[m][entry] + r]
    b = b_base[entry] + r
    # the per-edge temporaries go before the components pass, the peak
    del entry, r
    n = int(node_off[-1])
    root, cls = components(n, a, b)
    reps = np.flatnonzero(root == np.arange(n))
    o = np.searchsorted(node_off, reps, side="right") - 1
    i, j = np.divmod(reps - node_off[o], size[o])
    base = node_off[o] + i * size[o]
    act = cls[base[:, None] + rank[o[:, None], tab[elt[o, j]]]]
    X = RightAction(tuple(f"q{c}" for c in range(len(reps))), S, act,
                    {"kind": "q_shriek"})
    unit = cls[node_off[obj] + idx * size[obj] + rank[obj, Ea[obj]]]
    return ColimitActionResult(X, unit, fib_off[o] + i, P.elements)


def Q_shriek(P: Presheaf) -> RightAction:
    """Q_!(P), after checking that the maps of P are a presheaf on its site."""
    if not check_presheaf(P):
        raise InvariantBroken("Q_! needs a presheaf: the maps are not functorial")
    res = q_shriek_with_unit(P)
    if not is_closed(res.action):
        raise InvariantBroken("colimit of closed actions must be closed")
    return res.action


def coproduct_presheaf(site: FiniteCategory, parts) -> Presheaf:
    """The disjoint union of presheaves on one site, part by part in each fiber.

    Each part's values are shifted past the earlier parts' fibers over dom m;
    the entries, read as runs in (part, m, i) order, are put in (m, part, i)
    order by one stable sort on m, which is the flat form of the union.  A
    value outside its fiber would land in another part once shifted, so it
    raises `InvariantBroken` naming its morphism.
    """
    parts = list(parts)
    for P in parts:
        if P.out_of_fiber is not None:
            raise InvariantBroken("a presheaf map leaves the fiber over its domain",
                                  witness=P.out_of_fiber)
    off = np.array([P.fib_off for P in parts], dtype=np.int64)
    off = off.reshape(len(parts), site.n_objects + 1)
    nfib = off[:, 1:] - off[:, :-1]
    shift = np.cumsum(nfib, axis=0) - nfib    # the earlier parts' fibers over o
    lens = np.array([np.diff(P.map_off) for P in parts], dtype=np.int64)
    lens = lens.reshape(len(parts), site.n_mor)
    part, m = np.divmod(ragged(lens.ravel())[0], site.n_mor)
    vals = np.concatenate([P.values for P in parts] + [np.zeros(0, dtype=np.int64)])
    vals = (vals + shift[part, site.dom[m]])[np.argsort(m, kind="stable")]
    fibers = tuple(tuple(f"c{k}_{lbl}" for k, P in enumerate(parts) for lbl in P.fibers[o])
                   for o in range(site.n_objects))
    return Presheaf.from_flat(site, fibers, vals,
                              np.concatenate([[0], np.cumsum(lens.sum(axis=0))]))


# the most colimit edges one pass of `unit_iso_checks` joins: the pass's
# arrays grow with them, and a presheaf with more is a pass of its own
_PASS_EDGES = 2**20


def unit_iso_checks(presheaves) -> list:
    """`unit_iso_check` of each presheaf on one site C(S), one colimit per pass.

    A pass runs `q_shriek_with_unit` once on the coproduct of consecutive
    presheaves, with at most _PASS_EDGES colimit edges between them.  No
    edge crosses parts: an edge joins a node over element i of P(e) to a
    node over P(a)(i), and the coproduct keeps P(a)(i) in i's part
    (`coproduct_presheaf` refuses values outside their fibers).  So each
    point of the colimit lies over exactly one part, the colimit is the
    coproduct of the parts' colimits, and the unit of the coproduct is the
    unit of each part.  A part passes exactly when no point over it fails
    the test of `unit_iso_check`.
    """
    presheaves = list(presheaves)
    if not presheaves:
        return []
    C = presheaves[0].site
    S, Ea = _read_site(C, "C")
    if any(P.site is not C for P in presheaves):
        raise WrongSite("unit checks in one pass need a common site")
    size = S.cauchy.below.sum(axis=1)
    # P joins |P(e)| * |fS| edges for each site morphism f -> e
    edges = (np.diff([P.fib_off for P in presheaves], axis=1)[:, C.cod] * size[C.dom]).sum(1)
    passes, total = [[]], 0
    for P, k in zip(presheaves, edges.tolist()):
        if passes[-1] and total + k > _PASS_EDGES:
            passes.append([])
            total = 0
        passes[-1].append(P)
        total += k
    return [v for parts in passes for v in _unit_iso_pass(C, Ea, parts)]


def _unit_iso_pass(C: FiniteCategory, Ea, parts) -> list:
    """The verdicts of `unit_iso_checks` on parts, from one colimit."""
    res = q_shriek_with_unit(coproduct_presheaf(C, parts))
    X, unit = res.action, res.points
    n = len(X)
    hits = np.bincount(res.elements[0] * n + unit, minlength=C.n_objects * n)
    bad = (hits.reshape(C.n_objects, n) != (X.act[:, Ea].T == np.arange(n))).any(axis=0)
    # the coproduct's elements run over (o, part, i)
    part = ragged(np.diff([P.fib_off for P in parts], axis=1).T.ravel())[0] % len(parts)
    return (np.bincount(part[res.origin[bad]], minlength=len(parts)) == 0).tolist()


def unit_iso_check(P: Presheaf) -> bool:
    """The unit P -> Q(Q_!(P)) is a natural bijection.

    Bijective onto each Xe: over every object o with idempotent e, each
    point w is hit by the unit exactly as often as the mask we = w says
    (once or never).  This is the one-presheaf case of `unit_iso_checks`.

    Naturality holds by construction and is not tested: for a site
    morphism m with payload (e, s, f), the colimit edge of m at u = f joins
    (i, sf) = (i, s) to (P(m)(i), f), so unit(P(m)(i)) = [P(m)(i), f] =
    [i, s] = unit(i) . s for every i in P(e).
    """
    return unit_iso_checks([P])[0]


# -- maps between actions and presheaves, by one orbit search -------------------

def _orbit_maps(n: int, orbit, values, budget: int, search: str):
    """Every map f on range(n) that the orbit constraints allow, as arrays.

    The search of `_util.orbit_levels`, walked depth first for a caller
    whose candidates depend on the map so far: values(x0, f) has one row
    per candidate, and f is the partial map (-1 where unassigned); it is
    only read.  All rows of one node are tested in one array pass, each
    orbit is one level, and each row kept is one placement of
    `_util.depth_first`.
    """
    f = np.full(n, -1, dtype=np.int64)

    def level(x0):
        pts, value = orbit(x0), values(x0, f)
        cols = (pts[:, None] == pts).argmax(axis=1)  # first column with each point
        before = f[pts]
        ok = ((value == value[:, cols]).all(axis=1)
              & ((before < 0) | (value == before)).all(axis=1))
        new = pts[before < 0]
        for y in np.flatnonzero(ok).tolist():
            f[pts] = value[y]
            yield
            f[new] = -1

    def next_level(_depth):
        free = f < 0
        return level(int(free.argmax())) if free.any() else None

    for _ in depth_first(next_level, budget, search):
        yield f.copy()


def _orbit_table(X: RightAction) -> np.ndarray:
    """Row x is the orbit [x, *x.S] of x, in the order of the elements of S."""
    return np.concatenate((np.arange(len(X))[:, None], X.act), axis=1)


def action_homs(X: RightAction, Y: RightAction, budget: int = DEFAULT_BUDGET) -> list:
    """All equivariant maps X -> Y, as tuples, by backtracking over orbits.

    Choosing f(x0) = y fixes f on the whole orbit x0 u x0.S at once:
    f(x0.s) = y.s for every s, read from X.act[x0] and Y.act[y].  The orbit
    is closed under the action, (x0.s).t = x0.(st), and on it the law
    f(x0.s).t = (y.s).t = y.(st) = f(x0.(st)) already holds, so propagating
    further from x0.s, one point and one s at a time, would assign nothing
    new: on valid actions this finds the same maps.  The candidates are the
    same rows for every x0, so the search runs one level at a time, by
    `_util.orbit_levels`, under `budget` placements.
    """
    if X.sgrp is not Y.sgrp:
        raise ValueError("homs need a common semigroup")
    value = _orbit_table(Y)
    maps = orbit_levels(len(X), _orbit_table(X).__getitem__, lambda _x0: value, budget,
                        f"hom search between actions of {len(X)} and {len(Y)} points")
    return sorted(map(tuple, maps.tolist()))


def presheaf_nats(P1: Presheaf, P2: Presheaf, budget: int = DEFAULT_BUDGET) -> list:
    """All natural transformations P1 -> P2 over a common site, as tuples.

    alpha maps the elements of P1, in the (o, i) order of `P1.elements`, to
    indices into the fibers of P2.  Choosing alpha_b(i) = y fixes alpha on
    the orbit of (b, i): the elements (dom m, P1(m)(i)) over the m with
    cod m = b, (b, i) itself by the identity, take the values P2(m)(y), as
    naturality along m demands.  When P1 and P2 are functorial, as Q(X)
    and Q(Y) are, that is all of naturality: a point (a, j) =
    (dom m0, P1(m0)(i)) of the orbit gets P2(m0)(y), and for each m with
    cod m = a the point (dom m, P1(m)(j)) = (dom m0.m, P1(m0.m)(i)) lies in
    the same orbit with the value P2(m0.m)(y) = P2(m)(P2(m0)(y)), so
    naturality at (a, j) already holds.  A point reached from two orbits
    is forced to one value by the agreement test of `_util.orbit_levels`,
    which runs under `budget` placements.
    """
    C = P1.site
    if P2.site is not C:
        raise WrongSite("natural transformations need a common site")
    (obj, idx), off1, flat1, moff1 = P1.elements, P1.fib_off, P1.values, P1.map_off
    off2, flat2, moff2 = P2.fib_off, P2.values, P2.map_off
    into = np.argsort(C.cod, kind="stable")      # the morphisms into each object
    cut = np.searchsorted(C.cod[into], np.arange(C.n_objects + 1))

    def orbit(k):
        m = into[cut[obj[k]]:cut[obj[k] + 1]]
        return off1[C.dom[m]] + flat1[moff1[m] + idx[k]]

    def values(k):
        b = obj[k]
        m = into[cut[b]:cut[b + 1]]
        return off2[C.dom[m]] + flat2[moff2[m] + np.arange(off2[b + 1] - off2[b])[:, None]]

    shift = off2[obj]
    search = (f"natural transformation search between presheaves of {len(obj)}"
              f" and {int(off2[-1])} elements")
    maps = orbit_levels(len(obj), orbit, values, budget, search)
    return sorted(map(tuple, (maps - shift).tolist()))


def fullness_faithfulness_check(X: RightAction, Y: RightAction,
                                PX: Presheaf, PY: Presheaf, budget: int = DEFAULT_BUDGET) -> bool:
    """hom(X, Y) and Nat(Q(X), Q(Y)) match bijectively under restriction.

    PX and PY are Q(X) and Q(Y) on C(S); the caller builds each once,
    however many pairs it checks.  Every hom is restricted by one gather
    over (hom, element of PX); Q(Y) numbers the points of each Ye in
    increasing order, so the index of y in its fiber is a running count.
    Both searches run under `budget` placements each.
    """
    _, E = _read_site(PX.site, "C")
    homs = action_homs(X, Y, budget)
    nats = presheaf_nats(PX, PY, budget)
    if len(homs) != len(nats):
        return False
    obj = PX.elements[0]
    x = np.array([x for pts in PX.pts for x in pts], dtype=np.int64)
    y = np.array(homs, dtype=np.int64).reshape(len(homs), len(X))[:, x]
    member = Y.act[:, E].T == np.arange(len(Y))  # Ye
    bad = np.argwhere(~member[obj, y])
    if bad.size:
        h, k = bad[0]
        raise InvariantBroken("hom does not map Xe into Ye",
                              witness=(int(obj[k]), int(y[h, k])))
    rank = np.cumsum(member, axis=1) - 1
    restricted = set(map(tuple, rank[obj, y].tolist()))
    return len(restricted) == len(homs) and restricted == set(nats)


def action_isomorphic(X: RightAction, Y: RightAction, budget: int = DEFAULT_BUDGET):
    """An equivariant bijection X -> Y as a list, or None.

    The orbit search of `action_homs`, offered only the rows y that keep
    the map injective: one value per point of the orbit of x0, none of them
    taken by an earlier orbit.  With |X| = |Y| every map it finds is then a
    bijection, and the first one is returned.  The search runs under
    `budget` placements.
    """
    if X.sgrp is not Y.sgrp or len(X) != len(Y):
        return None
    orbit, value = _orbit_table(X), _orbit_table(Y)
    # a row that gives each point one value is injective on the orbit when
    # it has as many distinct values as the orbit has points
    srt = np.sort(value, axis=1)
    distinct = 1 + (srt[:, 1:] != srt[:, :-1]).sum(axis=1)

    def values(x0, f):
        taken = np.zeros(len(Y), dtype=bool)
        taken[f[f >= 0]] = True
        pts = orbit[x0]
        return value[(distinct == len(np.unique(pts)))
                     & ~taken[value[:, f[pts] < 0]].any(axis=1)]

    search = f"isomorphism search between actions of {len(X)} points"
    f = next(_orbit_maps(len(X), orbit.__getitem__, values, budget, search), None)
    return None if f is None else f.tolist()


def is_indecomposable(X: RightAction) -> bool:
    """No splitting as a coproduct of two proper subactions."""
    n = len(X)
    if n == 0:
        return False
    _root, cls = components(n, np.repeat(np.arange(n), len(X.sgrp)), X.act)
    return bool(cls.max() == 0)


def indecomposable_projective_check(X: RightAction):
    """The idempotent e with X isomorphic to eS, if one exists."""
    if not is_closed(X):
        raise NotClosed()
    for e in idempotents(X.sgrp):
        if action_isomorphic(X, principal_action(X.sgrp, e)) is not None:
            return e
    return None


# -- I* and I_! -----------------------------------------------------------------

def I_star(P: Presheaf) -> EtaleAction:
    """Etale action on the disjoint union of the fibers of P over C(S)."""
    return _etale_of_fibers(P, "C", "I_star")


@dataclass(eq=False)
class IShriekResult:
    presheaf: Presheaf
    beta: tuple  # per site object: dict fiber-index -> point of X (the Xe bijection)


def i_shriek_with_maps(X: EtaleAction, site: FiniteCategory = None) -> IShriekResult:
    """I_!(p)(e) as the colimit of x -> C(S)(e, p(x)) over the element category.

    The category has the points of X as objects and, as morphisms x -> y,
    the elements s with p(y)s = s, s*s = p(x) and ys = x, read as site
    morphisms s: p(x) -> p(y).  A node (e, x, n) has n in C(S)(e, p(x)) and
    is numbered in (e, x, rank of n in its hom-set) order; s joins (e, x, n)
    to (e, y, s.n).  One `components` pass per site object e, which bounds
    the peak, gives the fiber over e; beta sends a class to x.t in Xe, for
    n = (p(x), t, e), and a class with two such points means X is no action.

    The transition along m: d -> c sends the class of (c, x, n) to that of
    (d, x, n.m), read at the class representatives in one gather over (m,
    class over c), the flat form.  It is well defined as C(S) is a
    category: the edge (x, n) ~ (y, s.n) over c, precomposed with m, is the
    edge (x, n.m) ~ (y, s.(n.m)) over d.
    """
    C = site if site is not None else C_of(X.sgrp)
    S, E = _read_site(C, "C", X.sgrp)
    k, n, F = C.n_objects, len(X), S.cauchy
    act, anchor = X.base.act, X.anchor
    px = positions(E, anchor, lambda at: InvariantBroken(
        "an anchor is not an idempotent", witness=at[0]))
    # morphisms x -> y of the indexing category, with their site morphisms:
    # p(y)s = s and s*s = p(ys)
    ys, ss = np.nonzero(F.below[px] & (px[act] == F.d))
    xs = act[ys, ss]
    smor = C.mor_of(anchor[ys], ss, anchor[xs])
    order, start = C._hom_index
    hom_pos = np.empty(C.n_mor, dtype=np.int64)    # each morphism's rank in its hom-set
    hom_pos[order] = np.arange(C.n_mor) - start[C.dom[order] * k + C.cod[order]]
    hl = C.hom_sizes()[:, px]                       # hl[e, x] = |C(S)(e, p(x))|
    node_off = np.concatenate([[0], np.cumsum(hl)])
    first = node_off[:-1].reshape(k, n)             # the node (e, x, rank 0)
    ex, r = ragged(hl.ravel())
    node_e, node_x = np.divmod(ex, n)
    node_n = order[start[node_e * k + px[node_x]] + r]
    root = np.empty_like(ex)                        # the least node of each class
    for e in range(k):
        lo, hi = node_off[e * n], node_off[e * n + n]
        t, pos = ragged(hl[e, xs])
        a = first[e, xs[t]] - lo + pos
        b = first[e, ys[t]] - lo + hom_pos[C.comp[smor[t], node_n[lo:hi][a]]]
        del t, pos              # freed before `components`, the peak
        root[lo:hi] = lo + components(hi - lo, a, b)[0]
    val = act[node_x, C._payload_array[node_n, 1]]
    if not np.array_equal(val, val[root]):
        raise InvariantBroken("colimit class maps to several points of Xe")
    reps = np.flatnonzero(root == np.arange(len(root)))
    nfib = np.bincount(node_e[reps], minlength=k)
    fib_off = np.concatenate([[0], np.cumsum(nfib)])
    m, i = ragged(nfib[C.cod])
    w, d = reps[fib_off[C.cod[m]] + i], C.dom[m]    # the least node of class (cod m, i)
    y = first[d, node_x[w]] + hom_pos[C.comp[node_n[w], m]]    # the node (d, x, n.m)
    values = reps.searchsorted(root[y]) - fib_off[d]
    betas = tuple(dict(enumerate(val[reps[a:b]].tolist())) for a, b in zip(fib_off, fib_off[1:]))
    labels = tuple(tuple(f"i{c}" for c in range(len(b))) for b in betas)
    P = Presheaf.from_flat(C, labels, values, np.concatenate([[0], np.cumsum(nfib[C.cod])]))
    return IShriekResult(P, betas)


def I_shriek(X: EtaleAction, site: FiniteCategory = None) -> Presheaf:
    return i_shriek_with_maps(X, site).presheaf
