"""Finite semigroups as dense multiplication tables.

Elements are the indices 0..n-1; names are display-only.  An inverse
semigroup additionally stores the array of unique inverses (``star``).
All structures are immutable after construction and every operation here
is pure.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations

import numpy as np

from ._util import failures, inverse_relation, positions
from .errors import (
    IdempotentsDontCommute,
    InvariantBroken,
    NonUniqueInverse,
    NotASubsemigroup,
    NotRegular,
    SizeLimit,
)


@dataclass(eq=False)
class FiniteSemigroup:
    names: tuple
    table: np.ndarray

    def __post_init__(self):
        self.names = tuple(self.names)
        tab = np.ascontiguousarray(self.table, dtype=np.int64)
        tab.setflags(write=False)
        self.table = tab
        n = len(self.names)
        if tab.shape != (n, n):
            raise ValueError(f"table shape {tab.shape} does not match n={n}")
        if n and (tab.min() < 0 or tab.max() >= n):
            raise ValueError("table entries out of range")

    def __len__(self):
        return len(self.names)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def index(self, name: str) -> int:
        return self.names.index(name)

    @cached_property
    def cauchy(self):
        """`cauchy(self.table)`, derived once: the table is read-only."""
        return cauchy(self.table)

    @cached_property
    def _local_unit_flags(self):
        """`local_unit_flags(self)`, computed once: the table is read-only."""
        return _unit_flags(self)

    def __repr__(self):
        return f"{type(self).__name__}(n={len(self)})"


@dataclass(eq=False, repr=False)
class InverseSemigroup(FiniteSemigroup):
    star: np.ndarray = field(default=None)

    def __post_init__(self):
        super().__post_init__()
        st = np.ascontiguousarray(self.star, dtype=np.int64)
        st.setflags(write=False)
        self.star = st
        if st.shape != (len(self),):
            raise ValueError("star must map every element")

    def inv(self, s: int) -> int:
        return int(self.star[s])

    @cached_property
    def cauchy(self):
        """`cauchy(self.table, self.star)`, with d and r, derived once."""
        return cauchy(self.table, self.star)


def assoc_witness(S: FiniteSemigroup):
    """First triple (i, j, k) with (ij)k != i(jk), or None.

    Associativity is the action law of S on itself.
    """
    return _action_law_witness(S.table, S.table)


def _action_law_witness(act, table):
    """First (x, s, t), in C order, with (xs)t != x(st), or None.

    act[x, s] is xs and table[s, t] is st; one `failures` block of points at
    a time.
    """
    ns = table.shape[0]
    return next(failures(act.shape[0], ns * ns,
                         lambda r: act[act[r]] != act[r][:, table]), None)


Factorisation = namedtuple("Factorisation", "E obj below above d r", defaults=(None, None))


def cauchy(tab, star=None) -> Factorisation:
    """The factorisation of a table, total or partial (-1 where undefined),
    behind its Cauchy completion C(S), the splitting of its idempotents.

    E holds the idempotents ascending, the objects of L, C and G; obj[s] is
    the object of s, or -1 off E; below[o, s] says E[o]s = s, so row o is
    the ideal E[o]S, and above[o, s] says sE[o] = s.  Given the unique
    inverses star, d[s] and r[s] are the objects of s*s and ss*.  Every
    array is read-only, so a structure keeps one copy.
    """
    ar = np.arange(len(tab))
    E = np.flatnonzero(np.diagonal(tab) == ar)
    obj = np.full(len(tab), -1, dtype=np.int64)
    obj[E] = np.arange(len(E))
    fields = [E, obj, tab[E] == ar, tab[:, E].T == ar]
    if star is not None:
        fields += [obj[tab[star, ar]], obj[tab[ar, star]]]
    for a in fields:
        a.setflags(write=False)
    return Factorisation(*fields)


def idempotents(S: FiniteSemigroup) -> list:
    return S.cauchy.E.tolist()


def as_inverse(S: FiniteSemigroup) -> InverseSemigroup:
    """Check S is inverse (regular with commuting idempotents) and attach star.

    Witnesses are reported for the first failure in index order.
    """
    if isinstance(S, InverseSemigroup):
        return S
    tab = S.table
    inv = inverse_relation(tab)                        # t is an inverse of s
    count = inv.sum(axis=1)
    if (count == 0).any():
        s = int(np.argmax(count == 0))
        raise NotRegular(f"element {S.names[s]} has no inverse", witness=s)
    E = np.flatnonzero(np.diagonal(tab) == np.arange(len(tab)))
    ef = tab[np.ix_(E, E)]
    bad = np.argwhere(np.triu(ef != ef.T, 1))     # row-major: the least (e, f), e < f
    if bad.size:
        e, f = E[bad[0]].tolist()
        raise IdempotentsDontCommute(
            f"{S.names[e]} and {S.names[f]} do not commute", witness=(e, f)
        )
    if (count != 1).any():
        # reachable only for a table that is not associative
        s = int(np.argmax(count != 1))
        raise NonUniqueInverse(f"element {S.names[s]}",
                               witness=(s, tuple(np.flatnonzero(inv[s]).tolist())))
    return InverseSemigroup(S.names, S.table, np.argmax(inv, axis=1))


def conjugates(S: InverseSemigroup, e) -> np.ndarray:
    """[..., s]: s*es for each idempotent in the array e, as the anchor rule
    p(xs) = s*p(x)s of an etale action reads it."""
    tab = S.table
    return tab[tab[S.star, np.asarray(e)[..., None]], np.arange(len(S))]


def natural_order(tab, star) -> np.ndarray:
    """leq[a, b]: a <= b in the natural partial order, i.e. b(a*a) = a.

    tab may be partial (-1 where undefined), with unique inverses star.
    """
    ar = np.arange(len(tab))
    return tab[:, tab[star, ar]].T == ar[:, None]


@dataclass(frozen=True)
class LocalUnitFlags:
    right_local_units: bool
    left_local_units: bool
    local_units: bool
    sandwich: bool


def _product_set(table, A, B):
    """The distinct defined products ab, a in A and b in B, ascending; a
    partial table marks an undefined product -1."""
    ab = table[np.ix_(A, B)]
    return np.unique(ab[ab >= 0])


def enlargement_identities(table, A) -> tuple:
    """The enlargement identities (ATA = A, TAT = T) as product sets, for an
    ascending subset A of the elements T of a table, partial (-1) or not."""
    T = np.arange(len(table))
    return (np.array_equal(_product_set(table, _product_set(table, A, T), A), A),
            _product_set(table, _product_set(table, T, A), T).size == len(T))


def local_unit_flags(S: FiniteSemigroup) -> LocalUnitFlags:
    """SE(S)=S, E(S)S=S, both, and the sandwich condition SE(S)S=S."""
    return S._local_unit_flags


def _unit_flags(S: FiniteSemigroup) -> LocalUnitFlags:
    """s = te gives se = s, so SE(S) is the s with se = s for some e: the
    columns of `above` that hold a True; E(S)S likewise from `below`."""
    F = S.cauchy
    SE = np.flatnonzero(F.above.any(axis=0))
    right = SE.size == len(S)
    left = bool(F.below.any(axis=0).all())
    SES = _product_set(S.table, SE, np.arange(len(S)))
    return LocalUnitFlags(right, left, right and left, SES.size == len(S))


def _member_mask(n, subset):
    """[a]: a lies in subset; None when subset holds an int outside range(n)."""
    A = np.array([int(a) for a in subset], dtype=np.int64)
    if A.size and (A.min() < 0 or A.max() >= n):
        return None
    inside = np.zeros(n, dtype=bool)
    inside[A] = True
    return inside


def is_subsemigroup(S: FiniteSemigroup, subset) -> bool:
    inside = _member_mask(len(S), subset)
    if inside is None:
        return False
    A = np.flatnonzero(inside)
    return bool(A.size) and bool(inside[S.table[np.ix_(A, A)]].all())


def is_semigroup_enlargement(T: FiniteSemigroup, subset) -> bool:
    """True iff S = STS and T = TST (as product sets) for the subsemigroup S."""
    A = sorted(set(int(a) for a in subset))
    if not is_subsemigroup(T, A):
        raise NotASubsemigroup(witness=tuple(A))
    return all(enlargement_identities(T.table, A))


def is_locally_E_unitary(S: InverseSemigroup) -> bool:
    """Every local submonoid eSe is E-unitary.

    Checks: for all e in E(S), s with ese = s, and idempotent d in eSe
    with d <= s, s must itself be idempotent.
    """
    F = S.cauchy
    local = F.below & F.above                                    # [e, s]: ese = s
    low = local[:, F.E] @ natural_order(S.table, S.star)[F.E]    # [e, s]: some d <= s in eSe
    return not (local & low & (F.obj < 0)).any()


def restrict(S: FiniteSemigroup, subset):
    """Subsemigroup on `subset` re-indexed densely.

    Returns (semigroup, old_of_new) where old_of_new[i] is the ambient index.
    """
    A = sorted(set(int(a) for a in subset))
    if not is_subsemigroup(S, A):
        raise NotASubsemigroup(witness=tuple(A))
    tab = positions(np.array(A), S.table[np.ix_(A, A)],
                    lambda _at: NotASubsemigroup(witness=tuple(A)))
    names = tuple(S.names[a] for a in A)
    return FiniteSemigroup(names, tab), A


def restrict_inverse(S: FiniteSemigroup, subset):
    """Like restrict() but checks the result is inverse on its own."""
    sub, old = restrict(S, subset)
    return as_inverse(sub), old


def subsemigroup_closure(S: FiniteSemigroup, seeds, star_closed: bool = False):
    """Smallest multiplication-closed subset containing seeds (sorted)."""
    inside = _member_mask(len(S), seeds)
    if inside is None:
        raise ValueError("seeds must be elements of S")
    if star_closed:
        if not isinstance(S, InverseSemigroup):
            raise ValueError("star closure needs an InverseSemigroup")
        inside[S.star[inside]] = True
    while True:
        A = np.flatnonzero(inside)
        new = inside.copy()
        new[S.table[np.ix_(A, A)]] = True
        if star_closed:
            new[S.star[new]] = True
        if np.array_equal(new, inside):
            return A.tolist()
        inside = new


# -- builders ----------------------------------------------------------------

_SIZE_CAP = 10_000


def cyclic_group(n: int) -> InverseSemigroup:
    if n < 1:
        raise SizeLimit("n must be >= 1")
    names = tuple(f"g{i}" for i in range(n))
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    star = (-idx) % n
    return InverseSemigroup(names, table, star)


def chain_semilattice(n: int) -> InverseSemigroup:
    """Chain e0 > e1 > ... > e(n-1) with meet as product."""
    if n < 1:
        raise SizeLimit("n must be >= 1")
    names = tuple(f"e{i}" for i in range(n))
    idx = np.arange(n)
    table = np.maximum(idx[:, None], idx[None, :])
    return InverseSemigroup(names, table, idx.copy())


def brandt(G: InverseSemigroup, k: int) -> InverseSemigroup:
    """Brandt semigroup over the group G: (i,g,j)(j,h,l) = (i,gh,l), else 0."""
    if k < 1:
        raise SizeLimit("k must be >= 1")
    if len(idempotents(G)) != 1:
        raise ValueError("brandt() needs a group")
    m = len(G)
    n = k * k * m + 1
    if n > _SIZE_CAP:
        raise SizeLimit(f"brandt size {n} exceeds cap {_SIZE_CAP}")
    # the elements (i, g, j), 0-based i and j, fill the grid (k, m, k) in C
    # order, so `np.ravel_multi_index` of its entries numbers each one
    grid = (k, m, k)
    i, g, j = np.unravel_index(np.arange(n - 1), grid)
    names = [f"({a + 1},{b + 1})" if m == 1 else f"({a + 1},{G.names[h]},{b + 1})"
             for a, h, b in zip(i.tolist(), g.tolist(), j.tolist())]
    zero = n - 1
    table = np.full((n, n), zero, dtype=np.int64)
    # (i, g, j)(p, h, q) = (i, gh, q) when j = p
    table[:zero, :zero] = np.where(
        j[:, None] == i, np.ravel_multi_index((i[:, None], G.table[g[:, None], g], j), grid),
        zero)
    star = np.append(np.ravel_multi_index((j, G.star[g], i), grid), zero)
    return InverseSemigroup(tuple(names) + ("0",), table, star)


def group_with_zero(G: InverseSemigroup) -> InverseSemigroup:
    if len(idempotents(G)) != 1:
        raise ValueError("group_with_zero() needs a group")
    m = len(G)
    n = m + 1
    table = np.full((n, n), m, dtype=np.int64)
    table[:m, :m] = G.table
    star = np.concatenate([G.star, [m]])
    return InverseSemigroup(tuple(G.names) + ("0",), table, star)


def _partial_injections(n: int) -> np.ndarray:
    """Row r is the r-th partial injection f of range(n) in (domain, image)
    order: f[x] is the image of x, -1 off the domain."""
    elems = sorted((dom, img) for k in range(n + 1) for dom in combinations(range(n), k)
                   for img in permutations(range(n), k))
    f = np.full((len(elems), n), -1, dtype=np.int64)
    for r, (dom, img) in enumerate(elems):
        f[r, list(dom)] = img
    return f


def symmetric_inverse_monoid(n: int) -> InverseSemigroup:
    """All partial injections on n points; product is 'apply left, then right'."""
    if n < 1:
        raise SizeLimit("n must be >= 1")
    if n > 4:
        raise SizeLimit("symmetric_inverse_monoid is capped at n=4")
    f = _partial_injections(n)
    m = len(f)
    weight = (n + 1) ** np.arange(n)   # a map f has the key (f + 1) @ weight
    keys = (f + 1) @ weight
    # [a, b]: the key of f_a then f_b, one (m, m) term per point x; column n
    # of `image` is -1, so an undefined f_a[x] stays undefined
    image = np.concatenate([f, np.full((m, 1), -1, dtype=np.int64)], axis=1)
    then = sum(weight[x] * (image[:, f[:, x]].T + 1) for x in range(n))
    rows, x = np.nonzero(f >= 0)
    back = np.full((m, n), -1, dtype=np.int64)
    back[rows, f[rows, x]] = x

    def position(k):
        return positions(keys, k, lambda _at: InvariantBroken(
            "partial injections do not compose to one"))

    names = ["_".join(f"{x}to{y}" for x, y in enumerate(row) if y != -1) or "nil"
             for row in f.tolist()]
    return InverseSemigroup(tuple(names), position(then), position((back + 1) @ weight))
