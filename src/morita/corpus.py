"""The builtin corpus, curated expectations, and seeded sample generators.

Everything randomized takes an explicit random.Random so corpus sweeps,
the CLI, and the acceptance suite are reproducible bit for bit.
"""

import random

import numpy as np

from ._util import congruence, ragged
from .actions import (
    Presheaf,
    R_of,
    coproduct_action,
    coproduct_presheaf,
    empty_action,
    munn_action,
    principal_action,
    principal_etale,
    quotient_action,
    regular_action,
)
from .errors import InvariantBroken, MoritaError
from .semigroups import (
    FiniteSemigroup,
    InverseSemigroup,
    as_inverse,
    assoc_witness,
    brandt,
    chain_semilattice,
    cyclic_group,
    group_with_zero,
    idempotents,
    restrict_inverse,
    subsemigroup_closure,
    symmetric_inverse_monoid,
)


def builtin_corpus() -> list:
    """(name, semigroup) pairs; all inverse."""
    out = []
    for k in range(1, 7):
        out.append((f"cyclic{k}", cyclic_group(k)))
    for k in range(1, 5):
        out.append((f"chain{k}", chain_semilattice(k)))
    for k in (1, 2, 3):
        out.append((f"brandt_1_{k}", brandt(cyclic_group(1), k)))
    out.append(("brandt_c2_2", brandt(cyclic_group(2), 2)))
    out.append(("c2_zero", group_with_zero(cyclic_group(2))))
    for k in (1, 2):
        out.append((f"syminv{k}", symmetric_inverse_monoid(k)))
    return out


def corpus_by_name() -> dict:
    return dict(builtin_corpus())


def expected_morita_pairs() -> list:
    """(name_a, name_b, expected, provenance) for the curated pairs."""
    pairs = [
        ("brandt_1_2", "brandt_1_3", True, "matrix-type over the same group"),
        ("brandt_1_2", "chain2", True, "enlargement of the local submonoid e11Te11"),
        ("brandt_1_3", "chain2", True, "enlargement of the local submonoid"),
        ("brandt_c2_2", "c2_zero", True, "enlargement of the local submonoid eTe"),
        ("brandt_1_1", "chain2", True, "isomorphic semigroups"),
        ("cyclic2", "cyclic3", False, "one-object skeletons with different hom sizes"),
        ("chain2", "chain3", False, "skeletons of different object counts"),
        ("cyclic2", "chain2", False, "skeleton shapes differ"),
        ("cyclic2", "cyclic4", False, "hom sizes differ"),
        ("chain2", "brandt_c2_2", False, "skeleton hom sizes differ"),
    ]
    pairs.extend((name, name, True, "reflexivity") for name, _s in builtin_corpus())
    return pairs


# -- mutation testing ------------------------------------------------------------

def mutation_cases() -> list:
    """Corpus members used for table mutation (size >= 3 keeps mutations honest)."""
    return [(n, s) for (n, s) in builtin_corpus() if len(s) >= 3]


def seeded_mutants(seed: int, count: int) -> list:
    """(case name, mutant FiniteSemigroup, (i, j, new)) with a single cell changed."""
    rng = random.Random(seed)
    cases = mutation_cases()
    out = []
    for k in range(count):
        name, S = cases[rng.randrange(len(cases))]
        n = len(S)
        i, j = rng.randrange(n), rng.randrange(n)
        old = int(S.table[i, j])
        new = rng.randrange(n - 1)
        if new >= old:
            new += 1
        table = S.table.copy()
        table[i, j] = new
        out.append((f"{name}[{i},{j}]->{new}#{k}",
                    FiniteSemigroup(S.names, table), (i, j, new)))
    return out


def axiom_violations(S: FiniteSemigroup, star=None) -> list:
    """Names of the axiom checks a (possibly corrupted) table fails.

    The natural order is not tested: once the table is associative and
    `as_inverse` accepts it, it is an inverse semigroup, whose natural order
    is always a partial order.
    """
    bad = []
    if assoc_witness(S) is not None:
        bad.append("associativity")
        return bad
    try:
        inv = as_inverse(FiniteSemigroup(S.names, S.table))
    except MoritaError as exc:
        bad.append(f"inverse_structure:{type(exc).__name__}")
        return bad
    if star is not None and not np.array_equal(inv.star, star):
        bad.append("inverse_uniqueness")
    return bad


# -- random inverse subsemigroups -------------------------------------------------

def random_inverse_subsemigroups(seed: int, count: int, ambient=None) -> list:
    """Inverse subsemigroups of the symmetric inverse monoid on 3 points."""
    if ambient is None:
        ambient = symmetric_inverse_monoid(3)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(1, 3)
        seeds = rng.sample(range(len(ambient)), k)
        closure = subsemigroup_closure(ambient, seeds, star_closed=True)
        sub, _old = restrict_inverse(ambient, closure)
        out.append(sub)
    return out


def random_relabelling(S: InverseSemigroup, rng: random.Random) -> InverseSemigroup:
    """An isomorphic copy of S with its elements renumbered at random.

    Element i of S becomes element perm[i] of the copy, names included.
    """
    perm = list(range(len(S)))
    rng.shuffle(perm)
    perm = np.array(perm, dtype=np.int64)
    old = np.argsort(perm)   # copy element -> S element
    return InverseSemigroup(tuple(S.names[i] for i in old),
                            perm[S.table[np.ix_(old, old)]], perm[S.star[old]])


# -- sample actions and presheaves -------------------------------------------------

def sample_closed_actions(S: InverseSemigroup, seed: int, count: int) -> list:
    """Seeded family: principal ideals, small coproducts, quotients, S, Munn."""
    rng = random.Random(seed)
    E = idempotents(S)
    base = [principal_action(S, e) for e in E]
    pool = list(base) + [regular_action(S), munn_action(S).base, empty_action(S)]
    out = []
    while len(out) < count:
        kind = rng.randrange(4)
        if kind == 0:
            out.append(base[rng.randrange(len(base))])
        elif kind == 1:
            parts = [base[rng.randrange(len(base))]
                     for _ in range(rng.randint(1, 3))]
            out.append(coproduct_action(parts))
        elif kind == 2:
            X = coproduct_action([base[rng.randrange(len(base))]
                                  for _ in range(rng.randint(1, 2))])
            if len(X) >= 2:
                pairs = [(rng.randrange(len(X)), rng.randrange(len(X)))
                         for _ in range(rng.randint(1, 2))]
                out.append(quotient_action(X, pairs))
            else:
                out.append(X)
        else:
            out.append(pool[rng.randrange(len(pool))])
    return out[:count]


def sample_etale_actions(S: InverseSemigroup) -> list:
    """Munn action, every principal etale eS, and their unions via R."""
    out = [munn_action(S)]
    out.extend(principal_etale(S, e) for e in idempotents(S))
    out.append(R_of(regular_action(S)))
    return out


def sample_presheaves(reps: list, seed: int, count: int) -> list:
    """Seeded presheaves on C(S): coproducts of 1-3 representables, some quotiented.

    reps are the representables Q(eS), one per object of C(S) in object order.
    """
    rng = random.Random(seed)
    site = reps[0].site
    out = []
    while len(out) < count:
        k = rng.randint(1, 3)
        chosen = [reps[rng.randrange(len(reps))] for _ in range(k)]
        P = coproduct_presheaf(site, chosen)
        for _ in range(rng.randint(0, 2)):
            o = rng.randrange(site.n_objects)
            if P.fiber_size(o) >= 2:
                i, j = rng.randrange(P.fiber_size(o)), rng.randrange(P.fiber_size(o))
                P = quotient_presheaf(P, [(o, i, j)])
        out.append(P)
    return out[:count]


def quotient_presheaf(P: Presheaf, idents) -> Presheaf:
    """Quotient by identifications (object, i, j), closed under transitions.

    Element i of P(o) is node off[o] + i, which is the (o, i) order.  Every
    entry (m, i) of the maps is one step of `move`, and the transitions of
    the quotient are read over all of them at once, in the flat form.

    A map value outside the fiber over its domain raises `InvariantBroken`
    naming its morphism before `congruence` runs.  Past that test and the
    test for identifications across fibers, the transitions are well
    defined and are not tested again: a node v and its root r share a fiber,
    so every P(m) that moves v moves r, and `congruence` returns only at a
    partition that joins move[v, m] to move[r, m].  Identifications that
    name an element past the end of a fiber still reach another fiber, and
    the across-fibers test catches them.
    """
    if P.out_of_fiber is not None:
        raise InvariantBroken("a presheaf map leaves the fiber over its domain",
                              witness=P.out_of_fiber)
    site = P.site
    k = site.n_objects
    obj, off = P.elements[0], P.fib_off
    n = int(off[-1])
    m, i = ragged(np.diff(P.map_off))
    v = off[site.cod[m]] + i                  # the node moved by entry (m, i)
    image = off[site.dom[m]] + P.values
    # move[v, m]: the image of node v under P(m), -1 off the fiber over cod m
    move = np.full((n, site.n_mor), -1, dtype=np.int64)
    move[v, m] = image
    idents = np.asarray(idents, dtype=np.int64).reshape(-1, 3)
    base = off[idents[:, 0]]
    root, cls = congruence(n, base + idents[:, 1], base + idents[:, 2], move)
    across = np.flatnonzero(obj[root] != obj)
    if len(across):
        raise InvariantBroken("identified elements across fibers",
                              witness=(int(root[across[0]]), int(across[0])))
    # classes are numbered in node order, so each fiber's classes are a run
    reps = np.flatnonzero(root == np.arange(n))
    first = np.searchsorted(reps, off)
    local = cls - first[obj]
    fibers = tuple(
        tuple(P.fibers[o][r] for r in (reps[first[o]:first[o + 1]] - off[o]).tolist())
        for o in range(k)
    )
    keep = root[v] == v
    map_off = np.concatenate([[0], np.cumsum(np.bincount(m[keep], minlength=site.n_mor))])
    return Presheaf.from_flat(site, fibers, local[image[keep]], map_off)
