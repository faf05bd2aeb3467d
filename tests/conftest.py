import pytest

from morita.semigroups import (
    brandt,
    chain_semilattice,
    cyclic_group,
    group_with_zero,
    symmetric_inverse_monoid,
)


@pytest.fixture(scope="session")
def b12():
    return brandt(cyclic_group(1), 2)


@pytest.fixture(scope="session")
def b13():
    return brandt(cyclic_group(1), 3)


@pytest.fixture(scope="session")
def bc22():
    return brandt(cyclic_group(2), 2)


@pytest.fixture(scope="session")
def c2z():
    return group_with_zero(cyclic_group(2))


@pytest.fixture(scope="session")
def chain2():
    return chain_semilattice(2)


@pytest.fixture(scope="session")
def chain3():
    return chain_semilattice(3)


@pytest.fixture(scope="session")
def sim2():
    return symmetric_inverse_monoid(2)


@pytest.fixture(scope="session")
def small_corpus():
    """Everything small enough for quadratic-or-worse exhaustive sweeps."""
    return [
        cyclic_group(1),
        cyclic_group(2),
        cyclic_group(3),
        chain_semilattice(2),
        chain_semilattice(3),
        brandt(cyclic_group(1), 2),
        group_with_zero(cyclic_group(2)),
        symmetric_inverse_monoid(2),
    ]


@pytest.fixture(scope="session")
def local_submonoid_bisets():
    """The (T, eTe) bisets of brandt(C1, 2..3) and brandt(C2, 2..3), one per e with TeT = T."""
    import numpy as np

    from morita.bisets import biset_from_regular_enlargement

    out = []
    for g, n in ((1, 2), (1, 3), (2, 2), (2, 3)):
        T = brandt(cyclic_group(g), n)
        tab = T.table
        everything = range(len(T))
        for e in everything:
            TeT = np.unique(tab[np.ix_(tab[:, e], everything)])
            if tab[e, e] == e and len(TeT) == len(T):
                eTe = [s for s in everything if tab[tab[e, s], e] == s]
                out.append(biset_from_regular_enlargement(T, eTe, everything))
    return out


@pytest.fixture(scope="session")
def numbering_cases():
    """The builtin corpus, I_3 and 30 random inverse subsemigroups of I_3, each
    also under a random relabelling: the inputs on which the constructions on
    composite points are compared with their loop forms."""
    import random

    from morita.corpus import builtin_corpus, random_inverse_subsemigroups, random_relabelling

    rng = random.Random(16)
    base = ([S for _name, S in builtin_corpus()] + [symmetric_inverse_monoid(3)]
            + random_inverse_subsemigroups(16, 30))
    return base + [random_relabelling(S, rng) for S in base]



@pytest.fixture(scope="session")
def starless_tables():
    """Associative tables given with no star: every associative table on one
    to three elements (122, most of them not inverse), and the builtin corpus
    as plain FiniteSemigroups."""
    from itertools import product

    import numpy as np

    from morita.corpus import builtin_corpus
    from morita.semigroups import FiniteSemigroup

    out = []
    for n in (1, 2, 3):
        tabs = np.array(list(product(range(n), repeat=n * n))).reshape(-1, n, n)
        i, ar = np.arange(len(tabs))[:, None, None, None], np.arange(n)
        ab_c = tabs[i, tabs[:, :, :, None], ar]                # [t, a, b, c]: (ab)c
        a_bc = tabs[i, ar[:, None, None], tabs[:, None, :, :]]  # a(bc)
        out += [FiniteSemigroup(tuple(str(a) for a in range(n)), t)
                for t in tabs[(ab_c == a_bc).all(axis=(1, 2, 3))]]
    out += [FiniteSemigroup(S.names, S.table) for _name, S in builtin_corpus()]
    return out
