import random
from itertools import product

import numpy as np
import pytest

from morita._util import inverse_relation
from morita.bisets import biset_from_regular_enlargement, build_R_semigroupoid
from morita.corpus import builtin_corpus, random_inverse_subsemigroups, seeded_mutants
from morita.errors import (
    IdempotentsDontCommute,
    MoritaError,
    NotAssociative,
    NotASubsemigroup,
    NotRegular,
    SizeLimit,
)
from morita.formats import parse_semigroup
from morita.semigroups import (
    FiniteSemigroup,
    as_inverse,
    assoc_witness,
    brandt,
    chain_semilattice,
    cyclic_group,
    enlargement_identities,
    group_with_zero,
    idempotents,
    is_locally_E_unitary,
    is_semigroup_enlargement,
    is_subsemigroup,
    local_unit_flags,
    natural_order,
    restrict_inverse,
    subsemigroup_closure,
    symmetric_inverse_monoid,
)
from reference_loops import loop_cauchy, loop_enlargement_identities, loop_unit_flags


def brute_force_assoc(table):
    n = len(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return (i, j, k)
    return None


def brute_force_inverses(table, s):
    n = len(table)
    return [t for t in range(n)
            if table[table[s][t]][s] == s and table[table[t][s]][t] == t]


def test_parse_trivial():
    S = parse_semigroup("1\ne\ne\n")
    assert len(S) == 1 and S.names == ("e",)


def test_parse_two_chain():
    S = parse_semigroup("# a chain\n2\ne z\ne z\nz z\n")
    assert idempotents(S) == [0, 1]


def test_row_swap_breaks_associativity():
    # swap the first and last rows of the 3-chain table; check the witness
    # against an independent brute-force scan of all 27 triples
    rows = [[2, 2, 2], [1, 1, 2], [0, 1, 2]]
    expected = brute_force_assoc(rows)
    assert expected is not None
    text = "3\na b c\nc c c\nb b c\na b c\n"
    with pytest.raises(NotAssociative) as ei:
        parse_semigroup(text)
    assert ei.value.witness == expected


def test_idempotents(b12):
    assert [cyclic_group(2).names[e] for e in idempotents(cyclic_group(2))] == ["g0"]
    assert idempotents(chain_semilattice(2)) == [0, 1]
    assert {b12.names[e] for e in idempotents(b12)} == {"(1,1)", "(2,2)", "0"}


def test_as_inverse_group():
    C2 = cyclic_group(2)
    assert C2.inv(1) == 1


def test_as_inverse_brandt_matches_search(b12):
    # oracle: solve sts = s and tst = t over the raw table
    rebuilt = as_inverse(FiniteSemigroup(b12.names, b12.table))
    for s in range(len(b12)):
        expected = brute_force_inverses(b12.table.tolist(), s)
        assert len(expected) == 1
        assert rebuilt.inv(s) == expected[0] == b12.inv(s)
    assert b12.names[b12.inv(b12.index("(1,2)"))] == "(2,1)"


def test_left_zero_rejected():
    # xy = x: idempotents everywhere, nothing commutes
    table = np.array([[0, 0], [1, 1]])
    with pytest.raises(IdempotentsDontCommute) as ei:
        as_inverse(FiniteSemigroup(("a", "b"), table))
    assert ei.value.witness == (0, 1)


def test_null_semigroup_not_regular():
    # all products equal z; the element a has no inverse
    table = np.array([[1, 1], [1, 1]])
    with pytest.raises(NotRegular):
        as_inverse(FiniteSemigroup(("a", "z"), table))


def test_inverses_of_rectangular_band():
    # (i,j)(k,l) = (i,l) on 2x2; compare against the brute-force solver
    elems = [(i, j) for i in range(2) for j in range(2)]
    pos = {e: k for k, e in enumerate(elems)}
    table = [[pos[(elems[a][0], elems[b][1])] for b in range(4)] for a in range(4)]
    S = FiniteSemigroup(tuple(map(str, elems)), np.array(table))
    for s in range(4):
        inverses = np.flatnonzero(inverse_relation(S.table)[s]).tolist()
        assert inverses == brute_force_inverses(table, s)
        assert len(inverses) == 4


def test_inverses_of_cyclic3():
    C3 = cyclic_group(3)
    assert np.flatnonzero(inverse_relation(C3.table)[1]).tolist() == [2]


def test_natural_leq(b12, chain2):
    # z <= e in the chain; groups have the trivial order; 0 <= (1,2) in B(1,2)
    leq = natural_order(chain2.table, chain2.star)
    assert leq[1, 0] and not leq[0, 1]
    C3 = cyclic_group(3)
    assert np.array_equal(natural_order(C3.table, C3.star), np.eye(3, dtype=bool))
    assert natural_order(b12.table, b12.star)[b12.index("0"), b12.index("(1,2)")]


def test_natural_order_axioms(small_corpus):
    for S in small_corpus:
        n = len(S)
        leq = natural_order(S.table, S.star).tolist()
        for a in range(n):
            assert leq[a][a]
            for b in range(n):
                if leq[a][b] and leq[b][a]:
                    assert a == b
                for c in range(n):
                    if leq[a][b] and leq[b][c]:
                        assert leq[a][c]
        # compatibility: s<=t, u<=v implies su <= tv
        for s in range(n):
            for t in range(n):
                if not leq[s][t]:
                    continue
                for u in range(n):
                    for v in range(n):
                        if leq[u][v]:
                            assert leq[S.mul(s, u)][S.mul(t, v)]


def test_idempotents_closed_and_commutative(small_corpus):
    for S in small_corpus:
        E = idempotents(S)
        for e in E:
            for f in E:
                assert S.mul(e, f) in E
                assert S.mul(e, f) == S.mul(f, e)


def test_star_axioms(small_corpus):
    for S in small_corpus:
        for s in range(len(S)):
            st = S.inv(s)
            assert S.mul(S.mul(s, st), s) == s
            assert S.mul(S.mul(st, s), st) == st
            assert S.inv(st) == s
            for t in range(len(S)):
                assert S.inv(S.mul(s, t)) == S.mul(S.inv(t), S.inv(s))


def test_local_unit_flags(small_corpus):
    for S in small_corpus:
        flags = local_unit_flags(S)
        assert flags.right_local_units and flags.left_local_units
        assert flags.local_units and flags.sandwich
    # {a, z} with all products z: a is not in SE(S)
    null = FiniteSemigroup(("a", "z"), np.array([[1, 1], [1, 1]]))
    flags = local_unit_flags(null)
    assert not flags.right_local_units and not flags.sandwich
    # computed once per semigroup: the table is read-only
    assert local_unit_flags(null) is flags


def test_the_factorisation_matches_the_loop(local_submonoid_bisets, starless_tables):
    # E, obj, below and above of every table, and d and r where it has a
    # star: inverse semigroups, the partial tables of R(S,T;X), and
    # associative tables with no star, whose d and r are None
    inverse = [S for _name, S in builtin_corpus()] + random_inverse_subsemigroups(27, 20)
    inverse += [brandt(cyclic_group(g), n) for g in (1, 2, 3) for n in (1, 2, 3, 4)]
    inverse += [build_R_semigroupoid(B) for B in local_submonoid_bisets]
    for T in inverse + starless_tables:
        F, ref = T.cauchy, loop_cauchy(T.table, getattr(T, "star", None))
        assert F._fields == tuple(ref) and T.cauchy is F
        for name, want in ref.items():
            got = getattr(F, name)
            if want is None:
                assert got is None, name
            else:
                assert not got.flags.writeable, name
                assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert sum(T.cauchy.d is None for T in starless_tables) == len(starless_tables) >= 139
    assert any((T.table < 0).any() for T in inverse)


def test_unit_flags_match_the_product_sets(starless_tables):
    # SE(S) = S read off the columns of `above`, E(S)S = S off `below`,
    # against the product sets, on associative tables with no star and on
    # one-cell mutants that are no semigroup
    seen = set()
    for S in starless_tables + [M for _name, M, _cell in seeded_mutants(9, 300)]:
        flags = local_unit_flags(S)
        assert flags == loop_unit_flags(S)
        seen.add((flags.right_local_units, flags.left_local_units, flags.sandwich))
    assert len(seen) >= 4


def test_enlargement_identity_case():
    # with S = T the condition reduces to T = T^3
    C2 = cyclic_group(2)
    assert is_semigroup_enlargement(C2, range(2))
    null3 = FiniteSemigroup(("a", "b", "z"), np.full((3, 3), 2))
    assert not is_semigroup_enlargement(null3, range(3))


def test_enlargement_brandt(b12, chain2):
    sub = [b12.index("(1,1)"), b12.index("0")]
    assert is_semigroup_enlargement(b12, sub)
    rest, _ = restrict_inverse(b12, sub)
    # the local submonoid is the 2-chain
    assert sorted(rest.table.ravel().tolist()) == sorted(chain2.table.ravel().tolist())
    # {z} inside the chain: zSz = {z} but TzT != T
    assert not is_semigroup_enlargement(chain2, [1])
    with pytest.raises(NotASubsemigroup):
        is_semigroup_enlargement(b12, [b12.index("(1,2)")])


def test_enlargement_identities_match_the_set_loop():
    # the partial tables of R(S,T;X) for B(C_g, n) over eTe, with the parts
    # S', T' and every one-element part, and corpus tables with random subsets
    cases = []
    for g, n in product((1, 2), (2, 3, 4)):
        T = brandt(cyclic_group(g), n)
        e = idempotents(T)[0]
        eTe = [s for s in range(len(T)) if T.mul(T.mul(e, s), e) == s]
        Rg = build_R_semigroupoid(biset_from_regular_enlargement(T, eTe, range(len(T))))
        cases += [(Rg.table, part) for part in [Rg.extra["s_part"], Rg.extra["t_part"]]
                  + [[a] for a in range(len(Rg.table))]]
    rng = random.Random(26)
    for _name, S in builtin_corpus():
        cases += [(S.table, sorted(rng.sample(range(len(S)), rng.randint(1, len(S)))))
                  for _ in range(6)]
    seen = set()
    for table, A in cases:
        got = enlargement_identities(table, A)
        assert got == loop_enlargement_identities(table, A), (table, A)
        seen |= set(enumerate(got))
    # each identity holds somewhere and fails somewhere
    assert seen == {(0, True), (0, False), (1, True), (1, False)}


def test_locally_e_unitary(b12, sim2):
    assert is_locally_E_unitary(chain_semilattice(3))
    assert is_locally_E_unitary(cyclic_group(4))
    assert is_locally_E_unitary(b12)
    # the symmetric inverse monoid has nil <= swap inside the full submonoid
    assert not is_locally_E_unitary(sim2)


def test_builders():
    assert len(chain_semilattice(1)) == 1
    assert len(symmetric_inverse_monoid(2)) == 7
    assert len(symmetric_inverse_monoid(3)) == 34
    B = brandt(cyclic_group(1), 2)
    assert len(B) == 2 * 2 * 1 + 1 and len(idempotents(B)) == 3
    assert len(brandt(cyclic_group(2), 2)) == 9
    assert len(group_with_zero(cyclic_group(3))) == 4
    with pytest.raises(SizeLimit):
        symmetric_inverse_monoid(5)
    with pytest.raises(SizeLimit):
        cyclic_group(0)


def test_builders_are_inverse(small_corpus, b13, bc22):
    # re-derive the star array by exhaustive search and compare
    for S in list(small_corpus) + [b13, bc22]:
        assert assoc_witness(S) is None
        rebuilt = as_inverse(FiniteSemigroup(S.names, S.table))
        assert np.array_equal(rebuilt.star, S.star)


def test_assoc_witness_valid_tables():
    for S in (cyclic_group(5), brandt(cyclic_group(2), 2),
              symmetric_inverse_monoid(3)):
        assert assoc_witness(S) is None


def test_subsemigroup_closure(sim2):
    full = subsemigroup_closure(sim2, range(len(sim2)))
    assert full == list(range(len(sim2)))
    one = subsemigroup_closure(sim2, [sim2.names.index("nil")], star_closed=True)
    assert len(one) == 1
    assert is_subsemigroup(sim2, one)


def _ref_as_inverse(S):
    """Errors and star of `as_inverse` from the direct (st)s table expression."""
    tab = S.table
    ar = np.arange(len(S))
    sts = tab[tab, ar[:, None]]
    inv = (sts == ar[:, None]) & (sts.T == ar[None, :])
    count = inv.sum(axis=1)
    if (count == 0).any():
        return ("NotRegular", int(np.argmax(count == 0)))
    E = idempotents(S)
    for i, e in enumerate(E):
        for f in E[i + 1:]:
            if tab[e, f] != tab[f, e]:
                return ("IdempotentsDontCommute", (e, f))
    if (count != 1).any():
        s = int(np.argmax(count != 1))
        return ("NonUniqueInverse", (s, tuple(np.flatnonzero(inv[s]).tolist())))
    return ("ok", np.argmax(inv, axis=1).tolist())


def test_as_inverse_errors_match_reference():
    from morita.corpus import seeded_mutants

    # two left-zero bands {a, b} and {c, d} and a zero z, with products
    # across the bands z: a, b and c, d are the only pairs that do not
    # commute, and in index order (a, b) = (0, 3) comes before (c, d) = (1, 2)
    bands = FiniteSemigroup(("a", "c", "d", "b", "z"),
                            np.array([[0, 4, 4, 0, 4],
                                      [4, 1, 1, 4, 4],
                                      [4, 2, 2, 4, 4],
                                      [3, 4, 4, 3, 4],
                                      [4, 4, 4, 4, 4]]))
    assert _ref_as_inverse(bands) == ("IdempotentsDontCommute", (0, 3))
    cases = [FiniteSemigroup(("a", "b"), np.array([[0, 0], [1, 1]])),
             FiniteSemigroup(("a", "z"), np.array([[1, 1], [1, 1]])), bands]
    cases += [M for (_name, M, _cell) in seeded_mutants(8, 120)]
    kinds = set()
    for S in cases:
        try:
            got = ("ok", as_inverse(S).star.tolist())
        except MoritaError as exc:
            got = (type(exc).__name__, exc.witness)
        assert got == _ref_as_inverse(S)
        kinds.add(got[0])
    assert kinds == {"ok", "NotRegular", "IdempotentsDontCommute", "NonUniqueInverse"}


def test_natural_order_passes_match_loops():
    from morita.cli import _hasse_edges
    from morita.corpus import (
        axiom_violations,
        builtin_corpus,
        random_inverse_subsemigroups,
        seeded_mutants,
    )
    from morita.semigroups import InverseSemigroup
    from reference_loops import (
        loop_hasse_edges,
        loop_is_locally_E_unitary,
        loop_order_is_antisymmetric,
    )

    members = dict(builtin_corpus())
    samples = list(members.values())
    samples += random_inverse_subsemigroups(2, 30)
    samples += random_inverse_subsemigroups(4, 6, symmetric_inverse_monoid(4))
    # tables that are no longer semigroups, read with the star of their source
    samples += [InverseSemigroup(M.names, M.table, members[name.split("[")[0]].star)
                for name, M, _cell in seeded_mutants(3, 60)]
    unitary, antisymmetric = set(), set()
    for S in samples:
        assert _hasse_edges(S) == loop_hasse_edges(S)
        unitary.add(is_locally_E_unitary(S))
        assert is_locally_E_unitary(S) == loop_is_locally_E_unitary(S)
        antisymmetric.add(loop_order_is_antisymmetric(S))
        if not axiom_violations(S):
            assert loop_order_is_antisymmetric(S)
    assert unitary == antisymmetric == {True, False}


def _same_semigroup(A, B):
    assert A.names == B.names and A.table.tolist() == B.table.tolist()
    assert getattr(A, "star", np.zeros(0)).tolist() == getattr(B, "star", np.zeros(0)).tolist()


def test_subsemigroup_masks_and_restrict_match_loops(numbering_cases):
    from morita.semigroups import restrict
    from reference_loops import (
        loop_is_subsemigroup,
        loop_restrict,
        loop_subsemigroup_closure,
        raised,
    )

    rng = np.random.default_rng(16)
    verdicts = set()
    for S in numbering_cases:
        n = len(S)
        seeds = [rng.choice(n, size=k).tolist() for k in (1, 2, 3)]
        closures = [subsemigroup_closure(S, sd, star) for sd in seeds for star in (False, True)]
        assert closures == [loop_subsemigroup_closure(S, sd, star)
                            for sd in seeds for star in (False, True)]
        subsets = [range(n), [], set(seeds[2]), seeds[2] + seeds[2]]
        subsets += [np.flatnonzero(rng.random(n) < p) for p in (0.2, 0.5, 0.8)]
        for A in subsets + closures:
            verdicts.add(is_subsemigroup(S, A))
            assert is_subsemigroup(S, A) == loop_is_subsemigroup(S, A)
            assert raised(restrict, S, A) == raised(loop_restrict, S, A)
            if is_subsemigroup(S, A):
                (sub, old), (ref, ref_old) = restrict(S, A), loop_restrict(S, A)
                _same_semigroup(sub, ref)
                assert old == ref_old
    assert verdicts == {True, False}
    # ints outside range(n) are no elements: the masks do not wrap them round
    S = chain_semilattice(3)
    for bad in ([-1], [2, -1], [3]):
        assert not is_subsemigroup(S, bad)
        with pytest.raises(NotASubsemigroup) as exc:
            restrict(S, bad)
        assert exc.value.witness == tuple(sorted(set(bad)))
        with pytest.raises(ValueError):
            subsemigroup_closure(S, bad)


def test_builders_match_loops():
    from morita.semigroups import restrict_inverse
    from reference_loops import loop_brandt, loop_symmetric_inverse_monoid

    for n in range(1, 5):
        _same_semigroup(symmetric_inverse_monoid(n), loop_symmetric_inverse_monoid(n))
    I3 = symmetric_inverse_monoid(3)
    S3, _old = restrict_inverse(I3, [a for a in range(len(I3)) if I3.names[a].count("to") == 3])
    assert len(S3) == 6 and len(idempotents(S3)) == 1       # the symmetric group, not abelian
    for G in (cyclic_group(1), cyclic_group(2), cyclic_group(3), S3):
        for k in range(1, 4):
            _same_semigroup(brandt(G, k), loop_brandt(G, k))
