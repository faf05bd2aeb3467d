import numpy as np

from morita._util import failures, row_blocks
from morita.actions import action_law_witness, regular_action
from morita.corpus import builtin_corpus, seeded_mutants
from morita.semigroups import assoc_witness


def test_failures_come_in_C_order_across_blocks():
    # 40 rows of 40 x 40 cells make two blocks of 20 rows
    assert len(row_blocks(40, 40 * 40)) == 2
    bad = np.random.default_rng(3).random((40, 40, 40)) < 0.001
    found = list(failures(40, 40 * 40, lambda rows: bad[rows]))
    assert found == [tuple(w) for w in np.argwhere(bad).tolist()]
    assert {w[0] // 20 for w in found} == {0, 1}


def test_failures_evaluate_no_block_after_the_witness_they_give():
    bad = np.zeros((40, 40, 40), dtype=bool)
    bad[25, 3, 7] = bad[30, 0, 0] = True
    seen = []

    def fails(rows):
        seen.append(rows.tolist())
        return bad[rows]

    found = failures(40, 40 * 40, fails)
    assert seen == []                      # nothing runs before it is asked for
    assert next(found) == (25, 3, 7)
    assert [rows[0] for rows in seen] == [0, 20]
    assert next(found) == (30, 0, 0)
    assert len(seen) == 2                  # the second witness is in the same block
    assert next(found, None) is None


def test_failures_on_no_rows_and_on_rows_without_cells():
    called = []
    assert list(failures(0, 5, lambda rows: called.append(rows))) == []
    assert called == []
    # no cells per row: one block holds every row
    assert list(failures(3, 0, lambda rows: np.zeros((len(rows), 0), dtype=bool))) == []
    assert list(failures(3, 0, lambda rows: rows == 1)) == [(1,)]


def test_associativity_is_the_action_law_of_the_regular_action():
    tables = [S for _name, S in builtin_corpus()]
    tables += [M for _name, M, _cell in seeded_mutants(5, 60)]
    witnesses = [assoc_witness(S) for S in tables]
    assert witnesses == [action_law_witness(regular_action(S)) for S in tables]
    assert sum(w is not None for w in witnesses) >= 30
