import numpy as np
import pytest

from morita._util import failures, positions, row_blocks
from morita.actions import action_law_witness, regular_action
from morita.corpus import builtin_corpus, seeded_mutants
from morita.errors import InvariantBroken
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


def _missing(at):
    return InvariantBroken("missing", witness=at)


def test_positions_place_every_key_and_name_the_first_missing_one():
    rng = np.random.default_rng(4)
    members = rng.permutation(60)[:40]                   # distinct
    queries = rng.choice(members, size=(6, 7))
    assert np.array_equal(members[positions(members, queries, _missing)], queries)
    assert positions(members, members[5], _missing) == 5
    queries[4, 1] = queries[2, 3] = 99
    queries[5, 0] = -1
    with pytest.raises(InvariantBroken) as exc:
        positions(members, queries, _missing)
    assert exc.value.witness == (2, 3)                   # the first in C order
    with pytest.raises(InvariantBroken) as exc:
        positions([], [[7]], _missing)
    assert exc.value.witness == (0, 0)
    assert positions([], np.zeros((0, 2), dtype=np.int64), _missing).shape == (0, 2)


def test_positions_of_rows_broadcast_their_columns():
    a, b = np.array([2, 0, 1, 0]), np.array([0, 3, 1, 1])   # the rows (a, b)
    assert positions((a, b), (np.array([[0], [0]]), np.array([3, 1])), _missing).tolist() \
        == [[1, 3], [1, 3]]
    assert positions((a, b), (np.array([2, 1]), np.array([0, 1])), _missing).tolist() == [0, 2]
    # a column outside the members' range is missing, not read as another row:
    # (1, 4) would encode as (2, 0) over the ranges (3, 4), and (0, -1) and
    # (3, 0) clip to the members (0, 0) and (2, 0)
    for row in ((1, 4), (0, -1), (3, 0), (-1, 3)):
        with pytest.raises(InvariantBroken) as exc:
            positions((a, b), (np.array([2, row[0]]), np.array([0, row[1]])), _missing)
        assert exc.value.witness == (1,)
