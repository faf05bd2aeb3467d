"""Hot table-scan kernels.

Axiom checks over dense integer tables (associativity, action laws,
cancellation) are the inner loops of every validation sweep; each one scans
the table one row at a time with numpy and reports the first failure in
index order.
"""

import numpy as np


def assoc_witness(table):
    """First triple (i, j, k) with (ij)k != i(jk), or None."""
    table = np.ascontiguousarray(table, dtype=np.int64)
    for i in range(table.shape[0]):
        left = table[table[i], :]       # [j, k] -> (ij)k
        right = table[i, table]         # [j, k] -> i(jk)
        bad = np.argwhere(left != right)
        if bad.size:
            j, k = bad[0]
            return (i, int(j), int(k))
    return None


def action_witness(act, table):
    """First (x, s, t) with (xs)t != x(st), or None."""
    act = np.ascontiguousarray(act, dtype=np.int64)
    table = np.ascontiguousarray(table, dtype=np.int64)
    for x in range(act.shape[0]):
        left = act[act[x], :]           # [s, t] -> (xs)t
        right = act[x][table]           # [s, t] -> x(st)
        bad = np.argwhere(left != right)
        if bad.size:
            s, t = bad[0]
            return (x, int(s), int(t))
    return None


# -- cancellation in a composition table ------------------------------------
# comp[g, f] = g.f with -1 for "not composable".  Left cancellation fails
# exactly when some row repeats a defined value; right cancellation is the
# same condition on columns.

def left_cancellation_witness(comp):
    """First (g, f1, f2) with g.f1 == g.f2 defined and f1 != f2, or None."""
    comp = np.ascontiguousarray(comp, dtype=np.int64)
    for g in range(comp.shape[0]):
        row = comp[g]
        defined = np.flatnonzero(row >= 0)
        vals = row[defined]
        if np.unique(vals).size == vals.size:
            continue
        # rare: recover the first repeat in column order
        seen = {}
        for f in defined:
            v = int(row[f])
            if v in seen:
                return (g, seen[v], int(f))
            seen[v] = int(f)
    return None


def right_cancellation_witness(comp):
    """First (f, g1, g2) with g1.f == g2.f defined and g1 != g2, or None."""
    comp = np.ascontiguousarray(comp, dtype=np.int64)
    return left_cancellation_witness(comp.T.copy())
