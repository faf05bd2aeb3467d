"""Small shared helpers."""

import numpy as np

from .errors import BudgetExceeded


def components(n, a, b):
    """Connected components of the graph on nodes 0..n-1 with edges a[k]-b[k].

    Returns (root, cls): root[v] is the least node of v's component, and
    cls[v] numbers the components 0, 1, ... in order of their least node.
    Min-label hooking plus pointer jumping: every round hooks each root to
    the least root across its edges, then flattens the forest to stars; a
    round that changes nothing leaves every edge inside one star.
    """
    a = np.asarray(a, dtype=np.int64).ravel()
    b = np.asarray(b, dtype=np.int64).ravel()
    root = np.arange(n, dtype=np.int64)
    while True:
        ra, rb = root[a], root[b]
        lo = np.minimum(ra, rb)
        new = root.copy()
        np.minimum.at(new, ra, lo)
        np.minimum.at(new, rb, lo)
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, root):
            break
        root = new
    is_root = root == np.arange(n)
    cls = (np.cumsum(is_root) - 1)[root]
    return root, cls


def depth_first(level, budget, search):
    """Walk a backtracking search depth first, yielding at each leaf.

    level(depth) is the generator of the choices at that depth (it yields
    once a choice is made and undoes it when resumed), or None at a leaf.
    The generators sit on a list, not Python's call stack, so the recursion
    limit does not cap the depth.  Each choice is one placement; placement
    budget + 1 raises BudgetExceeded naming the `search`.
    """
    stack, placements = [], 0
    while True:
        choices = level(len(stack))
        if choices is None:
            yield
        else:
            stack.append(choices)
        while stack and next(stack[-1], True):
            stack.pop()
        if not stack:
            return
        placements += 1
        if placements > budget:
            raise BudgetExceeded(f"{search} used up its budget of {budget} placements")


def ragged(lens):
    """(run, pos) over consecutive runs of the given lengths.

    Entry k of the concatenated runs is entry pos[k] of run run[k], so a
    pass over every entry of every run is one array pass.
    """
    lens = np.asarray(lens, dtype=np.int64)
    run = np.repeat(np.arange(len(lens)), lens)
    return run, np.arange(len(run)) - np.repeat(np.cumsum(lens) - lens, lens)


def congruence(n, a, b, move):
    """Least partition joining each a[k] to b[k] that the maps move[:, l] respect.

    move[v, l] is the image of node v under the l-th partial map, -1 where
    undefined; joined nodes must have joined images.  Re-runs `components`
    with each node's images tied to its root's images until the partition
    stops changing, and returns (root, cls) as `components` does.  An image
    defined at a node but not at its root is skipped: the caller checks that
    joined nodes share their domains.
    """
    a = np.asarray(a, dtype=np.int64).ravel()
    b = np.asarray(b, dtype=np.int64).ravel()
    root, cls = components(n, a, b)
    while True:
        v = np.flatnonzero(root != np.arange(n))
        img, rimg = move[v], move[root[v]]
        both = (img >= 0) & (rimg >= 0)
        nroot, ncls = components(n, np.concatenate([a, img[both]]),
                                 np.concatenate([b, rimg[both]]))
        if np.array_equal(nroot, root):
            return root, cls
        root, cls = nroot, ncls


def inverse_relation(tab):
    """M[a, b]: b is an inverse of a in the (partial) table tab.

    Undefined products are negative.  M[a, b] holds when ab and ba are both
    defined, (ab)a = a and (ba)b = b; on a total table this is the inverse
    relation of a semigroup.
    """
    tab = np.asarray(tab, dtype=np.int64)
    ar = np.arange(len(tab))
    d = tab >= 0
    # [a, b] -> (ab)a, and -1 where ab is undefined, so it never equals a
    aba = np.where(d, tab[np.where(d, tab, 0), ar[:, None]], -1)
    return (aba == ar[:, None]) & (aba.T == ar[None, :])


def positions(members, queries, error):
    """The index in `members` of each key of `queries`, in the queries' shape.

    A key is a non-negative int, or a row of them given as a tuple of columns
    (members' 1-d and distinct by row, queries' broadcast together), made
    one int by `np.ravel_multi_index`.  One stable argsort and one
    `searchsorted` place every key.  A missing key raises error(at), at the
    index tuple of the first one in C order.
    """
    if not isinstance(members, tuple):
        members, queries = (members,), (queries,)
    cols = [np.asarray(c, dtype=np.int64) for c in members]
    dims = [int(c.max()) + 1 if c.size else 1 for c in cols]
    keys = np.ravel_multi_index(cols, dims)
    order = keys.argsort(kind="stable")
    # a query outside the ranges of members' columns is clipped into them,
    # and then fails the column test
    found = at = keys.searchsorted(np.ravel_multi_index(queries, dims, mode="clip"),
                                   sorter=order)
    hit = at < len(keys)
    if len(keys):
        found = order.take(at, mode="clip")
        for c, q in zip(cols, queries):
            hit &= c.take(found) == q
    if not hit.all():
        raise error(tuple(int(i) for i in np.unravel_index(np.argmin(hit), hit.shape)))
    return found


def row_blocks(n, row_cells):
    """Consecutive blocks of range(n), each holding about 2**15 cells.

    row_cells is the number of cells one index contributes; a pass that
    evaluates a block at once keeps its temporaries at that size.
    """
    step = max(1, 2**15 // max(1, row_cells))
    return [np.arange(lo, min(n, lo + step)) for lo in range(0, n, step)]


def failures(n, row_cells, fails):
    """The index tuples, in C order, at which a law over range(n) fails.

    fails(rows) marks the failures as one boolean array whose first axis
    runs over `rows`, one `row_blocks` block of range(n); a block with none
    costs one `.any()`.  Blocks are evaluated lazily, so next(...) gives the
    first witness and evaluates no later block.
    """
    for rows in row_blocks(n, row_cells):
        bad = fails(rows)
        if bad.any():
            rows = rows.tolist()
            for i, *rest in np.argwhere(bad).tolist():
                yield (rows[i], *rest)
