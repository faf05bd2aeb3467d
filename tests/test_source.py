"""Checks on the library source itself."""

import ast
from pathlib import Path

import morita


def test_library_has_no_assert_statements():
    # `python -O` strips asserts; internal invariants raise typed MoritaErrors
    src = Path(morita.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _reads(paths) -> tuple:
    """The parsed files, and (path, line, name) of every name or attribute
    they read."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    return trees, [(path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
                   for path, tree in trees.items() for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))]


def test_every_private_function_and_class_is_used():
    # a module-level function or class that nothing reads is left over from
    # a merge or a refactor: a _name must be read by the library, and a
    # public name by the library or the tests (an export in __init__ is an
    # import, not a read)
    trees, uses = _reads(sorted(Path(morita.__file__).parent.glob("*.py")))
    _, test_uses = _reads(sorted(Path(__file__).parent.glob("*.py")))
    unused = [f"{path.name}:{d.name}"
              for path, tree in trees.items() for d in tree.body
              if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("__")
              and not any(used == d.name and not (where == path
                                                  and d.lineno <= line <= d.end_lineno)
                          for where, line, used in
                          uses + ([] if d.name.startswith("_") else test_uses))]
    assert unused == []


def test_every_reference_is_read_by_a_test():
    # a public function or class of tests/reference_loops.py that no other
    # test file reads is a reference left behind when its test moved or went
    tests = Path(__file__).parent
    refs = tests / "reference_loops.py"
    public = [d.name for d in ast.parse(refs.read_text(encoding="utf-8")).body
              if isinstance(d, (ast.FunctionDef, ast.ClassDef))
              and not d.name.startswith("_")]
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for path in sorted(tests.glob("*.py")) if path != refs
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Name, ast.Attribute))}
    assert [name for name in public if name not in read] == []


def test_library_has_no_function_local_imports():
    # every module's dependencies are read at its top; none of them needs a
    # late import to break a cycle
    src = Path(morita.__file__).parent
    found = sorted({f"{path.name}:{node.lineno}"
                    for path in sorted(src.glob("*.py"))
                    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))})
    assert found == []


def test_only_the_util_pass_and_two_table_builders_call_row_blocks():
    # a law is scanned for its witness by `_util.failures`; a hand-written
    # loop over `row_blocks` elsewhere would bring back its own block sizing,
    # witness order and exit rule
    src = Path(morita.__file__).parent
    users = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split('.')[0]}.{node.name}"
        if getattr(node, "id", getattr(node, "attr", None)) == "row_blocks":
            users.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    outside = {u for u in users if not u.startswith("_util")}
    assert outside == {"categories._span_tables", "groupoids._meets"}


def test_presheaf_maps_are_never_cut_with_np_split():
    # a presheaf keeps its maps as one flat array with offsets, and the
    # presheaf constructions build that form directly; cutting it into
    # per-morphism arrays only to concatenate them again is what it replaced
    src = Path(morita.__file__).parent
    found = [f"{name}:{node.lineno}"
             for name in ("actions.py", "corpus.py")
             for node in ast.walk(ast.parse((src / name).read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "split"
             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    assert found == []


def _layout_rebuilds(tree) -> list:
    """Lines of a `_flatten` function, and of a comprehension of len(...) over
    some x.fibers outside class Presheaf."""
    found = []

    def visit(node):
        if isinstance(node, ast.ClassDef) and node.name == "Presheaf":
            return
        if isinstance(node, ast.FunctionDef) and node.name == "_flatten":
            found.append(node.lineno)
        if (isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp))
                and isinstance(node.elt, ast.Call) and getattr(node.elt.func, "id", None) == "len"
                and any(getattr(g.iter, "attr", None) == "fibers" for g in node.generators)):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_the_presheaf_layout_is_never_rebuilt_from_the_fibers():
    # a presheaf lays out its elements once, as `fib_off` and `elements`;
    # a `_flatten` helper or a list of fiber sizes read off the label tuples
    # outside the class computes that layout again
    src = Path(morita.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
             for line in _layout_rebuilds(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_layout_guard_sees_the_code_it_replaced():
    old = ("def _flatten(P):\n"
           "    nfib = np.array([len(f) for f in P.fibers], dtype=np.int64)\n"
           "    return ragged(nfib)\n"
           "nfib = np.array([[len(f) for f in P.fibers] for P in parts])\n")
    assert _layout_rebuilds(ast.parse(old)) == [1, 2, 4]
    # the class computes the layout from its own fibers, once
    own = ("class Presheaf:\n"
           "    def fib_off(self):\n"
           "        return np.cumsum([len(f) for f in self.fibers])\n")
    assert _layout_rebuilds(ast.parse(own)) == []


def _cell_fills(tree) -> list:
    """Lines assigning a[i, j] where i and j are the variables of two nested for loops."""
    found = []

    def visit(node, loops):
        if isinstance(node, ast.For):
            loops = loops + [{n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)}]
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            for t in node.targets if isinstance(node, ast.Assign) else [node.target]:
                index = t.slice.elts if isinstance(t, ast.Subscript) and isinstance(
                    t.slice, ast.Tuple) else []
                if len(index) == 2 and all(isinstance(e, ast.Name) for e in index):
                    i, j = ([k for k, names in enumerate(loops) if e.id in names]
                            for e in index)
                    if i and j and i[-1] != j[-1]:
                        found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(tree, [])
    return found


def test_composite_points_are_numbered_through_positions():
    # a construction on composite points finds where each value lands with
    # `_util.positions` (or `FiniteCategory.mor_of` over payloads): no module
    # reads a payload dict extra["index"] or fills a 2-d table one cell at a
    # time in two nested loops
    src = Path(morita.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno} index"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "extra" and isinstance(node.slice, ast.Constant)
                  and node.slice.value == "index"]
        found += [f"{path.name}:{line} cell" for line in _cell_fills(tree)]
    assert found == []


def test_the_cell_fill_guard_sees_the_loop_it_replaced():
    loop = ("def restrict(S, A):\n"
            "    for i, a in enumerate(A):\n"
            "        for j, b in enumerate(A):\n"
            "            tab[i, j] = new_of_old[int(S.table[a, b])]\n")
    assert _cell_fills(ast.parse(loop)) == [4]
    # block writes and writes indexed by one loop only are not cell fills
    block = ("for x in range(n):\n"
             "    for rows in blocks:\n"
             "        canon[out[rows], out] = 0\n"
             "        pb[f[rows], g] = 1\n"
             "        t[x, x] = 2\n")
    assert _cell_fills(ast.parse(block)) == []


def _is_comp(node) -> bool:
    return getattr(node, "id", getattr(node, "attr", None)) == "comp"


def _table_scans(tree) -> list:
    """Lines that list the defined cells of a table `comp` with nonzero,
    flatnonzero or argwhere of `comp >= 0`, fill `comp` through np.ix_, or
    read `tobytes`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
                "nonzero", "flatnonzero", "argwhere"):
            arg = node.args[0] if node.args else None
            if (isinstance(arg, ast.Compare) and isinstance(arg.ops[0], ast.GtE)
                    and _is_comp(arg.left)):
                found.append(node.lineno)
        elif isinstance(node, ast.Assign):
            found += [node.lineno for t in node.targets
                      if isinstance(t, ast.Subscript) and _is_comp(t.value)
                      and isinstance(t.slice, ast.Call)
                      and getattr(t.slice.func, "attr", None) == "ix_"]
        elif isinstance(node, ast.Attribute) and node.attr == "tobytes":
            found.append(node.lineno)
    return sorted(found)


def test_categories_read_the_composable_pairs_they_listed():
    # a category lists its composable pairs once, from the endpoints, and
    # fills its table with one pass over them; the refinement hashes its
    # keys.  Scanning the m x m table for its defined cells, filling it one
    # middle object at a time, or interning dense rows as byte strings is
    # what that replaced.  check_category validates a table that need not
    # be a category, so it reads the cells it finds defined, through a name.
    src = Path(morita.__file__).parent / "categories.py"
    assert _table_scans(ast.parse(src.read_text(encoding="utf-8"))) == []


def test_the_table_scan_guard_sees_the_code_it_replaced():
    old = ("g, f = np.nonzero(C.comp >= 0)\n"
           "a, b = np.nonzero(comp >= 0)\n"
           "comp[np.ix_(g, f)] = composite(g[:, None], f[None, :])\n"
           "code = table.setdefault(r.tobytes(), len(table))\n")
    assert _table_scans(ast.parse(old)) == [1, 2, 3, 4]
    # reading the pairs, filling the table from them, and reading a
    # submatrix through np.ix_ are not scans
    new = ("g, f, h = C._composable\n"
           "comp[g, f] = h\n"
           "sub = C.comp[np.ix_(keep, keep)]\n"
           "defined = np.flatnonzero(row >= 0)\n")
    assert _table_scans(ast.parse(new)) == []


def _verdict_writes(tree) -> list:
    """Lines, inside a function, that assign some x.verdict or call some x.fail(...)."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
            if any(isinstance(t, ast.Attribute) and t.attr == "verdict" for t in targets):
                found.append(node.lineno)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "fail"):
                found.append(node.lineno)
    return sorted(set(found))


def test_cli_verdicts_follow_from_the_report_lines():
    # a report's verdict is derived from its lines (and the result of
    # `morita`); a command that sets it, or a `fail` helper that sets it
    # beside its line, keeps the two in step by hand again
    src = Path(morita.__file__).parent / "cli.py"
    assert _verdict_writes(ast.parse(src.read_text(encoding="utf-8"))) == []


def test_the_verdict_guard_sees_the_code_it_replaced():
    old = ("def fail(self, check, witness=''):\n"
           "    self.add(check, 'fail', witness)\n"
           "    self.verdict = 'fail'\n"
           "def cmd(args):\n"
           "    rep.fail('biset_axioms')\n"
           "    if not report.passed:\n"
           "        rep.verdict = 'fail'\n")
    assert _verdict_writes(ast.parse(old)) == [3, 5, 7]
    # reading the verdict, and setting the result it falls back on, are not writes
    new = ("def cmd(args):\n"
           "    rep.result = 'true'\n"
           "    rep.add('witness_functors', 'fail')\n"
           "    return 1 if rep.verdict == 'fail' else 0\n")
    assert _verdict_writes(ast.parse(new)) == []


def _budget_literals(tree) -> list:
    """Lines holding the literal 10_000_000."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is int
            and node.value == 10_000_000]


def test_the_default_budget_is_written_once():
    # every exhaustive search defaults to errors.DEFAULT_BUDGET; a second
    # copy of the number can drift from it
    src = Path(morita.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
             for line in _budget_literals(ast.parse(path.read_text(encoding="utf-8")))]
    assert len(found) == 1 and found[0].startswith("errors.py:")


def test_the_budget_guard_sees_the_code_it_replaced():
    old = ("def action_homs(X, Y, budget: int = 10_000_000):\n"
           "    pass\n"
           "p.add_argument('--budget', type=int, default=10000000)\n")
    assert _budget_literals(ast.parse(old)) == [1, 3]
    assert _budget_literals(ast.parse("budget = DEFAULT_BUDGET\nn = 10_000_001\n")) == []


def _functions_where(tree, match) -> list:
    """(function, line) of each node that match(node) accepts, naming the
    innermost enclosing function, or "" at module level."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if match(node):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def _is_stack_step(node) -> bool:
    """A call next(x[-1], ...): advancing the top generator of a stack."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "next"
            and node.args and isinstance(node.args[0], ast.Subscript)):
        return False
    index = node.args[0].slice
    return (isinstance(index, ast.UnaryOp) and isinstance(index.op, ast.USub)
            and getattr(index.operand, "value", None) == 1)


def test_one_driver_walks_every_placement_search():
    # the backtracking searches walk their levels through _util.depth_first,
    # which keeps the generators on a stack and counts the placements; a
    # stack loop of its own elsewhere brings back its own budget rule
    src = Path(morita.__file__).parent
    found = [f"{path.stem}.{fn}" for path in sorted(src.glob("*.py"))
             for fn, _line in _functions_where(ast.parse(path.read_text(encoding="utf-8")),
                                               _is_stack_step)]
    assert found == ["_util.depth_first"]


def test_the_driver_guard_sees_the_code_it_replaced():
    old = ("def categories_isomorphic(C, D, budget):\n"
           "    stack = []\n"
           "    while True:\n"
           "        while stack and next(stack[-1], True):\n"
           "            stack.pop()\n"
           "def _orbit_maps(n, orbit, values, budget, search):\n"
           "    while stack and next(stack[-1], True):\n"
           "        stack.pop()\n")
    assert _functions_where(ast.parse(old), _is_stack_step) == [
        ("categories_isomorphic", 4), ("_orbit_maps", 7)]
    # taking the first item of an iterator, or of the last of a list, is no step
    new = ("f = next(_orbit_maps(n, orbit, values, budget, search), None)\n"
           "w = next(failures(n, k, fails), None)\n"
           "x = stack[-1]\n")
    assert _functions_where(ast.parse(new), _is_stack_step) == []


def _is_budget_message(node) -> bool:
    """An f-string worded "... used up its budget of ... placements" (the
    biset oracle counts cell assignments, under a message of its own)."""
    if not isinstance(node, ast.JoinedStr):
        return False
    text = "".join(part.value for part in node.values if isinstance(part, ast.Constant))
    return "used up its budget of" in text and text.endswith("placements")


def test_one_rule_counts_every_placement_budget():
    # the depth-first driver and the level walk both count placements
    # through _util.spend; a second copy of the test or of its message can
    # drift from it
    src = Path(morita.__file__).parent
    found = [f"{path.stem}.{fn}" for path in sorted(src.glob("*.py"))
             for fn, _line in _functions_where(ast.parse(path.read_text(encoding="utf-8")),
                                               _is_budget_message)]
    assert found == ["_util.spend"]


def _orbit_maps_callers(tree, names) -> list:
    """The functions among names that read `_orbit_maps`."""
    return [fn.name for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and fn.name in names
            and any(getattr(node, "id", None) == "_orbit_maps" for node in ast.walk(fn))]


def test_homs_and_nats_walk_their_searches_one_level_at_a_time():
    # their orbits and candidates never read the partial map, so
    # _util.orbit_levels finds their maps level by level; the depth-first
    # _orbit_maps is for action_isomorphic, whose candidates do
    src = Path(morita.__file__).parent
    tree = ast.parse((src / "actions.py").read_text(encoding="utf-8"))
    assert _orbit_maps_callers(tree, ("action_homs", "presheaf_nats")) == []
    assert _orbit_maps_callers(tree, ("action_isomorphic",)) == ["action_isomorphic"]


def test_the_level_and_budget_guards_see_the_code_they_replaced():
    old = ("def depth_first(level, budget, search):\n"
           "    if placements > budget:\n"
           "        raise BudgetExceeded(f'{search} used up its budget of {budget} placements')\n"
           "def action_homs(X, Y, budget):\n"
           "    maps = _orbit_maps(len(X), orbit, lambda _x0, _f: value, budget, search)\n"
           "def presheaf_nats(P1, P2, budget):\n"
           "    return sorted(tuple(f) for f in _orbit_maps(n, orbit, values, budget, search))\n")
    tree = ast.parse(old)
    assert _functions_where(tree, _is_budget_message) == [("depth_first", 3)]
    assert _orbit_maps_callers(tree, ("action_homs", "presheaf_nats")) == [
        "action_homs", "presheaf_nats"]


def _is_site_read(node) -> bool:
    """A read of x.extra["obj_elt"] or x.extra["sgrp"], or a call
    x.extra.get("kind") or x.extra.get("sgrp"); `extra` may be a name."""
    def is_extra(value):
        return getattr(value, "attr", getattr(value, "id", None)) == "extra"

    if isinstance(node, ast.Subscript) and is_extra(node.value):
        return getattr(node.slice, "value", None) in ("obj_elt", "sgrp")
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and is_extra(node.func.value) and node.args
            and getattr(node.args[0], "value", None) in ("kind", "sgrp"))


def test_actions_read_their_sites_through_one_helper():
    # a site is checked to be L(S) or C(S), and its semigroup and object
    # idempotents read, in actions._read_site alone; a hand check elsewhere
    # can drift from it
    src = Path(morita.__file__).parent / "actions.py"
    found = {fn for fn, _line in _functions_where(
        ast.parse(src.read_text(encoding="utf-8")), _is_site_read)}
    assert found == {"_read_site"}


def test_the_site_guard_sees_the_code_it_replaced():
    old = ("def _expect_site(P, kind):\n"
           "    if P.site.extra.get('kind') != kind or 'sgrp' not in P.site.extra:\n"
           "        raise WrongSite('presheaf site is not an L-category')\n"
           "    return P.site.extra['sgrp']\n"
           "def Q_of(X, site=None):\n"
           "    if C.extra.get('kind') != 'C' or C.extra.get('sgrp') is not S:\n"
           "        raise WrongSite('site must be C(S)')\n"
           "    obj_elt = list(C.extra['obj_elt'])\n")
    assert _functions_where(ast.parse(old), _is_site_read) == [
        ("_expect_site", 2), ("_expect_site", 4), ("Q_of", 6), ("Q_of", 6), ("Q_of", 8)]
    # the other payloads of an action, and building a site's extra, are no site reads
    new = ("pairs = RX.base.extra['pairs']\n"
           "elts = base.extra['elt_of_point']\n"
           "X = RightAction(names, S, act, {'kind': 'regular'})\n")
    assert _functions_where(ast.parse(new), _is_site_read) == []


def _is_lookup(node) -> bool:
    """t[a, b, ...]: a subscript by two or more indices, as a table is read."""
    return (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
            and len(node.slice.elts) >= 2)


def _is_conjugation(node) -> bool:
    """A gather t[u[a, ...], ...] whose inner lookup's first index a reads
    some `star`: the product s*es read off a table."""
    return (_is_lookup(node) and _is_lookup(node.slice.elts[0])
            and any(getattr(n, "id", getattr(n, "attr", None)) == "star"
                    for n in ast.walk(node.slice.elts[0].slice.elts[0])))


def test_the_anchor_rule_is_written_once():
    # s*es, the anchor rule p(xs) = s*p(x)s of an etale action, is gathered
    # in semigroups.conjugates alone; a gather of its own elsewhere can
    # drift from it
    src = Path(morita.__file__).parent
    found = [f"{path.stem}.{fn}" for path in sorted(src.glob("*.py"))
             for fn, _line in _functions_where(ast.parse(path.read_text(encoding="utf-8")),
                                               _is_conjugation)]
    assert found == ["semigroups.conjugates"]


def test_the_anchor_rule_guard_sees_the_code_it_replaced():
    old = ("def munn_action(S):\n"
           "    act = pos[tab[tab[S.star, np.array(E)[:, None]], np.arange(len(S))]]\n"
           "def R_of(X):\n"
           "    act = positions((e, x), (tab[tab[star, e[:, None]], np.arange(n)], a))\n"
           "def _etale_of_fibers(P, kind, tag):\n"
           "    es, d = tab[e, s], tab[tab[star[s], e], s]\n")
    assert _functions_where(ast.parse(old), _is_conjugation) == [
        ("munn_action", 2), ("R_of", 4), ("_etale_of_fibers", 6)]
    # s*s, the natural order and the pairings of a biset are no conjugation
    new = ("d = tab[S.star, np.arange(len(S))]\n"
           "leq = tab[t, tab[S.star[s], s]] == s\n"
           "leq = tab[:, tab[star, ar]].T == ar[:, None]\n"
           "key = tab[b[T.star], xp[:, None]]\n")
    assert _functions_where(ast.parse(new), _is_conjugation) == []


def _unique_calls(tree) -> list:
    """Lines calling np.unique or numpy.unique."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "unique"
                  and getattr(node.func.value, "id", None) in ("np", "numpy"))


def test_bisets_take_their_product_sets_from_semigroups():
    # a product set is formed by semigroups._product_set, and the
    # enlargement identities are read from semigroups.enlargement_identities;
    # bisets.py forming its own can drift from them
    src = Path(morita.__file__).parent / "bisets.py"
    assert _unique_calls(ast.parse(src.read_text(encoding="utf-8"))) == []


def test_the_product_set_guard_sees_the_code_it_replaced():
    old = ("inside[tab[np.ix_(np.unique(tab[np.ix_(A, full)]), B)]] = True\n"
           "def pset(A, Bset):\n"
           "    v = table[np.ix_(A, Bset)]\n"
           "    return np.unique(v[v >= 0])\n"
           "s_objs = np.unique(G.dom[list(Rg.extra['s_part'])])\n"
           "t_objs = numpy.unique(G.dom[list(Rg.extra['t_part'])])\n")
    assert _unique_calls(ast.parse(old)) == [1, 4, 5, 6]
    # the shared helpers, and a unique of another library, are no product set
    new = ("inside[_product_set(tab, _product_set(tab, A, full), B)] = True\n"
           "within, spans = enlargement_identities(table, part)\n"
           "names = sorted(set(points))\n"
           "u = pd.unique(values)\n")
    assert _unique_calls(ast.parse(new)) == []


def _is_idempotent_test(node) -> bool:
    """np.diagonal(t) == ...: the idempotents of a table t, read off its
    diagonal; a category's `comp` holds idempotent endomorphisms, not the
    idempotents of a semigroup, and is left out."""
    if not (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.Eq)
            and isinstance(node.left, ast.Call) and node.left.args):
        return False
    func = node.left.func
    return (getattr(func, "attr", None) == "diagonal"
            and getattr(func.value, "id", None) in ("np", "numpy")
            and not _is_comp(node.left.args[0]))


def test_the_idempotents_of_a_table_are_found_once():
    # semigroups.cauchy derives E(S), with s*s, ss*, eS and Se, once per
    # structure, and every construction reads it; the checks that run
    # before a star exists (as_inverse, semigroupoid_violations) are the
    # only other readers of a table's diagonal
    src = Path(morita.__file__).parent
    found = {f"{path.stem}.{fn}" for path in sorted(src.glob("*.py"))
             for fn, _line in _functions_where(ast.parse(path.read_text(encoding="utf-8")),
                                               _is_idempotent_test)}
    assert found == {"semigroups.cauchy", "semigroups.as_inverse",
                     "groupoids.semigroupoid_violations"}


def test_the_idempotent_guard_sees_the_code_it_replaced():
    old = ("def _pair_category(tab, star, names, sep, extra):\n"
           "    Ea = np.flatnonzero(np.diagonal(tab) == np.arange(n))\n"
           "def _ordered_groupoid(names, tab, star, extra):\n"
           "    idem = np.flatnonzero(np.diagonal(tab) == ar)\n")
    assert _functions_where(ast.parse(old), _is_idempotent_test) == [
        ("_pair_category", 2), ("_ordered_groupoid", 4)]
    # a category's idempotent endomorphisms, and the elements off E(S), are no such test
    new = ("idem = (C.dom == C.cod) & (np.diagonal(C.comp) == ar)\n"
           "off = np.diagonal(tab) != ar\n"
           "E = S.cauchy.E\n")
    assert _functions_where(ast.parse(new), _is_idempotent_test) == []


def _is_skeleton_field_read(node) -> bool:
    """A definition of `_extend`, or a read of some to_rep or from_rep."""
    if isinstance(node, ast.FunctionDef):
        return node.name == "_extend"
    return (isinstance(getattr(node, "ctx", None), ast.Load)
            and getattr(node, "id", getattr(node, "attr", None)) in ("to_rep", "from_rep"))


def test_a_skeleton_is_read_through_its_functors():
    # a skeleton is kept as its inclusion and retraction, and the witnesses
    # of an equivalence compose them; the isomorphisms to the
    # representatives are read only where the skeleton is built, by its
    # retraction (`CauchySkeleton.retract`) and by the certificate check
    src = Path(morita.__file__).parent / "bisets.py"
    found = {fn for fn, _line in _functions_where(ast.parse(src.read_text(encoding="utf-8")),
                                                  _is_skeleton_field_read)}
    assert found == {"cauchy_skeleton", "retract", "_skeleton_holds"}


def test_the_skeleton_guard_sees_the_code_it_replaced():
    old = ("def _extend(src, src_sk, dst_sk, iso, dst):\n"
           "    t = src.comp[src_sk.to_rep[src.cod], np.arange(src.n_mor)]\n"
           "    t = src.comp[t, src_sk.from_rep[src.dom]]\n")
    assert _functions_where(ast.parse(old), _is_skeleton_field_read) == [
        ("_extend", 1), ("_extend", 2), ("_extend", 3)]
    new = ("def equivalence_from_skeletons(skC, skD, budget):\n"
           "    return compose_functors(skD.incl, compose_functors(phi, skC.retract))\n")
    assert _functions_where(ast.parse(new), _is_skeleton_field_read) == []


def _calls(tree, fn) -> set:
    """The names that function `fn` of tree calls, as f(...) or x.f(...)."""
    return {getattr(node.func, "id", getattr(node.func, "attr", None))
            for d in ast.walk(tree) if isinstance(d, ast.FunctionDef) and d.name == fn
            for node in ast.walk(d) if isinstance(node, ast.Call)}


def test_the_decision_reads_its_skeletons_off_the_semigroups():
    # a skeleton of C(S) is read off S's factorisation; building C(S) and
    # finding its isomorphism classes again is what the decision replaced
    src = Path(morita.__file__).parent / "bisets.py"
    calls = _calls(ast.parse(src.read_text(encoding="utf-8")), "morita_equivalent")
    assert "cauchy_skeleton" in calls
    assert not calls & {"C_of", "skeleton_with_maps"}


def test_the_decision_guard_sees_the_code_it_replaced():
    old = ("def morita_equivalent(S, T, budget):\n"
           "    skS, skT = skeleton_with_maps(C_of(S)), skeleton_with_maps(C_of(T))\n"
           "    return categories.C_of(S)\n")
    assert _calls(ast.parse(old), "morita_equivalent") == {"skeleton_with_maps", "C_of"}
    # the same calls in another function are not the decision's
    assert _calls(ast.parse(old.replace("morita_equivalent", "witness")),
                  "morita_equivalent") == set()


def _count_C_of(monkeypatch) -> list:
    """Patch C_of wherever a module of the package binds it, and return the
    list each call appends its semigroup to."""
    from morita import actions, bisets, categories, cli

    real, calls = categories.C_of, []

    def counted(S):
        calls.append(S)
        return real(S)

    for module in (actions, bisets, categories, cli):
        if getattr(module, "C_of", None) is real:
            monkeypatch.setattr(module, "C_of", counted)
    return calls


def test_a_morita_run_builds_no_cauchy_completion(tmp_path, monkeypatch, capsys):
    from morita.cli import main

    assert main(["corpus", str(tmp_path)]) == 0
    calls = _count_C_of(monkeypatch)
    assert main(["morita", str(tmp_path / "brandt_1_2.smg"), str(tmp_path / "brandt_1_3.smg")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "check=witness_forward status=ok" in out and out[-1] == "verdict=true"
    assert calls == []


def test_the_count_guard_sees_the_code_it_replaced(monkeypatch):
    # the witness functors on C(S) and C(T), which the decision and the CLI
    # checked before, build both completions through the patched name
    from morita.bisets import morita_equivalent
    from morita.semigroups import brandt, cyclic_group

    calls = _count_C_of(monkeypatch)
    d = morita_equivalent(brandt(cyclic_group(1), 2), brandt(cyclic_group(1), 3))
    assert calls == []
    assert d.forward is not None and d.backward is not None
    # one C_of per side, T's first: the forward witness reads T's inclusion
    # before S's retraction
    assert [len(S) for S in calls] == [10, 5]


def test_analyze_builds_C_only_to_emit_it(tmp_path, monkeypatch, capsys):
    # the analyze report reads |C(S)| off S's factorisation; C(S) itself
    # is built only to be written out
    from morita.cli import main

    assert main(["corpus", str(tmp_path)]) == 0
    calls = _count_C_of(monkeypatch)
    path = str(tmp_path / "brandt_1_2.smg")
    assert main(["analyze", path, "--emit-l", str(tmp_path / "l.cat")]) == 0
    assert calls == []
    assert main(["analyze", path, "--emit-c", str(tmp_path / "c.cat")]) == 0
    assert [len(S) for S in calls] == [5]
    capsys.readouterr()


def _is_domain_gather(node) -> bool:
    """t[star[x], x], or t[star, ar] over every element: s*s read off a
    table."""
    if not (_is_lookup(node) and len(node.slice.elts) == 2):
        return False
    a, b = node.slice.elts

    def named(n, name):
        return getattr(n, "id", getattr(n, "attr", None)) == name

    if isinstance(a, ast.Subscript) and named(a.value, "star"):
        return ast.dump(a.slice) == ast.dump(b)
    return named(a, "star") and (named(b, "ar") or named(getattr(b, "func", None), "arange"))


def test_the_domain_of_an_element_is_gathered_once():
    # s*s is read off a table by semigroups.cauchy, as d, and every
    # construction reads E[d]; the natural order stays on its own gather,
    # as it is checked on one-cell mutants whose s*s need not be idempotent
    src = Path(morita.__file__).parent
    found = {f"{path.stem}.{fn}" for path in sorted(src.glob("*.py"))
             for fn, _line in _functions_where(ast.parse(path.read_text(encoding="utf-8")),
                                               _is_domain_gather)}
    assert found == {"semigroups.cauchy", "semigroups.natural_order"}


def test_the_domain_guard_sees_the_code_it_replaced():
    old = ("def principal_etale(S, e):\n"
           "    return EtaleAction(base, S.table[S.star[elts], elts])\n"
           "def cauchy_vs_span(S):\n"
           "    code = canon[L.mor_of(e, s), L.mor_of(d, tab[star[s], s])]\n"
           "def _skeleton_holds(S, sk):\n"
           "    ok = np.array_equal(tab[S.star[t], t], F.E)\n"
           "def cauchy(tab, star):\n"
           "    d = obj[tab[star, np.arange(len(tab))]]\n")
    assert _functions_where(ast.parse(old), _is_domain_gather) == [
        ("principal_etale", 2), ("cauchy_vs_span", 4), ("_skeleton_holds", 6), ("cauchy", 8)]
    # a read of the factorisation, a product s t*, and a conjugation are no such gather
    new = ("p = F.E[F.d[elts]]\n"
           "psi_m = C.mor_of(e, tab[s, star[t]], d)\n"
           "se = tab[S.star, np.asarray(e)[..., None]]\n")
    assert _functions_where(ast.parse(new), _is_domain_gather) == []


def _builds_a_skeleton(node) -> bool:
    """A definition of `skeleton_with_maps` or `_skeleton_data`, or a call
    of `_cauchy_category` for a skeleton."""
    if isinstance(node, ast.FunctionDef):
        return node.name in ("skeleton_with_maps", "_skeleton_data")
    return (isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_cauchy_category"
            and any(getattr(a, "value", None) == "skeleton"
                    for a in node.args + [k.value for k in node.keywords]))


def test_skeletons_are_built_only_from_a_semigroup():
    # the one skeleton builder reads a skeleton of C(S) off S's D-classes;
    # cutting a skeleton out of a built category is what it replaced
    src = Path(morita.__file__).parent
    found = {f"{path.stem}.{fn}" for path in sorted(src.glob("*.py"))
             for fn, _line in _functions_where(ast.parse(path.read_text(encoding="utf-8")),
                                               _builds_a_skeleton)}
    assert found == {"bisets.cauchy_skeleton"}


def test_the_skeleton_builder_guard_sees_the_code_it_replaced():
    old = ("def _skeleton_data(C, rep, to_rep, from_rep):\n"
           "    is_rep = rep == np.arange(C.n_objects)\n"
           "def skeleton_with_maps(C):\n"
           "    return _skeleton_data(C, rep, to_rep, from_rep)\n"
           "def cauchy_skeleton(S):\n"
           "    return CauchySkeleton(_cauchy_category(S, reps, \"skeleton\"), rep, to_rep)\n"
           "def _extra_skeleton(S):\n"
           "    return categories._cauchy_category(S, reps, kind=\"skeleton\")\n")
    assert _functions_where(ast.parse(old), _builds_a_skeleton) == [
        ("_skeleton_data", 1), ("skeleton_with_maps", 3), ("cauchy_skeleton", 6),
        ("_extra_skeleton", 8)]
    # C(S) itself, and a skeleton's own functors, are no skeleton builders
    new = ("def C_of(S):\n"
           "    return _cauchy_category(S, slice(None), \"C\")\n"
           "def skeleton_witnesses(skC, skD, phi):\n"
           "    return compose_functors(skD.incl, compose_functors(phi, skC.retract))\n")
    assert _functions_where(ast.parse(new), _builds_a_skeleton) == []


_KINDS = {"kind", "_EQ1", "_EQ2", "_SET", "_INV"}


def _per_instance_kind_reads(tree, fn) -> list:
    """Lines where function `fn` of tree reads an instance kind (the name
    `kind` or a constant `_EQ1` .. `_INV`) inside a loop with no loop in it,
    the loop over single instances."""
    found = set()
    for d in ast.walk(tree):
        if not (isinstance(d, ast.FunctionDef) and d.name == fn):
            continue
        for loop in ast.walk(d):
            if isinstance(loop, ast.For) and not any(
                    isinstance(inner, ast.For) for node in loop.body
                    for inner in ast.walk(node)):
                found |= {node.lineno for node in loop.body for node in ast.walk(node)
                          if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                          and node.id in _KINDS}
    return sorted(found)


def test_the_oracle_dispatches_once_per_run():
    # the oracle's watch table groups each cell's instances into runs of one
    # kind, built without deduplicating each instance's cells; testing the
    # kind of every instance, or a set() per instance, is what it replaced
    tree = ast.parse((Path(morita.__file__).parent / "bisets.py").read_text(encoding="utf-8"))
    assert "set" not in _calls(tree, "_build_instances")
    assert _per_instance_kind_reads(tree, "propagate") == []


def test_the_dispatch_guard_sees_the_code_it_replaced():
    old = ("def _build_instances(self):\n"
           "    def add(inst, cells):\n"
           "        for c in set(cells):\n"
           "            watch[c].append(inst)\n"
           "def propagate(self):\n"
           "    while queue:\n"
           "        for inst in watch[queue.pop()]:\n"
           "            kind = inst[0]\n"
           "            if kind <= _EQ2:\n"
           "                if kind == _EQ1:\n"
           "                    pass\n")
    tree = ast.parse(old)
    assert "set" in _calls(tree, "_build_instances")
    assert _per_instance_kind_reads(tree, "propagate") == [9, 10]
    # the kind read once per run, outside the loop over its instances
    new = ("def propagate(self):\n"
           "    while queue:\n"
           "        for kind, insts in watch[queue.pop()]:\n"
           "            if kind == _EQ1:\n"
           "                for a, row, c2 in insts:\n"
           "                    va = val[a]\n")
    assert _per_instance_kind_reads(ast.parse(new), "propagate") == []
