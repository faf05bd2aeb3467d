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


def test_every_private_function_and_class_is_used():
    # a module-level _name that nothing in the library reads is left over
    # from a merge or a refactor
    src = Path(morita.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    uses = [(name, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = [f"{name}:{d.name}"
              for name, tree in trees.items() for d in tree.body
              if isinstance(d, (ast.FunctionDef, ast.ClassDef))
              and d.name.startswith("_") and not d.name.startswith("__")
              and not any(used == d.name and not (where == name
                                                   and d.lineno <= line <= d.end_lineno)
                          for (where, line, used) in uses)]
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
