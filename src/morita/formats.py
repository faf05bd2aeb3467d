"""Text formats for the structures: .smg, .cat, .act, .biset, .ogpd.

All formats are line-oriented, UTF-8, with # comments.  Names match
[A-Za-z0-9_()',]+ so they can be whitespace-separated.  Parsers validate
structure on load; dumpers are deterministic.

Every format but .smg is a list of `key: value` header lines and `name:`
sections, each section holding lines of one shape (`g . f = h`, `a <= b`,
`x -> e`, `f : a -> b`).  One reader (`_read`) splits such a text into rows,
one filler (`_fill`) turns a section into a table, and one writer
(`_cells`) writes a table back in row-major order.
"""

import re
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .actions import EtaleAction, RightAction, check_action, check_etale
from .bisets import EquivalenceBiset
from .categories import FiniteCategory, check_category
from .errors import NotAssociative, ParseError
from .groupoids import OrderedGroupoid, validate_ordered_groupoid
from .semigroups import FiniteSemigroup, as_inverse, assoc_witness

NAME_RE = re.compile(r"^[A-Za-z0-9_()',]+$")


def _tokens(text: str) -> list:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
    return out


def _need(pos, name, what):
    """pos[name], or ParseError when the file never declared the name."""
    if name not in pos:
        raise ParseError(f"unknown {what} {name!r}")
    return pos[name]


def _check_names(names):
    seen = set()
    for nm in names:
        if not NAME_RE.match(nm):
            raise ParseError(f"bad element name {nm!r}")
        if nm in seen:
            raise ParseError(f"duplicate element name {nm!r}")
        seen.add(nm)


# -- .smg ------------------------------------------------------------------------

def parse_semigroup(text: str) -> FiniteSemigroup:
    """line 1: n; line 2: names; then n rows of n names.  Checks associativity."""
    lines = _tokens(text)
    if not lines:
        raise ParseError("empty input")
    if len(lines[0]) != 1:
        raise ParseError("first line must be the element count")
    try:
        n = int(lines[0][0])
    except ValueError:
        raise ParseError(f"bad element count {lines[0][0]!r}")
    if n < 1:
        raise ParseError("need at least one element")
    if len(lines) != n + 2:
        raise ParseError(f"expected {n + 2} content lines, found {len(lines)}")
    names = lines[1]
    if len(names) != n:
        raise ParseError(f"expected {n} names, found {len(names)}")
    _check_names(names)
    pos = {nm: i for i, nm in enumerate(names)}
    rows = lines[2:]
    if any(len(row) != n for row in rows):
        raise _row_error(rows, pos, n)
    cells = np.fromiter(map(pos.get, chain.from_iterable(rows), repeat(-1)),
                        dtype=np.int64, count=n * n)
    if (cells < 0).any():
        raise _row_error(rows, pos, n)
    S = FiniteSemigroup(tuple(names), cells.reshape(n, n))
    w = assoc_witness(S)
    if w is not None:
        i, j, k = w
        raise NotAssociative(
            f"({names[i]} {names[j]}) {names[k]} != {names[i]} ({names[j]} {names[k]})",
            witness=w,
        )
    return S


def _row_error(rows, pos, n) -> ParseError:
    """The error of the first bad table row: its length, else its first
    unknown name."""
    i, row = next((i, row) for i, row in enumerate(rows)
                  if len(row) != n or not pos.keys() >= set(row))
    if len(row) != n:
        return ParseError(f"row {i} has {len(row)} entries, expected {n}")
    return ParseError(f"unknown element {next(nm for nm in row if nm not in pos)!r} in row {i}")


def dump_semigroup(S: FiniteSemigroup) -> str:
    n = len(S)
    lines = [str(n), " ".join(S.names)]
    for i in range(n):
        lines.append(" ".join(S.names[int(S.table[i, j])] for j in range(n)))
    return "\n".join(lines) + "\n"


def _text(path) -> str:
    """The text of the file at path, which must be UTF-8; ParseError names
    a file that is not."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def load_semigroup(path) -> FiniteSemigroup:
    return parse_semigroup(_text(path))


# -- sectioned formats -------------------------------------------------------------

# the line shapes of the sections
_ARROW = re.compile(r"^(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$")      # f : a -> b
_PRODUCT = re.compile(r"^(\S+)\s*\.\s*(\S+)\s*=\s*(\S+)$")    # g . f = h
_PAIRING = re.compile(r"^(\S+)\s*[.,]\s*(\S+)\s*=\s*(\S+)$")  # x , y = s
_LEQ = re.compile(r"^(\S+)\s*<=\s*(\S+)$")                    # a <= b
_MAPSTO = re.compile(r"^(\S+)\s*->\s*(\S+)$")                 # x -> e


def _read(text, head, headers, sections, section=None, opener=":"):
    """The rows of a sectioned text, by section name.

    Comments and blank lines are skipped.  A line `key: value` with key in
    headers sets head[key] = headers[key](value) at once (and opens the
    section named key, if there is one); a line of a section name followed
    by `opener` opens that section.  Every other line must match the pattern
    of the open section, sections[name] = (pattern, what), and its groups
    become a row of that section; otherwise ParseError ("unexpected line"
    before any section, "bad {what} line" after one).
    """
    rows = {name: [] for name in sections}
    keys = tuple(key + ":" for key in headers)
    opens = re.compile(f"({'|'.join(sections)}){opener}")
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(keys):
            key = next(k for k in headers if line.startswith(k + ":"))
            head[key] = headers[key](line[len(key) + 1:])
            if key in sections:
                section = key
            continue
        opened = opens.fullmatch(line)
        if opened:
            section = opened[1]
            continue
        if section is None:
            raise ParseError(f"unexpected line {line!r}")
        pattern, what = sections[section]
        m = pattern.match(line)
        if m is None:
            raise ParseError(f"bad {what} line {line!r}")
        rows[section].append(m.groups())
    return rows


def _fill(table, rows, keys, check=None):
    """table[a, b] = c for each row (a, b, c), or True for each row (a, b)
    of a bool table; a 1-d table takes rows (a, c).

    keys[i] = (pos, what) numbers the names of column i.  When a row names
    something undeclared, the first such row raises ParseError: check(*row)
    when given, else `_need` on its names in the order `table[a, b] = c`
    evaluates them (c, then a, then b).
    """
    if not rows:
        return table
    try:
        idx = [[pos[name] for name in col] for (pos, _what), col in zip(keys, zip(*rows))]
    except KeyError:
        if check is None:
            order = list(range(len(keys)))
            if table.dtype != bool:
                order = order[-1:] + order[:-1]

            def check(*row):
                for k in order:
                    _need(keys[k][0], row[k], keys[k][1])

        for row in rows:
            check(*row)
        raise
    if table.dtype == bool:
        idx.append(True)
    table[tuple(idx[:-1])] = idx[-1]
    return table


def _cells(table, rows, op, cols, vals=None):
    """`a op b = c` for each defined cell table[a, b] = c, or `a op b` for
    each true cell of a bool table (vals None), in row-major order."""
    a, b = np.nonzero(table if vals is None else table >= 0)
    if vals is None:
        return [f"{rows[i]} {op} {cols[j]}" for i, j in zip(a.tolist(), b.tolist())]
    return [f"{rows[i]} {op} {cols[j]} = {vals[k]}"
            for i, j, k in zip(a.tolist(), b.tolist(), table[a, b].tolist())]


def _category_lines(objects, labels, dom, cod, comp, section):
    """The arrow section (`morphisms:` or `arrows:`) and `compose:` of .cat/.ogpd."""
    return ([section + ":"]
            + [f"{lab} : {objects[d]} -> {objects[c]}"
               for lab, d, c in zip(labels, dom.tolist(), cod.tolist())]
            + ["compose:"] + _cells(comp, labels, ".", labels, labels))


def _identities(objects, dom, cod, comp, what):
    """Per object, its first endomorphism that is a two-sided unit.

    ParseError naming the first object without one.
    """
    everything = np.arange(len(dom))
    endo = np.flatnonzero(dom == cod)
    o = dom[endo]
    left = ((comp[endo] == everything) | (cod != o[:, None])).all(axis=1)
    right = ((comp[:, endo] == everything[:, None]) | (dom[:, None] != o)).all(axis=0)
    units = endo[left & right]
    objs, first = np.unique(dom[units], return_index=True)
    identity = np.full(len(objects), -1, dtype=np.int64)
    identity[objs] = units[first]
    missing = np.flatnonzero(identity < 0)
    if missing.size:
        raise ParseError(f"object {objects[missing[0]]!r} has no identity {what}")
    return identity


# -- .cat ------------------------------------------------------------------------

_CAT = {"morphisms": (_ARROW, "morphism"), "compose": (_PRODUCT, "compose")}


def dump_category(C: FiniteCategory) -> str:
    lines = ["objects: " + " ".join(str(o) for o in C.objects)]
    lines += _category_lines(C.objects, C.mor_labels, C.dom, C.cod, C.comp, "morphisms")
    return "\n".join(lines) + "\n"


def parse_category(text: str) -> FiniteCategory:
    head = {"objects": []}
    rows = _read(text, head, {"objects": str.split}, _CAT)
    objects, mors = head["objects"], rows["morphisms"]
    if not objects:
        raise ParseError("no objects")
    opos = {o: i for i, o in enumerate(objects)}
    labels = [lab for (lab, _d, _c) in mors]
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate morphism labels")
    mpos = {lab: i for i, lab in enumerate(labels)}
    dom = np.empty(len(mors), dtype=np.int64)
    cod = np.empty(len(mors), dtype=np.int64)
    for i, (lab, d, c) in enumerate(mors):
        if d not in opos or c not in opos:
            raise ParseError(f"morphism {lab!r} uses unknown object")
        dom[i] = opos[d]
        cod[i] = opos[c]

    def unknown(*row):
        for lab in row:
            if lab not in mpos:
                raise ParseError(f"unknown morphism {lab!r} in compose")

    comp = _fill(np.full((len(mors), len(mors)), -1, dtype=np.int64),
                 rows["compose"], [(mpos, "morphism")] * 3, unknown)
    identity = _identities(objects, dom, cod, comp, "morphism")
    C = FiniteCategory(tuple(objects), tuple(labels), dom, cod, comp, identity)
    bad = check_category(C)
    if bad:
        raise ParseError("not a category: " + bad[0])
    return C


# -- .act ------------------------------------------------------------------------

_ACT = {"act": (_PRODUCT, "act"), "anchor": (_MAPSTO, "anchor")}


def dump_action(X: RightAction, smg_path: str, anchor=None) -> str:
    S = X.sgrp
    lines = [f"semigroup: {smg_path}", "points: " + " ".join(X.carrier), "act:"]
    lines += _cells(X.act, X.carrier, ".", S.names, X.carrier)
    if anchor is not None:
        lines.append("anchor:")
        lines += [f"{x} -> {S.names[e]}"
                  for x, e in zip(X.carrier, np.asarray(anchor).tolist())]
    return "\n".join(lines) + "\n"


def parse_action(text: str, base_dir="."):
    """Returns RightAction or EtaleAction (when anchor lines are present)."""
    head = {"semigroup": None, "points": []}

    def load(ref):  # the first reference only
        S = head["semigroup"]
        return load_semigroup(Path(base_dir) / ref.strip()) if S is None else S

    rows = _read(text, head, {"semigroup": load, "points": str.split}, _ACT)
    S, points = head["semigroup"], head["points"]
    if S is None:
        raise ParseError("no semigroup reference")
    _check_names(points)
    ppos = {p: i for i, p in enumerate(points)}
    spos = {nm: i for i, nm in enumerate(S.names)}

    def unknown(x, s, y):
        if x not in ppos or y not in ppos:
            raise ParseError(f"unknown point in act line {x!r}/{y!r}")
        _need(spos, s, "semigroup element")

    point, element = (ppos, "point"), (spos, "semigroup element")
    act = _fill(np.full((len(points), len(S)), -1, dtype=np.int64), rows["act"],
                (point, element, point), unknown)
    if (act < 0).any():
        raise ParseError("action table incomplete")
    X = RightAction(tuple(points), S, act)
    if not check_action(X):
        raise ParseError("action law fails")
    if not rows["anchor"]:
        return X

    def bad_anchor(x, e):
        if x not in ppos or e not in spos:
            raise ParseError(f"bad anchor line {x!r} -> {e!r}")

    anchor = _fill(np.full(len(points), -1, dtype=np.int64), rows["anchor"],
                   (point, element), bad_anchor)
    if (anchor < 0).any():
        raise ParseError("anchor incomplete")
    E = EtaleAction(RightAction(tuple(points), as_inverse(S), act), anchor)
    if not check_etale(E):
        raise ParseError("etale axioms fail")
    return E


def load_action(path):
    return parse_action(_text(path), Path(path).parent)


# -- .biset ----------------------------------------------------------------------

_BISET = {name: (_PAIRING, "table") for name in ("lact", "ract", "innS", "innT")}


def dump_biset(B: EquivalenceBiset, s_path: str, t_path: str) -> str:
    S, T, P = B.S, B.T, B.points
    lines = [f"S: {s_path}", f"T: {t_path}", "points: " + " ".join(P)]
    lines += ["lact:"] + _cells(B.left_act, S.names, ".", P, P)
    lines += ["ract:"] + _cells(B.right_act, P, ".", T.names, P)
    lines += ["innS:"] + _cells(B.inner_S, P, ",", P, S.names)
    lines += ["innT:"] + _cells(B.inner_T, P, ",", P, T.names)
    return "\n".join(lines) + "\n"


def parse_biset(text: str, base_dir=".") -> EquivalenceBiset:
    def load(ref):
        return as_inverse(load_semigroup(Path(base_dir) / ref.strip()))

    head = {"S": None, "T": None, "points": []}
    rows = _read(text, head, {"S": load, "T": load, "points": str.split}, _BISET,
                 opener=":+")
    S, T, points = head["S"], head["T"], head["points"]
    if S is None or T is None:
        raise ParseError("biset needs S: and T: references")
    if not points:
        raise ParseError("biset needs points")
    _check_names(points)
    nx = len(points)
    point = ({p: i for i, p in enumerate(points)}, "point")
    s_elt = ({nm: i for i, nm in enumerate(S.names)}, "S element")
    t_elt = ({nm: i for i, nm in enumerate(T.names)}, "T element")
    tables = {}
    for name, shape, keys in (("lact", (len(S), nx), (s_elt, point, point)),
                              ("ract", (nx, len(T)), (point, t_elt, point)),
                              ("innS", (nx, nx), (point, point, s_elt)),
                              ("innT", (nx, nx), (point, point, t_elt))):
        tables[name] = _fill(np.full(shape, -1, dtype=np.int64), rows[name], keys)
    for name, arr in tables.items():
        if (arr < 0).any():
            raise ParseError(f"{name} table incomplete")
    return EquivalenceBiset(S, T, tuple(points), *tables.values())


def load_biset(path) -> EquivalenceBiset:
    return parse_biset(_text(path), Path(path).parent)


# -- .ogpd -----------------------------------------------------------------------

_OGPD = {"objects": (_LEQ, "object order"), "arrows": (_ARROW, "arrow"),
         "compose": (_PRODUCT, "compose"), "order": (_LEQ, "order"),
         "inverse": (_MAPSTO, "inverse")}


def dump_ordered_groupoid(G: OrderedGroupoid) -> str:
    lines = ["objects: " + " ".join(str(o) for o in G.objects)]
    lines += _cells(G.obj_leq & ~np.eye(G.n_objects, dtype=bool),
                    G.objects, "<=", G.objects)
    lines += _category_lines(G.objects, G.arrows, G.dom, G.cod, G.comp, "arrows")
    lines += ["order:"] + _cells(G.leq & ~np.eye(G.n_arrows, dtype=bool),
                                 G.arrows, "<=", G.arrows)
    lines += ["inverse:"] + [f"{g} -> {G.arrows[h]}"
                             for g, h in zip(G.arrows, G.inv.tolist())]
    return "\n".join(lines) + "\n"


def parse_ordered_groupoid(text: str) -> OrderedGroupoid:
    head = {"objects": []}
    rows = _read(text, head, {"objects": str.split}, _OGPD, section="objects")
    objects, arrows = head["objects"], rows["arrows"]
    if not objects:
        raise ParseError("no objects")
    opos = {o: i for i, o in enumerate(objects)}
    labels = [lab for (lab, _d, _c) in arrows]
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate arrow labels")
    apos = {lab: i for i, lab in enumerate(labels)}
    n, m = len(objects), len(arrows)
    dom = np.array([_need(opos, d, "object") for (_l, d, _c) in arrows], dtype=np.int64)
    cod = np.array([_need(opos, c, "object") for (_l, _d, c) in arrows], dtype=np.int64)
    obj, arrow = (opos, "object"), (apos, "arrow")
    obj_leq = _fill(np.eye(n, dtype=bool), rows["objects"], (obj, obj))
    comp = _fill(np.full((m, m), -1, dtype=np.int64), rows["compose"], (arrow,) * 3)
    leq = _fill(np.eye(m, dtype=bool), rows["order"], (arrow, arrow))
    inv = _fill(np.full(m, -1, dtype=np.int64), rows["inverse"], (arrow, arrow))
    if (inv < 0).any():
        raise ParseError("inverse table incomplete")
    identity = _identities(objects, dom, cod, comp, "arrow")
    G = OrderedGroupoid(tuple(objects), obj_leq, tuple(labels), dom, cod,
                        comp, inv, identity, leq)
    bad = validate_ordered_groupoid(G)
    if bad:
        raise ParseError("not an ordered groupoid: " + bad[0])
    return G
