"""Text formats for the structures: .smg, .cat, .act, .biset, .ogpd.

All formats are line-oriented, UTF-8, with # comments.  Names match
[A-Za-z0-9_()',]+ so they can be whitespace-separated.  Parsers validate
structure on load; dumpers are deterministic.
"""

import re
from pathlib import Path

import numpy as np

from .bisets import EquivalenceBiset
from .categories import FiniteCategory
from .actions import EtaleAction, RightAction
from .errors import NotAssociative, ParseError
from .groupoids import OrderedGroupoid
from .semigroups import FiniteSemigroup

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
    table = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        row = lines[2 + i]
        if len(row) != n:
            raise ParseError(f"row {i} has {len(row)} entries, expected {n}")
        for j, nm in enumerate(row):
            if nm not in pos:
                raise ParseError(f"unknown element {nm!r} in row {i}")
            table[i, j] = pos[nm]
    S = FiniteSemigroup(tuple(names), table)
    from .semigroups import assoc_witness

    w = assoc_witness(S)
    if w is not None:
        i, j, k = w
        raise NotAssociative(
            f"({names[i]} {names[j]}) {names[k]} != {names[i]} ({names[j]} {names[k]})",
            witness=w,
        )
    return S


def dump_semigroup(S: FiniteSemigroup) -> str:
    n = len(S)
    lines = [str(n), " ".join(S.names)]
    for i in range(n):
        lines.append(" ".join(S.names[int(S.table[i, j])] for j in range(n)))
    return "\n".join(lines) + "\n"


def load_semigroup(path) -> FiniteSemigroup:
    return parse_semigroup(Path(path).read_text(encoding="utf-8"))


# -- .cat ------------------------------------------------------------------------

def dump_category(C: FiniteCategory) -> str:
    lines = ["objects: " + " ".join(str(o) for o in C.objects), "morphisms:"]
    for m in range(C.n_mor):
        lines.append(f"{C.mor_labels[m]} : {C.objects[int(C.dom[m])]}"
                     f" -> {C.objects[int(C.cod[m])]}")
    lines.append("compose:")
    for g in range(C.n_mor):
        for f in range(C.n_mor):
            h = int(C.comp[g, f])
            if h >= 0:
                lines.append(f"{C.mor_labels[g]} . {C.mor_labels[f]}"
                             f" = {C.mor_labels[h]}")
    return "\n".join(lines) + "\n"


def parse_category(text: str) -> FiniteCategory:
    objects, mors, comps = [], [], []
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("objects:"):
            objects = line[len("objects:"):].split()
            continue
        if line == "morphisms:":
            section = "morphisms"
            continue
        if line == "compose:":
            section = "compose"
            continue
        if section == "morphisms":
            m = re.match(r"^(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$", line)
            if not m:
                raise ParseError(f"bad morphism line {line!r}")
            mors.append(m.groups())
        elif section == "compose":
            m = re.match(r"^(\S+)\s*\.\s*(\S+)\s*=\s*(\S+)$", line)
            if not m:
                raise ParseError(f"bad compose line {line!r}")
            comps.append(m.groups())
        else:
            raise ParseError(f"unexpected line {line!r}")
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
    comp = np.full((len(mors), len(mors)), -1, dtype=np.int64)
    for (g, f, h) in comps:
        for lab in (g, f, h):
            if lab not in mpos:
                raise ParseError(f"unknown morphism {lab!r} in compose")
        comp[mpos[g], mpos[f]] = mpos[h]
    # identities: the unique endomorphism acting as a unit
    identity = np.full(len(objects), -1, dtype=np.int64)
    for o in range(len(objects)):
        for m in range(len(mors)):
            if dom[m] != o or cod[m] != o:
                continue
            left = all(comp[m, f] == f for f in range(len(mors)) if cod[f] == o)
            right = all(comp[g, m] == g for g in range(len(mors)) if dom[g] == o)
            if left and right:
                identity[o] = m
                break
        if identity[o] < 0:
            raise ParseError(f"object {objects[o]!r} has no identity morphism")
    C = FiniteCategory(tuple(objects), tuple(labels), dom, cod, comp, identity)
    from .categories import check_category

    bad = check_category(C)
    if bad:
        raise ParseError("not a category: " + bad[0])
    return C


# -- .act ------------------------------------------------------------------------

def dump_action(X: RightAction, smg_path: str, anchor=None) -> str:
    S = X.sgrp
    lines = [f"semigroup: {smg_path}", "points: " + " ".join(X.carrier), "act:"]
    for x in range(len(X)):
        for s in range(len(S)):
            lines.append(f"{X.carrier[x]} . {S.names[s]}"
                         f" = {X.carrier[int(X.act[x, s])]}")
    if anchor is not None:
        lines.append("anchor:")
        for x in range(len(X)):
            lines.append(f"{X.carrier[x]} -> {S.names[int(anchor[x])]}")
    return "\n".join(lines) + "\n"


def parse_action(text: str, base_dir=".", semigroup: FiniteSemigroup = None):
    """Returns RightAction or EtaleAction (when anchor lines are present)."""
    points, acts, anchors = [], [], []
    S = semigroup
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("semigroup:"):
            ref = line[len("semigroup:"):].strip()
            if S is None:
                S = load_semigroup(Path(base_dir) / ref)
            continue
        if line.startswith("points:"):
            points = line[len("points:"):].split()
            continue
        if line == "act:":
            section = "act"
            continue
        if line == "anchor:":
            section = "anchor"
            continue
        if section == "act":
            m = re.match(r"^(\S+)\s*\.\s*(\S+)\s*=\s*(\S+)$", line)
            if not m:
                raise ParseError(f"bad act line {line!r}")
            acts.append(m.groups())
        elif section == "anchor":
            m = re.match(r"^(\S+)\s*->\s*(\S+)$", line)
            if not m:
                raise ParseError(f"bad anchor line {line!r}")
            anchors.append(m.groups())
        else:
            raise ParseError(f"unexpected line {line!r}")
    if S is None:
        raise ParseError("no semigroup reference")
    _check_names(points)
    ppos = {p: i for i, p in enumerate(points)}
    spos = {nm: i for i, nm in enumerate(S.names)}
    act = np.full((len(points), len(S)), -1, dtype=np.int64)
    for (x, s, y) in acts:
        if x not in ppos or y not in ppos:
            raise ParseError(f"unknown point in act line {x!r}/{y!r}")
        if s not in spos:
            raise ParseError(f"unknown semigroup element {s!r}")
        act[ppos[x], spos[s]] = ppos[y]
    if (act < 0).any():
        raise ParseError("action table incomplete")
    X = RightAction(tuple(points), S, act)
    from .actions import check_action, check_etale

    if not check_action(X):
        raise ParseError("action law fails")
    if not anchors:
        return X
    anchor = np.full(len(points), -1, dtype=np.int64)
    for (x, e) in anchors:
        if x not in ppos or e not in spos:
            raise ParseError(f"bad anchor line {x!r} -> {e!r}")
        anchor[ppos[x]] = spos[e]
    if (anchor < 0).any():
        raise ParseError("anchor incomplete")
    from .semigroups import as_inverse

    E = EtaleAction(RightAction(tuple(points), as_inverse(S), act), anchor)
    if not check_etale(E):
        raise ParseError("etale axioms fail")
    return E


def load_action(path, semigroup=None):
    p = Path(path)
    return parse_action(p.read_text(encoding="utf-8"), p.parent, semigroup)


# -- .biset ----------------------------------------------------------------------

def dump_biset(B: EquivalenceBiset, s_path: str, t_path: str) -> str:
    S, T = B.S, B.T
    lines = [f"S: {s_path}", f"T: {t_path}", "points: " + " ".join(B.points)]
    lines.append("lact:")
    for s in range(len(S)):
        for x in range(len(B)):
            lines.append(f"{S.names[s]} . {B.points[x]}"
                         f" = {B.points[int(B.left_act[s, x])]}")
    lines.append("ract:")
    for x in range(len(B)):
        for t in range(len(T)):
            lines.append(f"{B.points[x]} . {T.names[t]}"
                         f" = {B.points[int(B.right_act[x, t])]}")
    lines.append("innS:")
    for x in range(len(B)):
        for y in range(len(B)):
            lines.append(f"{B.points[x]} , {B.points[y]}"
                         f" = {S.names[int(B.inner_S[x, y])]}")
    lines.append("innT:")
    for x in range(len(B)):
        for y in range(len(B)):
            lines.append(f"{B.points[x]} , {B.points[y]}"
                         f" = {T.names[int(B.inner_T[x, y])]}")
    return "\n".join(lines) + "\n"


def parse_biset(text: str, base_dir=".") -> EquivalenceBiset:
    from .semigroups import as_inverse

    S = T = None
    points = []
    sections = {"lact": [], "ract": [], "innS": [], "innT": []}
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("S:"):
            S = as_inverse(load_semigroup(Path(base_dir) / line[2:].strip()))
            continue
        if line.startswith("T:"):
            T = as_inverse(load_semigroup(Path(base_dir) / line[2:].strip()))
            continue
        if line.startswith("points:"):
            points = line[len("points:"):].split()
            continue
        if line.rstrip(":") in sections and line.endswith(":"):
            section = line.rstrip(":")
            continue
        if section is None:
            raise ParseError(f"unexpected line {line!r}")
        m = re.match(r"^(\S+)\s*[.,]\s*(\S+)\s*=\s*(\S+)$", line)
        if not m:
            raise ParseError(f"bad table line {line!r}")
        sections[section].append(m.groups())
    if S is None or T is None:
        raise ParseError("biset needs S: and T: references")
    if not points:
        raise ParseError("biset needs points")
    _check_names(points)
    ppos = {p: i for i, p in enumerate(points)}
    spos = {nm: i for i, nm in enumerate(S.names)}
    tpos = {nm: i for i, nm in enumerate(T.names)}
    nx = len(points)
    left = np.full((len(S), nx), -1, dtype=np.int64)
    right = np.full((nx, len(T)), -1, dtype=np.int64)
    innS = np.full((nx, nx), -1, dtype=np.int64)
    innT = np.full((nx, nx), -1, dtype=np.int64)

    for (s, x, y) in sections["lact"]:
        left[_need(spos, s, "S element"),
             _need(ppos, x, "point")] = _need(ppos, y, "point")
    for (x, t, y) in sections["ract"]:
        right[_need(ppos, x, "point"),
              _need(tpos, t, "T element")] = _need(ppos, y, "point")
    for (x, y, s) in sections["innS"]:
        innS[_need(ppos, x, "point"),
             _need(ppos, y, "point")] = _need(spos, s, "S element")
    for (x, y, t) in sections["innT"]:
        innT[_need(ppos, x, "point"),
             _need(ppos, y, "point")] = _need(tpos, t, "T element")
    for arr, nm in ((left, "lact"), (right, "ract"), (innS, "innS"), (innT, "innT")):
        if (arr < 0).any():
            raise ParseError(f"{nm} table incomplete")
    return EquivalenceBiset(S, T, tuple(points), left, right, innS, innT)


def load_biset(path) -> EquivalenceBiset:
    p = Path(path)
    return parse_biset(p.read_text(encoding="utf-8"), p.parent)


# -- .ogpd -----------------------------------------------------------------------

def dump_ordered_groupoid(G: OrderedGroupoid) -> str:
    lines = ["objects: " + " ".join(str(o) for o in G.objects)]
    for a in range(G.n_objects):
        for b in range(G.n_objects):
            if a != b and G.obj_leq[a, b]:
                lines.append(f"{G.objects[a]} <= {G.objects[b]}")
    lines.append("arrows:")
    for g in range(G.n_arrows):
        lines.append(f"{G.arrows[g]} : {G.objects[int(G.dom[g])]}"
                     f" -> {G.objects[int(G.cod[g])]}")
    lines.append("compose:")
    for g in range(G.n_arrows):
        for f in range(G.n_arrows):
            h = int(G.comp[g, f])
            if h >= 0:
                lines.append(f"{G.arrows[g]} . {G.arrows[f]} = {G.arrows[h]}")
    lines.append("order:")
    for g in range(G.n_arrows):
        for h in range(G.n_arrows):
            if g != h and G.leq[g, h]:
                lines.append(f"{G.arrows[g]} <= {G.arrows[h]}")
    lines.append("inverse:")
    for g in range(G.n_arrows):
        lines.append(f"{G.arrows[g]} -> {G.arrows[int(G.inv[g])]}")
    return "\n".join(lines) + "\n"


def parse_ordered_groupoid(text: str) -> OrderedGroupoid:
    objects, obj_leq_pairs = [], []
    arrows, comps, order_pairs, inv_pairs = [], [], [], []
    section = "objects"
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("objects:"):
            objects = line[len("objects:"):].split()
            section = "objects"
            continue
        for name in ("arrows", "compose", "order", "inverse"):
            if line == name + ":":
                section = name
                break
        else:
            if section == "objects":
                m = re.match(r"^(\S+)\s*<=\s*(\S+)$", line)
                if not m:
                    raise ParseError(f"bad object order line {line!r}")
                obj_leq_pairs.append(m.groups())
            elif section == "arrows":
                m = re.match(r"^(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$", line)
                if not m:
                    raise ParseError(f"bad arrow line {line!r}")
                arrows.append(m.groups())
            elif section == "compose":
                m = re.match(r"^(\S+)\s*\.\s*(\S+)\s*=\s*(\S+)$", line)
                if not m:
                    raise ParseError(f"bad compose line {line!r}")
                comps.append(m.groups())
            elif section == "order":
                m = re.match(r"^(\S+)\s*<=\s*(\S+)$", line)
                if not m:
                    raise ParseError(f"bad order line {line!r}")
                order_pairs.append(m.groups())
            elif section == "inverse":
                m = re.match(r"^(\S+)\s*->\s*(\S+)$", line)
                if not m:
                    raise ParseError(f"bad inverse line {line!r}")
                inv_pairs.append(m.groups())
            continue
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
    obj_leq = np.eye(n, dtype=bool)
    for (a, b) in obj_leq_pairs:
        obj_leq[_need(opos, a, "object"), _need(opos, b, "object")] = True
    comp = np.full((m, m), -1, dtype=np.int64)
    for (g, f, h) in comps:
        comp[_need(apos, g, "arrow"), _need(apos, f, "arrow")] = _need(apos, h, "arrow")
    leq = np.eye(m, dtype=bool)
    for (g, h) in order_pairs:
        leq[_need(apos, g, "arrow"), _need(apos, h, "arrow")] = True
    inv = np.full(m, -1, dtype=np.int64)
    for (g, h) in inv_pairs:
        inv[_need(apos, g, "arrow")] = _need(apos, h, "arrow")
    if (inv < 0).any():
        raise ParseError("inverse table incomplete")
    identity = np.full(n, -1, dtype=np.int64)
    for o in range(n):
        for g in range(m):
            if dom[g] != o or cod[g] != o:
                continue
            left = all(comp[g, f] == f for f in range(m) if cod[f] == o)
            right = all(comp[h, g] == h for h in range(m) if dom[h] == o)
            if left and right:
                identity[o] = g
                break
        if identity[o] < 0:
            raise ParseError(f"object {objects[o]!r} has no identity arrow")
    G = OrderedGroupoid(tuple(objects), obj_leq, tuple(labels), dom, cod,
                        comp, inv, identity, leq)
    from .groupoids import validate_ordered_groupoid

    bad = validate_ordered_groupoid(G)
    if bad:
        raise ParseError("not an ordered groupoid: " + bad[0])
    return G
