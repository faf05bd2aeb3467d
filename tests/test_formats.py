import dataclasses
import functools
from collections import Counter

import numpy as np
import pytest

import reference_loops as ref
from morita.actions import check_etale, munn_action
from morita.bisets import (
    biset_enlargement_chain,
    biset_from_regular_enlargement,
    verify_biset,
)
from morita.categories import C_of, L_of, check_category
from morita.corpus import builtin_corpus, sample_closed_actions, sample_etale_actions
from morita.errors import NotAssociative, ParseError
from morita.formats import (
    dump_action,
    dump_biset,
    dump_category,
    dump_ordered_groupoid,
    dump_semigroup,
    load_action,
    load_biset,
    parse_action,
    parse_biset,
    parse_category,
    parse_ordered_groupoid,
    parse_semigroup,
)
from morita.groupoids import inductive_groupoid_of, validate_ordered_groupoid
from morita.semigroups import as_inverse, brandt, cyclic_group


def test_smg_roundtrip(b12, sim2):
    for S in (b12, sim2, cyclic_group(5)):
        S2 = parse_semigroup(dump_semigroup(S))
        assert S2.names == S.names
        assert np.array_equal(S2.table, S.table)


def test_dump_semigroup_matches_the_per_cell_loop():
    from morita.semigroups import symmetric_inverse_monoid

    for S in [S for _name, S in builtin_corpus()] + [symmetric_inverse_monoid(4)]:
        assert dump_semigroup(S) == ref.loop_dump_semigroup(S)


def test_smg_errors():
    with pytest.raises(ParseError):
        parse_semigroup("")
    with pytest.raises(ParseError):
        parse_semigroup("2\na b\na b\n")  # missing a row
    with pytest.raises(ParseError):
        parse_semigroup("1\na b\na\n")    # wrong name count
    with pytest.raises(ParseError):
        parse_semigroup("1\na\nq\n")      # unknown element
    with pytest.raises(ParseError):
        parse_semigroup("2\na a\na a\na a\n")  # duplicate names
    with pytest.raises(NotAssociative):
        parse_semigroup("3\na b c\nc c c\nb b c\na b c\n")


def _row_faults(row):
    """A table row cut short, made long, with an unknown name, or both of
    the first and last."""
    tokens = row.split()
    yield tokens[:-1]
    yield tokens + tokens[:1]
    yield tokens[:1] + ["zz"] + tokens[2:]
    yield ["zz"] + tokens[:-1]


def test_smg_table_errors_match_the_cell_loop(b12, chain3):
    # one or two faulty table rows: the first faulty row raises, and within a
    # row a wrong length comes before an unknown name
    seen = Counter()
    for S in (b12, chain3, cyclic_group(4)):
        lines = dump_semigroup(S).splitlines()
        rows = range(2, len(lines))
        for i in rows:
            for bad in _row_faults(lines[i]):
                once = lines[:i] + [" ".join(bad)] + lines[i + 1:]
                for j in [None, *rows]:
                    mutated = list(once)
                    if j is not None:
                        mutated[j] = " ".join(next(_row_faults(mutated[j])))
                    text = "\n".join(mutated) + "\n"
                    new = _outcome(parse_semigroup, text)
                    old = _outcome(ref.loop_parse_semigroup, text)
                    assert _same_outcome(new, old), (text, new, old)
                    seen[str(new).split()[0] if isinstance(new, ParseError) else "parsed"] += 1
    # a row made long and then cut short is whole again
    assert seen["row"] and seen["unknown"] and seen["parsed"], seen


def test_smg_names_the_first_bad_row_whatever_its_fault():
    # the row lengths are checked before the names are looked up, yet the
    # error still names the first bad row: a short row before a row with an
    # unknown name, and an unknown name before a short row
    for rows, message in (("a b c\na b\nz b c\n", "row 1 has 2 entries, expected 3"),
                          ("a b c\nz b c\na b\n", "unknown element 'z' in row 1"),
                          ("z b\na b c\na b c\n", "row 0 has 2 entries, expected 3")):
        with pytest.raises(ParseError) as exc:
            parse_semigroup("3\na b c\n" + rows)
        assert str(exc.value) == message


def test_smg_comments_and_whitespace():
    S = parse_semigroup("# header\n2\n\ne z  # names\ne z\nz z\n")
    assert S.names == ("e", "z")


def test_cat_roundtrip(b12):
    C = C_of(b12)
    C2 = parse_category(dump_category(C))
    assert C2.objects == C.objects
    assert C2.mor_labels == C.mor_labels
    assert np.array_equal(C2.comp, C.comp)
    assert np.array_equal(C2.identity, C.identity)
    assert check_category(C2) == []


def test_cat_errors():
    with pytest.raises(ParseError):
        parse_category("objects: a\nmorphisms:\nf : a -> a\ncompose:\n")
    # f has no identity behaviour and no compose closure


def test_act_roundtrip(tmp_path, b12):
    (tmp_path / "b.smg").write_text(dump_semigroup(b12), encoding="utf-8")
    M = munn_action(b12)
    text = dump_action(M.base, "b.smg", M.anchor)
    (tmp_path / "m.act").write_text(text, encoding="utf-8")
    E = load_action(tmp_path / "m.act")
    assert check_etale(E)
    assert np.array_equal(E.base.act, M.base.act)
    assert np.array_equal(E.anchor, M.anchor)
    # plain action without anchors
    text = dump_action(M.base, "b.smg")
    (tmp_path / "p.act").write_text(text, encoding="utf-8")
    X = load_action(tmp_path / "p.act")
    assert np.array_equal(X.act, M.base.act)


def test_act_validates(tmp_path, b12):
    (tmp_path / "b.smg").write_text(dump_semigroup(b12), encoding="utf-8")
    M = munn_action(b12)
    lines = dump_action(M.base, "b.smg", M.anchor).splitlines()
    # corrupt one anchor line
    for i, line in enumerate(lines):
        if line.startswith(M.base.carrier[0] + " ->"):
            lines[i] = f"{M.base.carrier[0]} -> {b12.names[b12.index('(1,2)')]}"
            break
    (tmp_path / "bad.act").write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ParseError):
        load_action(tmp_path / "bad.act")


def test_biset_roundtrip(tmp_path, b12):
    B = biset_from_regular_enlargement(
        b12, [b12.index("(1,1)"), b12.index("0")], range(len(b12)))
    (tmp_path / "s.smg").write_text(dump_semigroup(B.S), encoding="utf-8")
    (tmp_path / "t.smg").write_text(dump_semigroup(B.T), encoding="utf-8")
    (tmp_path / "x.biset").write_text(
        dump_biset(B, "s.smg", "t.smg"), encoding="utf-8")
    B2 = load_biset(tmp_path / "x.biset")
    assert verify_biset(B2).passed
    for name in ("left_act", "right_act", "inner_S", "inner_T"):
        assert np.array_equal(getattr(B2, name), getattr(B, name))


def test_ogpd_roundtrip(b12, chain3):
    for S in (b12, chain3):
        G = inductive_groupoid_of(S)
        G2 = parse_ordered_groupoid(dump_ordered_groupoid(G))
        assert validate_ordered_groupoid(G2) == []
        assert G2.objects == G.objects
        assert np.array_equal(G2.comp, G.comp)
        assert np.array_equal(G2.leq, G.leq)
        assert np.array_equal(G2.inv, G.inv)


# -- the section reader, filler and writer against the line-by-line references --------

def _same(a, b):
    """Field-for-field equality of parsed structures (the extra dicts aside)."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a) if f.name != "extra")
    return a == b


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # compared with the reference's exception below
        return exc


def _same_outcome(new, old):
    if isinstance(old, Exception):
        return type(new) is type(old) and str(new) == str(old)
    return _same(new, old)


def _mutations(text):
    """Drop or duplicate a line, swap two tokens of it, misspell its header;
    or start the text at that line (a header then follows other sections)."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        before, after = lines[:i], lines[i + 1:]
        yield [line] + after + before
        yield before + after
        yield before + [line, line] + after
        tokens = line.split()
        for j in range(1, min(len(tokens), 3)):
            swapped = list(tokens)
            swapped[0], swapped[j] = tokens[j], tokens[0]
            yield before + [" ".join(swapped)] + after
        if tokens[0].endswith(":"):
            for bad in ("x:", "::", ""):
                yield before + [line.replace(":", bad, 1)] + after


def _format_cases(tmp_path, b12, chain3, bisets):
    """(name, text, parse, loop parse) for small inputs of the four formats."""
    for name, S in (("b12", b12), ("chain3", chain3)):
        (tmp_path / f"{name}.smg").write_text(dump_semigroup(S), encoding="utf-8")
    cases = [("cat", dump_category(C), parse_category, ref.loop_parse_category)
             for C in (L_of(b12), C_of(b12), C_of(chain3))]
    act = functools.partial(parse_action, base_dir=tmp_path)
    loop_act = functools.partial(ref.loop_parse_action, base_dir=tmp_path)
    X = sample_closed_actions(b12, 2, 2)[1]
    M = munn_action(b12)
    cases += [("act", dump_action(X, "b12.smg"), act, loop_act),
              ("act", dump_action(M.base, "b12.smg", M.anchor), act, loop_act)]
    B = bisets[0]
    (tmp_path / "S.smg").write_text(dump_semigroup(B.S), encoding="utf-8")
    (tmp_path / "T.smg").write_text(dump_semigroup(B.T), encoding="utf-8")
    cases.append(("biset", dump_biset(B, "S.smg", "T.smg"),
                  functools.partial(parse_biset, base_dir=tmp_path),
                  functools.partial(ref.loop_parse_biset, base_dir=tmp_path)))
    for G in (inductive_groupoid_of(b12), inductive_groupoid_of(chain3),
              biset_enlargement_chain(B)[1]):
        cases.append(("ogpd", dump_ordered_groupoid(G), parse_ordered_groupoid,
                      ref.loop_parse_ordered_groupoid))
    return cases


def test_ogpd_line_mutations_parse_or_raise_parse_error(tmp_path, b12, chain3,
                                                       local_submonoid_bisets):
    # every mutated .cat, .act, .biset and .ogpd text parses to what the
    # section loops parse, or fails with their exception and message; an
    # arrow or object that a .ogpd file never declares is an input error
    seen = Counter()
    for fmt, text, parse, loop_parse in _format_cases(tmp_path, b12, chain3,
                                                      local_submonoid_bisets):
        assert _same(parse(text), loop_parse(text))
        for mutated in _mutations(text):
            mutated = "\n".join(mutated) + "\n"
            new, old = _outcome(parse, mutated), _outcome(loop_parse, mutated)
            assert _same_outcome(new, old), (fmt, mutated, new, old)
            if fmt == "ogpd" and isinstance(new, Exception):
                assert isinstance(new, ParseError), (mutated, new)
            seen[fmt, "raised" if isinstance(new, Exception) else "parsed"] += 1
    # each format both rejects and accepts some of its mutations
    assert all(seen[fmt, kind] for fmt in ("cat", "act", "biset", "ogpd")
               for kind in ("raised", "parsed")), seen


def test_dump_parse_round_trips_match_the_loops(tmp_path, local_submonoid_bisets):
    """parse . dump is the identity, and both match the line-by-line references."""
    def check(text, loop_text, parse, loop_parse):
        assert text == loop_text
        Y = parse(text)
        assert _same(Y, loop_parse(text))
        return Y

    def same_category(C, D):
        return (C.objects == D.objects and C.mor_labels == D.mor_labels
                and all(np.array_equal(getattr(C, f), getattr(D, f))
                        for f in ("dom", "cod", "comp", "identity")))

    for _name, S in builtin_corpus():
        for C in (L_of(S), C_of(S)):
            D = check(dump_category(C), ref.loop_dump_category(C),
                      parse_category, ref.loop_parse_category)
            assert same_category(C, D)
        S = as_inverse(S)
        (tmp_path / "s.smg").write_text(dump_semigroup(S), encoding="utf-8")
        act = functools.partial(parse_action, base_dir=tmp_path)
        loop_act = functools.partial(ref.loop_parse_action, base_dir=tmp_path)
        for X in sample_closed_actions(S, 1, 4):
            Y = check(dump_action(X, "s.smg"), ref.loop_dump_action(X, "s.smg"),
                      act, loop_act)
            assert Y.carrier == X.carrier and np.array_equal(Y.act, X.act)
        for E in sample_etale_actions(S):
            F = check(dump_action(E.base, "s.smg", E.anchor),
                      ref.loop_dump_action(E.base, "s.smg", E.anchor), act, loop_act)
            assert F.base.carrier == E.base.carrier
            assert np.array_equal(F.base.act, E.base.act)
            assert np.array_equal(F.anchor, E.anchor)
    # the bisets of the benchmark's chain shapes, brandt(C1..C2, 2..4) over eTe,
    # and the ordered groupoids their chains build
    bisets = list(local_submonoid_bisets)
    for g in (1, 2):
        T = brandt(cyclic_group(g), 4)
        e = [s for s in range(len(T)) if T.table[s, s] == s and T.names[s] != "0"][0]
        eTe = [s for s in range(len(T)) if T.table[T.table[e, s], e] == s]
        bisets.append(biset_from_regular_enlargement(T, eTe, range(len(T))))
    for i, B in enumerate(bisets):
        (tmp_path / f"S{i}.smg").write_text(dump_semigroup(B.S), encoding="utf-8")
        (tmp_path / f"T{i}.smg").write_text(dump_semigroup(B.T), encoding="utf-8")
        text = dump_biset(B, f"S{i}.smg", f"T{i}.smg")
        B2 = check(text, ref.loop_dump_biset(B, f"S{i}.smg", f"T{i}.smg"),
                   functools.partial(parse_biset, base_dir=tmp_path),
                   functools.partial(ref.loop_parse_biset, base_dir=tmp_path))
        assert B2.points == B.points
        for name in ("left_act", "right_act", "inner_S", "inner_T"):
            assert np.array_equal(getattr(B2, name), getattr(B, name))
        G = biset_enlargement_chain(B)[1]
        H = check(dump_ordered_groupoid(G), ref.loop_dump_ordered_groupoid(G),
                  parse_ordered_groupoid, ref.loop_parse_ordered_groupoid)
        assert H.objects == G.objects and H.arrows == G.arrows
        for name in ("obj_leq", "dom", "cod", "comp", "inv", "identity", "leq"):
            assert np.array_equal(getattr(H, name), getattr(G, name))
