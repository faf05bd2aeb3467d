import numpy as np
import pytest

from morita.actions import check_etale, munn_action
from morita.bisets import biset_from_regular_enlargement, verify_biset
from morita.categories import C_of, check_category
from morita.errors import NotAssociative, ParseError
from morita.formats import (
    dump_action,
    dump_biset,
    dump_category,
    dump_ordered_groupoid,
    dump_semigroup,
    load_action,
    load_biset,
    parse_category,
    parse_ordered_groupoid,
    parse_semigroup,
)
from morita.groupoids import inductive_groupoid_of, validate_ordered_groupoid
from morita.semigroups import cyclic_group


def test_smg_roundtrip(b12, sim2):
    for S in (b12, sim2, cyclic_group(5)):
        S2 = parse_semigroup(dump_semigroup(S))
        assert S2.names == S.names
        assert np.array_equal(S2.table, S.table)


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


def test_ogpd_line_mutations_parse_or_raise_parse_error(b12, chain3,
                                                       local_submonoid_bisets):
    # an arrow or object that the file never declares is an input error
    from morita.bisets import biset_enlargement_chain

    _checks, R = biset_enlargement_chain(local_submonoid_bisets[0])
    for G in (inductive_groupoid_of(b12), inductive_groupoid_of(chain3), R):
        lines = dump_ordered_groupoid(G).splitlines()
        for i in range(len(lines)):
            for mutated in (lines[:i] + lines[i + 1:], lines[:i + 1] + lines[i:]):
                try:
                    parse_ordered_groupoid("\n".join(mutated) + "\n")
                except ParseError:
                    pass
