import json
import random

import pytest

from morita.cli import main
from morita.corpus import random_relabelling
from morita.formats import dump_semigroup
from morita.semigroups import cyclic_group


@pytest.fixture()
def corpus_dir(tmp_path):
    rc = main(["corpus", str(tmp_path / "corpus")])
    assert rc == 0
    return tmp_path / "corpus"


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_validate(corpus_dir, tmp_path, capsys):
    rc, out = run(capsys, ["validate", str(corpus_dir / "brandt_1_2.smg")])
    assert rc == 0 and "verdict=pass" in out
    bad = tmp_path / "bad.smg"
    bad.write_text("3\na b c\nc c c\nb b c\na b c\n", encoding="utf-8")
    rc, out = run(capsys, ["validate", str(bad)])
    assert rc == 1 and "verdict=fail" in out and "associativity" in out
    garbage = tmp_path / "garbage.smg"
    garbage.write_text("not a table\n", encoding="utf-8")
    assert main(["validate", str(garbage)]) == 2
    # a non-inverse but associative table fails the inverse checks
    leftzero = tmp_path / "leftzero.smg"
    leftzero.write_text("2\na b\na a\nb b\n", encoding="utf-8")
    rc, out = run(capsys, ["validate", str(leftzero)])
    assert rc == 1 and "IdempotentsDontCommute" in out


def test_analyze(corpus_dir, tmp_path, capsys):
    rc, out = run(capsys, ["analyze", str(corpus_dir / "brandt_1_2.smg"),
                           "--emit-l", str(tmp_path / "l.cat"),
                           "--emit-c", str(tmp_path / "c.cat")])
    assert rc == 0
    assert "check=idempotents status=info value=3" in out
    assert "check=L_morphisms status=info value=7" in out
    assert "check=C_morphisms status=info value=13" in out
    assert "locally_e_unitary status=info value=true" in out
    from morita.formats import parse_category

    L = parse_category((tmp_path / "l.cat").read_text(encoding="utf-8"))
    assert L.n_mor == 7
    rc, out = run(capsys, ["analyze", str(corpus_dir / "cyclic1.smg")])
    assert rc == 0 and "check=idempotents status=info value=1" in out
    assert "natural_order_hasse_edges status=info value=0" in out


def test_morita_verdicts(corpus_dir, capsys):
    rc, out = run(capsys, ["morita", str(corpus_dir / "brandt_1_2.smg"),
                           str(corpus_dir / "brandt_1_3.smg")])
    assert rc == 0 and "verdict=true" in out and "witness_forward status=ok" in out
    rc, out = run(capsys, ["--max-points", "4", "morita",
                           str(corpus_dir / "cyclic2.smg"),
                           str(corpus_dir / "cyclic3.smg"), "--oracle"])
    assert rc == 0 and "verdict=false" in out
    assert "oracle_biset_search status=ok" in out


def test_a_bounded_oracle_that_finds_nothing_leaves_a_true_verdict(corpus_dir, capsys):
    # a group's smallest self-biset has |G| points, beyond the default
    # --max-points 4 for C_6: no biset found is no disagreement
    cyclic6 = str(corpus_dir / "cyclic6.smg")
    rc, out = run(capsys, ["morita", cyclic6, cyclic6, "--oracle"])
    assert rc == 0
    assert "check=oracle_biset_search status=info value=found=False" in out.splitlines()
    assert out.splitlines()[-1] == "verdict=true"


def test_enlarge_biset_check_and_enlargement(corpus_dir, tmp_path, capsys):
    rc, out = run(capsys, ["enlarge", str(corpus_dir / "brandt_1_2.smg"),
                           "--left", "(1,1) 0", "--right", "all",
                           "--emit-biset", str(tmp_path / "b.biset")])
    assert rc == 0 and "check=points status=info value=3" in out
    rc, out = run(capsys, ["biset-check", str(tmp_path / "b.biset")])
    assert rc == 0 and "check=M7 status=ok" in out
    rc, out = run(capsys, ["biset-enlarge", str(tmp_path / "b.biset"),
                           "--emit-ogpd", str(tmp_path / "g.ogpd")])
    assert rc == 0
    lines = out.splitlines()
    assert lines[2:11] == [f"check={check} status=ok" for check in (
        "biset_axioms", "bipartite", "left_cancellative", "morita_context",
        "inverse_semigroupoid", "ordered_groupoid", "enlargement_of_S",
        "enlargement_of_T", "roundtrip_biset")]
    assert lines[-1] == "verdict=pass"
    from morita.formats import parse_ordered_groupoid

    G = parse_ordered_groupoid((tmp_path / "g.ogpd").read_text(encoding="utf-8"))
    assert G.n_arrows == 13


def test_psh_equiv(corpus_dir, capsys):
    rc, out = run(capsys, ["psh-equiv", str(corpus_dir / "chain2.smg"),
                           "--samples", "4"])
    assert rc == 0 and "verdict=pass" in out
    assert "unit_iso_sample_3 status=ok" in out


def test_psh_equiv_builds_each_Q_once(corpus_dir, capsys, monkeypatch):
    # psh-equiv reaches `_fiber_presheaf` only through Q_of: it must build
    # Q(eS) once per idempotent e and Q(X) once per sampled action X
    from morita import actions

    real, built = actions._fiber_presheaf, []

    def counted(*args):
        built.append(args[1])
        return real(*args)
    monkeypatch.setattr(actions, "_fiber_presheaf", counted)
    for samples in (0, 3):
        built.clear()
        rc, out = run(capsys, ["psh-equiv", str(corpus_dir / "brandt_c2_2.smg"),
                               "--samples", str(samples)])
        assert rc == 0 and "verdict=pass" in out
        n_E = out.count("check=unit_iso_representable_")
        assert n_E == 3 and len(built) == n_E + samples


def test_psh_equiv_never_builds_the_tensor(corpus_dir, capsys, monkeypatch):
    # an action of an inverse semigroup is closed when it is unitary, so
    # no Q_of reaches the colimit X (x) S
    from morita import actions

    def refuse(X):
        raise RuntimeError("tensor_with_S called on an inverse semigroup")
    monkeypatch.setattr(actions, "tensor_with_S", refuse)
    for name in ("brandt_c2_2", "syminv2"):
        rc, out = run(capsys, ["psh-equiv", str(corpus_dir / f"{name}.smg"),
                               "--samples", "5"])
        assert rc == 0 and "verdict=pass" in out


def test_psh_equiv_hom_counts_match_the_loop(tmp_path, capsys):
    # one search per d over the sum of the eS, counted by summand, against
    # one search per pair (d, e) and against |eSd|
    import re

    from morita import corpus, formats
    from morita.categories import C_of
    from reference_loops import loop_eSd, loop_hom_counts

    cases = corpus.builtin_corpus() + [
        (f"random{i}", S) for i, S in enumerate(corpus.random_inverse_subsemigroups(11, 6))]
    for name, S in cases:
        path = tmp_path / f"{name}.smg"
        path.write_text(formats.dump_semigroup(S), encoding="utf-8")
        rc, out = run(capsys, ["psh-equiv", str(path), "--samples", "0"])
        E = C_of(S).extra["obj_elt"]
        counts = re.findall(r"check=hom_count_\S+ status=ok value=(\d+)=(\d+)", out)
        assert rc == 0
        assert [int(n) for n, _eSd in counts] == loop_hom_counts(S)
        assert [int(eSd) for _n, eSd in counts] == [len(loop_eSd(S, e, d))
                                                    for d in E for e in E]


def test_psh_equiv_makes_one_colimit_and_one_hom_search_per_idempotent(
        corpus_dir, capsys, monkeypatch):
    # every unit check of the command shares one colimit, and the hom counts
    # take one search per principal action dS (|E| + samples colimits and
    # |E|**2 searches before)
    from morita import actions, cli

    calls = {"colimits": 0, "hom_searches": 0}
    real_colimit, real_homs = actions.q_shriek_with_unit, cli.action_homs

    def colimit(P):
        calls["colimits"] += 1
        return real_colimit(P)

    def homs(X, Y, *budget):
        calls["hom_searches"] += 1
        return real_homs(X, Y, *budget)
    monkeypatch.setattr(actions, "q_shriek_with_unit", colimit)
    monkeypatch.setattr(cli, "action_homs", homs)
    rc, out = run(capsys, ["psh-equiv", str(corpus_dir / "brandt_c2_2.smg"),
                           "--samples", "3"])
    n_E = out.count("check=unit_iso_representable_")
    assert rc == 0 and "verdict=pass" in out and n_E == 3
    assert calls == {"colimits": 1, "hom_searches": n_E}


def test_psh_equiv_report_does_not_depend_on_the_pass_size(corpus_dir, capsys, monkeypatch):
    from morita import actions

    argv = ["--seed", "2", "psh-equiv", str(corpus_dir / "brandt_c2_2.smg"),
            "--samples", "5"]
    whole = run(capsys, argv)
    real, passes = actions.q_shriek_with_unit, []

    def counted(P):
        passes.append(P)
        return real(P)
    monkeypatch.setattr(actions, "q_shriek_with_unit", counted)
    # the 8 presheaves join 197, 197, 73, 197, 146, 197, 197 and 467 edges:
    # a budget of 1 gives each a pass of its own, 300 and 1000 put some
    # passes together
    for budget, n_passes in ((1, 8), (300, 7), (1000, 2)):
        passes.clear()
        monkeypatch.setattr(actions, "_PASS_EDGES", budget)
        assert run(capsys, argv) == whole
        assert len(passes) == n_passes


def test_json_format(corpus_dir, capsys):
    rc, out = run(capsys, ["--format", "json", "analyze",
                           str(corpus_dir / "chain2.smg")])
    assert rc == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert any(d["check"] == "L_morphisms" for d in payload["details"])


def test_corpus_manifest(corpus_dir):
    manifest = (corpus_dir / "manifest.tsv").read_text(encoding="utf-8")
    assert "brandt_1_2\tbrandt_1_3\ttrue" in manifest
    assert "chain2\tchain3\tfalse" in manifest
    assert (corpus_dir / "syminv2.smg").exists()


def test_bad_numeric_flags_exit_2(corpus_dir, capsys):
    chain2 = str(corpus_dir / "chain2.smg")
    for argv in (["--max-points", "0", "morita", chain2, chain2, "--oracle"],
                 ["--budget", "-5", "morita", chain2, chain2, "--oracle"],
                 ["psh-equiv", chain2, "--samples", "-3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err
    # the least accepted values still run: a budget of 0 places nothing, so
    # the isomorphism search stops at once with exit 3; its 5 placements
    # (2 objects, 3 other morphisms) decide
    rc, out = run(capsys, ["--budget", "0", "--max-points", "1", "morita", chain2, chain2])
    assert rc == 3 and out == ""
    rc, out = run(capsys, ["--budget", "5", "--max-points", "1", "morita", chain2, chain2])
    assert rc == 0 and "verdict=true" in out
    rc, out = run(capsys, ["psh-equiv", chain2, "--samples", "0"])
    assert rc == 0 and "verdict=pass" in out


def test_oracle_budget_exhaustion_names_the_search(corpus_dir, capsys):
    syminv2 = str(corpus_dir / "syminv2.smg")
    rc = main(["--budget", "500", "--max-points", "6",
               "morita", syminv2, syminv2, "--oracle"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err == (
        "budget exceeded: exhaustive biset search for |S|=7, |T|=7 used up its"
        " budget of 500 cell assignments at carrier size 3\n")


def test_iso_search_budget_exhaustion_names_both_skeletons(tmp_path, capsys):
    # relabelled C_12 needs 12 placements: its one object, then 11 morphisms
    S = cyclic_group(12)
    paths = []
    for name, G in (("c12", S), ("c12r", random_relabelling(S, random.Random(1)))):
        paths.append(str(tmp_path / f"{name}.smg"))
        (tmp_path / f"{name}.smg").write_text(dump_semigroup(G), encoding="utf-8")
    rc = main(["--budget", "3", "morita", *paths])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err == (
        "budget exceeded: isomorphism search between skeletons of (objects, morphisms)"
        " = (1, 12) and (1, 12) used up its budget of 3 placements\n")
    rc, out = run(capsys, ["--budget", "12", "morita", *paths])
    assert rc == 0 and "verdict=true" in out


def test_orbit_search_budget_exhaustion_names_the_search(corpus_dir, capsys):
    # psh-equiv runs its hom and natural-transformation searches under the
    # one --budget: 2 placements stop a hom search into a 3-point action,
    # and 3 let every search of this run finish with the default report
    argv = ["psh-equiv", str(corpus_dir / "chain2.smg"), "--samples", "2"]
    rc, full = run(capsys, argv)
    assert rc == 0 and "verdict=pass" in full
    rc = main(["--budget", "2", *argv])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err == (
        "budget exceeded: hom search between actions of 2 and 3 points used up its"
        " budget of 2 placements\n")
    rc, out = run(capsys, ["--budget", "3", *argv])
    assert rc == 0 and out == full


def test_repeated_main_calls_share_one_parser(corpus_dir, capsys):
    from morita.cli import build_parser

    brandt = str(corpus_dir / "brandt_1_2.smg")
    argv = ["--seed", "3", "psh-equiv", brandt, "--samples", "4"]
    rc, first = run(capsys, argv)
    assert rc == 0 and "verdict=pass" in first
    with pytest.raises(SystemExit) as exc:
        main(["psh-equiv", brandt, "--samples", "-1"])
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err
    rc, last = run(capsys, argv)
    assert rc == 0 and last == first
    assert build_parser() is build_parser()


def test_exit_code_missing_file(corpus_dir, tmp_path, capsys):
    assert main(["validate", "/nonexistent/path.smg"]) == 2
    # a file that is not UTF-8 is an input error naming the file, read
    # directly or through the S: reference of a .biset
    bad = tmp_path / "bad.smg"
    bad.write_bytes(b"\xff\xfe")
    biset = tmp_path / "bad.biset"
    biset.write_text(f"S: {bad}\nT: {corpus_dir / 'brandt_1_2.smg'}\npoints: x\n",
                     encoding="utf-8")
    capsys.readouterr()
    for argv in (["validate", str(bad)], ["morita", str(corpus_dir / "brandt_1_2.smg"), str(bad)],
                 ["biset-check", str(biset)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and str(bad) in err and "UTF-8" in err


def _flip_first(real):
    """`real` with the first verdict of its list turned to False."""
    def flipped(*args):
        got = list(real(*args))
        return [False] + got[1:]
    return flipped


def _failing_report(real):
    """`real` with the biset it returns keeping a report whose (M4) fails."""
    from morita.bisets import BisetReport

    def made(*args):
        B = real(*args)
        B._report = BisetReport([("M4", False, "(0, 1)")])
        return B
    return made


def _broken_chain(real):
    def chain(B):
        checks, G = real(B)
        return {**checks, "morita_context": False}, G
    return chain


# (argv after the corpus path is filled in, what to patch, the failing line)
_FAILING = {
    "validate": (["validate", "{bad}"], None, "check=associativity status=fail value=(0, 0, 0)"),
    "morita_witness": (["morita", "{c}/brandt_1_2.smg", "{c}/brandt_1_3.smg"],
                       ("cli", "check_decision_witness", lambda real: lambda d: False),
                       "check=witness_functors status=fail"),
    # a biset for an inequivalent pair: the oracle returns one of S with itself
    "morita_oracle": (["morita", "{c}/cyclic2.smg", "{c}/cyclic3.smg", "--oracle"],
                      ("bisets", "exhaustive_biset_search",
                       lambda real: lambda S, T, *a: real(S, S, *a)),
                      "check=oracle_biset_search status=fail value=found=True"),
    "biset-check": (["biset-check", "{biset}"],
                    ("formats", "load_biset", _failing_report),
                    "check=M4 status=fail value=(0, 1)"),
    "enlarge": (["enlarge", "{c}/brandt_1_2.smg", "--left", "(1,1) 0", "--right", "all"],
                ("bisets", "biset_from_regular_enlargement", _failing_report),
                "check=M4 status=fail value=(0, 1)"),
    "biset-enlarge_axioms": (["biset-enlarge", "{biset}"],
                             ("formats", "load_biset", _failing_report),
                             "check=biset_axioms status=fail"),
    "biset-enlarge_chain": (["biset-enlarge", "{biset}"],
                            ("bisets", "biset_enlargement_chain", _broken_chain),
                            "check=morita_context status=fail"),
    "psh-equiv_unit": (["psh-equiv", "{c}/chain2.smg", "--samples", "2"],
                       ("cli", "unit_iso_checks", _flip_first),
                       "check=unit_iso_representable_e0 status=fail"),
    "psh-equiv_full_faithful": (["psh-equiv", "{c}/chain2.smg", "--samples", "2"],
                                ("cli", "fullness_faithfulness_check",
                                 lambda real: lambda *a: False),
                                "check=full_faithful_sample_0 status=fail"),
    "psh-equiv_hom_count": (["psh-equiv", "{c}/chain2.smg", "--samples", "0"],
                            ("cli", "action_homs", lambda real: lambda *a: []),
                            "check=hom_count_e0_e0 status=fail value=0=2"),
}


@pytest.mark.parametrize("case", sorted(_FAILING))
def test_a_failing_check_fails_the_command(case, corpus_dir, tmp_path, capsys, monkeypatch):
    # whatever check fails, the report shows its line and verdict=fail, in
    # text and in JSON, and the command exits 1
    from morita import bisets, cli, formats

    argv, patch, line = _FAILING[case]
    bad = tmp_path / "bad.smg"
    bad.write_text("3\na b c\nc c c\nb b c\na b c\n", encoding="utf-8")
    biset = tmp_path / "b.biset"
    assert main(["enlarge", str(corpus_dir / "brandt_1_2.smg"), "--left", "(1,1) 0",
                 "--right", "all", "--emit-biset", str(biset)]) == 0
    capsys.readouterr()
    argv = [a.format(c=corpus_dir, bad=bad, biset=biset) for a in argv]
    if patch is not None:
        module, name, make = patch
        module = {"cli": cli, "bisets": bisets, "formats": formats}[module]
        monkeypatch.setattr(module, name, make(getattr(module, name)))
    rc, out = run(capsys, argv)
    assert rc == 1
    assert line in out.splitlines()
    assert out.splitlines()[-1] == "verdict=fail"
    rc, out = run(capsys, ["--format", "json", *argv])
    payload = json.loads(out)
    assert rc == 1 and payload["verdict"] == "fail"
    check, status = (kv.split("=", 1)[1] for kv in line.split()[:2])
    assert any(d["check"] == check and d["status"] == status for d in payload["details"])


def test_analyze_of_a_semigroup_that_is_not_inverse_exits_1(tmp_path, capsys):
    # associative, but its idempotents do not commute: a semantic failure,
    # reported on stderr without a traceback
    leftzero = tmp_path / "leftzero.smg"
    leftzero.write_text("2\na b\na a\nb b\n", encoding="utf-8")
    rc = main(["analyze", str(leftzero)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_analyze_counts_match_the_built_categories(tmp_path, capsys):
    # |L(S)| and |C(S)| are read off S's factorisation, without L(S) or
    # C(S): the (e, s) with es = s, and the (e, s, f) with es = s and sf = s
    from morita.categories import C_of, L_of
    from morita.corpus import corpus_by_name, random_inverse_subsemigroups
    from morita.semigroups import brandt, symmetric_inverse_monoid

    semigroups = (list(corpus_by_name().values()) + random_inverse_subsemigroups(0, 20)
                  + [symmetric_inverse_monoid(4), brandt(cyclic_group(3), 4)])
    path = tmp_path / "s.smg"
    for S in semigroups:
        path.write_text(dump_semigroup(S), encoding="utf-8")
        rc, out = run(capsys, ["analyze", str(path)])
        lines = out.splitlines()
        assert rc == 0
        assert f"check=L_morphisms status=info value={L_of(S).n_mor}" in lines
        assert f"check=C_morphisms status=info value={C_of(S).n_mor}" in lines
