"""Command-line surface.

Commands load structures from the text formats, run the analyses and
decision procedures, and emit deterministic reports: line-oriented
key=value text, or JSON behind --format json.  Exit codes: 0 pass,
1 semantic failure, 2 input error, 3 budget exhausted.  Timing goes to
stderr so reports stay byte-identical across runs.
"""

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bisets, corpus, formats
from .actions import (
    Q_of,
    action_homs,
    coproduct_action,
    principal_action,
    unit_iso_checks,
    fullness_faithfulness_check,
)
from .bisets import check_decision_witness
from .categories import C_of, L_of
from .errors import DEFAULT_BUDGET, BudgetExceeded, MoritaError, NotAssociative, ParseError
from .semigroups import (
    as_inverse,
    idempotents,
    is_locally_E_unitary,
    local_unit_flags,
    natural_order,
)


@dataclass
class Report:
    command: str
    result: str = "pass"  # the verdict when no line fails: "pass", or "true"/"false"
    details: list = field(default_factory=list)  # (check, status, witness/value)
    timing_ms: float = 0.0

    def add(self, check: str, status: str, value: str = ""):
        self.details.append((check, status, str(value)))

    @property
    def verdict(self) -> str:
        """The verdict: "fail" when any line fails, else the command's result."""
        return "fail" if any(s == "fail" for (_c, s, _v) in self.details) else self.result

    def to_text(self) -> str:
        lines = [f"command={self.command}"]
        for (check, status, value) in self.details:
            line = f"check={check} status={status}"
            if value:
                line += f" value={value}"
            lines.append(line)
        lines.append(f"verdict={self.verdict}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "details": [
                {"check": c, "status": s, "value": v} for (c, s, v) in self.details
            ],
            "verdict": self.verdict,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(report: Report, args) -> int:
    out = report.to_json() if args.format == "json" else report.to_text()
    sys.stdout.write(out)
    sys.stderr.write(f"elapsed_ms={report.timing_ms:.1f}\n")
    return 1 if report.verdict == "fail" else 0


def _load_inverse(path):
    return as_inverse(formats.load_semigroup(path))


# -- commands ---------------------------------------------------------------------

def cmd_validate(args) -> Report:
    rep = Report("validate")
    rep.add("input", "info", args.path)
    try:
        S = formats.load_semigroup(args.path)
    except NotAssociative as exc:
        rep.add("associativity", "fail", exc.witness)
        return rep
    rep.add("associativity", "ok")
    try:
        as_inverse(S)
    except MoritaError as exc:
        rep.add(f"inverse_structure:{type(exc).__name__}", "fail", exc.witness)
        return rep
    rep.add("inverse_structure", "ok")
    return rep


def cmd_analyze(args) -> Report:
    rep = Report("analyze")
    rep.add("input", "info", args.path)
    S = _load_inverse(args.path)
    E = idempotents(S)
    rep.add("elements", "info", str(len(S)))
    rep.add("idempotents", "info", str(len(E)))
    rep.add("idempotent_names", "info", ",".join(S.names[e] for e in E))
    flags = local_unit_flags(S)
    rep.add("right_local_units", "info", str(flags.right_local_units).lower())
    rep.add("left_local_units", "info", str(flags.left_local_units).lower())
    rep.add("sandwich", "info", str(flags.sandwich).lower())
    rep.add("locally_e_unitary", "info", str(is_locally_E_unitary(S)).lower())
    hasse = _hasse_edges(S)
    rep.add("natural_order_hasse_edges", "info", str(len(hasse)))
    for (a, b) in hasse:
        rep.add("hasse", "info", f"{S.names[a]}<{S.names[b]}")
    # |L(S)| counts the (e, s) with es = s, and |C(S)| the (e, s, f) with
    # es = s and sf = s, which is esf = s
    F = S.cauchy
    rep.add("L_morphisms", "info", str(F.below.sum()))
    rep.add("C_morphisms", "info", str(F.below.sum(0) @ F.above.sum(0)))
    if args.emit_l:
        Path(args.emit_l).write_text(formats.dump_category(L_of(S)), encoding="utf-8")
        rep.add("emit_l", "info", args.emit_l)
    if args.emit_c:
        Path(args.emit_c).write_text(formats.dump_category(C_of(S)), encoding="utf-8")
        rep.add("emit_c", "info", args.emit_c)
    return rep


def _hasse_edges(S) -> list:
    """The covering pairs a < b of the natural order, in row-major order."""
    lt = natural_order(S.table, S.star) & ~np.eye(len(S), dtype=bool)
    return [tuple(e) for e in np.argwhere(lt & ~(lt @ lt)).tolist()]


def cmd_morita(args) -> Report:
    rep = Report("morita")
    rep.add("input_s", "info", args.path_s)
    rep.add("input_t", "info", args.path_t)
    S = _load_inverse(args.path_s)
    T = _load_inverse(args.path_t)
    d = bisets.morita_equivalent(S, T, args.budget)
    rep.add("skeleton_s_objects", "info", str(d.skeleton_S.cat.n_objects))
    rep.add("skeleton_s_morphisms", "info", str(d.skeleton_S.cat.n_mor))
    rep.add("skeleton_t_objects", "info", str(d.skeleton_T.cat.n_objects))
    rep.add("skeleton_t_morphisms", "info", str(d.skeleton_T.cat.n_mor))
    rep.result = "true" if d.equivalent else "false"
    if d.equivalent:
        if not check_decision_witness(d):
            rep.add("witness_functors", "fail")
        else:
            rep.add("witness_forward", "ok")
            rep.add("witness_backward", "ok")
    if args.oracle:
        found = bisets.exhaustive_biset_search(S, T, args.max_points, args.budget)
        # a verified biset refutes a false verdict; finding none within
        # --max-points points leaves a true one open
        agree = (found is not None) == d.equivalent
        rep.add("oracle_biset_search", "ok" if agree else "info" if d.equivalent else "fail",
                f"found={found is not None}")
    return rep


def cmd_biset_check(args) -> Report:
    rep = Report("biset-check")
    rep.add("input", "info", args.path)
    _add_biset_report(rep, formats.load_biset(args.path))
    return rep


def _add_biset_report(rep: Report, B):
    """One line per check of `verify_biset(B)`."""
    for (name, ok, witness) in bisets.verify_biset(B).entries:
        rep.add(name, "ok" if ok else "fail", witness)


def _subset_by_names(S, selector: str) -> list:
    if selector.strip() == "all":
        return list(range(len(S)))
    out = []
    for nm in selector.split():
        if nm not in S.names:
            raise ParseError(f"unknown element {nm!r}")
        out.append(S.names.index(nm))
    return out


def cmd_enlarge(args) -> Report:
    rep = Report("enlarge")
    rep.add("input", "info", args.path)
    R = formats.load_semigroup(args.path)
    s_sub = _subset_by_names(R, args.left)
    t_sub = _subset_by_names(R, args.right)
    B = bisets.biset_from_regular_enlargement(R, s_sub, t_sub)
    rep.add("points", "info", str(len(B)))
    _add_biset_report(rep, B)
    if args.emit_biset:
        base = Path(args.emit_biset)
        s_path = base.with_suffix(".S.smg")
        t_path = base.with_suffix(".T.smg")
        s_path.write_text(formats.dump_semigroup(B.S), encoding="utf-8")
        t_path.write_text(formats.dump_semigroup(B.T), encoding="utf-8")
        base.write_text(formats.dump_biset(B, s_path.name, t_path.name),
                        encoding="utf-8")
        rep.add("emit_biset", "info", str(base))
    return rep


# report line -> key of bisets.biset_enlargement_chain; ordered_groupoid_of
# raises instead of returning a failed check
_CHAIN_LINES = (
    ("bipartite", "bipartite"),
    ("left_cancellative", "U_left_cancellative"),
    ("morita_context", "morita_context"),
    ("inverse_semigroupoid", "semigroupoid_inverse"),
    ("ordered_groupoid", None),
    ("enlargement_of_S", "enlargement_of_S"),
    ("enlargement_of_T", "enlargement_of_T"),
    ("roundtrip_biset", "roundtrip_biset"),
)


def cmd_biset_enlarge(args) -> Report:
    """Biset -> semigroupoid -> ordered groupoid, with every enlargement check."""
    rep = Report("biset-enlarge")
    rep.add("input", "info", args.path)
    B = formats.load_biset(args.path)
    if not bisets.verify_biset(B).passed:
        rep.add("biset_axioms", "fail")
        return rep
    rep.add("biset_axioms", "ok")
    checks, G = bisets.biset_enlargement_chain(B)
    for (check, key) in _CHAIN_LINES:
        rep.add(check, "ok" if key is None or checks[key] else "fail")
    if args.emit_ogpd:
        Path(args.emit_ogpd).write_text(formats.dump_ordered_groupoid(G),
                                        encoding="utf-8")
        rep.add("emit_ogpd", "info", args.emit_ogpd)
    return rep


def cmd_psh_equiv(args) -> Report:
    rep = Report("psh-equiv")
    rep.add("input", "info", args.path)
    rep.add("samples", "info", str(args.samples))
    rep.add("seed", "info", str(args.seed))
    S = _load_inverse(args.path)
    C = C_of(S)
    E = C.extra["obj_elt"]
    principal = [principal_action(S, e) for e in E]
    representables = [Q_of(X, C) for X in principal]
    presheaves = corpus.sample_presheaves(representables, args.seed, args.samples)
    verdicts = unit_iso_checks(representables + presheaves)
    for e, ok in zip(E, verdicts):
        rep.add(f"unit_iso_representable_{S.names[e]}", "ok" if ok else "fail")
    for i, ok in enumerate(verdicts[len(E):]):
        rep.add(f"unit_iso_sample_{i}", "ok" if ok else "fail")
    actions = corpus.sample_closed_actions(S, args.seed, args.samples)
    Q = [Q_of(X, C) for X in actions]
    for i, X in enumerate(actions):
        j = (i + 1) % len(actions)
        rep.add(f"full_faithful_sample_{i}",
                "ok" if fullness_faithfulness_check(X, actions[j], Q[i], Q[j], args.budget)
                else "fail")
    # dS is generated by d, so a hom dS -> (sum of the eS) lands in the one
    # summand that holds the image of d: one search per d, and each hom is
    # counted by the summand of the image of its first point; |eSd| is the
    # size of the hom-set C(S)(d, e)
    summand = np.repeat(np.arange(len(E)), [len(X) for X in principal])
    union = coproduct_action(principal)
    for d, dS, sizes in zip(E, principal, C.hom_sizes().tolist()):
        first = np.array([h[0] for h in action_homs(dS, union, args.budget)], dtype=np.int64)
        counts = np.bincount(summand[first], minlength=len(E))
        for e, n, eSd in zip(E, counts.tolist(), sizes):
            rep.add(f"hom_count_{S.names[d]}_{S.names[e]}",
                    "ok" if n == eSd else "fail", f"{n}={eSd}")
    return rep


def cmd_corpus(args) -> Report:
    rep = Report("corpus")
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        members = corpus.builtin_corpus()
        for name, S in members:
            (outdir / f"{name}.smg").write_text(formats.dump_semigroup(S),
                                                encoding="utf-8")
            rep.add("wrote", "info", f"{name}.smg")
        lines = ["# pair expectations: name_a name_b expected provenance"]
        for (a, b, expected, why) in corpus.expected_morita_pairs():
            lines.append(f"{a}\t{b}\t{str(expected).lower()}\t{why}")
        (outdir / "manifest.tsv").write_text("\n".join(lines) + "\n",
                                             encoding="utf-8")
        rep.add("wrote", "info", "manifest.tsv")
    except OSError as exc:
        raise ParseError(f"cannot write corpus: {exc}")
    return rep


# -- entry point --------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of the `morita` command, built once per process.

    Parsing reads the parser and never changes it, so every call of `main`
    can share one.
    """
    p = argparse.ArgumentParser(
        prog="morita",
        description="Finite inverse semigroups and their Morita equivalence.",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="budget for exhaustive searches: placements of the"
                   " isomorphism and orbit searches, cell assignments of the oracle")
    p.add_argument("--max-points", type=int, default=4,
                   help="carrier bound for the biset search oracle")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("validate", help="associativity and inverse checks")
    c.add_argument("path")
    c.set_defaults(fn=cmd_validate)

    c = sub.add_parser("analyze", help="idempotents, order, local units, |L|, |C|")
    c.add_argument("path")
    c.add_argument("--emit-l", default=None, help="write L(S) as .cat")
    c.add_argument("--emit-c", default=None, help="write C(S) as .cat")
    c.set_defaults(fn=cmd_analyze)

    c = sub.add_parser("morita", help="decide Morita equivalence of two semigroups")
    c.add_argument("path_s")
    c.add_argument("path_t")
    c.add_argument("--oracle", action="store_true",
                   help="cross-check with the exhaustive biset search")
    c.set_defaults(fn=cmd_morita)

    c = sub.add_parser("biset-check", help="verify the (M1)-(M7) axioms of a .biset")
    c.add_argument("path")
    c.set_defaults(fn=cmd_biset_check)

    c = sub.add_parser("enlarge",
                       help="extract a biset from a regular joint enlargement")
    c.add_argument("path", help=".smg of the ambient regular semigroup")
    c.add_argument("--left", required=True,
                   help="space-separated element names of S (or 'all')")
    c.add_argument("--right", required=True,
                   help="space-separated element names of T (or 'all')")
    c.add_argument("--emit-biset", default=None)
    c.set_defaults(fn=cmd_enlarge)

    c = sub.add_parser("biset-enlarge",
                       help="build the joint enlargement groupoid of a biset")
    c.add_argument("path", help=".biset file")
    c.add_argument("--emit-ogpd", default=None)
    c.set_defaults(fn=cmd_biset_enlarge)

    c = sub.add_parser("psh-equiv",
                       help="closed actions vs presheaves on the Cauchy completion")
    c.add_argument("path")
    c.add_argument("--samples", type=int, default=20)
    c.set_defaults(fn=cmd_psh_equiv)

    c = sub.add_parser("corpus", help="write the builtin corpus and manifest")
    c.add_argument("outdir")
    c.set_defaults(fn=cmd_corpus)
    return p


# the least value each numeric flag accepts
_LEAST = {"budget": 0, "max_points": 1, "samples": 0}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, least in _LEAST.items():
        if getattr(args, name, least) < least:
            parser.error(f"--{name.replace('_', '-')} must be at least {least}")
    t0 = time.perf_counter()
    try:
        report = args.fn(args)
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 3
    except (ParseError, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except MoritaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    report.timing_ms = (time.perf_counter() - t0) * 1000.0
    return _emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
