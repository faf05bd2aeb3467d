"""Per-layer tracing of `morita` from outside the package.

`Tracer.install()` wraps the public functions named in `TRACED` without
editing any file of the package.  A function bound into other modules by
`from .x import f` is replaced there too: every global of every loaded
`morita.*` module that is the same object gets the wrapper, and methods are
replaced on their class.  A name that no longer exists (a later commit
deleted or renamed it) reports zero calls and a note instead of failing.

Three kinds of wrapper:

* ``span``  -- records a span (id, parent span, name, start, end, item) and
  aggregates calls and self time;
* ``hot``   -- tiny functions called very often: calls and self time are
  aggregated, no span is kept per call;
* ``count`` -- calls only, no clock read.

Self time is a call's duration minus the time covered by traced calls made
inside it.  Spans stay in memory until `write_spans()`.
"""

import functools
import importlib
import json
import sys
import time
import weakref
from collections import Counter

# (module under morita, qualified name, kind)
TRACED = [
    ("categories", "C_of", "span"),
    ("categories", "L_of", "span"),
    ("categories", "build_category", "span"),
    ("categories", "skeleton_with_maps", "span"),
    ("categories", "iso_partner", "span"),
    ("categories", "FiniteCategory.hom", "hot"),
    ("categories", "categories_isomorphic", "span"),
    ("categories", "categories_equivalent", "span"),
    ("categories", "check_weak_equivalence", "span"),
    ("categories", "span_category", "span"),
    ("categories", "pullback", "hot"),
    ("categories", "cauchy_vs_span", "span"),
    ("actions", "Q_of", "span"),
    ("actions", "category_of_elements", "span"),
    ("actions", "q_shriek_with_unit", "span"),
    ("actions", "unit_iso_check", "span"),
    ("actions", "action_homs", "span"),
    ("actions", "presheaf_nats", "span"),
    ("actions", "fullness_faithfulness_check", "span"),
    ("_util", "UnionFind.union", "count"),
    ("bisets", "verify_biset", "span"),
    ("bisets", "biset_from_regular_enlargement", "span"),
    ("bisets", "build_R_semigroupoid", "span"),
    ("bisets", "build_bipartite_U", "span"),
    ("bisets", "biset_from_ordered_enlargement", "span"),
    ("bisets", "morita_equivalent", "span"),
    ("bisets", "enlargement_pipeline", "span"),
    ("bisets", "exhaustive_biset_search", "span"),
    ("groupoids", "semigroupoid_violations", "span"),
    ("groupoids", "ordered_groupoid_of", "span"),
    ("groupoids", "is_enlargement", "span"),
    ("groupoids", "inductive_groupoid_of", "span"),
    ("groupoids", "pseudoproduct", "count"),
    ("semigroups", "as_inverse", "span"),
    ("semigroups", "natural_leq", "count"),
    ("semigroups", "idempotents", "count"),
    ("formats", "load_semigroup", "span"),
    ("formats", "load_biset", "span"),
    ("formats", "dump_semigroup", "span"),
    ("formats", "dump_biset", "span"),
    ("formats", "dump_ordered_groupoid", "span"),
    ("cli", "main", "span"),
    ("corpus", "sample_presheaves", "span"),
    ("corpus", "sample_closed_actions", "span"),
    ("_kernels", "assoc_witness", "span"),
    ("_kernels", "action_witness", "span"),
    ("_kernels", "left_cancellation_witness", "span"),
    ("_kernels", "right_cancellation_witness", "span"),
]

# Traced functions whose calls count is not reported (only their self time).
SELF_ONLY = {"cli.main"}

# Derived metrics, each with its unit.  Metric names must start with a
# letter, so the leading underscore of `_kernels`/`_util` is dropped.
EXTRA = [
    ("categories.C_of.morphisms", "count"),
    ("categories.build_category.comp_cells", "count"),
    ("categories.skeleton_keep_ratio", "ratio"),
    ("actions.category_of_elements.morphisms", "count"),
    ("actions.action_homs.results", "count"),
    ("actions.presheaf_nats.results", "count"),
    ("bisets.verify_biset.calls_per_biset", "ratio"),
    ("bisets.exhaustive_biset_search.budget_exhausted", "count"),
    ("kernels.assoc_witness.cells", "count"),
    ("trace.overhead_frac", "ratio"),
]


def metric_prefix(module: str, qualname: str) -> str:
    return f"{module.lstrip('_')}.{qualname}"


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    out = {}
    for module, qualname, kind in TRACED:
        p = metric_prefix(module, qualname)
        if p not in SELF_ONLY:
            out[f"{p}.calls"] = "count"
        if kind != "count":
            out[f"{p}.self_ms"] = "ms"
    out.update(EXTRA)
    return out


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.item = None          # id of the item being run
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()   # derived counters fed by the hooks
        self.spans = []           # (id, parent, name, start_ns, end_ns, item)
        self.notes = []
        self.exhausted = []       # (item, budget) per BudgetExceeded
        self._stack = []          # [child_ns, span id] per active traced call
        self._next_id = 0
        self._bisets = weakref.WeakSet()
        self._bindings = None    # computed on the first install()

    # -- hooks: derived counts from arguments and results ---------------------

    def _on_return(self, key, args, kwargs, result):
        c = self.counts
        if key == "categories.C_of":
            c["categories.C_of.morphisms"] += result.n_mor
        elif key == "categories.build_category":
            c["categories.build_category.comp_cells"] += result.n_mor ** 2
        elif key == "categories.skeleton_with_maps":
            c["skeleton_morphisms"] += result.cat.n_mor
        elif key == "actions.category_of_elements":
            c["actions.category_of_elements.morphisms"] += result[0].n_mor
        elif key in ("actions.action_homs", "actions.presheaf_nats"):
            c[f"{key}.results"] += len(result)
        elif key == "bisets.verify_biset":
            B = _arg(args, kwargs, 0, "B")
            if B not in self._bisets:
                self._bisets.add(B)
                c["distinct_bisets"] += 1
        elif key == "kernels.assoc_witness":
            n = _arg(args, kwargs, 0, "table").shape[0]
            c["kernels.assoc_witness.cells"] += n ** 3

    def _on_raise(self, key, args, kwargs, exc):
        if key == "bisets.exhaustive_biset_search" and type(exc).__name__ == "BudgetExceeded":
            self.counts["bisets.exhaustive_biset_search.budget_exhausted"] += 1
            self.exhausted.append((self.item, _arg(args, kwargs, 3, "budget", "default")))

    def _hook(self, fn, *a):
        try:
            fn(*a)
        except Exception as exc:  # a renamed field must not break the run
            note = f"hook {a[0]}: {type(exc).__name__}: {exc}"
            if note not in self.notes:
                self.notes.append(note)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, key, fn, kind):
        calls = self.calls
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        stack = self._stack
        keep_span = kind == "span"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            sid = None
            if keep_span:
                sid = self._next_id
                self._next_id += 1
            frame = [0, sid if keep_span else parent]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(key, frame, t0, parent, sid)
                if keep_span:
                    self._hook(self._on_raise, key, args, kwargs, exc)
                raise
            self._close(key, frame, t0, parent, sid)
            if keep_span:
                self._hook(self._on_return, key, args, kwargs, result)
            return result

        return traced

    def _close(self, key, frame, t0, parent, sid):
        t1 = time.perf_counter_ns()
        self._stack.pop()
        dur = t1 - t0
        self.calls[key] += 1
        self.self_ns[key] += dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur
        if sid is not None:
            self.spans.append((sid, parent, key, t0, t1, self.item))

    # -- installing -------------------------------------------------------------

    def _plan(self) -> list:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        plan = []
        for module, qualname, kind in TRACED:
            key = metric_prefix(module, qualname)
            try:
                mod = importlib.import_module(f"morita.{module}")
            except ImportError:
                self.notes.append(f"{key}: module morita.{module} not found; reported as 0")
                continue
            *path, name = qualname.split(".")
            owner = mod
            for part in path:
                owner = getattr(owner, part, None)
            orig = None if owner is None else vars(owner).get(name)
            if not callable(orig):
                self.notes.append(f"{key}: not found; reported as 0")
                continue
            wrapped = self._wrap(key, orig, kind)
            if path:  # a method: replace it on its class
                plan.append((owner, name, orig, wrapped))
                continue
            for m in list(sys.modules.values()):
                mname = getattr(m, "__name__", "")
                if mname == "morita" or mname.startswith("morita."):
                    plan.extend((m, attr, orig, wrapped)
                                for attr, value in vars(m).items() if value is orig)
        return plan

    def install(self):
        if self._bindings is None:
            self._bindings = self._plan()
        for owner, attr, _orig, wrapped in self._bindings:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig, _wrapped in self._bindings or ():
            setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_frac."""
        c = self.counts
        built, bisets = c["categories.C_of.morphisms"], c["distinct_bisets"]
        ratios = {
            "categories.skeleton_keep_ratio":
                c["skeleton_morphisms"] / built if built else 0.0,
            "bisets.verify_biset.calls_per_biset":
                self.calls["bisets.verify_biset"] / bisets if bisets else 0.0,
        }
        out = {}
        for name in metric_units():
            if name in ratios:
                out[name] = ratios[name]
            elif name.endswith(".calls"):
                out[name] = self.calls[name[: -len(".calls")]]
            elif name.endswith(".self_ms"):
                out[name] = self.self_ns[name[: -len(".self_ms")]] / 1e6
            elif name != "trace.overhead_frac":
                out[name] = c[name]
        return out

    def write_spans(self, path, labels):
        """One JSON line per item, then one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, label in enumerate(labels):
                fh.write(json.dumps({"type": "item", "item": i, "label": label}) + "\n")
            for (sid, parent, name, t0, t1, item) in self.spans:
                fh.write(json.dumps({"type": "span", "id": sid, "parent": parent,
                                     "name": name, "start_ns": t0, "end_ns": t1,
                                     "item": item}) + "\n")
