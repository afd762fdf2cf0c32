"""Spans around the public functions of each amalgam layer.

The tracer wraps functions from outside: it replaces each listed function
in every amalgam module that bound it by name, and each listed method or
constructor on its class, so src/ stays untouched. A span records its
name, start, end, parent span and the operation that caused it. Spans are
kept in memory; each traced pass is folded into per-layer totals, and the
spans of the first traced pass are written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute) wrapped; "Class.__init__" style names wrap a
# constructor and report under the class name.
TARGETS = [
    ("cli", "run"),
    ("dsl", "parse"),
    ("dsl", "resolve"),
    ("groups", "FiniteGroup.__init__"),
    ("groups", "GroupHom.__post_init__"),
    ("groups", "group_from_permutations"),
    ("groups", "direct_product"),
    ("groups", "quotient_group"),
    ("groups", "normal_closure"),
    ("groups", "commutator_subgroup"),
    ("groups", "abelian_invariants"),
    ("groups", "series"),
    ("groups", "frattini"),
    ("lattice", "snf"),
    ("lattice", "abelianization_from_presentation"),
    ("lattice", "LatticeSubgroup.reduce"),
    ("words", "reduce"),
    ("words", "validate_spec"),
    ("words", "build_generalized_central_product"),
    ("words", "InducedHom.__init__"),
    ("oracle", "oracle_reduce"),
    ("oracle", "hom_search"),
    ("oracle", "presentation_of_amalgam"),
    ("oracle", "solvable_catalog"),
    ("witness", "separate_element"),
    ("witness", "central_amalgam_quotient"),
    ("witness", "cyclic_amalgam_quotient"),
    ("witness", "not_perfect_certificate"),
]

# Per-layer metrics in output order: (name, unit, better).
METRICS = [
    ("cli.run.self_s", "s", "lower"),
    ("dsl.parse.self_s", "s", "lower"),
    ("dsl.resolve.self_s", "s", "lower"),
    ("dsl.resolve.groups_built", "count", "lower"),
    ("groups.FiniteGroup.calls", "count", "lower"),
    ("groups.FiniteGroup.self_s", "s", "lower"),
    ("groups.FiniteGroup.cells", "count", "lower"),
    ("groups.group_from_permutations.self_s", "s", "lower"),
    ("groups.direct_product.self_s", "s", "lower"),
    ("groups.quotient_group.self_s", "s", "lower"),
    ("groups.normal_closure.self_s", "s", "lower"),
    ("groups.commutator_subgroup.self_s", "s", "lower"),
    ("groups.GroupHom.calls", "count", "lower"),
    ("groups.GroupHom.self_s", "s", "lower"),
    ("groups.abelian_invariants.self_s", "s", "lower"),
    ("groups.series.calls", "count", "lower"),
    ("groups.series.distinct_groups", "count", "lower"),
    ("groups.series.self_s", "s", "lower"),
    ("groups.frattini.self_s", "s", "lower"),
    ("lattice.snf.calls", "count", "lower"),
    ("lattice.snf.self_s", "s", "lower"),
    ("lattice.snf.max_entry_bits", "bits", "lower"),
    ("lattice.abelianization_from_presentation.self_s", "s", "lower"),
    ("lattice.LatticeSubgroup.reduce.self_s", "s", "lower"),
    ("words.reduce.calls", "count", "lower"),
    ("words.reduce.self_s", "s", "lower"),
    ("words.reduce.syllables_per_s", "1/s", "higher"),
    ("words.validate_spec.self_s", "s", "lower"),
    ("words.build_generalized_central_product.self_s", "s", "lower"),
    ("words.InducedHom.self_s", "s", "lower"),
    ("oracle.oracle_reduce.self_s", "s", "lower"),
    ("oracle.oracle_reduce.syllables_per_s", "1/s", "higher"),
    ("oracle.hom_search.calls", "count", "lower"),
    ("oracle.hom_search.self_s", "s", "lower"),
    ("oracle.hom_search.nodes", "count", "lower"),
    ("oracle.hom_search.nodes_per_s", "1/s", "higher"),
    ("oracle.presentation_of_amalgam.self_s", "s", "lower"),
    ("oracle.solvable_catalog.calls", "count", "lower"),
    ("oracle.solvable_catalog.self_s", "s", "lower"),
    ("witness.separate_element.calls", "count", "lower"),
    ("witness.separate_element.self_s", "s", "lower"),
    ("witness.separate_element.raised", "count", "lower"),
    ("witness.central_amalgam_quotient.self_s", "s", "lower"),
    ("witness.cyclic_amalgam_quotient.self_s", "s", "lower"),
    ("witness.not_perfect_certificate.self_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.span_coverage", "ratio", "higher"),
]


def _span_name(module: str, attr: str) -> str:
    for suffix in (".__init__", ".__post_init__"):
        if attr.endswith(suffix):
            return f"{module}.{attr[: -len(suffix)]}"
    return f"{module}.{attr}"


class Tracer:
    """Records spans while installed; folds each pass into totals."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start_ns, end_ns, parent, child_ns, op]
        self.stack = []
        self.active = False  # spans are recorded only while an operation runs
        self.op = -1
        self.first_pass = None
        self.passes = 0
        self.calls = {}
        self.total_ns = {}
        self.self_ns = {}
        self.root_ns = 0
        self.counts = {}  # extra counters: "name.key" -> number
        self.series_groups = {}  # id -> group, alive for one pass
        self._patches = []

    # -- installation

    def install(self):
        modules = [self.package] + [
            m for n, m in sys.modules.items() if n.startswith(self.package.__name__ + ".")
        ]
        for mod_name, attr in TARGETS:
            mod = sys.modules[f"{self.package.__name__}.{mod_name}"]
            name = _span_name(mod_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                self._patch(owner, meth, self._wrap(name, getattr(owner, meth)))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches = []

    def _patch(self, owner, key, new):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def _wrap(self, name, orig):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        count = self._count

        def traced(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            parent = stack[-1] if stack else -1
            rec = [name, 0, 0, parent, 0, self.op]
            stack.append(len(spans))
            spans.append(rec)
            result, raised = None, True
            rec[1] = clock()
            try:
                result = orig(*args, **kwargs)
                raised = False
                return result
            finally:
                rec[2] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - rec[1]
                count(name, args, result, raised, end - rec[1])

        traced.__wrapped__ = orig
        return traced

    # -- counters that need arguments or results

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _count(self, name, args, result, raised, dur):
        if name == "groups.FiniteGroup" and not raised:
            self._add("groups.FiniteGroup.cells", args[0].order ** 2)
        elif name == "dsl.resolve" and not raised:
            self._add("dsl.resolve.groups_built", len(result.groups))
        elif name == "groups.series":
            self.series_groups[id(args[0])] = args[0]
        elif name == "lattice.snf" and not raised:
            bits = max(abs(x).bit_length() for x in result.U.entries + result.V.entries)
            self.counts["lattice.snf.max_entry_bits"] = max(
                bits, self.counts.get("lattice.snf.max_entry_bits", 0)
            )
        elif name in ("words.reduce", "oracle.oracle_reduce"):
            self._add(name + ".syllables", len(args[1]))
        elif name == "oracle.hom_search" and not raised and hasattr(result, "nodes"):
            self._add("oracle.hom_search.nodes", result.nodes)
            self._add("oracle.hom_search.exhausted_ns", dur)
        elif name == "witness.separate_element" and raised:
            self._add("witness.separate_element.raised", 1)

    # -- passes

    def end_pass(self):
        """Fold the pass's spans into totals and start an empty span list."""
        for name, start, end, parent, child, _ in self.spans:
            dur = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + dur
            self.self_ns[name] = self.self_ns.get(name, 0) + dur - child
            if parent < 0:
                self.root_ns += dur
        self._add("groups.series.distinct_groups", len(self.series_groups))
        self.series_groups.clear()
        if self.first_pass is None:
            self.first_pass = list(self.spans)
        self.spans.clear()
        self.passes += 1

    def write(self, path):
        """The first traced pass's spans as JSON lines, times from its start."""
        spans = self.first_pass or []
        t0 = spans[0][1] if spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, _, op) in enumerate(spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_ns": start - t0,
                    "end_ns": end - t0, "parent": parent, "op": op,
                }) + "\n")

    def metrics(self, traced_pass_s, untraced_pass_s, traced_op_s):
        """Per-pass averages of every per-layer metric; 0 where unreached."""
        n = max(self.passes, 1)
        out = {}
        for name, unit, _ in METRICS:
            layer, _, key = name.rpartition(".")
            if key == "self_s":
                value = self.self_ns.get(layer, 0) / 1e9 / n
            elif key == "calls":
                value = self.calls.get(layer, 0) / n
            elif key == "syllables_per_s":
                ns = self.total_ns.get(layer, 0)
                value = self.counts.get(layer + ".syllables", 0) / (ns / 1e9) if ns else 0.0
            elif key == "nodes_per_s":
                ns = self.counts.get("oracle.hom_search.exhausted_ns", 0)
                value = self.counts.get("oracle.hom_search.nodes", 0) / (ns / 1e9) if ns else 0.0
            elif key == "max_entry_bits":
                value = self.counts.get(name, 0)
            elif name == "trace.pass_s":
                value = traced_pass_s
            elif name == "trace.overhead":
                value = traced_pass_s / untraced_pass_s - 1
            elif name == "trace.span_coverage":
                value = self.root_ns / 1e9 / traced_op_s
            else:
                value = self.counts.get(name, 0) / n
            out[name] = {"value": value, "unit": unit}
        return out
