"""Timing wrappers around cwmoduli's public functions, for the traced run.

The wrappers are installed from outside the package: each target function is
replaced in every module namespace that binds it (cli, chevalley_weil,
decomposition and hurwitz import several of them by name). Calls to span
targets are recorded one by one as (name, start, end, parent, self, cpu).
Calls to the hot leaves (about 375k per free_law repetition) are aggregated
per enclosing span as count, total time and self time, so memory stays
bounded. Self time is a call's duration minus the wrapped calls nested in it.

Recorded spans open only on the main thread. The enumeration pool calls
`closure` from worker threads; those calls are aggregated per thread under
the main thread's open span, so `groups.closure_s` sums thread time.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter, process_time
from typing import Dict, List, Optional, Tuple

# (defining module, function, kind). "span": every call recorded; "leaf":
# aggregated. A module of None means the benchmark's own module.
TARGETS: Tuple[Tuple[Optional[str], str, str], ...] = (
    ("cwmoduli.cli", "run", "span"),
    ("cwmoduli.groups", "group_from_spec", "span"),
    ("cwmoduli.groups", "conjugacy_classes", "span"),
    ("cwmoduli.modular", "choose_prime", "span"),
    ("cwmoduli.characters", "character_table", "span"),
    ("cwmoduli.hurwitz", "enumerate_branching_data", "span"),
    ("cwmoduli.hurwitz", "enumerate_hurwitz_vectors_parallel", "span"),
    (None, "free_vectors", "span"),
    ("cwmoduli.decomposition", "decompose_at_k", "span"),
    ("cwmoduli.decomposition", "refine", "span"),
    ("cwmoduli.groups", "closure", "leaf"),
    ("cwmoduli.hurwitz", "validate", "leaf"),
    ("cwmoduli.characters", "eigenvalue_multiplicities", "leaf"),
    ("cwmoduli.characters", "rational_character_value", "leaf"),
    ("cwmoduli.chevalley_weil", "cw_character", "leaf"),
    ("cwmoduli.chevalley_weil", "regular_multiple", "leaf"),
)

# Both enumerate Hurwitz vectors: the CLI through the pool, free_law serially.
ENUMERATION_SPANS = ("enumerate_hurwitz_vectors_parallel", "free_vectors")

# Per-layer metric name -> unit. Metrics of a layer the workload does not
# reach read 0.
LAYER_UNITS: Dict[str, str] = {
    "groups.build_s": "s",
    "groups.conjugacy_s": "s",
    "groups.closure_calls": "count",
    "groups.closure_s": "s",
    "modular.choose_prime_s": "s",
    "modular.prime_bits_max": "bits",
    "characters.table_self_s": "s",
    "characters.tables_built": "count",
    "characters.classes_total": "count",
    "characters.eigen_s": "s",
    "characters.eigen_calls": "count",
    "characters.eigen_hit_ratio": "ratio",
    "characters.rational_calls": "count",
    "hurwitz.branching_s": "s",
    "hurwitz.enumerate_s": "s",
    "hurwitz.vectors": "count",
    "hurwitz.vectors_per_s": "1/s",
    "hurwitz.enumerate_cpu_over_wall": "ratio",
    "hurwitz.validate_calls": "count",
    "hurwitz.validate_s": "s",
    "chevalley_weil.cw_calls": "count",
    "chevalley_weil.cw_self_s": "s",
    "chevalley_weil.element_keys": "count",
    "chevalley_weil.class_keys": "count",
    "chevalley_weil.hit_ratio": "ratio",
    "chevalley_weil.useful_ratio": "ratio",
    "chevalley_weil.regular_multiple_calls": "count",
    "decomposition.self_s": "s",
    "decomposition.levels": "count",
    "decomposition.blocks": "count",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "setup.import_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Spans and leaf aggregates of one child process, kept in memory."""

    def __init__(self) -> None:
        self.origin = perf_counter()
        # (name, start, end, parent index or -1, self_s, cpu_s)
        self.spans: List[Optional[tuple]] = []
        self._current = -1
        self._local = threading.local()
        self._leaf_tables: List[Dict[Tuple[int, str], List[float]]] = []
        # Tables stay referenced so that id(table) keys stay unique.
        self._tables: list = []
        self._classes_total = 0
        self._prime_bits_max = 0
        self._vectors = 0
        self._last_blocks: Optional[int] = None
        self._blocks = 0
        self._eigen_keys: set = set()
        self._cw_keys: set = set()
        self._cw_class_keys: set = set()

    # -- installation --------------------------------------------------

    def install(self, bench_module) -> None:
        """Wrap every target in every namespace that binds the original."""
        hooks = {
            "run": self._on_run,
            "choose_prime": self._on_prime,
            "character_table": self._on_table,
            "enumerate_hurwitz_vectors_parallel": self._on_vectors,
            "free_vectors": self._on_vectors,
            "decompose_at_k": self._on_decomposition,
            "refine": self._on_decomposition,
            "eigenvalue_multiplicities": self._on_eigen,
            "cw_character": self._on_cw,
        }
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "cwmoduli" or n.startswith("cwmoduli.")]
        namespaces.append(bench_module)
        for module, name, kind in TARGETS:
            home = bench_module if module is None else sys.modules[module]
            original = getattr(home, name)
            make = self._span if kind == "span" else self._leaf
            wrapped = make(name, original, hooks.get(name))
            for ns in namespaces:
                if getattr(ns, name, None) is original:
                    setattr(ns, name, wrapped)

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            self._leaf_tables.append(state[1])
        return state

    def _span(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            stack, _ = self._thread_state()
            frame = [0.0]
            parent = self._current
            index = len(self.spans)
            self.spans.append(None)
            self._current = index
            stack.append(frame)
            c0 = process_time()
            t0 = perf_counter()
            try:
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    c1 = process_time()
                    stack.pop()
                    self._current = parent
                    self.spans[index] = (name, t0 - self.origin, t1 - self.origin,
                                         parent, t1 - t0 - frame[0], c1 - c0)
                if hook is not None:
                    hook(args, out)
                return out
            finally:
                # the hook's cost is charged to no layer
                if stack:
                    stack[-1][0] += perf_counter() - t0
        return wrapper

    def _leaf(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            stack, leaves = self._thread_state()
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    key = (self._current, name)
                    agg = leaves.get(key)
                    if agg is None:
                        agg = leaves[key] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += dt
                    agg[2] += dt - frame[0]
                if hook is not None:
                    hook(args, out)
                return out
            finally:
                if stack:
                    stack[-1][0] += perf_counter() - t0
        return wrapper

    # -- hooks: counts taken from call arguments and results -------------

    def _on_run(self, args, out) -> None:
        if self._last_blocks is not None:
            self._blocks += self._last_blocks
            self._last_blocks = None

    def _on_prime(self, args, wp) -> None:
        self._prime_bits_max = max(self._prime_bits_max, wp.p.bit_length())

    def _on_table(self, args, table) -> None:
        self._tables.append(table)
        self._classes_total += table.class_count

    def _on_vectors(self, args, vectors) -> None:
        self._vectors += len(vectors)

    def _on_decomposition(self, args, decomposition) -> None:
        # the last one a command builds is its final refinement
        self._last_blocks = decomposition.block_count

    def _on_eigen(self, args, out) -> None:
        table, rho, c = args[:3]
        self._eigen_keys.add((id(table), rho, int(table.classes.class_of[c])))

    def _on_cw(self, args, out) -> None:
        v, table, k = args[:3]
        key = (id(table), k, v.g_quot, v.branches)
        if key not in self._cw_keys:
            self._cw_keys.add(key)
            class_of = table.classes.class_of
            self._cw_class_keys.add(
                (id(table), k, v.g_quot,
                 tuple(sorted(int(class_of[c]) for c in v.branches))))

    # -- results ---------------------------------------------------------

    def leaves(self) -> List[tuple]:
        """(parent span, name, count, total_s, self_s), all threads merged."""
        merged: Dict[Tuple[int, str], List[float]] = {}
        for table in self._leaf_tables:
            for key, (count, total, self_s) in table.items():
                agg = merged.setdefault(key, [0, 0.0, 0.0])
                agg[0] += count
                agg[1] += total
                agg[2] += self_s
        return [(parent, name, *agg) for (parent, name), agg in sorted(merged.items())]

    def layer_metrics(self, import_s: float, stdout_bytes: int) -> Dict[str, float]:
        """Per-layer metrics of this repetition; trace.overhead_ratio is the runner's."""
        dur: Dict[str, float] = {}
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        enum_cpu = 0.0
        for name, start, end, _, own, cpu in self.spans:
            dur[name] = dur.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            if name in ENUMERATION_SPANS:
                enum_cpu += cpu
        leaf: Dict[str, List[float]] = {}
        for _, name, count, total, own in self.leaves():
            agg = leaf.setdefault(name, [0, 0.0, 0.0])
            agg[0] += count
            agg[1] += total
            agg[2] += own
        none = [0, 0.0, 0.0]
        enum_s = sum(dur.get(n, 0.0) for n in ENUMERATION_SPANS)
        eigen = leaf.get("eigenvalue_multiplicities", none)
        cw = leaf.get("cw_character", none)
        validate = leaf.get("validate", none)
        closure = leaf.get("closure", none)
        return {
            "groups.build_s": dur.get("group_from_spec", 0.0),
            "groups.conjugacy_s": dur.get("conjugacy_classes", 0.0),
            "groups.closure_calls": closure[0],
            "groups.closure_s": closure[1],
            "modular.choose_prime_s": dur.get("choose_prime", 0.0),
            "modular.prime_bits_max": self._prime_bits_max,
            "characters.table_self_s": self_s.get("character_table", 0.0),
            "characters.tables_built": calls.get("character_table", 0),
            "characters.classes_total": self._classes_total,
            "characters.eigen_s": eigen[1],
            "characters.eigen_calls": eigen[0],
            "characters.eigen_hit_ratio": 1.0 - _ratio(len(self._eigen_keys), eigen[0])
            if eigen[0] else 0.0,
            "characters.rational_calls": leaf.get("rational_character_value", none)[0],
            "hurwitz.branching_s": dur.get("enumerate_branching_data", 0.0),
            "hurwitz.enumerate_s": enum_s,
            "hurwitz.vectors": self._vectors,
            "hurwitz.vectors_per_s": _ratio(self._vectors, enum_s),
            "hurwitz.enumerate_cpu_over_wall": _ratio(enum_cpu, enum_s),
            "hurwitz.validate_calls": validate[0],
            "hurwitz.validate_s": validate[1],
            "chevalley_weil.cw_calls": cw[0],
            "chevalley_weil.cw_self_s": cw[2],
            "chevalley_weil.element_keys": len(self._cw_keys),
            "chevalley_weil.class_keys": len(self._cw_class_keys),
            "chevalley_weil.hit_ratio": 1.0 - _ratio(len(self._cw_keys), cw[0])
            if cw[0] else 0.0,
            "chevalley_weil.useful_ratio": _ratio(len(self._cw_class_keys),
                                                  len(self._cw_keys)),
            "chevalley_weil.regular_multiple_calls":
                leaf.get("regular_multiple", none)[0],
            "decomposition.self_s": self_s.get("decompose_at_k", 0.0)
            + self_s.get("refine", 0.0),
            "decomposition.levels": calls.get("decompose_at_k", 0),
            "decomposition.blocks": self._blocks,
            "cli.self_s": self_s.get("run", 0.0),
            "cli.stdout_bytes": stdout_bytes,
            "setup.import_s": import_s,
        }
