"""Traced passes: spans around sqk's public functions, call counters on its
hot leaves, and per-layer self time.

The wrappers live here, not in sqk. A function imported by value into other
modules (inner_group into decomposition and cli, _search_maps into
symmetric, and so on) is replaced under every name that refers to it, so
spans nest however the call is looked up. Spans are kept in memory while
the passes run and reduced to per-layer figures at the end.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter

# metric prefix -> functions whose spans it sums, as module.attribute
SPANS = {
    "cosets.build": ("cosets.build_rack", "cosets.build_quandle",
                     "cosets.build_symmetric_quandle"),
    "cosets.validate_presentation": ("cosets.validate_presentation",),
    "autgroup.mulclose": ("autgroup.mulclose",),
    "autgroup.inner_group": ("autgroup.inner_group",),
    "autgroup.aut_group": ("autgroup.aut_group", "autgroup.symmetric_aut_group"),
    "autgroup.orbits": ("autgroup.orbits", "autgroup.stabilizer",
                        "autgroup.transporter"),
    "quandle.quandle_from_table": ("quandle.quandle_from_table",),
    "quandle.axioms": ("quandle.q1_violation", "quandle.q2_violation",
                       "quandle.q3_violation"),
    "quandle.search": ("quandle.find_quandle_isomorphism",
                       "quandle.all_automorphism_maps", "quandle._search_maps"),
    "symmetric.attach_involution": ("symmetric.attach_involution",),
    "symmetric.enumerate_good_involutions": ("symmetric.enumerate_good_involutions",),
    "symmetric.find_symmetric_isomorphism": ("symmetric.find_symmetric_isomorphism",),
    "groups.group_from_table": ("groups.group_from_table",),
    "groups.right_cosets": ("groups.right_cosets",),
    "groups.subgroup_from_elements": ("groups.subgroup_from_elements",),
    "decomposition.decompose": ("decomposition.decompose",),
    "decomposition.verify_decomposition": ("decomposition.verify_decomposition",),
    "fileio.parse": ("fileio.parse_qnd", "fileio.parse_prs", "fileio.parse_grp"),
    "fileio.format": ("fileio.format_qnd", "fileio.format_prs", "fileio.format_grp"),
    "cli.run": ("cli.run",),
    "catalog": tuple(f"catalog.{f}" for f in (
        "dihedral_quandle", "trivial_quandle", "antipodal", "conj_symmetric_quandle",
        "cyclic_group", "dihedral_group", "quaternion_group", "symmetric_group",
        "paper_example_presentation", "build_entry")),
}
# counted-only leaves: a counter, no timer
COUNTED = {
    "perm.compose.calls": ("perm", None, "compose"),
    "autgroup.PermGroup.mul.calls": ("autgroup", "PermGroup", "mul"),
    "groups.FiniteGroup.mul.calls": ("groups", "FiniteGroup", "mul"),
}
# span counts reported as call counts: metric -> function
SPAN_CALLS = {
    "autgroup.mulclose.calls": "autgroup.mulclose",
    "quandle.search.calls": "quandle._search_maps",
}
# reported as one traced set-up plus one traced pass; every other metric
# is per pass
SETUP_LAYERS = ("catalog",)
OVERHEAD = "trace.overhead_s"

METRICS = tuple(f"{p}.self_s" for p in SPANS) + tuple(COUNTED) \
    + tuple(SPAN_CALLS) + (OVERHEAD,)


def unit(metric: str) -> str:
    return "count" if metric.endswith(".calls") else "s"


def _sqk_modules():
    return [m for name, m in sys.modules.items()
            if (name == "sqk" or name.startswith("sqk.")) and m is not None]


class Tracer:
    """Installs the wrappers; records spans [layer, function, start, end,
    parent] and counts; reduces them to per-window self times."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._marks: list[tuple[int, Counter]] = []

    def _timed(self, layer: str, qual: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, qual, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            spans[idx][2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][3] = clock()
                stack.pop()
        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, modules, orig, new) -> None:
        """Rebind every module-level name that refers to orig."""
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is orig:
                    self._replace(m, name, new)

    def install(self) -> None:
        modules = _sqk_modules()
        for layer, quals in SPANS.items():
            for qual in quals:
                mod, attr = qual.split(".")
                orig = getattr(sys.modules[f"sqk.{mod}"], attr)
                self._replace_everywhere(modules, orig, self._timed(layer, qual, orig))
        for key, (mod, cls, attr) in COUNTED.items():
            owner = sys.modules[f"sqk.{mod}"]
            if cls is None:
                orig = getattr(owner, attr)
                self._replace_everywhere(modules, orig, self._counted(key, orig))
            else:
                owner = getattr(owner, cls)
                self._replace(owner, attr, self._counted(key, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def mark(self) -> None:
        """Close the current window (a set-up or a pass)."""
        self._marks.append((len(self.spans), Counter(self.counts)))

    def windows(self) -> list[dict[str, float]]:
        """Per-window self time by layer, span counts and counter deltas."""
        n = len(self.spans)
        child = [0.0] * n
        for layer, qual, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls_of = {q: k for k, q in SPAN_CALLS.items()}
        out = []
        lo, before = 0, Counter()
        for hi, counts in self._marks:
            w: dict[str, float] = {f"{p}.self_s": 0.0 for p in SPANS}
            w.update({k: counts[k] - before[k] for k in COUNTED})
            w.update({k: 0 for k in SPAN_CALLS})
            for i in range(lo, hi):
                layer, qual, start, end, _ = self.spans[i]
                w[f"{layer}.self_s"] += end - start - child[i]
                if qual in calls_of:
                    w[calls_of[qual]] += 1
            out.append(w)
            lo, before = hi, counts
        return out


def summarize(setup: dict[str, float], passes: list[dict[str, float]],
              overhead_s: float) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes; set-up layers add the
    traced set-up."""
    result = {}
    for name in METRICS:
        if name == OVERHEAD:
            result[name] = overhead_s
        elif name.removesuffix(".self_s") in SETUP_LAYERS:
            result[name] = setup[name] + statistics.median(w[name] for w in passes)
        else:
            result[name] = statistics.median(w[name] for w in passes)
    return result
