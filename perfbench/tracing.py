"""Span tracing around the public functions of cosetforge, from outside it.

``Tracer.install`` replaces coarse public functions of ``gf``, ``cosets``,
``bch``, ``distance``, ``verify`` and ``cli`` with timing wrappers.  The
modules call each other through module attributes (``gf.tower_for``,
``bch.dual_code``, ...) and through their own globals, so the wrappers see
internal calls too.  Field arithmetic (``FieldTower.add``/``mul``) is never
wrapped: it runs per element and the wrapper would dominate it.

Each span is recorded as (name, start, end, parent, op id) in memory and
written out once the batch ends.  A span's self time is its duration minus
the durations of its wrapped children; the per-layer times below are sums
of self times, so together with ``other.s`` they add up to the traced wall
time less the harness's own loop.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

WRAPPED = {
    "gf": ("build_tower", "tower_for", "minimal_polynomial", "poly_mul", "poly_divmod", "poly_mod", "poly_gcd", "poly_lcm", "poly_eval", "lift_to_tower", "xn_minus_one"),
    "cosets": ("cyclotomic_coset", "coset_leaders", "leader_map", "is_coset_leader", "top_k_leaders", "lift_correspondence_check"),
    "bch": (
        "defining_set",
        "dual_defining_set",
        "bch_bound",
        "recognize_bch",
        "is_dually_bch",
        "i_of_delta",
        "i_of_delta_sweep",
        "dually_bch_sweep",
        "generator_polynomial",
        "dual_generator",
        "dual_code",
        "bch_code",
        "build_family_code",
    ),
    "distance": ("min_distance_enumerate", "weight_enumerator", "macwilliams_transform"),
    "verify": ("verify_claim", "verify_all"),
    "cli": ("main",),
}

# per-layer time metrics: sums of the self times of these functions
TIME_GROUPS = {
    "distance.enumerate.s": ("distance.min_distance_enumerate", "distance.weight_enumerator"),
    "distance.macwilliams.s": ("distance.macwilliams_transform",),
    "gf.build_tower.s": ("gf.build_tower",),
    "gf.minimal_polynomial.s": ("gf.minimal_polynomial",),
    "gf.poly.s": ("gf.poly_mul", "gf.poly_divmod", "gf.poly_mod", "gf.poly_gcd", "gf.poly_lcm", "gf.poly_eval", "gf.lift_to_tower", "gf.xn_minus_one"),
    "bch.generator_polynomial.s": ("bch.generator_polynomial",),
    "bch.dual_code.s": ("bch.dual_code", "bch.dual_generator"),
    "bch.dually_bch_sweep.s": ("bch.dually_bch_sweep",),
    "bch.i_of_delta_sweep.s": ("bch.i_of_delta_sweep", "bch.i_of_delta"),
    "bch.recognize_bch.s": ("bch.recognize_bch",),
    "bch.defining_set.s": ("bch.defining_set", "bch.dual_defining_set", "bch.bch_bound"),
    "cosets.leader_map.s": ("cosets.leader_map",),
    "cosets.coset_leaders.s": ("cosets.coset_leaders",),
    "cosets.scalar.s": ("cosets.cyclotomic_coset", "cosets.is_coset_leader", "cosets.top_k_leaders", "cosets.lift_correspondence_check"),
    "verify.checker.s": ("verify.verify_claim", "verify.verify_all"),
    "cli.self.s": ("cli.main",),
}
CALL_GROUPS = {
    "distance.macwilliams.calls": TIME_GROUPS["distance.macwilliams.s"],
    "gf.poly.calls": TIME_GROUPS["gf.poly.s"],
    "bch.recognize_bch.calls": TIME_GROUPS["bch.recognize_bch.s"],
    "cli.calls": TIME_GROUPS["cli.self.s"],
}
CACHED = ("gf.tower_for", "cosets.leader_map")  # lru_cache hits and misses, read at the end of the batch
COUNT_UNITS = {
    "distance.codewords": "count",
    "distance.route.direct": "count",
    "distance.route.dual": "count",
    "distance.route.bound_only": "count",
    "gf.tower_elements": "count",
    "bch.sweep_deltas": "count",
    "cosets.leader_map.residues": "count",
    "verify.points": "count",
    "verify.skips": "count",
    "cli.bytes_out": "bytes",
}
_ROUTES = {"direct-enum": "distance.route.direct", "dual-macwilliams": "distance.route.dual", "bound-only": "distance.route.bound_only"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "s" for name in TIME_GROUPS}
    units["other.s"] = "s"
    units.update({name: "count" for name in CALL_GROUPS})
    units.update({f"{name}.{kind}": "count" for name in CACHED for kind in ("hits", "misses")})
    units.update(COUNT_UNITS)
    units["distance.codewords_per_s"] = "1/s"
    units["trace.spans"] = "count"
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._originals: dict[str, tuple] = {}  # "mod.fn" -> (module, attribute, original)
        self._seen: dict[str, set] = defaultdict(set)  # ids of cached results already counted

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        for mod_name, names in WRAPPED.items():
            mod = getattr(package, mod_name)
            for fn_name in names:
                orig = getattr(mod, fn_name)
                self._originals[f"{mod_name}.{fn_name}"] = (mod, fn_name, orig)
                setattr(mod, fn_name, self._wrap(f"{mod_name}.{fn_name}", orig))

    def uninstall(self) -> None:
        for mod, fn_name, orig in self._originals.values():
            setattr(mod, fn_name, orig)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(result)
            return result

        return wrapper

    # -- counts taken from return values --------------------------------------

    def _first_time(self, kind: str, obj) -> bool:
        seen = self._seen[kind]
        if id(obj) in seen:
            return False
        seen.add(id(obj))
        return True

    def _on_distance_min_distance_enumerate(self, res) -> None:
        self.counts[_ROUTES[res.method]] += 1
        if res.method == "direct-enum":
            self.counts["distance.codewords"] += res.enumerated

    def _on_distance_weight_enumerator(self, w) -> None:
        self.counts["distance.codewords"] += sum(w.counts)

    def _on_gf_build_tower(self, tower) -> None:
        if self._first_time("tower", tower):
            self.counts["gf.tower_elements"] += tower.order

    def _on_cosets_leader_map(self, lead) -> None:
        if self._first_time("leader_map", lead):
            self.counts["cosets.leader_map.residues"] += len(lead)

    def _on_bch_dually_bch_sweep(self, verdicts) -> None:
        self.counts["bch.sweep_deltas"] += len(verdicts)

    def _on_verify_verify_claim(self, rep) -> None:
        self.counts["verify.points"] += rep.summary["total"]
        self.counts["verify.skips"] += rep.summary["skip"]

    # -- results ---------------------------------------------------------------

    def cache_stats(self) -> dict[str, int]:
        out = {}
        for name in CACHED:
            info = self._originals[name][2].cache_info()
            out[f"{name}.hits"] = info.hits
            out[f"{name}.misses"] = info.misses
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers for the batch (names as in ``metric_units``)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _, _), c in zip(self.spans, child):
            self_time[name] += end - start - c
            calls[name] += 1
        out: dict[str, float] = {}
        grouped = set()
        for metric, names in TIME_GROUPS.items():
            out[metric] = sum(self_time[n] for n in names)
            grouped.update(names)
        out["other.s"] = sum(v for n, v in self_time.items() if n not in grouped)
        for metric, names in CALL_GROUPS.items():
            out[metric] = sum(calls[n] for n in names)
        out.update(self.cache_stats())
        for metric in COUNT_UNITS:
            out[metric] = self.counts.get(metric, 0)
        enum_s = out["distance.enumerate.s"]
        out["distance.codewords_per_s"] = out["distance.codewords"] / enum_s if enum_s > 0 else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
