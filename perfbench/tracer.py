"""Aggregating span tracer wrapped around the package's public calls.

The tracer lives in the benchmark, not in the program: ``install`` replaces
each public function or method listed in ``TARGETS`` with a wrapper that
records one span per call. Functions imported into other modules are
replaced wherever they are bound, so ``profile_eval`` is traced when it is
called from ``circle_map`` and ``twist_map`` too.

Spans are kept in memory and aggregated per (name, parent), where the
parent is the innermost enclosing traced call, so hot leaves such as
``profile_eval`` cost a counter update per call rather than a record. Each
aggregate holds the call count, the total time, the self time (total minus
the time covered by traced children), the number of points passed to array
calls and the number of calls that raised.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, qualified name, index of the argument whose size counts as points)
TARGETS = (
    ("cli", "BuiltSystem.__init__", None),
    ("profiles", "calibrate_profiles", None),
    ("profiles", "profile_eval", 1),
    ("profiles", "export_profile_csv", None),
    ("sequences", "build_sequences", None),
    ("sequences", "verify_sequence_estimates", None),
    ("sequences", "recurrence_residuals", None),
    ("sequences", "dump_sequences_csv", None),
    ("layout", "build_gap_table", None),
    ("layout", "dump_gap_table_csv", None),
    ("layout", "SemiConjugacy.eval", None),
    ("circle_map", "build_circle_homeo", None),
    ("circle_map", "CircleHomeo.lift", None),
    ("circle_map", "CircleHomeo.inverse_lift", None),
    ("circle_map", "CircleHomeo.derivative", None),
    ("circle_map", "CircleHomeo.lift_many", 1),
    ("circle_map", "CircleHomeo.inverse_lift_many", 1),
    ("circle_map", "LocalDiffeo.invert", 1),
    ("circle_map", "rotation_number_estimate", None),
    ("circle_map", "derivative_jump_table", None),
    ("circle_map", "derivative_jump_scan", None),
    ("circle_map", "wandering_interval_check", None),
    ("twist_map", "build_twist_system", None),
    ("twist_map", "TwistSystem.forward", None),
    ("twist_map", "TwistSystem.forward_lift", None),
    ("twist_map", "TwistSystem.backward", None),
    ("twist_map", "TwistSystem.backward_lift", None),
    ("twist_map", "TwistSystem.verify_invariant_curve", None),
    ("twist_map", "TwistSystem.roundtrip_check", None),
    ("twist_map", "TwistSystem.det_check", None),
    ("twist_map", "TwistSystem.twist_check", None),
    ("twist_map", "TwistSystem.vertical_translation_check", None),
    ("twist_map", "TwistSystem.periodicity_check", None),
    ("twist_map", "TwistSystem.mean_check", None),
    ("twist_map", "TwistSystem.phi_linearity_check", None),
    ("twist_map", "TwistSystem.second_derivative_scan", None),
    ("twist_map", "RegularityReport.to_csv", None),
    ("twist_map", "manifold_iterate_check", None),
    ("twist_map", "curve_side_check", None),
    ("twist_map", "orbit_convergence_check", None),
    ("twist_map", "dump_phase_portrait_csv", None),
    ("twist_map", "dump_json", None),
    ("reporting", "write_report", None),
)

# spans whose individual durations are kept for percentiles
SAMPLED = ("twist_map.TwistSystem.forward", "twist_map.TwistSystem.forward_lift")

PACKAGE = "denjoy_twist"


class Tracer:
    """In-memory span aggregates for one process."""

    def __init__(self):
        self.stack = []        # [name, time covered by children] per open span
        self.agg = {}          # (name, parent) -> [calls, total, self, points, errors]
        self.samples = {}      # name -> durations, for SAMPLED spans only

    def wrap(self, name, fn, points_arg=None):
        stack, agg, clock = self.stack, self.agg, time.perf_counter
        samples = self.samples.setdefault(name, []) if name in SAMPLED else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            raised = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                rec = agg.get((name, parent))
                if rec is None:
                    rec = agg[(name, parent)] = [0, 0.0, 0.0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if points_arg is not None and len(args) > points_arg:
                    rec[3] += _size(args[points_arg])
                if raised:
                    rec[4] += 1
                if samples is not None:
                    samples.append(dur)

        return span

    def records(self) -> list:
        """The aggregates as dicts with parent links, heaviest first."""
        rows = [{"name": name, "parent": parent, "calls": r[0], "total_s": r[1],
                 "self_s": r[2], "points": r[3], "errors": r[4]}
                for (name, parent), r in self.agg.items()]
        return sorted(rows, key=lambda row: -row["total_s"])


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    n = 1
    for d in shape:
        n *= d
    return n


def install(tracer: Tracer) -> None:
    """Replace every target, at every place the package binds it, with a span."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    for mod_name, qualname, points_arg in TARGETS:
        module = sys.modules[f"{PACKAGE}.{mod_name}"]
        name = f"{mod_name}.{qualname}"
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], points_arg))
            continue
        orig = getattr(module, qualname)
        wrapped = tracer.wrap(name, orig, points_arg)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, wrapped)


# per-layer metric -> (spans summed, aggregate field, unit)
LAYER_METRICS = {
    "profiles.calibrate_s": (("profiles.calibrate_profiles",), "total_s", "s"),
    "profiles.eval_calls": (("profiles.profile_eval",), "calls", "count"),
    "profiles.eval_points": (("profiles.profile_eval",), "points", "count"),
    "profiles.eval_s": (("profiles.profile_eval",), "total_s", "s"),
    "sequences.build_s": (("sequences.build_sequences",), "total_s", "s"),
    "sequences.build_calls": (("sequences.build_sequences",), "calls", "count"),
    "sequences.estimates_s": (("sequences.verify_sequence_estimates",), "total_s", "s"),
    "sequences.csv_s": (("sequences.dump_sequences_csv",), "total_s", "s"),
    "layout.gap_table_s": (("layout.build_gap_table",), "total_s", "s"),
    "layout.csv_s": (("layout.dump_gap_table_csv",), "total_s", "s"),
    "layout.semiconj_calls": (("layout.SemiConjugacy.eval",), "calls", "count"),
    "layout.semiconj_s": (("layout.SemiConjugacy.eval",), "total_s", "s"),
    "circle_map.build_s": (("circle_map.build_circle_homeo",), "self_s", "s"),
    "circle_map.lift_calls": (("circle_map.CircleHomeo.lift",), "calls", "count"),
    "circle_map.lift_s": (("circle_map.CircleHomeo.lift",), "total_s", "s"),
    "circle_map.inverse_lift_calls": (("circle_map.CircleHomeo.inverse_lift",), "calls", "count"),
    "circle_map.inverse_lift_s": (("circle_map.CircleHomeo.inverse_lift",), "total_s", "s"),
    "circle_map.derivative_calls": (("circle_map.CircleHomeo.derivative",), "calls", "count"),
    "circle_map.derivative_s": (("circle_map.CircleHomeo.derivative",), "total_s", "s"),
    "circle_map.lift_many_points": (("circle_map.CircleHomeo.lift_many",), "points", "count"),
    "circle_map.lift_many_s": (("circle_map.CircleHomeo.lift_many",), "total_s", "s"),
    "circle_map.inverse_lift_many_points": (("circle_map.CircleHomeo.inverse_lift_many",), "points", "count"),
    "circle_map.inverse_lift_many_s": (("circle_map.CircleHomeo.inverse_lift_many",), "total_s", "s"),
    "circle_map.invert_calls": (("circle_map.LocalDiffeo.invert",), "calls", "count"),
    "circle_map.invert_points": (("circle_map.LocalDiffeo.invert",), "points", "count"),
    "circle_map.invert_s": (("circle_map.LocalDiffeo.invert",), "total_s", "s"),
    "circle_map.invert_errors": (("circle_map.LocalDiffeo.invert",), "errors", "count"),
    "circle_map.rotation_s": (("circle_map.rotation_number_estimate",), "total_s", "s"),
    "circle_map.jump_scan_s": (("circle_map.derivative_jump_scan",), "total_s", "s"),
    "circle_map.wandering_s": (("circle_map.wandering_interval_check",), "total_s", "s"),
    # one scalar step of f, in circle or lift coordinates
    "twist_map.forward_calls": (SAMPLED, "calls", "count"),
    "twist_map.forward_s": (SAMPLED, "total_s", "s"),
    "twist_map.backward_calls": (("twist_map.TwistSystem.backward",
                                  "twist_map.TwistSystem.backward_lift"), "calls", "count"),
    "twist_map.backward_s": (("twist_map.TwistSystem.backward",
                              "twist_map.TwistSystem.backward_lift"), "total_s", "s"),
    "twist_map.scan_s": (("twist_map.TwistSystem.second_derivative_scan",), "self_s", "s"),
    "twist_map.portrait_writer_self_s": (("twist_map.dump_phase_portrait_csv",), "self_s", "s"),
    "reporting.write_s": (("reporting.write_report",), "total_s", "s"),
}
CHECK_SPANS = {
    "invariance": "twist_map.TwistSystem.verify_invariant_curve",
    "roundtrip": "twist_map.TwistSystem.roundtrip_check",
    "det": "twist_map.TwistSystem.det_check",
    "twist": "twist_map.TwistSystem.twist_check",
    "vertical_translation": "twist_map.TwistSystem.vertical_translation_check",
    "periodicity": "twist_map.TwistSystem.periodicity_check",
    "mean": "twist_map.TwistSystem.mean_check",
    "linearity": "twist_map.TwistSystem.phi_linearity_check",
    "manifold_iterate": "twist_map.manifold_iterate_check",
    "curve_side": "twist_map.curve_side_check",
    "orbit_convergence": "twist_map.orbit_convergence_check",
}
for _check, _span in CHECK_SPANS.items():
    LAYER_METRICS[f"twist_map.check_s.{_check}"] = ((_span,), "total_s", "s")
MODULES = ("cli", "profiles", "sequences", "layout", "circle_map", "twist_map",
           "reporting")


def merge(record_lists) -> list:
    """The aggregates of several processes, summed per (name, parent)."""
    agg = {}
    for records in record_lists:
        for r in records:
            key = (r["name"], r["parent"])
            if key not in agg:
                agg[key] = dict(r)
                continue
            for f in ("calls", "total_s", "self_s", "points", "errors"):
                agg[key][f] += r[f]
    return sorted(agg.values(), key=lambda row: -row["total_s"])


def layer_metrics(records: list, steps: list) -> dict:
    """Per-layer metrics, as name -> (value, unit), from merged aggregates
    and the durations of every sampled span."""
    out = {}
    for metric, (spans, field, unit) in LAYER_METRICS.items():
        out[metric] = (sum(r[field] for r in records if r["name"] in spans), unit)
    for mod in MODULES:
        out[f"{mod}.self_s"] = (sum(r["self_s"] for r in records
                                    if r["name"].startswith(mod + ".")), "s")
    steps = sorted(steps)
    for metric, q in (("twist_map.forward_p50_us", 0.5),
                      ("twist_map.forward_p999_us", 0.999)):
        value = steps[min(len(steps) - 1, int(q * len(steps)))] * 1e6 if steps else 0.0
        out[metric] = (value, "us")
    return out
