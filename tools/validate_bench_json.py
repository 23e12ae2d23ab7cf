#!/usr/bin/env python3
"""Validates the versioned JSON documents the repo's tooling emits,
dispatching on the document's `schema` field:

  gamma.bench.v1       bench binaries' --json=<file> export
  gamma.adaptivity.v1  gamma_cli --adaptivity-out audit
  gamma.metrics.v1     gamma_cli --metrics-out counter time-series
  gamma.check.v1       gamma_cli --check-out sanitizer report
  gamma.critpath.v1    gamma_cli --critpath-out bottleneck analysis
  gamma.plan.v1        gamma_cli --plan-out compiled pattern plan
  gamma.planprof.v1    gamma_cli --planprof-out plan-execution audit
  gamma.verify.v1      gamma_cli --verify-plan=json obligation report
  gamma.fuzz.v1        tools/fuzz_patterns --report findings summary

Exits non-zero (with a message per problem) when the document deviates
from its schema, so CI fails loudly instead of archiving a broken
artifact. With --expect-clean, a structurally valid gamma.check.v1
report that contains findings also fails — that is how CI turns "the
sanitizer saw something" into a red build. Likewise --expect-verified
fails a structurally valid gamma.verify.v1 report whose plan was
refuted. Stdlib only; also usable locally:

    ./build/bench/bench_fig10_memory --json=out.json
    python3 tools/validate_bench_json.py out.json
    ./build/examples/gamma_cli --check --check-out check.json ...
    python3 tools/validate_bench_json.py --expect-clean check.json
    ./build/examples/gamma_cli --verify-plan=json plan.json > verify.json
    python3 tools/validate_bench_json.py --expect-verified verify.json
"""

import json
import sys

REQUIRED_RUN_KEYS = {
    "name": str,
    "skipped": bool,
    "sim_millis": (int, float),
    "cycles": (int, float),
    "wall_clock_ms": (int, float),
    "params": dict,
    "peak_device_bytes": (int, float),
    "peak_host_bytes": (int, float),
    "link_busy_cycles": (int, float),
    "counters": dict,
    "phases": list,
}

REQUIRED_PARAM_KEYS = {
    "device_memory_bytes": (int, float),
    "um_device_buffer_bytes": (int, float),
    "num_warp_slots": (int, float),
    "streams": (int, float),
    "host_threads": (int, float),
}

# Every DeviceStats counter exported via Fields(); keep in sync with
# src/gpusim/stats.cc (the C++ tests enforce the same list from the
# other side, via DeviceStats::Fields()).
COUNTER_KEYS = [
    "kernel_launches",
    "warp_tasks",
    "um_page_faults",
    "um_page_hits",
    "um_migrated_bytes",
    "um_evictions",
    "zc_transactions",
    "zc_bytes",
    "device_reads",
    "device_read_bytes",
    "device_writes",
    "device_write_bytes",
    "explicit_h2d_bytes",
    "explicit_d2h_bytes",
    "pool_block_requests",
    "pool_blocks_wasted",
]


# Whole-run totals a bench run embeds when it ran with an adaptivity
# audit attached (see core::AdaptivitySummary).
ADAPTIVITY_SUMMARY_KEYS = {
    "extensions": (int, float),
    "mean_unified_pages": (int, float),
    "plan_cycles": (int, float),
    "actual_access_cycles": (int, float),
    "est_unified_cycles": (int, float),
    "est_zerocopy_cycles": (int, float),
    "regret_cycles": (int, float),
}

# Per-shadow counterfactual counters (see core::ShadowCounters).
SHADOW_KEYS = {
    "cycles": (int, float),
    "um_page_faults": (int, float),
    "um_page_hits": (int, float),
    "um_migrated_bytes": (int, float),
    "um_evictions": (int, float),
    "zc_transactions": (int, float),
    "zc_bytes": (int, float),
}

# gamma-prof resource taxonomy, in canonical (fold) order. Keep in sync
# with src/gpusim/resource_class.h — the order matters: exact-sum checks
# below replicate the C++ left-to-right fold bit-for-bit (JSON doubles are
# emitted with %.17g, so they round-trip exactly).
RESOURCE_CLASSES = ["compute", "dram", "pcie", "um", "sort", "sync_idle"]

WHATIF_KEYS = {
    "resource": str,
    "cost_factor": (int, float),
    "projected_cycles": (int, float),
    "speedup": (int, float),
}


# Pattern-compiler vocabulary (keep in sync with
# src/core/pattern_compiler.cc PlanKindName/StartModeName and
# src/core/extension.cc WriteStrategyName).
PLAN_KINDS = ("subgraph-match", "motif-census", "frequent-mining",
              "edge-join")
PLAN_START_MODES = ("vertex-parallel", "edge-parallel")
PLAN_WRITE_STRATEGIES = ("inherit", "naive-two-pass", "prealloc",
                         "dynamic-alloc")
# Largest FPM edge budget: Pattern::kMaxVertices (src/graph/pattern.h) - 1.
FPM_MAX_EDGES = 7

# Compact per-run plan descriptor embedded in gamma.bench.v1 documents
# (see core::PlanSummary). All values are exact, so compare_bench_json.py
# diffs them with zero tolerance.
PLAN_SUMMARY_KEYS = {
    "kind": str,
    "order": list,
    "levels": (int, float),
    "symmetry_broken": bool,
}

# Planner rationale objects in gamma.plan.v1 (see
# core::CompiledPlan::ToJson) — the raw estimates and rule outcomes
# behind the start-mode and per-level strategy choices.
PLAN_START_RATIONALE_KEYS = {
    "input_aware": bool,
    "est_start_rows": (int, float),
    "est_pair_rows": (int, float),
    "edge_parallel_foldable": bool,
    "edge_parallel_profitable": bool,
}
PLAN_LEVEL_RATIONALE_KEYS = {
    "intersect_width": int,
    "prealloc_threshold": (int, float),
    "write_strategy_rule": str,
    "pre_merge_rule": str,
}
PLAN_WRITE_STRATEGY_RULES = ("inherit", "est_rows>=threshold",
                             "est_rows<threshold")
PLAN_PRE_MERGE_RULES = ("inherit", "intersect_width>=2",
                        "intersect_width<2")

# gamma.planprof.v1 vocabulary (see core::PlanProfiler::ToJson).
# FPM / edge-join runs start from the materialized edge table, which has
# no vertex-parallel / edge-parallel distinction.
PLANPROF_START_MODES = PLAN_START_MODES + ("edge-table",)
PLANPROF_STRATEGY_SOURCES = ("plan", "inherit")
PLANPROF_LEVEL_KEYS = {
    "label": str,
    "depth": int,
    "has_estimate": bool,
    "est_rows": (int, float),
    "input_rows": (int, float),
    "candidates": (int, float),
    "rows": (int, float),
    "q_error": (int, float),
    "selectivity": (int, float),
    "intersect_width": int,
    "union_extension": bool,
    "cycles": (int, float),
    "counters": dict,
    "kernels": (int, float),
    "tasks": (int, float),
    "task_max_cycles": (int, float),
    "task_total_cycles": (int, float),
    "slots": dict,
}
PLANPROF_SUMMARY_LEVEL_KEYS = {
    "label": str,
    "depth": int,
    "has_estimate": bool,
    "est_rows": (int, float),
    "rows": (int, float),
    "q_error": (int, float),
}


def q_error(est_rows, rows):
    """core::PlanProfiler's Q-error, bit-for-bit: both sides clamped at
    one row, so empty levels and sub-row estimates stay finite."""
    e = max(float(est_rows), 1.0)
    r = max(float(rows), 1.0)
    return max(e / r, r / e)


def check_counters_exact(errors, counters, ctx):
    """A DeviceStats map must carry exactly the known counter keys."""
    if not isinstance(counters, dict):
        fail(errors, f"{ctx}: not an object")
        return
    for key in COUNTER_KEYS:
        if not isinstance(counters.get(key), (int, float)):
            fail(errors, f"{ctx}: missing or mistyped '{key}'")
    for key in counters:
        if key not in COUNTER_KEYS:
            fail(errors, f"{ctx}: unknown counter '{key}'")


def check_planprof_slots(errors, slots, ctx):
    """Per-warp-slot histogram: count/max/mean/imbalance must reproduce
    the C++ left-to-right fold over busy_cycles exactly."""
    if not isinstance(slots, dict):
        fail(errors, f"{ctx}: not an object")
        return None
    check_typed_keys(
        errors, slots,
        {"count": (int, float), "busy_cycles": list, "max": (int, float),
         "mean": (int, float), "imbalance": (int, float)}, ctx)
    hist = slots.get("busy_cycles")
    if not isinstance(hist, list) \
            or not all(isinstance(v, (int, float)) for v in hist):
        fail(errors, f"{ctx}.busy_cycles: want an array of numbers")
        return None
    if slots.get("count") != len(hist):
        fail(errors, f"{ctx}: count {slots.get('count')!r} != "
             f"{len(hist)} busy_cycles entries")
    want_max = max(hist) if hist else 0.0
    want_mean = 0.0
    if hist:
        total = 0.0
        for v in hist:
            total += v
        want_mean = total / len(hist)
    if slots.get("max") != want_max:
        fail(errors, f"{ctx}: max {slots.get('max')!r}, want {want_max!r}")
    if slots.get("mean") != want_mean:
        fail(errors, f"{ctx}: mean {slots.get('mean')!r}, want "
             f"{want_mean!r}")
    want_imb = want_max / want_mean if want_max > 0 and want_mean > 0 \
        else 0.0
    if slots.get("imbalance") != want_imb:
        fail(errors, f"{ctx}: imbalance {slots.get('imbalance')!r}, want "
             f"{want_imb!r}")
    return hist


def check_planprof_summary_obj(errors, summary, want_levels, ctx):
    """Summary digest (also embedded in gamma.bench.v1 runs): when the
    full per-level list is at hand, the worst Q-error and the per-level
    echo must agree with it exactly."""
    if not isinstance(summary, dict):
        fail(errors, f"{ctx}: not an object")
        return
    check_typed_keys(
        errors, summary,
        {"worst_q_error": (int, float),
         "worst_q_error_depth": int,
         "imbalance": (int, float), "levels": list}, ctx)
    levels = summary.get("levels")
    if not isinstance(levels, list):
        return
    for i, level in enumerate(levels):
        lctx = f"{ctx}.levels[{i}]"
        if not isinstance(level, dict):
            fail(errors, f"{lctx}: not an object")
            continue
        check_typed_keys(errors, level, PLANPROF_SUMMARY_LEVEL_KEYS, lctx)
    if want_levels is None:
        return
    worst = 0.0
    worst_depth = 0
    digest = []
    for seg in want_levels:
        if not isinstance(seg, dict):
            return  # the levels array already failed validation
        if seg.get("has_estimate") and \
                isinstance(seg.get("q_error"), (int, float)) and \
                seg["q_error"] > worst:
            worst = seg["q_error"]
            worst_depth = seg.get("depth")
        digest.append({key: seg.get(key)
                       for key in PLANPROF_SUMMARY_LEVEL_KEYS})
    if summary.get("worst_q_error") != worst:
        fail(errors, f"{ctx}: worst_q_error "
             f"{summary.get('worst_q_error')!r}, want {worst!r}")
    elif worst > 0 and summary.get("worst_q_error_depth") != worst_depth:
        fail(errors, f"{ctx}: worst_q_error_depth "
             f"{summary.get('worst_q_error_depth')!r}, want "
             f"{worst_depth!r}")
    stripped = [{key: level.get(key) for key in PLANPROF_SUMMARY_LEVEL_KEYS}
                for level in levels if isinstance(level, dict)]
    if stripped != digest:
        fail(errors, f"{ctx}.levels: digest does not match the per-level "
             f"records")


def validate_planprof(doc):
    errors = []
    if not isinstance(doc, dict):
        return ["top-level value is not an object"]
    if doc.get("schema") != "gamma.planprof.v1":
        fail(errors, f"schema is {doc.get('schema')!r}, want "
             f"'gamma.planprof.v1'")
    check_typed_keys(
        errors, doc,
        {"kind": str, "start_mode": str, "order": list, "finished": bool,
         "partial": bool, "dropped_commands": (int, float),
         "attribution_available": bool, "total_cycles": (int, float),
         "levels": list, "summary": dict}, "document")
    if doc.get("kind") not in PLAN_KINDS:
        fail(errors, f"unknown kind {doc.get('kind')!r}")
    if doc.get("start_mode") not in PLANPROF_START_MODES:
        fail(errors, f"unknown start_mode {doc.get('start_mode')!r}")
    if not doc.get("finished"):
        fail(errors, "finished is false — aborted runs have no document")
    levels = doc.get("levels")
    if not isinstance(levels, list):
        return errors + ["'levels' is missing or not an array"]
    if not levels:
        fail(errors, "'levels' is empty — every run has a start segment")
    run_hist = []
    for i, level in enumerate(levels):
        ctx = f"levels[{i}]"
        if not isinstance(level, dict):
            fail(errors, f"{ctx}: not an object")
            continue
        ctx = f"levels[{i}] ({level.get('label', '?')})"
        check_typed_keys(errors, level, PLANPROF_LEVEL_KEYS, ctx)
        est = level.get("est_rows")
        rows = level.get("rows")
        if isinstance(est, (int, float)) and est < 0:
            fail(errors, f"{ctx}: negative est_rows")
        # Q-error is the exact clamped ratio when an estimate exists,
        # and exactly zero when none does.
        if isinstance(est, (int, float)) and est >= 0 \
                and isinstance(rows, (int, float)) \
                and isinstance(level.get("q_error"), (int, float)):
            want = q_error(est, rows) if level.get("has_estimate") else 0.0
            if level["q_error"] != want:
                fail(errors, f"{ctx}: q_error {level['q_error']!r}, want "
                     f"{want!r}")
        cand = level.get("candidates")
        if isinstance(cand, (int, float)) \
                and isinstance(rows, (int, float)) \
                and isinstance(level.get("selectivity"), (int, float)):
            want = rows / cand if cand > 0 else 0.0
            if level["selectivity"] != want:
                fail(errors, f"{ctx}: selectivity "
                     f"{level['selectivity']!r}, want {want!r}")
        strategy = level.get("strategy")
        if strategy is not None:
            sctx = f"{ctx}.strategy"
            if not isinstance(strategy, dict):
                fail(errors, f"{sctx}: not an object")
            else:
                check_typed_keys(
                    errors, strategy,
                    {"write_strategy": str, "write_strategy_source": str,
                     "pre_merge": bool, "pre_merge_source": str,
                     "count_only": bool}, sctx)
                if strategy.get("write_strategy") not in \
                        PLAN_WRITE_STRATEGIES[1:]:
                    fail(errors, f"{sctx}: unknown write_strategy "
                         f"{strategy.get('write_strategy')!r}")
                for key in ("write_strategy_source", "pre_merge_source"):
                    if strategy.get(key) not in PLANPROF_STRATEGY_SOURCES:
                        fail(errors, f"{sctx}: {key} must be 'plan' or "
                             f"'inherit'")
        check_counters_exact(errors, level.get("counters"),
                             f"{ctx}.counters")
        attribution = level.get("attribution")
        if attribution is not None:
            if not doc.get("attribution_available"):
                fail(errors, f"{ctx}: attributed level in a document with "
                     f"attribution_available false")
            attr = check_resource_cycles(errors, attribution,
                                         f"{ctx}.attribution")
            cycles = level.get("cycles")
            if attr is not None and isinstance(cycles, (int, float)):
                if fold_sum(attr) != cycles:
                    fail(errors, f"{ctx}.attribution: fold-sum "
                         f"{fold_sum(attr)!r} != cycles {cycles!r} "
                         f"(attribution must be exact)")
            if level.get("binding") not in RESOURCE_CLASSES:
                fail(errors, f"{ctx}: unknown binding "
                     f"{level.get('binding')!r}")
        elif "binding" in level:
            fail(errors, f"{ctx}: binding without attribution")
        hist = check_planprof_slots(errors, level.get("slots"),
                                    f"{ctx}.slots")
        if hist is not None:
            if len(run_hist) < len(hist):
                run_hist.extend([0.0] * (len(hist) - len(run_hist)))
            for s, v in enumerate(hist):
                run_hist[s] += v
    check_planprof_summary_obj(errors, doc.get("summary"), levels,
                               "summary")
    # The run-level imbalance folds the per-level histograms elementwise,
    # mirroring core::PlanProfiler::Summary bit-for-bit.
    summary = doc.get("summary")
    if not errors and isinstance(summary, dict):
        want_max = max(run_hist) if run_hist else 0.0
        want_mean = 0.0
        if run_hist:
            total = 0.0
            for v in run_hist:
                total += v
            want_mean = total / len(run_hist)
        want_imb = want_max / want_mean \
            if want_max > 0 and want_mean > 0 else 0.0
        if summary.get("imbalance") != want_imb:
            fail(errors, f"summary: imbalance "
                 f"{summary.get('imbalance')!r}, want {want_imb!r}")
    return errors


def check_plan_summary(errors, plan, ctx):
    """The 'plan' object a bench run embeds when it ran a compiled plan."""
    if not isinstance(plan, dict):
        fail(errors, f"{ctx}: not an object")
        return
    check_typed_keys(errors, plan, PLAN_SUMMARY_KEYS, ctx)
    if plan.get("kind") not in PLAN_KINDS:
        fail(errors, f"{ctx}: unknown kind {plan.get('kind')!r}")
    if isinstance(plan.get("order"), list):
        for v in plan["order"]:
            if not isinstance(v, int):
                fail(errors, f"{ctx}.order: non-integer entry {v!r}")
                break
    if isinstance(plan.get("levels"), (int, float)) and plan["levels"] < 0:
        fail(errors, f"{ctx}: negative levels")


def fold_sum(attribution):
    """The canonical left-to-right fold over the class order."""
    total = 0.0
    for key in RESOURCE_CLASSES:
        total += attribution[key]
    return total


def check_resource_cycles(errors, obj, ctx):
    """Exact-keyed per-class cycle map; returns it when well-formed."""
    if not isinstance(obj, dict):
        fail(errors, f"{ctx}: not an object")
        return None
    ok = True
    for key in RESOURCE_CLASSES:
        if not isinstance(obj.get(key), (int, float)):
            fail(errors, f"{ctx}: missing or mistyped '{key}'")
            ok = False
    for key in obj:
        if key not in RESOURCE_CLASSES:
            fail(errors, f"{ctx}: unknown resource class '{key}'")
            ok = False
    return obj if ok else None


def check_whatifs(errors, whatifs, partial, anchor_cycles, ctx):
    """Shared what-if panel rules: suppressed when partial, and the
    factor-1.0 identity row must reproduce `anchor_cycles` exactly."""
    if not isinstance(whatifs, list):
        fail(errors, f"{ctx}: not an array")
        return
    if partial:
        if whatifs:
            fail(errors, f"{ctx}: what-ifs must be suppressed on a "
                 f"partial log")
        return
    if not whatifs:
        fail(errors, f"{ctx}: empty — the identity row is required")
        return
    for i, wi in enumerate(whatifs):
        wctx = f"{ctx}[{i}]"
        if not isinstance(wi, dict):
            fail(errors, f"{wctx}: not an object")
            continue
        check_typed_keys(errors, wi, WHATIF_KEYS, wctx)
        if wi.get("resource") not in RESOURCE_CLASSES:
            fail(errors, f"{wctx}: unknown resource {wi.get('resource')!r}")
    head = whatifs[0]
    if isinstance(head, dict) and head.get("cost_factor") == 1.0:
        if head.get("projected_cycles") != anchor_cycles:
            fail(errors, f"{ctx}[0]: identity projection "
                 f"{head.get('projected_cycles')!r} != critical path "
                 f"{anchor_cycles!r} (factor 1.0 must be exact)")
    else:
        fail(errors, f"{ctx}[0]: first row must be the factor-1.0 "
             f"identity projection")


def check_bottleneck(errors, bn, ctx):
    """Per-run bottleneck summary embedded in gamma.bench.v1 documents."""
    if not isinstance(bn, dict):
        fail(errors, f"{ctx}: not an object")
        return
    check_typed_keys(
        errors, bn,
        {"partial": bool, "critical_path_cycles": (int, float),
         "binding": str, "pcie_link_utilization": (int, float),
         "resource_cycles": dict, "whatif": list}, ctx)
    if bn.get("binding") not in RESOURCE_CLASSES:
        fail(errors, f"{ctx}: unknown binding {bn.get('binding')!r}")
    cycles = bn.get("critical_path_cycles")
    attribution = check_resource_cycles(errors, bn.get("resource_cycles"),
                                        f"{ctx}.resource_cycles")
    if attribution is not None and isinstance(cycles, (int, float)):
        if fold_sum(attribution) != cycles:
            fail(errors, f"{ctx}.resource_cycles: fold-sum "
                 f"{fold_sum(attribution)!r} != critical_path_cycles "
                 f"{cycles!r} (attribution must be exact)")
    check_whatifs(errors, bn.get("whatif"), bn.get("partial"), cycles,
                  f"{ctx}.whatif")


def fail(errors, msg):
    errors.append(msg)


def check_typed_keys(errors, obj, spec, ctx):
    for key, want in spec.items():
        if key not in obj:
            fail(errors, f"{ctx}: missing key '{key}'")
        elif not isinstance(obj[key], want):
            fail(errors, f"{ctx}: '{key}' has type {type(obj[key]).__name__}")


def validate(doc):
    errors = []
    if not isinstance(doc, dict):
        return ["top-level value is not an object"]
    if doc.get("schema") != "gamma.bench.v1":
        fail(errors, f"schema is {doc.get('schema')!r}, want 'gamma.bench.v1'")
    if not isinstance(doc.get("binary"), str) or not doc.get("binary"):
        fail(errors, "missing or empty 'binary'")
    runs = doc.get("runs")
    if not isinstance(runs, list):
        return errors + ["'runs' is missing or not an array"]
    if not runs:
        fail(errors, "'runs' is empty — no benchmark executed")
    for i, run in enumerate(runs):
        ctx = f"runs[{i}]"
        if not isinstance(run, dict):
            fail(errors, f"{ctx}: not an object")
            continue
        ctx = f"runs[{i}] ({run.get('name', '?')})"
        check_typed_keys(errors, run, REQUIRED_RUN_KEYS, ctx)
        if run.get("skipped") and not run.get("error"):
            fail(errors, f"{ctx}: skipped without an 'error' message")
        if isinstance(run.get("params"), dict):
            check_typed_keys(errors, run["params"], REQUIRED_PARAM_KEYS,
                             f"{ctx}.params")
        bottleneck = run.get("bottleneck")
        if bottleneck is not None:
            check_bottleneck(errors, bottleneck, f"{ctx}.bottleneck")
        adaptivity = run.get("adaptivity")
        if adaptivity is not None:
            if not isinstance(adaptivity, dict):
                fail(errors, f"{ctx}.adaptivity: not an object")
            else:
                check_typed_keys(errors, adaptivity,
                                 ADAPTIVITY_SUMMARY_KEYS,
                                 f"{ctx}.adaptivity")
        plan = run.get("plan")
        if plan is not None:
            check_plan_summary(errors, plan, f"{ctx}.plan")
        planprof = run.get("planprof")
        if planprof is not None:
            # The embedded digest has no per-level slot histograms, so
            # only its shape and summary-level types are checkable here.
            check_planprof_summary_obj(errors, planprof, None,
                                       f"{ctx}.planprof")
        counters = run.get("counters")
        if isinstance(counters, dict):
            for key in COUNTER_KEYS:
                if key not in counters:
                    fail(errors, f"{ctx}.counters: missing '{key}'")
            for key in counters:
                if key not in COUNTER_KEYS:
                    fail(errors, f"{ctx}.counters: unknown '{key}'")
        for j, phase in enumerate(run.get("phases") or []):
            pctx = f"{ctx}.phases[{j}]"
            if not isinstance(phase, dict):
                fail(errors, f"{pctx}: not an object")
                continue
            check_typed_keys(
                errors, phase,
                {"name": str, "invocations": (int, float),
                 "cycles": (int, float)}, pctx)
        if not run.get("skipped") and isinstance(run.get("cycles"),
                                                 (int, float)):
            if run["cycles"] <= 0:
                fail(errors, f"{ctx}: completed run with cycles <= 0")
        if isinstance(run.get("link_busy_cycles"), (int, float)):
            if run["link_busy_cycles"] < 0:
                fail(errors, f"{ctx}: negative link_busy_cycles")
        if isinstance(run.get("wall_clock_ms"), (int, float)):
            if run["wall_clock_ms"] < 0:
                fail(errors, f"{ctx}: negative wall_clock_ms")
        # Skipped (crashed) runs and legacy benches that never call
        # ReportProfile leave params zeroed; require the default stream
        # only when a device was actually reported (cycles > 0).
        if (not run.get("skipped")
                and isinstance(run.get("cycles"), (int, float))
                and run["cycles"] > 0
                and isinstance(run.get("params"), dict)
                and isinstance(run["params"].get("streams"), (int, float))):
            if run["params"]["streams"] < 1:
                fail(errors,
                     f"{ctx}.params: streams < 1 (default stream missing)")
        if (isinstance(run.get("params"), dict)
                and isinstance(run["params"].get("host_threads"),
                               (int, float))):
            if run["params"]["host_threads"] < 1:
                fail(errors, f"{ctx}.params: host_threads < 1")
    return errors


def validate_adaptivity(doc):
    errors = []
    if not isinstance(doc, dict):
        return ["top-level value is not an object"]
    for key, want in {"placement": str, "page_bytes": (int, float),
                      "capacity_pages": (int, float),
                      "extensions": (int, float)}.items():
        if not isinstance(doc.get(key), want):
            fail(errors, f"missing or mistyped '{key}'")
    totals = doc.get("totals")
    if not isinstance(totals, dict):
        fail(errors, "'totals' is missing or not an object")
    else:
        spec = {k: v for k, v in ADAPTIVITY_SUMMARY_KEYS.items()
                if k not in ("extensions",)}
        check_typed_keys(errors, totals, spec, "totals")
        if totals.get("best_pure") not in ("unified", "zerocopy"):
            fail(errors, "totals.best_pure must be 'unified' or 'zerocopy'")
    records = doc.get("records")
    if not isinstance(records, list):
        return errors + ["'records' is missing or not an array"]
    if isinstance(doc.get("extensions"), (int, float)):
        if len(records) != doc["extensions"]:
            fail(errors, f"'extensions' is {doc['extensions']} but there "
                 f"are {len(records)} records")
    for i, rec in enumerate(records):
        ctx = f"records[{i}]"
        if not isinstance(rec, dict):
            fail(errors, f"{ctx}: not an object")
            continue
        check_typed_keys(
            errors, rec,
            {"extension": (int, float), "frontier_vertices": (int, float),
             "planned_bytes": (int, float), "w_spatial": (int, float),
             "unified_pages": (int, float),
             "top_page_overlap": (int, float), "heat": dict,
             "plan_cycles": (int, float), "actual": dict,
             "est_unified": dict, "est_zerocopy": dict,
             "regret_cycles": (int, float)}, ctx)
        if rec.get("extension") != i + 1:
            fail(errors, f"{ctx}: extension index is {rec.get('extension')}"
                 f", want {i + 1}")
        heat = rec.get("heat")
        if isinstance(heat, dict):
            check_typed_keys(
                errors, heat,
                {"nonzero_pages": (int, float), "max": (int, float),
                 "mean_nonzero": (int, float), "histogram": list},
                f"{ctx}.heat")
        actual = rec.get("actual")
        if isinstance(actual, dict):
            for key in ["access_cycles"] + COUNTER_KEYS:
                if key not in actual:
                    fail(errors, f"{ctx}.actual: missing '{key}'")
        for shadow in ("est_unified", "est_zerocopy"):
            if isinstance(rec.get(shadow), dict):
                check_typed_keys(errors, rec[shadow], SHADOW_KEYS,
                                 f"{ctx}.{shadow}")
    return errors


def validate_metrics(doc):
    errors = []
    if not isinstance(doc, dict):
        return ["top-level value is not an object"]
    columns = doc.get("columns")
    if not isinstance(columns, list):
        return ["'columns' is missing or not an array"]
    for gauge in ("cycles", "unified_page_count",
                  "adaptivity_regret_cycles"):
        if gauge not in columns:
            fail(errors, f"columns: missing gauge '{gauge}'")
    for key in COUNTER_KEYS:
        if key not in columns:
            fail(errors, f"columns: missing counter '{key}'")
    samples = doc.get("samples")
    if not isinstance(samples, list):
        return errors + ["'samples' is missing or not an array"]
    for i, row in enumerate(samples):
        if not isinstance(row, list) or len(row) != len(columns):
            fail(errors, f"samples[{i}]: row width != len(columns)")
    return errors


# gpusim-check checkers and the finding kinds each owns (keep in sync
# with gpusim::Sanitizer::KindName / CheckerName).
CHECKERS = ("memcheck", "initcheck", "racecheck")
FINDING_KINDS = {
    "out-of-bounds": "memcheck",
    "invalid-access": "memcheck",
    "leak": "memcheck",
    "double-free": "memcheck",
    "uninitialized-read": "initcheck",
    "race": "racecheck",
}
CHECK_ACTIVITY_KEYS = {
    "device_accesses": (int, float),
    "unified_accesses": (int, float),
    "bulk_accesses": (int, float),
    "allocations": (int, float),
    "frees": (int, float),
    "events_recorded": (int, float),
    "event_waits": (int, float),
}
CHECK_FINDING_KEYS = {
    "kind": str,
    "checker": str,
    "message": str,
    "object": str,
    "kernel": str,
    "phase": str,
    "task": (int, float),
    "stream": (int, float),
    "offset": (int, float),
    "bytes": (int, float),
    "occurrences": (int, float),
    "first_cycles": (int, float),
}


def validate_check(doc):
    errors = []
    if not isinstance(doc, dict):
        return ["top-level value is not an object"]
    checkers = doc.get("checkers")
    if not isinstance(checkers, dict):
        fail(errors, "'checkers' is missing or not an object")
    else:
        for name in CHECKERS:
            if not isinstance(checkers.get(name), bool):
                fail(errors, f"checkers: missing or non-bool '{name}'")
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        fail(errors, "'summary' is missing or not an object")
    else:
        spec = {"total": (int, float), "occurrences": (int, float),
                "dropped_findings": (int, float)}
        spec.update({name: (int, float) for name in CHECKERS})
        check_typed_keys(errors, summary, spec, "summary")
    checked = doc.get("checked")
    if not isinstance(checked, dict):
        fail(errors, "'checked' is missing or not an object")
    else:
        check_typed_keys(errors, checked, CHECK_ACTIVITY_KEYS, "checked")
    findings = doc.get("findings")
    if not isinstance(findings, list):
        return errors + ["'findings' is missing or not an array"]
    per_checker = {name: 0 for name in CHECKERS}
    occurrences = 0
    for i, f in enumerate(findings):
        ctx = f"findings[{i}]"
        if not isinstance(f, dict):
            fail(errors, f"{ctx}: not an object")
            continue
        check_typed_keys(errors, f, CHECK_FINDING_KEYS, ctx)
        kind = f.get("kind")
        if kind not in FINDING_KINDS:
            fail(errors, f"{ctx}: unknown kind {kind!r}")
        elif f.get("checker") != FINDING_KINDS[kind]:
            fail(errors, f"{ctx}: kind {kind!r} belongs to "
                 f"'{FINDING_KINDS[kind]}', not {f.get('checker')!r}")
        else:
            per_checker[FINDING_KINDS[kind]] += 1
        if isinstance(f.get("occurrences"), (int, float)):
            if f["occurrences"] < 1:
                fail(errors, f"{ctx}: occurrences < 1")
            occurrences += f["occurrences"]
    if isinstance(summary, dict):
        if summary.get("total") != len(findings):
            fail(errors, f"summary.total is {summary.get('total')} but "
                 f"there are {len(findings)} findings")
        for name in CHECKERS:
            want = per_checker[name]
            if isinstance(summary.get(name), (int, float)) \
                    and summary[name] != want:
                fail(errors, f"summary.{name} is {summary[name]} but "
                     f"{want} findings belong to it")
        if isinstance(summary.get("occurrences"), (int, float)) \
                and summary["occurrences"] != occurrences:
            fail(errors, f"summary.occurrences is "
                 f"{summary['occurrences']}, want {occurrences}")
    return errors


CRITPATH_SPAN_KEYS = {
    "index": (int, float),
    "kind": str,
    "name": str,
    "phase": str,
    "stream": (int, float),
    "start": (int, float),
    "end": (int, float),
    "slack": (int, float),
}

CRITPATH_COMMAND_KINDS = (
    "kernel", "copy", "host-work", "wait-event", "synchronize",
    "fast-forward", "create-stream",
)


def validate_critpath(doc):
    errors = []
    if not isinstance(doc, dict):
        return ["top-level value is not an object"]
    check_typed_keys(
        errors, doc,
        {"partial": bool, "dropped_commands": (int, float),
         "total_cycles": (int, float),
         "critical_path_cycles": (int, float),
         "commands": (int, float), "streams": (int, float),
         "pcie_link_utilization": (int, float), "binding": str,
         "resource_cycles": dict, "phases": list,
         "critical_path_truncated": bool, "critical_path": list,
         "top_slack": list, "whatif": list}, "document")
    if doc.get("binding") not in RESOURCE_CLASSES:
        fail(errors, f"unknown binding {doc.get('binding')!r}")
    if isinstance(doc.get("streams"), (int, float)) and doc["streams"] < 1:
        fail(errors, "streams < 1 (default stream missing)")
    partial = doc.get("partial")
    if partial is False and doc.get("dropped_commands"):
        fail(errors, "dropped_commands > 0 but partial is false")
    if partial is True and not doc.get("dropped_commands"):
        fail(errors, "partial is true but dropped_commands is 0")
    cp = doc.get("critical_path_cycles")
    total = doc.get("total_cycles")
    if isinstance(cp, (int, float)) and isinstance(total, (int, float)):
        if not partial and cp > total:
            fail(errors, f"critical_path_cycles {cp!r} exceeds "
                 f"total_cycles {total!r}")
    attribution = check_resource_cycles(errors, doc.get("resource_cycles"),
                                        "resource_cycles")
    if attribution is not None and isinstance(cp, (int, float)):
        if fold_sum(attribution) != cp:
            fail(errors, f"resource_cycles: fold-sum "
                 f"{fold_sum(attribution)!r} != critical_path_cycles "
                 f"{cp!r} (attribution must be exact)")
    for i, ph in enumerate(doc.get("phases") or []):
        ctx = f"phases[{i}]"
        if not isinstance(ph, dict):
            fail(errors, f"{ctx}: not an object")
            continue
        ctx = f"phases[{i}] ({ph.get('name', '?')})"
        check_typed_keys(
            errors, ph,
            {"name": str, "invocations": (int, float),
             "cycles": (int, float), "binding": str,
             "attribution": dict}, ctx)
        if ph.get("binding") not in RESOURCE_CLASSES:
            fail(errors, f"{ctx}: unknown binding {ph.get('binding')!r}")
        attr = check_resource_cycles(errors, ph.get("attribution"),
                                     f"{ctx}.attribution")
        if attr is not None and isinstance(ph.get("cycles"), (int, float)):
            if fold_sum(attr) != ph["cycles"]:
                fail(errors, f"{ctx}.attribution: fold-sum "
                     f"{fold_sum(attr)!r} != cycles {ph['cycles']!r} "
                     f"(per-phase attribution must be exact)")
    for array in ("critical_path", "top_slack"):
        prev_index = None
        for i, span in enumerate(doc.get(array) or []):
            ctx = f"{array}[{i}]"
            if not isinstance(span, dict):
                fail(errors, f"{ctx}: not an object")
                continue
            if len(span) == 1 and "index" in span:
                continue  # elided entry (log overflow edge case)
            check_typed_keys(errors, span, CRITPATH_SPAN_KEYS, ctx)
            if span.get("kind") not in CRITPATH_COMMAND_KINDS:
                fail(errors, f"{ctx}: unknown kind {span.get('kind')!r}")
            if isinstance(span.get("slack"), (int, float)):
                if span["slack"] < 0:
                    fail(errors, f"{ctx}: negative slack")
            if array == "critical_path" \
                    and not doc.get("critical_path_truncated") \
                    and isinstance(span.get("index"), (int, float)):
                if prev_index is not None and span["index"] <= prev_index:
                    fail(errors, f"{ctx}: indices not strictly increasing")
                prev_index = span["index"]
    check_whatifs(errors, doc.get("whatif"), partial, cp, "whatif")
    return errors


def is_label(v):
    """Plan labels are '*' (wildcard) or a non-negative integer."""
    return v == "*" or (isinstance(v, int) and v >= 0)


def check_plan_pattern(errors, pattern, ctx):
    """Returns the vertex count when the pattern object is well-formed."""
    if not isinstance(pattern, dict):
        fail(errors, f"{ctx}: missing or not an object")
        return None
    check_typed_keys(errors, pattern,
                     {"num_vertices": int, "edges": list, "labels": list},
                     ctx)
    n = pattern.get("num_vertices")
    if not isinstance(n, int) or n < 1:
        fail(errors, f"{ctx}: num_vertices must be a positive integer")
        return None
    for i, e in enumerate(pattern.get("edges") or []):
        ectx = f"{ctx}.edges[{i}]"
        if (not isinstance(e, list) or len(e) != 2
                or not all(isinstance(v, int) for v in e)):
            fail(errors, f"{ectx}: want an [a, b] integer pair")
            continue
        if e[0] == e[1] or not all(0 <= v < n for v in e):
            fail(errors, f"{ectx}: endpoints out of range or equal")
    labels = pattern.get("labels")
    if isinstance(labels, list):
        if len(labels) != n:
            fail(errors, f"{ctx}.labels: {len(labels)} entries for "
                 f"{n} vertices")
        for i, l in enumerate(labels):
            if not is_label(l):
                fail(errors, f"{ctx}.labels[{i}]: want '*' or a "
                     f"non-negative integer, got {l!r}")
    return n


def check_plan_levels(errors, doc, n):
    """Per-level checks of a vertex plan (order, start, levels)."""
    order = doc.get("order")
    if not isinstance(order, list) or (
            n is not None and sorted(order) != list(range(n))):
        fail(errors, f"order: not a permutation of 0..{(n or 1) - 1}")
    start = doc.get("start")
    edge_parallel = False
    if not isinstance(start, dict):
        fail(errors, "'start' is missing or not an object")
    else:
        check_typed_keys(errors, start, {"mode": str, "ascending": bool},
                         "start")
        if start.get("mode") not in PLAN_START_MODES:
            fail(errors, f"start: unknown mode {start.get('mode')!r}")
        edge_parallel = start.get("mode") == "edge-parallel"
        if not is_label(start.get("label")):
            fail(errors, "start: label must be '*' or a non-negative "
                 "integer")
        if edge_parallel and not is_label(start.get("second_label")):
            fail(errors, "start: edge-parallel needs a second_label")
        rationale = start.get("rationale")
        if not isinstance(rationale, dict):
            fail(errors, "start.rationale is missing or not an object")
        else:
            check_typed_keys(errors, rationale, PLAN_START_RATIONALE_KEYS,
                             "start.rationale")
            # The profitability bit is a pure function of its inputs.
            if all(isinstance(rationale.get(k), (bool, int, float))
                   for k in PLAN_START_RATIONALE_KEYS):
                want = bool(rationale["edge_parallel_foldable"]
                            and rationale["est_pair_rows"]
                            >= rationale["est_start_rows"])
                if rationale["edge_parallel_profitable"] != want:
                    fail(errors, f"start.rationale: "
                         f"edge_parallel_profitable is "
                         f"{rationale['edge_parallel_profitable']}, "
                         f"want {want}")
    levels = doc.get("levels")
    if not isinstance(levels, list):
        fail(errors, "'levels' is missing or not an array")
        return
    first_depth = 2 if edge_parallel else 1
    for i, level in enumerate(levels):
        ctx = f"levels[{i}]"
        if not isinstance(level, dict):
            fail(errors, f"{ctx}: not an object")
            continue
        check_typed_keys(
            errors, level,
            {"depth": int, "intersect": list, "require_ascending": bool,
             "enforce_injective": bool, "restrictions": list,
             "count_only": bool, "est_rows": (int, float)}, ctx)
        depth = level.get("depth")
        if depth != first_depth + i:
            fail(errors, f"{ctx}: depth {depth!r}, want {first_depth + i}")
            continue
        for p in level.get("intersect") or []:
            if not isinstance(p, int) or not 0 <= p < depth:
                fail(errors, f"{ctx}.intersect: position {p!r} not in "
                     f"[0, {depth})")
        if not is_label(level.get("label")):
            fail(errors, f"{ctx}: label must be '*' or a non-negative "
                 f"integer")
        for j, r in enumerate(level.get("restrictions") or []):
            rctx = f"{ctx}.restrictions[{j}]"
            if not isinstance(r, dict):
                fail(errors, f"{rctx}: not an object")
                continue
            check_typed_keys(errors, r,
                             {"smaller_pos": int, "larger_pos": int}, rctx)
            lo, hi = r.get("smaller_pos"), r.get("larger_pos")
            if isinstance(lo, int) and isinstance(hi, int):
                if lo == hi or max(lo, hi) > depth or min(lo, hi) < 0 \
                        or depth not in (lo, hi):
                    fail(errors, f"{rctx}: positions ({lo}, {hi}) do not "
                         f"constrain depth {depth}")
        ws = level.get("write_strategy")
        if ws not in PLAN_WRITE_STRATEGIES:
            fail(errors, f"{ctx}: unknown write_strategy {ws!r}")
        pm = level.get("pre_merge")
        if pm != "inherit" and not isinstance(pm, bool):
            fail(errors, f"{ctx}: pre_merge must be 'inherit' or a bool")
        if isinstance(level.get("est_rows"), (int, float)) \
                and level["est_rows"] < 0:
            fail(errors, f"{ctx}: negative est_rows")
        rationale = level.get("rationale")
        if not isinstance(rationale, dict):
            fail(errors, f"{ctx}.rationale is missing or not an object")
            continue
        rctx = f"{ctx}.rationale"
        check_typed_keys(errors, rationale, PLAN_LEVEL_RATIONALE_KEYS, rctx)
        rule = rationale.get("write_strategy_rule")
        if rule not in PLAN_WRITE_STRATEGY_RULES:
            fail(errors, f"{rctx}: unknown write_strategy_rule {rule!r}")
        elif ws in PLAN_WRITE_STRATEGIES:
            # A rule fired exactly when the level pins a strategy.
            if (rule == "inherit") != (ws == "inherit"):
                fail(errors, f"{rctx}: write_strategy_rule {rule!r} "
                     f"inconsistent with write_strategy {ws!r}")
        pm_rule = rationale.get("pre_merge_rule")
        if pm_rule not in PLAN_PRE_MERGE_RULES:
            fail(errors, f"{rctx}: unknown pre_merge_rule {pm_rule!r}")
        elif (pm_rule == "inherit") != (pm == "inherit"):
            fail(errors, f"{rctx}: pre_merge_rule {pm_rule!r} "
                 f"inconsistent with pre_merge {pm!r}")
        width = rationale.get("intersect_width")
        if isinstance(width, int) \
                and isinstance(level.get("intersect"), list) \
                and width != len(level["intersect"]):
            fail(errors, f"{rctx}: intersect_width {width} != "
                 f"{len(level['intersect'])} intersect positions")


def validate_plan(doc):
    errors = []
    if not isinstance(doc, dict):
        return ["top-level value is not an object"]
    if doc.get("schema") != "gamma.plan.v1":
        fail(errors, f"schema is {doc.get('schema')!r}, want "
             f"'gamma.plan.v1'")
    kind = doc.get("kind")
    if kind not in PLAN_KINDS:
        fail(errors, f"unknown kind {kind!r} (know: {list(PLAN_KINDS)})")
        return errors
    check_typed_keys(errors, doc,
                     {"symmetry_broken": bool, "automorphisms": int,
                      "estimated_cost": (int, float)}, "document")
    if isinstance(doc.get("automorphisms"), int) \
            and doc["automorphisms"] < 1:
        fail(errors, "automorphisms < 1")
    n = None
    if kind in ("subgraph-match", "edge-join"):
        n = check_plan_pattern(errors, doc.get("pattern"), "pattern")
    if kind in ("subgraph-match", "motif-census"):
        if kind == "motif-census" and isinstance(doc.get("order"), list):
            n = len(doc["order"])
        check_plan_levels(errors, doc, n)
    if kind == "edge-join":
        edge_order = doc.get("edge_order")
        if not isinstance(edge_order, list):
            fail(errors, "'edge_order' is missing or not an array")
        else:
            pattern = doc.get("pattern")
            if isinstance(pattern, dict) \
                    and isinstance(pattern.get("edges"), list) \
                    and len(edge_order) != len(pattern["edges"]):
                fail(errors, f"edge_order covers {len(edge_order)} edges, "
                     f"pattern has {len(pattern['edges'])}")
    if kind == "frequent-mining":
        fpm = doc.get("fpm")
        if not isinstance(fpm, dict):
            fail(errors, "'fpm' is missing or not an object")
        else:
            check_typed_keys(errors, fpm,
                             {"max_edges": int, "min_support": int}, "fpm")
            # The compiler and the verifier's fpm-params obligation accept
            # 1 <= max_edges <= Pattern::kMaxVertices - 1.
            if isinstance(fpm.get("max_edges"), int) \
                    and not 1 <= fpm["max_edges"] <= FPM_MAX_EDGES:
                fail(errors, f"fpm.max_edges {fpm['max_edges']} outside "
                     f"[1, {FPM_MAX_EDGES}]")
    return errors


VERIFY_OBLIGATIONS = (
    # Tier 1: structural well-formedness.
    "order-permutation", "pattern-connected", "start-edge",
    "label-consistent", "level-count", "intersect-bounds",
    "prefix-connected", "restriction-bounds", "count-only-last",
    "pre-merge-width", "motif-shape", "fpm-params", "edge-order",
    # Tier 2: semantic soundness.
    "automorphism-count", "edge-coverage", "restriction-sound",
    "restriction-complete", "restriction-unclaimed", "injective-required",
    # Tier 3: abstract resource interpretation (advisory).
    "prealloc-overflow",
)

VERIFY_SEVERITIES = ("error", "warning")

VERIFY_TIERS = ("structural", "semantic", "resources")


def validate_verify(doc):
    errors = []
    if not isinstance(doc, dict):
        return ["top-level value is not an object"]
    if doc.get("schema") != "gamma.verify.v1":
        fail(errors, f"schema is {doc.get('schema')!r}, want "
             f"'gamma.verify.v1'")
    if doc.get("kind") not in PLAN_KINDS:
        fail(errors, f"unknown kind {doc.get('kind')!r} "
             f"(know: {list(PLAN_KINDS)})")
    check_typed_keys(errors, doc,
                     {"verified": bool, "obligations_checked": int,
                      "errors": int, "warnings": int,
                      "automorphisms": int}, "document")
    tiers = doc.get("tiers")
    if not isinstance(tiers, dict):
        fail(errors, "'tiers' is missing or not an object")
    else:
        for name in VERIFY_TIERS:
            tier = tiers.get(name)
            if not isinstance(tier, dict):
                fail(errors, f"tiers.{name} is missing or not an object")
                continue
            check_typed_keys(errors, tier, {"checked": bool, "passed": bool},
                             f"tiers.{name}")
            if tier.get("checked") is False and tier.get("passed") is True:
                fail(errors, f"tiers.{name} passed without being checked")
        structural = tiers.get("structural")
        if isinstance(structural, dict) \
                and structural.get("passed") is False:
            # A structural refutation is final: the later tiers must not
            # have run against an ill-formed plan.
            for name in ("semantic", "resources"):
                tier = tiers.get(name)
                if isinstance(tier, dict) and tier.get("checked") is True:
                    fail(errors, f"tiers.{name} ran despite a structural "
                         f"refutation")
    abstract = doc.get("abstract")
    if not isinstance(abstract, list):
        fail(errors, "'abstract' is missing or not an array")
    else:
        for i, level in enumerate(abstract):
            ctx = f"abstract[{i}]"
            if not isinstance(level, dict):
                fail(errors, f"{ctx} is not an object")
                continue
            check_typed_keys(errors, level,
                             {"depth": int, "rows_hi": (int, float),
                              "width": int, "prealloc_entries": (int, float),
                              "pool_entries": (int, float)}, ctx)
            if isinstance(level.get("rows_hi"), (int, float)) \
                    and level["rows_hi"] < 0:
                fail(errors, f"{ctx}: rows_hi < 0")
            if isinstance(level.get("width"), int) and level["width"] < 1:
                fail(errors, f"{ctx}: width < 1")
    findings = doc.get("findings")
    seen_errors = seen_warnings = 0
    if not isinstance(findings, list):
        fail(errors, "'findings' is missing or not an array")
    else:
        for i, finding in enumerate(findings):
            ctx = f"findings[{i}]"
            if not isinstance(finding, dict):
                fail(errors, f"{ctx} is not an object")
                continue
            check_typed_keys(errors, finding,
                             {"obligation": str, "severity": str,
                              "depth": int, "message": str}, ctx)
            if isinstance(finding.get("obligation"), str) \
                    and finding["obligation"] not in VERIFY_OBLIGATIONS:
                fail(errors, f"{ctx}: unknown obligation "
                     f"{finding['obligation']!r}")
            severity = finding.get("severity")
            if isinstance(severity, str):
                if severity not in VERIFY_SEVERITIES:
                    fail(errors, f"{ctx}: unknown severity {severity!r}")
                elif severity == "error":
                    seen_errors += 1
                else:
                    seen_warnings += 1
            if not isinstance(finding.get("message"), str) \
                    or not finding.get("message"):
                fail(errors, f"{ctx}: empty message")
        if isinstance(doc.get("errors"), int) \
                and doc["errors"] != seen_errors:
            fail(errors, f"document claims {doc['errors']} error(s), "
                 f"findings contain {seen_errors}")
        if isinstance(doc.get("warnings"), int) \
                and doc["warnings"] != seen_warnings:
            fail(errors, f"document claims {doc['warnings']} warning(s), "
                 f"findings contain {seen_warnings}")
        if isinstance(doc.get("verified"), bool) \
                and doc["verified"] != (seen_errors == 0):
            fail(errors, f"verified={doc['verified']} inconsistent with "
                 f"{seen_errors} error-severity finding(s)")
    if isinstance(doc.get("obligations_checked"), int) \
            and isinstance(findings, list) \
            and doc["obligations_checked"] < len(findings):
        fail(errors, f"obligations_checked {doc['obligations_checked']} < "
             f"{len(findings)} finding(s)")
    return errors


def validate_fuzz(doc):
    errors = []
    if not isinstance(doc, dict):
        return ["top-level value is not an object"]
    if doc.get("schema") != "gamma.fuzz.v1":
        fail(errors, f"schema is {doc.get('schema')!r}, want "
             f"'gamma.fuzz.v1'")
    check_typed_keys(errors, doc,
                     {"seed": int, "patterns": int, "mutants_refuted": int,
                      "mutants_benign": int}, "document")
    failures = doc.get("failures")
    if not isinstance(failures, list):
        fail(errors, "'failures' is missing or not an array")
    else:
        for i, failure in enumerate(failures):
            ctx = f"failures[{i}]"
            if not isinstance(failure, dict):
                fail(errors, f"{ctx} is not an object")
                continue
            check_typed_keys(errors, failure,
                             {"kind": str, "pattern": str, "detail": str},
                             ctx)
    return errors


VALIDATORS = {
    "gamma.bench.v1": validate,
    "gamma.adaptivity.v1": validate_adaptivity,
    "gamma.metrics.v1": validate_metrics,
    "gamma.check.v1": validate_check,
    "gamma.critpath.v1": validate_critpath,
    "gamma.plan.v1": validate_plan,
    "gamma.planprof.v1": validate_planprof,
    "gamma.verify.v1": validate_verify,
    "gamma.fuzz.v1": validate_fuzz,
}


def main(argv):
    args = list(argv[1:])
    expect_clean = "--expect-clean" in args
    if expect_clean:
        args.remove("--expect-clean")
    expect_verified = "--expect-verified" in args
    if expect_verified:
        args.remove("--expect-verified")
    if len(args) != 1:
        print(f"usage: {argv[0]} [--expect-clean] [--expect-verified] "
              f"<file.json>", file=sys.stderr)
        return 2
    path = args[0]
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{path}: {e}", file=sys.stderr)
        return 1
    schema = doc.get("schema") if isinstance(doc, dict) else None
    validator = VALIDATORS.get(schema)
    if validator is None:
        print(f"{path}: unknown schema {schema!r} "
              f"(know: {sorted(VALIDATORS)})", file=sys.stderr)
        return 1
    errors = validator(doc)
    if expect_clean:
        if schema != "gamma.check.v1":
            print(f"{path}: --expect-clean only applies to gamma.check.v1",
                  file=sys.stderr)
            return 2
        if not errors and doc.get("findings"):
            for f in doc["findings"]:
                print(f"{path}: finding [{f.get('checker')}] "
                      f"{f.get('kind')}: {f.get('message')}",
                      file=sys.stderr)
            errors = [f"expected a clean report but it has "
                      f"{len(doc['findings'])} finding(s)"]
    if expect_verified:
        if schema != "gamma.verify.v1":
            print(f"{path}: --expect-verified only applies to "
                  f"gamma.verify.v1", file=sys.stderr)
            return 2
        if not errors and not doc.get("verified"):
            for f in doc.get("findings", []):
                if f.get("severity") == "error":
                    print(f"{path}: refuted [{f.get('obligation')}] "
                          f"{f.get('message')}", file=sys.stderr)
            errors = [f"expected a verified plan but the report refutes "
                      f"it with {doc.get('errors')} error(s)"]
    if errors:
        for msg in errors:
            print(f"{path}: {msg}", file=sys.stderr)
        return 1
    argv = [argv[0], path]  # legacy message paths below use argv[1]
    if schema == "gamma.bench.v1":
        n = len(doc["runs"])
        skipped = sum(1 for r in doc["runs"] if r.get("skipped"))
        print(f"{argv[1]}: OK — {n} runs ({skipped} skipped), "
              f"binary {doc['binary']}")
    elif schema == "gamma.adaptivity.v1":
        print(f"{argv[1]}: OK — {len(doc['records'])} extension records, "
              f"placement {doc.get('placement')}")
    elif schema == "gamma.check.v1":
        enabled = ",".join(c for c in CHECKERS
                           if doc.get("checkers", {}).get(c))
        print(f"{argv[1]}: OK — {len(doc['findings'])} finding(s), "
              f"checkers {enabled or 'none'}")
    elif schema == "gamma.critpath.v1":
        tag = "PARTIAL" if doc.get("partial") else "complete"
        print(f"{argv[1]}: OK — {tag}, {doc['commands']} commands, "
              f"bound on {doc['binding']}, "
              f"{len(doc.get('whatif', []))} what-ifs")
    elif schema == "gamma.plan.v1":
        sym = "symmetry-broken" if doc.get("symmetry_broken") \
            else "unrestricted"
        print(f"{argv[1]}: OK — {doc['kind']} plan, "
              f"{len(doc.get('levels', []))} level(s), {sym}")
    elif schema == "gamma.planprof.v1":
        attr = "attributed" if doc.get("attribution_available") \
            else "no attribution"
        print(f"{argv[1]}: OK — {doc['kind']} run, "
              f"{len(doc['levels'])} level(s), worst Q-error "
              f"{doc['summary'].get('worst_q_error'):.6g}, {attr}")
    elif schema == "gamma.verify.v1":
        verdict = "VERIFIED" if doc.get("verified") else "REFUTED"
        print(f"{argv[1]}: OK — {verdict} {doc['kind']} plan, "
              f"{doc['obligations_checked']} obligation(s) checked, "
              f"{doc['errors']} error(s), {doc['warnings']} warning(s)")
    elif schema == "gamma.fuzz.v1":
        print(f"{argv[1]}: OK — seed {doc['seed']}, {doc['patterns']} "
              f"patterns, {doc['mutants_refuted']} mutants refuted, "
              f"{len(doc['failures'])} failure(s)")
    else:
        print(f"{argv[1]}: OK — {len(doc['samples'])} samples, "
              f"{len(doc['columns'])} columns")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
