#!/usr/bin/env python3
"""Diffs two BENCH_*.json reports and flags performance regressions.

Rows in each array are matched by their identity fields (name, k,
threads, order, topology, ...); metric fields are compared with
direction awareness:

  * higher-is-better: throughput-style keys (``*mups*``,
    ``items_per_second``, ``*per_sec*``, ``*speedup*``) regress when the
    current value drops more than the threshold below the baseline;
  * lower-is-better: latency/cost-style keys (``*_ns``, ``*_us``) and
    space-style keys (``*bytes_per*``) regress when the current value
    rises more than the threshold above the baseline.

Accuracy/space fields (relerr, retained, ...) are reported but never
fail the comparison -- they are claims for the test suite, not perf.

Multiple CURRENT reports may be given: they are merged row-by-row into a
best-of-N envelope (per metric, the best value in the metric's
direction) before comparing. Scheduling noise only ever makes a run
slower, so the envelope estimates the machine's true capability and
de-flakes the gate; CI runs each gated bench three times and compares
the envelope.

By default a >15% regression exits 1 (the CI hard gate). ``--warn-only``
always exits 0 (trend tracking). Reports with different ``smoke`` flags
are incomparable and are skipped unless ``--allow-smoke-mismatch`` is
given -- smoke sweeps are smaller, so some deltas vs. a full run are
structural, which is why CI *gates* against committed smoke baselines
(BENCH_smoke_*.json) and only *warns* against the full-run reports.
``--write-best FILE`` stores the merged envelope (how the committed
smoke baselines are refreshed from CI artifacts).

Each gated report records the host it ran on (a top-level ``host``
object: cores online, compiler, build type). When the baseline's host
and the current one differ, a loud ``HOST MISMATCH`` note says the
deltas compare two machines; a baseline without a ``host`` gets a plain
note. Neither fails the comparison.

``--latency-floor-us X`` keeps micro-latency metrics honest: a latency
regression whose *baseline* is below X microseconds is reported as a
note but does not gate -- at that scale, timer granularity and
scheduler jitter on shared runners produce >15% swings with no code
change. Throughput metrics always gate.

``--pairs`` applies the repo's pair rule instead. Its reports are runs
of one bench from the parent and the change, given in pairs (parent,
change, parent, change, ...) of runs made back to back, alternating which
side went first. Per row and perf metric it prints both medians, the
parent's interquartile range and the pairs the change won, and labels
the row ``better`` or ``worse`` only when the change wins (or loses) at
least 9 of every 10 pairs AND the gap between the medians exceeds the
parent's IQR; every other row is ``unresolved``. Tied pairs count for
neither side. Pairs mode reports; it never gates (exit 0).

Usage: compare_bench.py BASELINE.json CURRENT.json [CURRENT2.json ...]
           [--threshold 0.15] [--warn-only] [--allow-smoke-mismatch]
           [--write-best FILE] [--latency-floor-us X]
       compare_bench.py --pairs PARENT1.json CHANGE1.json
           [PARENT2.json CHANGE2.json ...]
"""
import argparse
import json
import sys

HIGHER_BETTER = ("mups", "items_per_second", "per_sec", "speedup")
LOWER_BETTER_SUFFIX = ("_ns", "_us")
# Substring matches for space metrics (e.g. bytes_per_metric,
# idle_bytes_per_metric). Deliberately narrow: raw RSS-derived fields
# (observed_rss_per_metric) match no rule and stay ungated -- the OS
# decides when to reclaim pages, not this codebase.
LOWER_BETTER_CONTAINS = ("bytes_per",)

# Fields that identify a row rather than measure it. Measurements that
# vary run-to-run (e.g. "retained") must NOT be listed here, or rows
# from two runs would never match and their metrics would silently go
# uncompared.
IDENTITY_KEYS = {
    "name", "k", "threads", "shards", "order", "topology", "variant",
    "parts", "schedule", "buckets", "n", "metric", "unit", "window_items",
    "bucket_items", "delta", "engine", "clients", "mode", "batches",
    "checkpoint", "phase", "op", "rounds", "metrics", "scenario",
    "connections", "workers",
}


def metric_direction(key, row=None):
    """'up', 'down', or None (not a perf metric).

    E13-style rows carry a generic ``value`` field whose direction comes
    from the row's ``unit`` (``Mups`` is throughput, ``ns/query`` and
    ``us/build`` are latencies).
    """
    lowered = key.lower()
    if lowered == "value" and isinstance(row, dict):
        unit = str(row.get("unit", "")).lower()
        if "mups" in unit or "/s" in unit:
            return "up"
        if unit.startswith(("ns", "us", "ms")):
            return "down"
        return None
    if any(tag in lowered for tag in HIGHER_BETTER):
        return "up"
    if lowered.endswith(LOWER_BETTER_SUFFIX):
        return "down"
    if any(tag in lowered for tag in LOWER_BETTER_CONTAINS):
        return "down"
    return None


def row_identity(row):
    return tuple(sorted(
        (k, row[k]) for k in row if k in IDENTITY_KEYS
    ))


def latency_in_us(key, value, row=None):
    """The metric's value in microseconds, or None when the key is not a
    latency metric (used for the gating noise floor)."""
    lowered = key.lower()
    if lowered.endswith("_ns"):
        return value / 1000.0
    if lowered.endswith("_us"):
        return value
    if lowered == "value" and isinstance(row, dict):
        unit = str(row.get("unit", "")).lower()
        if unit.startswith("ns"):
            return value / 1000.0
        if unit.startswith("us"):
            return value
        if unit.startswith("ms"):
            return value * 1000.0
    return None


def compare_rows(array_name, base_row, cur_row, threshold,
                 latency_floor_us=0.0):
    """Yields (kind, message) per shared perf metric; kind is
    'regression', 'improvement', or 'note' (a would-be latency
    regression whose baseline sits below the noise floor)."""
    for key, base_val in base_row.items():
        direction = metric_direction(key, base_row)
        if direction is None or key not in cur_row:
            continue
        cur_val = cur_row[key]
        if not isinstance(base_val, (int, float)) or not isinstance(
                cur_val, (int, float)):
            continue
        if base_val == 0:
            continue
        ratio = cur_val / base_val
        ident = ", ".join(f"{k}={v}" for k, v in row_identity(base_row))
        label = f"{array_name}[{ident}].{key}"
        if direction == "up" and ratio < 1.0 - threshold:
            yield "regression", (
                f"{label}: {base_val:.4g} -> {cur_val:.4g} "
                f"({100 * (1 - ratio):.1f}% slower)")
        elif direction == "down" and ratio > 1.0 / (1.0 - threshold):
            message = (f"{label}: {base_val:.4g} -> {cur_val:.4g} "
                       f"({100 * (ratio - 1):.1f}% slower)")
            base_us = latency_in_us(key, base_val, base_row)
            if (latency_floor_us > 0 and base_us is not None
                    and base_us < latency_floor_us):
                # Timer granularity and scheduler jitter dominate tiny
                # latencies on shared runners: report, don't gate.
                yield "note", (f"{message} [baseline below the "
                               f"{latency_floor_us:g}us noise floor; "
                               f"not gated]")
            else:
                yield "regression", message
        elif direction == "up" and ratio > 1.0 + threshold:
            yield "improvement", (
                f"{label}: {base_val:.4g} -> {cur_val:.4g} "
                f"({100 * (ratio - 1):.1f}% faster)")
        elif direction == "down" and ratio < 1.0 - threshold:
            yield "improvement", (
                f"{label}: {base_val:.4g} -> {cur_val:.4g} "
                f"({100 * (1 - ratio):.1f}% faster)")


def merge_best(reports):
    """Best-of-N envelope of several reports of the same experiment.

    Rows are matched by identity; every direction-aware metric takes the
    best value seen (max for higher-is-better, min for lower-is-better).
    Non-perf fields and unmatched rows come from the first report.
    """
    merged = json.loads(json.dumps(reports[0]))  # deep copy
    for array_name, rows in merged.items():
        if not isinstance(rows, list):
            continue
        for row in rows:
            if not isinstance(row, dict):
                continue
            ident = row_identity(row)
            for other in reports[1:]:
                other_rows = other.get(array_name)
                if not isinstance(other_rows, list):
                    continue
                match = next(
                    (r for r in other_rows
                     if isinstance(r, dict) and row_identity(r) == ident),
                    None)
                if match is None:
                    continue
                for key, value in row.items():
                    direction = metric_direction(key, row)
                    other_value = match.get(key)
                    if (direction is None
                            or not isinstance(value, (int, float))
                            or not isinstance(other_value, (int, float))):
                        continue
                    if direction == "up":
                        row[key] = max(value, other_value)
                    else:
                        row[key] = min(value, other_value)
    return merged


def describe_host(host):
    if not isinstance(host, dict):
        return "an unrecorded host"
    return ", ".join(f"{k}={host[k]}" for k in sorted(host))


def host_note(baseline, current):
    """What to print about the two reports' hosts, or None when both
    record the same one."""
    base_host = baseline.get("host")
    if base_host is None:
        return ("NOTE: baseline records no host; whether it ran on this "
                "host is unknown")
    if base_host != current.get("host"):
        banner = "!" * 72
        return (f"{banner}\nHOST MISMATCH: baseline ran on "
                f"{describe_host(base_host)}; current on "
                f"{describe_host(current.get('host'))}. The deltas below "
                f"compare two hosts, not two versions of the code.\n"
                f"{banner}")
    return None


def compare(baseline, current, threshold, latency_floor_us=0.0):
    regressions, improvements, notes = [], [], []
    sinks = {"regression": regressions, "improvement": improvements,
             "note": notes}
    for array_name, base_rows in baseline.items():
        if not isinstance(base_rows, list):
            continue
        cur_rows = current.get(array_name)
        if not isinstance(cur_rows, list):
            notes.append(f"array {array_name!r} missing from current")
            continue
        cur_by_id = {}
        for row in cur_rows:
            if isinstance(row, dict):
                cur_by_id[row_identity(row)] = row
        for base_row in base_rows:
            if not isinstance(base_row, dict):
                continue
            cur_row = cur_by_id.get(row_identity(base_row))
            if cur_row is None:
                notes.append(
                    f"{array_name} row {row_identity(base_row)} has no "
                    f"match in current (different sweep?)")
                continue
            for kind, msg in compare_rows(array_name, base_row, cur_row,
                                          threshold, latency_floor_us):
                sinks[kind].append(msg)
    return regressions, improvements, notes


def quantile(values, q):
    """The q-quantile of `values` by linear interpolation between the
    closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def pair_rule(parent_values, change_values, direction):
    """Applies the pair rule to one metric's paired runs.

    Returns a dict with both medians, the parent's IQR, the pairs the
    change won and lost, and the verdict: 'better' or 'worse' when the
    change wins (loses) at least 9 of every 10 pairs and the medians lie
    more than the parent's IQR apart, 'unresolved' otherwise.
    """
    pairs = len(parent_values)
    wins = losses = 0
    for parent, change in zip(parent_values, change_values):
        ahead = change > parent if direction == "up" else change < parent
        behind = change < parent if direction == "up" else change > parent
        wins += ahead
        losses += behind
    parent_median = quantile(parent_values, 0.5)
    change_median = quantile(change_values, 0.5)
    parent_iqr = (quantile(parent_values, 0.75)
                  - quantile(parent_values, 0.25))
    gap_clears_iqr = abs(change_median - parent_median) > parent_iqr
    verdict = "unresolved"
    if gap_clears_iqr and 10 * wins >= 9 * pairs:
        verdict = "better"
    elif gap_clears_iqr and 10 * losses >= 9 * pairs:
        verdict = "worse"
    return {"parent_median": parent_median, "change_median": change_median,
            "parent_iqr": parent_iqr, "wins": wins, "losses": losses,
            "pairs": pairs, "verdict": verdict}


def compare_pairs(parents, changes):
    """Pair-rule verdicts for every perf metric of every row that all
    reports share. Returns (findings, notes); a finding is pair_rule's
    dict plus 'label'."""
    findings, notes = [], []
    reports = parents + changes
    for array_name, first_rows in parents[0].items():
        if not isinstance(first_rows, list):
            continue
        indexed = []
        for report in reports:
            rows = report.get(array_name)
            indexed.append({row_identity(r): r for r in rows
                            if isinstance(r, dict)}
                           if isinstance(rows, list) else {})
        for row in first_rows:
            if not isinstance(row, dict):
                continue
            ident = row_identity(row)
            matched = [by_id.get(ident) for by_id in indexed]
            if any(m is None for m in matched):
                notes.append(f"{array_name} row {ident} is missing from "
                             f"some reports")
                continue
            ident_text = ", ".join(f"{k}={v}" for k, v in ident)
            for key, value in row.items():
                direction = metric_direction(key, row)
                values = [m.get(key) for m in matched]
                if direction is None or not all(
                        isinstance(v, (int, float))
                        and not isinstance(v, bool) for v in values):
                    continue
                finding = pair_rule(values[:len(parents)],
                                    values[len(parents):], direction)
                finding["label"] = f"{array_name}[{ident_text}].{key}"
                findings.append(finding)
    return findings, notes


def main_pairs(paths):
    if len(paths) < 2 or len(paths) % 2:
        print("--pairs needs an even number of reports: parent, change, "
              "parent, change, ...", file=sys.stderr)
        return 2
    reports = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            reports.append(json.load(f))
    if any(r.get("experiment") != reports[0].get("experiment")
           or bool(r.get("smoke")) != bool(reports[0].get("smoke"))
           for r in reports):
        print("incomparable: reports disagree on experiment/smoke",
              file=sys.stderr)
        return 2
    findings, notes = compare_pairs(reports[0::2], reports[1::2])
    for note in notes:
        print(f"NOTE: {note}")
    pairs = len(reports) // 2
    print(f"{reports[0].get('experiment')} "
          f"({'smoke' if reports[0].get('smoke') else 'full'}), "
          f"{pairs} pair(s): parent median -> change median "
          f"[parent IQR], pairs the change won")
    for f in findings:
        print(f"{f['verdict'].upper():>10}  {f['label']}: "
              f"{f['parent_median']:.4g} -> {f['change_median']:.4g} "
              f"[IQR {f['parent_iqr']:.4g}], won {f['wins']}/{f['pairs']}")
    counts = {v: sum(f["verdict"] == v for f in findings)
              for v in ("better", "worse", "unresolved")}
    print(f"{counts['better']} better, {counts['worse']} worse, "
          f"{counts['unresolved']} unresolved")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("current", nargs="+")
    parser.add_argument("--threshold", type=float, default=0.15)
    parser.add_argument("--warn-only", action="store_true")
    parser.add_argument("--allow-smoke-mismatch", action="store_true")
    parser.add_argument("--write-best", metavar="FILE",
                        help="write the merged best-of-N current report")
    parser.add_argument(
        "--latency-floor-us", type=float, default=0.0,
        help="latency regressions whose BASELINE value is below this "
             "many microseconds are reported but not gated (timer "
             "granularity / scheduler jitter dominate down there)")
    parser.add_argument(
        "--pairs", action="store_true",
        help="read the reports as parent/change pairs and apply the "
             "pair rule (see above)")
    args = parser.parse_args(argv[1:])
    if args.pairs:
        return main_pairs([args.baseline] + args.current)

    with open(args.baseline, "r", encoding="utf-8") as f:
        baseline = json.load(f)
    currents = []
    for path in args.current:
        with open(path, "r", encoding="utf-8") as f:
            currents.append(json.load(f))
    for report in currents[1:]:
        if (report.get("experiment") != currents[0].get("experiment")
                or bool(report.get("smoke"))
                != bool(currents[0].get("smoke"))):
            print("incomparable: current reports disagree on "
                  "experiment/smoke", file=sys.stderr)
            return 0 if args.warn_only else 2
    current = merge_best(currents)
    if len(currents) > 1:
        print(f"comparing best-of-{len(currents)} envelope of the "
              f"current reports")
    if args.write_best:
        with open(args.write_best, "w", encoding="utf-8") as f:
            json.dump(current, f, indent=1)
            f.write("\n")

    if baseline.get("experiment") != current.get("experiment"):
        print(f"incomparable: experiments differ "
              f"({baseline.get('experiment')!r} vs "
              f"{current.get('experiment')!r})", file=sys.stderr)
        return 0 if args.warn_only else 2

    host = host_note(baseline, current)
    if host is not None:
        print(host)

    if bool(baseline.get("smoke")) != bool(current.get("smoke")):
        note = (f"smoke flags differ (baseline={baseline.get('smoke')}, "
                f"current={current.get('smoke')})")
        if not args.allow_smoke_mismatch:
            print(f"skipped: {note}; pass --allow-smoke-mismatch to "
                  f"compare anyway")
            return 0
        print(f"note: {note}; deltas below are expected to be noisy")

    regressions, improvements, notes = compare(baseline, current,
                                               args.threshold,
                                               args.latency_floor_us)
    for note in notes:
        print(f"NOTE: {note}")
    for msg in improvements:
        print(f"IMPROVED: {msg}")
    for msg in regressions:
        print(f"REGRESSION: {msg}")
    print(f"{baseline.get('experiment')}: {len(regressions)} "
          f"regression(s), {len(improvements)} improvement(s) at "
          f"threshold {args.threshold:.0%}")
    if regressions and not args.warn_only:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
