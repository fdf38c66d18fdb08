#!/usr/bin/env python3
"""Fold a bench --json output into a BENCH_<name>.json perf trajectory.

Every bench binary that takes `--json <path>` emits a flat array of
records {name, ns, cells, probes, cache_hits}. This script appends one
labelled run to a history file (BENCH_<bench>.json in --history-dir, the
repo root by default) and prints per-record deltas against the previous
run, so regressions in cell evaluations or cache hit rate are visible
across commits:

    build/bench/bench_micro --json /tmp/micro.json
    scripts/perf_trajectory.py --bench micro --input /tmp/micro.json

History format: {"bench": <name>, "runs": [{"label": <rev>, "records":
[...]}, ...]}. The fold/delta logic lives in pure functions so
scripts/test_perf_trajectory.py can exercise it without a git checkout
or bench binaries.

`--bench e2e` folds bench_e2e runs instead: each --input is the saved
stdout of one `bench_e2e/run.py` run, whose first line names the workload
and seed and whose last line is the JSON result. The untraced runs of a
workload (at least MIN_SEEDS seeds) become the median and quartiles of
each end-to-end metric; one traced run per workload is kept whole as the
layer breakdown. The new run is diffed against the previous one with the
bounds of BENCHMARK.json, and the exit code is 1 when a median is worse
by more than its bound or an answer failed:

    for s in 1 2 3 4 5; do
      python3 bench_e2e/run.py --workload small-mix --seed $s \
          --seconds 15 --trace 0 > /tmp/small-mix-$s.txt
    done
    python3 bench_e2e/run.py --workload small-mix --seed 1 --seconds 15 \
        --trace 1 > /tmp/small-mix-traced.txt
    scripts/perf_trajectory.py --bench e2e --input /tmp/small-mix-*.txt

e2e history format: {"bench": "e2e", "runs": [{"label": <rev>, "note":
<host>, "workloads": {<name>: {"seeds": [...], "attempted": n, "failed":
n, "metrics": {<metric>: {"unit", "median", "q1", "q3"}}, "layers":
{"seed": s, "metrics": {<metric>: value}}}}}, ...]}.
"""

import argparse
import json
import pathlib
import subprocess
import sys

REQUIRED_FIELDS = {"name", "ns", "cells", "probes", "cache_hits"}


def git_label() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unlabelled"


def validate_records(records):
    """Returns an error string for malformed input, else None."""
    if not isinstance(records, list):
        return "input must be a JSON array of records"
    for rec in records:
        if not isinstance(rec, dict):
            return f"record is not an object: {rec!r}"
        missing = REQUIRED_FIELDS - set(rec)
        if missing:
            return f"record missing fields {sorted(missing)}: {rec}"
    return None


def load_history(text, bench):
    """Parses a history file's contents into a usable history dict.

    Tolerates every state a fresh or half-written checkout produces: an
    empty or whitespace-only file (e.g. created by `touch` or a truncated
    upload), a JSON document that is not an object (null, a bare array),
    and a "runs" key that is missing or not a list. Each of those folds
    to a fresh seed history instead of crashing the CI step that only
    wanted to append a datapoint. Raises json.JSONDecodeError only for
    non-empty text that is not JSON at all, which deserves a loud failure.
    """
    if not text.strip():
        return {"bench": bench, "runs": []}
    history = json.loads(text)
    if not isinstance(history, dict):
        return {"bench": bench, "runs": []}
    history.setdefault("bench", bench)
    if not isinstance(history.get("runs"), list):
        history["runs"] = []
    return history


def previous_records(history):
    """Latest-run-wins index of record name -> record over all prior runs.

    Tolerates an empty or partially formed history (no "runs" key, runs
    without "records" or that are not objects), which is what the first
    CI run on a fresh branch sees.
    """
    previous = {}
    for run in history.get("runs", []):
        if not isinstance(run, dict):
            continue
        records = run.get("records")
        if not isinstance(records, list):
            continue
        for rec in records:
            if isinstance(rec, dict) and "name" in rec:
                previous[rec["name"]] = rec
    return previous


def fold_run(history, label, records):
    """Appends one labelled run to the history in place and returns the
    pre-fold record index used for delta reporting."""
    previous = previous_records(history)
    history.setdefault("runs", []).append(
        {"label": label, "records": records})
    return previous


def delta_lines(records, previous):
    """Human-readable per-record deltas against the previous run."""

    def delta(rec, prev, key):
        if prev[key] == 0:
            return f"{key}={rec[key]}"
        change = rec[key] / prev[key] - 1.0
        return f"{key}={rec[key]} ({change:+.0%})"

    lines = []
    for rec in records:
        prev = previous.get(rec["name"])
        if prev is None:
            lines.append(f"  {rec['name']}: cells={rec['cells']} "
                         f"hits={rec['cache_hits']} (new)")
            continue
        lines.append(f"  {rec['name']}: {delta(rec, prev, 'cells')} "
                     f"{delta(rec, prev, 'ns')} "
                     f"hits={rec['cache_hits']} (prev {prev['cache_hits']})")
    return lines


MIN_SEEDS = 5


def parse_e2e_output(text):
    """One bench_e2e run's stdout -> {workload, seed, traced, attempted,
    failed, metrics: {name: (value, unit)}}. Raises ValueError
    when the header line or the JSON result line is missing."""
    lines = [line for line in text.splitlines() if line.strip()]
    header = next((line.split() for line in lines
                   if line.startswith("# bench_e2e ")), None)
    if header is None or len(header) < 7 or header[3] != "seed":
        raise ValueError("no '# bench_e2e <workload> seed <n> ...' line")
    result = None
    for line in reversed(lines):
        if line.startswith("{"):
            result = json.loads(line)
            break
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("no JSON result line")
    return {
        "workload": header[2],
        "seed": int(header[4]),
        "traced": header[-1] == "traced",
        "attempted": int(result.get("attempted", 0)),
        "failed": int(result.get("failed", 0)),
        "metrics": {name: (m["value"], m.get("unit", ""))
                    for name, m in result["metrics"].items()},
    }


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    ordered = sorted(values)

    def at(fraction):
        pos = fraction * (len(ordered) - 1)
        low = int(pos)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)

    return at(0.25), at(0.5), at(0.75)


def fold_e2e(parsed):
    """Parsed runs -> ({workload: summary}, errors). A workload needs at
    least MIN_SEEDS distinct untraced seeds; the traced run with the lowest
    seed becomes its layer breakdown."""
    workloads, errors = {}, []
    for name in sorted({run["workload"] for run in parsed}):
        runs = [run for run in parsed if run["workload"] == name]
        untraced = sorted((r for r in runs if not r["traced"]),
                          key=lambda r: r["seed"])
        traced = sorted((r for r in runs if r["traced"]),
                        key=lambda r: r["seed"])
        seeds = sorted({r["seed"] for r in untraced})
        if len(seeds) < MIN_SEEDS:
            errors.append(f"{name}: {len(seeds)} untraced seeds, "
                          f"need {MIN_SEEDS}")
            continue
        metrics = {}
        for metric in sorted({m for r in untraced for m in r["metrics"]}):
            values = [r["metrics"][metric][0] for r in untraced
                      if metric in r["metrics"]]
            q1, median, q3 = quartiles(values)
            unit = next(r["metrics"][metric][1] for r in untraced
                        if metric in r["metrics"])
            metrics[metric] = {"unit": unit, "median": median, "q1": q1,
                               "q3": q3}
        summary = {"seeds": seeds,
                   "attempted": sum(r["attempted"] for r in runs),
                   "failed": sum(r["failed"] for r in runs),
                   "metrics": metrics}
        if traced:
            summary["layers"] = {
                "seed": traced[0]["seed"],
                "metrics": {m: v for m, (v, _) in
                            sorted(traced[0]["metrics"].items())}}
        workloads[name] = summary
    return workloads, errors


def previous_e2e_run(history):
    """The last run in an e2e history that holds workloads, or None."""
    for run in reversed(history.get("runs", [])):
        if isinstance(run, dict) and isinstance(run.get("workloads"), dict):
            return run
    return None


def diff_e2e(workloads, previous, end_to_end):
    """Median-against-median lines for every workload both runs hold, and
    the count of metrics worse than their bound. `end_to_end` is
    BENCHMARK.json's list of {name, better, bound}; a failed answer counts
    as one more regression."""
    lines, worse = [], 0
    for name, summary in workloads.items():
        if summary["failed"]:
            lines.append(f"  {name}: {summary['failed']} failed answers "
                         f"(WORSE)")
            worse += 1
        before = (previous or {}).get("workloads", {}).get(name)
        if before is None:
            lines.append(f"  {name}: (new)")
            continue
        for spec in end_to_end:
            metric = spec["name"]
            old = before["metrics"].get(metric)
            new = summary["metrics"].get(metric)
            if old is None or new is None or old["median"] == 0:
                continue
            change = new["median"] / old["median"] - 1.0
            sign = 1.0 if spec["better"] == "lower" else -1.0
            bad = sign * change > spec["bound"]
            worse += bad
            lines.append(f"  {name} {metric}: {old['median']:.6g} -> "
                         f"{new['median']:.6g} ({change:+.1%}, bound "
                         f"{spec['bound']:.0%}){' WORSE' if bad else ''}")
    return lines, worse


def main_e2e(args) -> int:
    parsed = []
    for path in args.input:
        try:
            parsed.append(parse_e2e_output(pathlib.Path(path).read_text()))
        except (ValueError, json.JSONDecodeError) as err:
            print(f"{path}: {err}", file=sys.stderr)
            return 1
    workloads, errors = fold_e2e(parsed)
    for error in errors:
        print(error, file=sys.stderr)
    if errors or not workloads:
        return 1
    benchmark = json.loads(pathlib.Path(args.benchmark).read_text())

    history_path = pathlib.Path(args.history_dir) / "BENCH_e2e.json"
    history_text = history_path.read_text() if history_path.exists() else ""
    history = load_history(history_text, "e2e")
    previous = previous_e2e_run(history)
    run = {"label": args.label or git_label()}
    if args.note:
        run["note"] = args.note
    run["workloads"] = workloads
    history["runs"].append(run)
    history_path.write_text(json.dumps(history, indent=2) + "\n")

    print(f"{history_path}: appended run '{run['label']}' "
          f"({len(workloads)} workloads, {len(history['runs'])} total runs)")
    lines, worse = diff_e2e(workloads, previous, benchmark["end_to_end"])
    for line in lines:
        print(line)
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True,
                        help="bench name, e.g. probe_cache or micro")
    parser.add_argument("--input", required=True, nargs="+",
                        help="JSON file written by the bench's --json flag; "
                        "with --bench e2e, saved bench_e2e runs")
    parser.add_argument("--history-dir", default=".",
                        help="directory holding BENCH_<name>.json")
    parser.add_argument("--label", default=None,
                        help="run label (default: short git revision)")
    parser.add_argument("--note", default=None,
                        help="e2e: free text stored with the run (host)")
    parser.add_argument("--benchmark", default="BENCHMARK.json",
                        help="e2e: file holding the end-to-end bounds")
    args = parser.parse_args()
    if args.bench == "e2e":
        return main_e2e(args)
    if len(args.input) != 1:
        print("--input takes one file unless --bench e2e", file=sys.stderr)
        return 1
    args.input = args.input[0]

    input_text = pathlib.Path(args.input).read_text()
    if not input_text.strip():
        print(f"{args.input}: empty input (bench wrote no records?)",
              file=sys.stderr)
        return 1
    try:
        records = json.loads(input_text)
    except json.JSONDecodeError as err:
        print(f"{args.input}: not valid JSON: {err}", file=sys.stderr)
        return 1
    error = validate_records(records)
    if error is not None:
        print(error, file=sys.stderr)
        return 1

    history_path = (pathlib.Path(args.history_dir) /
                    f"BENCH_{args.bench}.json")
    history_text = history_path.read_text() if history_path.exists() else ""
    history = load_history(history_text, args.bench)

    label = args.label or git_label()
    previous = fold_run(history, label, records)
    history_path.write_text(json.dumps(history, indent=2) + "\n")

    print(f"{history_path}: appended run '{label}' "
          f"({len(records)} records, {len(history['runs'])} total runs)")
    for line in delta_lines(records, previous):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
