"""The repository benchmark: bulk, sharded and social repair plus open-loop
durable ingest, with an optional per-layer trace.

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace [0|1]] [--out DIR] [--append] [--smoke]

Each workload runs in its own fresh subprocess.  The command prints every
metric by name with its unit, value, median, quartiles and sample count,
checks the program's outputs, writes ``results.json``, ``run_table.csv``
and (with ``--trace``) one Chrome trace per workload run into ``--out``,
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
the metrics ``BENCHMARK.json`` declares (``end_to_end`` untraced,
``per_layer`` traced).  It exits non-zero when any check fails.

The program is imported from ``src/`` beside this directory; the seed only
shapes the generated inputs.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

from catalogue import ALL as WORKLOADS
from catalogue import BY_NAME, CONTRACT, ROOT, for_workload
from stats import summary

SRC = ROOT / "src"
#: measuring time of the traced pass: per-layer medians need about ten
#: repetitions, an ingest queue-wait p99 1000 edits (10 s at 100/s)
TRACED_SECONDS = 10.0
ROW_COLUMNS = ("workload", "seed", "traced", "kind", "index", "rate_eps",
               "wall_s", "setup_s", "setup_wall_s", "repair_ms", "cpu_s",
               "yardstick_ms",
               "cost", "repaired_p50_ms", "repaired_p99_ms",
               "ack_p50_ms", "ack_p99_ms", "edits", "failed",
               "repairs_applied", "violations_detected", "nodes_tried",
               "seeded_searches", "maintenance_passes", "peak_rss_mb")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(CONTRACT["run_seconds"]),
                        help="measuring time per run: the repetition loop of "
                             "repair-*, the open-loop step of ingest-kg "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=("0", "1"),
                        help="also run traced: per-layer metrics and a "
                             "Chrome trace per workload run")
    parser.add_argument("--out", default=str(ROOT / "bench" / "out"))
    parser.add_argument("--append", action="store_true",
                        help="add this invocation's runs to --out's results "
                             "instead of replacing them (alternating runs)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks the harness, not the program")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# one workload run (the child process)
# ---------------------------------------------------------------------------


def _clean(document):
    """JSON-safe copy: non-finite floats become ``null``."""
    if isinstance(document, dict):
        return {key: _clean(value) for key, value in document.items()}
    if isinstance(document, list):
        return [_clean(value) for value in document]
    if isinstance(document, float) and not math.isfinite(document):
        return None
    return document


def _metrics(outcome) -> dict:
    metrics = {}
    for name, samples in outcome.samples.items():
        metrics[name] = {"unit": BY_NAME[name].unit,
                         **summary(samples, name in outcome.fastest)}
    for name, value in outcome.values.items():
        metrics[name] = {"unit": BY_NAME[name].unit, "value": value}
    metrics["failed_frac"] = {"unit": "ratio",
                              "value": outcome.failed / outcome.attempted}
    return metrics


def child(args) -> int:
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")
    import spans
    from workloads import FULL, SMOKE, make_inputs, measure

    workload, seed, seconds = args.child, args.seed, args.seconds
    params = SMOKE if args.smoke else FULL
    out_dir = Path(args.out)
    started = time.perf_counter()
    inputs = make_inputs(workload, params, seed, seconds)
    print(f"[{workload} seed {seed}] inputs ready in "
          f"{time.perf_counter() - started:.1f}s", file=sys.stderr)
    gc.collect()
    gc.freeze()
    outcome = measure(workload, inputs, params, seconds, out_dir)
    rows = [{**row, "traced": 0} for row in outcome.rows]
    metrics = _metrics(outcome)
    metrics["peak_rss_mb"] = {
        "unit": "MiB",
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    rows[0]["peak_rss_mb"] = metrics["peak_rss_mb"]["value"]
    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "traced": args.trace == "1", "metrics": metrics, "layers": {},
              "attempted": outcome.attempted, "failed": outcome.failed,
              "errors": outcome.errors[:20]}
    if args.trace == "1":
        with spans.Tracer() as tracer:
            traced = measure(workload, inputs, params,
                             min(seconds, TRACED_SECONDS), out_dir,
                             tracer=tracer)
        layers = dict(traced.layers)
        layers["bench.trace_overhead"] = (
            _metrics(traced)["cost"]["value"] / metrics["cost"]["value"]
            - 1.0)
        result["layers"] = {name: {"unit": BY_NAME[name].unit, "value": value}
                            for name, value in layers.items()
                            if workload in BY_NAME[name].workloads}
        measured = [span for span in tracer.spans if span.phase]
        result["layer_self_s"] = spans.layer_self_seconds(measured)
        trace_path = out_dir / f"trace-{workload}-seed{seed}.json"
        trace_path.write_text(json.dumps(spans.chrome_trace(
            tracer.spans, tracer.origin, traced.trace_events)),
            encoding="utf-8")
        result["trace"] = str(trace_path)
        result["attempted"] += traced.attempted
        result["failed"] += traced.failed
        result["errors"] += traced.errors[:20]
        rows += [{**row, "traced": 1} for row in traced.rows]
    result["correct"] = result["failed"] == 0
    result["rows"] = [{"workload": workload, "seed": seed, **row}
                      for row in rows]
    print(json.dumps(_clean(result), allow_nan=False))
    return 0


# ---------------------------------------------------------------------------
# the parent: one subprocess per workload run, then the report
# ---------------------------------------------------------------------------


def run_child(args, workload: str, seed: int) -> dict | None:
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               workload, "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out", args.out]
    if args.smoke:
        command.append("--smoke")
    # a fixed hash seed removes one source of run-to-run timing noise
    # (set iteration order); results do not depend on it
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               env=env, cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=110 + 6 * args.seconds)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        print(f"{workload} seed {seed}: timed out", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exited {process.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _format(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.0f}"
    return str(int(value))


def report(results: list[dict]) -> str:
    """Every metric of every run: value, and the median, quartiles and
    sample count where it has samples."""
    lines = []
    for run in results:
        verdict = "correct" if run["correct"] else "FAILED"
        lines.append(f"\n== {run['workload']}: seed {run['seed']}, {verdict}")
        lines.append(f"{'metric':<40} {'unit':<8} {'value':>11} {'median':>11} "
                     f"{'q1':>11} {'q3':>11} {'n':>6}")
        for section, tier in (("metrics", "end_to_end"), ("metrics", "raw"),
                              ("metrics", "count"), ("layers", "per_layer")):
            for metric in for_workload(run["workload"], tier):
                entry = run[section].get(metric.name)
                if entry is None:
                    continue
                cells = [entry.get(key)
                         for key in ("value", "median", "q1", "q3", "n")]
                lines.append(f"{metric.name:<40} {metric.unit:<8} "
                             + " ".join(f"{_format(cell):>11}"
                                        for cell in cells[:4])
                             + f" {_format(cells[4]):>6}")
        shares = run.get("layer_self_s")
        if shares:
            total = sum(shares.values())
            lines.append("layer self time: " + ", ".join(
                f"{layer} {seconds:.3f}s ({seconds / total:.0%})"
                for layer, seconds in sorted(shares.items(),
                                             key=lambda item: -item[1])))
        lines += [f"FAILED: {error}" for error in run["errors"]]
    return "\n".join(lines)


def contract_line(results: list[dict], traced: bool) -> dict:
    """The closing JSON line: the metrics BENCHMARK.json declares, named
    ``<workload>.<metric>`` when several workloads ran."""
    tier, section = ("per_layer", "layers") if traced else ("end_to_end",
                                                            "metrics")
    metrics = {}
    for run in results:
        for entry in CONTRACT[tier]:
            key = entry["name"] if len(results) == 1 \
                else f"{run['workload']}.{entry['name']}"
            metrics[key] = {"value": run[section][entry["name"]]["value"],
                            "unit": entry["unit"]}
    return {"correct": all(run["correct"] for run in results),
            "attempted": sum(run["attempted"] for run in results),
            "failed": sum(run["failed"] for run in results),
            "metrics": metrics}


def write_outputs(results: list[dict], out: Path) -> None:
    (out / "results.json").write_text(json.dumps(
        {"schema": 1, "runs": results}, indent=1), encoding="utf-8")
    layer_columns = [metric.name for metric in BY_NAME.values()
                     if metric.tier == "per_layer"]
    with (out / "run_table.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=[*ROW_COLUMNS,
                                                    *layer_columns],
                                extrasaction="ignore", restval="")
        writer.writeheader()
        for run in results:
            writer.writerows(run["rows"])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: the program's source is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    if args.child:
        return child(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    args.out = str(out.resolve())
    results = []
    for workload in args.workload or WORKLOADS:
        print(f"running {workload} seed {args.seed} ...", file=sys.stderr)
        result = run_child(args, workload, args.seed)
        if result is None:
            return 1
        results.append(result)
    previous = out / "results.json"
    kept = (json.loads(previous.read_text(encoding="utf-8"))["runs"]
            if args.append and previous.is_file() else [])
    write_outputs(kept + results, out)
    print(report(results))
    print(json.dumps(contract_line(results, args.trace == "1")))
    return 0 if all(run["correct"] for run in results) else 1


if __name__ == "__main__":
    sys.exit(main())
