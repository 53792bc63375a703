"""The repository's end-to-end benchmark: one workload per run, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload campaign-select --seed 0 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` times it untraced and then traced, and prints the
per-layer metrics (self time, calls and share per traced call, counters,
tracing overhead).  Human-readable lines go to standard output first; the
last line is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 only when every output check passed.

See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Builds whose median is the build part of ``setup_s``.
SETUP_REPEATS = 3
#: Fresh-interpreter imports whose median is the import part of ``setup_s``
#: (more than builds: back to back, one took 1.4-2.0 s on a 2-CPU VM).
IMPORT_REPEATS = 5
#: Passes a ``--trace 0`` run makes at least, whatever ``--seconds`` says
#: (two, so that every run checks that its outputs repeat).
MIN_PASSES = 2
#: Spans after which a traced run stops adding passes (bounds its memory).
SPAN_BUDGET = 1_000_000

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "selection_accuracy": "ratio",
    "label_accuracy": "ratio",
}

#: Per-layer counters: name -> unit.
COUNTER_UNITS = {
    "selection.precision_at_k": "ratio",
    "core.lge.workers_fitted": "count",
    "core.elimination.kept_ratio": "ratio",
    "platform.learning_round.answers": "count",
    "serving.route.fill_ratio": "ratio",
    "serving.route.failed": "count",
    "serving.quality.demotions": "count",
    "marketplace.admit.admitted_ratio": "ratio",
    "marketplace.depart.invalidated_votes": "count",
    "marketplace.journal.bytes": "bytes",
    "marketplace.stalled_ticks": "count",
    "marketplace.reselections": "count",
    "tracing.overhead_ratio": "ratio",
}

SPAN_UNITS = {"calls": "count", "self_s": "s", "share": "ratio"}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def span_names() -> List[str]:
    """Traced span names in table order, the root span first."""
    from tracer import ROOT_SPAN, span_sites

    names = [ROOT_SPAN]
    for site in span_sites():
        if site.span not in names:
            names.append(site.span)
    return names


def per_layer_units() -> Dict[str, str]:
    units = {f"{span}.{kind}": unit for span in span_names() for kind, unit in SPAN_UNITS.items()}
    units.update(COUNTER_UNITS)
    return units


def import_seconds(repeats: int) -> List[float]:
    """Wall time of ``import repro`` in fresh interpreters."""
    from repro.obs.timing import perf_counter

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro"], cwd=ROOT, env=env, check=True, timeout=120
        )
        times.append(perf_counter() - start)
    return times


def timed_setup(workload, seed: int) -> Tuple[object, float]:
    """Build the workload's objects ``SETUP_REPEATS`` times; keep the last.

    Returns the state and the wall-clock set-up time: the median import
    time plus the median build time.
    """
    from repro.obs.timing import perf_counter
    from stats import median

    times = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.close(state)
        gc.collect()
        start = perf_counter()
        state = workload.build(seed)
        times.append(perf_counter() - start)
    return state, median(import_seconds(IMPORT_REPEATS)) + median(times)


def run_passes(workload, state, seconds, min_passes, recorder=None, need_latency=False, after_pass=None):
    """Run passes over every case while another fits in ``seconds``.

    A pass starts only if the run's mean pass time still fits before
    ``seconds``, so a run of long passes does not overrun by most of a
    pass.  ``min_passes`` passes, and enough latency samples for the tail
    percentile when ``need_latency``, are made whatever ``seconds`` says.

    Each case starts after a full garbage collection, so it pays for its
    own garbage only, and is followed by runs of the reference kernel
    that set its :attr:`CaseResult.reference_s`.  A traced run also stops
    once its recorder holds :data:`SPAN_BUDGET` spans.
    """
    from reference import reference_times
    from repro.obs.timing import perf_counter
    from stats import resolvable

    passes = []
    samples = 0
    start = perf_counter()

    def more() -> bool:
        if len(passes) < min_passes:
            return True
        if recorder is not None and len(recorder) >= SPAN_BUDGET:
            return False
        if need_latency and not resolvable(samples, workload.tail):
            return True
        elapsed = perf_counter() - start
        return elapsed + elapsed / len(passes) <= seconds

    while more():
        evaluate = recorder is None and not passes
        cases = []
        for index in range(workload.n_cases(state)):
            gc.collect()
            case = workload.run_case(state, index, recorder, evaluate)
            case.reference_s = reference_times(case.seconds)
            cases.append(case)
        samples += sum(len(case.latencies) for case in cases)
        passes.append(cases)
        if after_pass is not None:
            after_pass(len(passes))
    return passes


def pass_outcome(passes) -> Tuple[int, int, List[str]]:
    """Attempted and failed operations plus every problem, determinism included."""
    attempted = sum(case.ops for cases in passes for case in cases)
    failed = sum(case.failed for cases in passes for case in cases)
    problems = [problem for cases in passes for case in cases for problem in case.problems]
    for number, cases in enumerate(passes[1:], start=2):
        for index, (case, first) in enumerate(zip(cases, passes[0])):
            if case.digest != first.digest:
                failed += 1
                problems.append(f"case {index}: pass {number} output differs from pass 1 (not deterministic)")
    return attempted, failed, problems


def reference_samples(passes) -> List[float]:
    """Every reference-kernel time taken in a run."""
    return [seconds for cases in passes for case in cases for seconds in case.reference_s]


def scaled_seconds(passes) -> float:
    """Mean time of one pass at reference host speed (the run's host factor)."""
    from reference import factor

    return sum(case.seconds for cases in passes for case in cases) / len(passes) * factor(reference_samples(passes))


def quality_of(cases) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Mean of each quality value over one pass, with how many values it averages."""
    values: Dict[str, List[float]] = {}
    for case in cases:
        for name, found in case.quality.items():
            values.setdefault(name, []).extend(found)
    means = {name: sum(found) / len(found) for name, found in values.items()}
    return means, {name: len(found) for name, found in values.items()}


def end_to_end(workload, passes, setup_wall_s: float) -> Tuple[Dict[str, float], Dict[str, object]]:
    """The end-to-end metrics of a ``--trace 0`` run, plus what backs them.

    Every time is a wall time multiplied by the run's host factor (see
    ``reference.py``); ``setup_wall_s`` is the unscaled set-up time.
    """
    from reference import factor
    from stats import latency_summary

    kernel = reference_samples(passes)
    scale = factor(kernel)
    wall_means = [sum(case.seconds for case in runs) / len(runs) for runs in zip(*passes)]
    ops = sum(case.ops for case in passes[0])
    latencies = np.concatenate([np.asarray(case.latencies, dtype=float) for cases in passes for case in cases])
    latency = latency_summary(latencies * scale, workload.tail)
    quality, quality_samples = quality_of(passes[0])
    metrics = {
        "setup_s": setup_wall_s * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": ops / (sum(wall_means) * scale),
        "latency_p50_ms": latency["p50"] * 1e3,
        "latency_tail_ms": latency["tail"] * 1e3,
    }
    for name in ("selection_accuracy", "label_accuracy"):
        metrics[name] = quality[name]
    basis = {
        "op": workload.op,
        "ops_per_pass": ops,
        "passes": len(passes),
        "latency_op": workload.latency_op,
        "latency_samples": latency["n"],
        "latency_blocks": latency["blocks"],
        "latency_tail_percentile": latency["tail_q"],
        "quality_samples": quality_samples,
        "host_factor": scale,
        "reference_runs": len(kernel),
        "setup_wall_s": setup_wall_s,
        "wall_ops_per_s": ops / sum(wall_means),
    }
    return metrics, basis


def per_layer(workload, state, seconds: float) -> Tuple[Dict[str, float], Dict[str, object], object, list]:
    """Untraced then traced passes: per-layer profile, counters and overhead."""
    from tracer import Counters, SpanRecorder, installed, layer_profile, span_sites

    untraced = run_passes(workload, state, seconds / 2, 1)
    recorder = SpanRecorder()
    counters = Counters()
    first: Dict[str, object] = {}

    def after_pass(number: int) -> None:
        if number == 1:
            first["spans"] = len(recorder)
            first["counters"] = counters.snapshot()

    with installed(recorder, counters, span_sites()):
        traced = run_passes(workload, state, seconds / 2, 1, recorder=recorder, after_pass=after_pass)
    counts = Counters()
    for values in [first["counters"]] + [case.counts for case in traced[0]]:
        for name, value in values.items():
            counts.add(name, value)

    everything = layer_profile(recorder)
    calls = layer_profile(recorder, last=int(first["spans"]))
    total_self = sum(entry["self_s"] for entry in everything.values())
    metrics: Dict[str, float] = {}
    for span in span_names():
        entry = everything.get(span, {"self_s": 0.0})
        metrics[f"{span}.calls"] = calls.get(span, {"calls": 0})["calls"]
        metrics[f"{span}.self_s"] = entry["self_s"] / len(traced)
        metrics[f"{span}.share"] = entry["self_s"] / total_self if total_self else 0.0
    overhead = scaled_seconds(traced) / scaled_seconds(untraced) - 1.0
    metrics.update(
        {
            "selection.precision_at_k": quality_of(untraced[0])[0]["precision_at_k"],
            "core.lge.workers_fitted": counts.get("core.lge.workers_fitted"),
            "core.elimination.kept_ratio": counts.ratio("core.elimination.kept", "core.elimination.offered"),
            "platform.learning_round.answers": counts.get("platform.learning_round.answers"),
            "serving.route.fill_ratio": counts.ratio("serving.route.assigned", "serving.route.requested"),
            "serving.route.failed": counts.get("serving.route.failed"),
            "serving.quality.demotions": counts.get("serving.quality.demotions"),
            "marketplace.admit.admitted_ratio": counts.ratio(
                "marketplace.admit.admitted", "marketplace.admit.arrivals"
            ),
            "marketplace.depart.invalidated_votes": counts.get("marketplace.depart.invalidated_votes"),
            "marketplace.journal.bytes": counts.get("marketplace.journal.bytes"),
            "marketplace.stalled_ticks": counts.get("marketplace.stalled_ticks"),
            "marketplace.reselections": counts.get("marketplace.reselections"),
            "tracing.overhead_ratio": overhead,
        }
    )
    basis = {"untraced_passes": len(untraced), "traced_passes": len(traced), "spans": len(recorder)}
    if counts.get("marketplace.campaign_ticks"):
        basis["stalled_campaign_ticks"] = (
            f"{counts.get('marketplace.stalled_ticks'):g} of {counts.get('marketplace.campaign_ticks'):g}"
        )
    return metrics, basis, recorder, untraced + traced


def report_lines(workload, trace: int, metrics, units, basis, attempted, failed, problems, digest) -> List[str]:
    lines = [f"# {workload.name}: op = {workload.op}; latency op = {workload.latency_op}"]
    for key, value in sorted(basis.items()):
        lines.append(f"#   {key}: {value}")
    lines.append(f"#   failed ops: {failed} of {attempted} attempted")
    lines.append(f"#   output digest (pass 1): {digest}")
    if trace:
        spans = sorted(
            (name[: -len(".share")] for name in metrics if name.endswith(".share")),
            key=lambda span: -metrics[f"{span}.share"],
        )
        for span in spans:
            if metrics[f"{span}.calls"]:
                lines.append(
                    f"#   {span:<34} calls {metrics[span + '.calls']:>9g}  self "
                    f"{metrics[span + '.self_s']:>10.6f} s  share {metrics[span + '.share']:7.2%}"
                )
    for name in sorted(metrics):
        if not trace or "." not in name or name in COUNTER_UNITS:
            lines.append(f"#   {name} = {metrics[name]:.6g} {units[name]}")
    for problem in problems[:20]:
        lines.append(f"# CHECK FAILED: {problem}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: error: the program source {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import digest_of, make_workloads

    workloads = make_workloads(OUT)
    if args.workload not in workloads:
        print(f"perfbench: error: unknown workload {args.workload!r}; choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]

    state, setup_wall_s = timed_setup(workload, args.seed)
    try:
        with workload.instruments():
            if args.trace:
                metrics, basis, recorder, passes = per_layer(workload, state, args.seconds)
                units = per_layer_units()
            else:
                passes = run_passes(workload, state, args.seconds, MIN_PASSES, need_latency=True)
                metrics, basis = end_to_end(workload, passes, setup_wall_s)
                units = E2E_UNITS
        attempted, failed, problems = pass_outcome(passes)
        if args.trace:
            problems += workload.verify(state)
    finally:
        workload.close(state)
    correct = not problems
    digest = digest_of([case.digest for case in passes[0]])

    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        recorder.write(OUT / f"{workload.name}-spans.npz")
    summary = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "digest": digest,
        "basis": basis,
        "metrics": metrics,
        "problems": problems,
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    for line in report_lines(workload, args.trace, metrics, units, basis, attempted, failed, problems, digest):
        print(line)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
