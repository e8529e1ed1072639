"""Run one zdgraph benchmark workload and print its metrics.

    python3 perfbench/run.py --workload large-rings --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: the library is imported from ``src/``
next to this directory.  The load is one client in a closed loop: the next
operation starts only when the previous one has returned and been checked.
Every workload runs in its own process, so peak memory and any state the
library keeps do not carry over between workloads.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` each op runs once
untraced and once traced (alternating which goes first) and the metrics are
the per-layer ones.  The line before it records the inputs, the failures and
how the tail percentile was taken.

Measurement uses only ``time.perf_counter`` and ``resource.getrusage`` of
this process: no system-wide tracing, no cache dropping.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
TAIL_BEYOND = 10            # samples that must lie beyond the tail percentile
MAX_FAILURES_LISTED = 50

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "peak_rss_mb": "MB"}

# per-layer metrics: (name, unit); self times and counts are per traced op
SELF_TIMES = (
    "rings.make_ring", "rings.annihilator_keys",
    "graphs.build_zero_divisor_graph", "graphs.twin_partition", "graphs.gcd_class_partition",
    "threshold.is_threshold", "threshold.find_alternating_four_cycle",
    "orbits.aut_orbits",
    "spectral.equitable_quotient_matrix", "spectral.char_poly",
    "spectral.eigenvalue_multiplicity", "spectral.bareiss_rank_det",
    "ringexpr.parse_ring_spec",
    "cli.main", "verify.claims",
) + spans.LAYERS
COUNTS = (
    "rings.annihilator_keys.elements", "rings.annihilator_keys.key_classes",
    "graphs.build_zero_divisor_graph.class_pairs", "graphs.twin_partition.row_bytes",
    "orbits.aut_orbits.quotient_vertices",
    "spectral.char_poly.direct_calls", "spectral.char_poly.crt_calls",
    "spectral.char_poly.order_sum", "cli.output_bytes",
)
PER_LAYER = tuple((f"{name}.self_s", "s/op") for name in SELF_TIMES) \
    + tuple((name, "count/op") for name in COUNTS) \
    + (("graphs.key_class_useful_ratio", "ratio"), ("trace.overhead_s", "s/op"),
       ("trace.untraced_share", "ratio"))

class SetupError(Exception):
    pass


def load_library() -> SimpleNamespace:
    """Import zdgraph afresh from the checkout's src directory."""
    if not (SRC / "zdgraph" / "__init__.py").is_file():
        raise SetupError(f"no zdgraph package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "zdgraph" or m.startswith("zdgraph.")]:
        del sys.modules[name]
    pkg = importlib.import_module("zdgraph")
    if Path(pkg.__file__).resolve().parent != (SRC / "zdgraph").resolve():
        raise SetupError(f"zdgraph was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"zdgraph.{m}") for m in spans.LAYERS})


def workload_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def setup(workload: str, seed: int, smoke: bool):
    """Import the library and generate the inputs, several times; returns the
    last op stream and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        lib = load_library()
        ops = workloads.WORKLOADS[workload](lib, workload_rng(workload, seed), smoke)
        times.append(time.perf_counter() - t)
    return ops, statistics.median(times)


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: the host's speed at run time,
    recorded so that runs taken at different times can be compared."""
    def loop():
        acc = 0
        for i in range(500_000):
            acc += i * i % 7
        return acc

    return statistics.median(timed(loop)[2] for _ in range(3))


def timed(fn):
    t = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        out, err = None, exc
    return out, err, time.perf_counter() - t


def checked(op, out, err) -> list[str]:
    if err is not None:
        return [f"raised {type(err).__name__}: {err}"]
    try:
        return op.check(out)
    except Exception as exc:  # a malformed output can break the checker itself
        return [f"check raised {type(exc).__name__}: {exc}"]


def tail_point(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest percentile with
    TAIL_BEYOND samples beyond it, but never below the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND - 1, (n - 1) // 2)
    return 100.0 * (rank + 1) / n, ordered[rank], n - rank - 1


def mix_throughput(strata: dict) -> float:
    """Ops per second with each op's time taken as the median of its stratum.

    Strata hold inputs of similar cost and every seed runs them in the same
    proportions, so this is the throughput of the workload's mix; unlike the
    plain mean it is not moved by a few ops that a busy host slowed down."""
    ops = sum(len(v) for v in strata.values())
    return ops / sum(len(v) * statistics.median(v) for v in strata.values())


def summarize_props(records: list[dict]) -> dict:
    values: dict[str, list] = {}
    for rec in records:
        for key, val in rec.items():
            values.setdefault(key, []).extend(val if isinstance(val, list) else [val])
    out = {}
    for key, vals in values.items():
        if all(isinstance(v, bool) for v in vals):
            out[f"{key}_share"] = sum(vals) / len(vals)
        else:
            out[key] = {"min": min(vals), "median": statistics.median(vals), "max": max(vals),
                        "mean": statistics.fmean(vals)}
    return out


@dataclass
class Measurement:
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    wall_s: float = 0.0
    overhead_s: float = 0.0
    latencies: list = field(default_factory=list)
    strata: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    props: list = field(default_factory=list)


def measure(ops, seconds: float, tracer) -> Measurement:
    """Run ops in a closed loop until ``seconds`` of op time have passed."""
    m = Measurement()
    wall_cap = 2 * seconds + 30
    wall_start = time.perf_counter()
    for op_id, op in enumerate(ops):
        if tracer is None:
            out, err, dt = timed(op.run)
            m.busy_s += dt
        else:
            out, err, dt, untraced = traced_pair(tracer, op, op_id)
            m.busy_s += dt + untraced
            m.overhead_s += dt - untraced
        fails = checked(op, out, err)
        m.attempted += 1
        m.latencies.append(dt)
        m.strata.setdefault(op.stratum, []).append(dt)
        if fails:
            m.failed += 1
            if len(m.failures) < MAX_FAILURES_LISTED:
                m.failures.append({"op": op.label[:200], "failures": fails[:5]})
        else:
            m.props.append(op.props(out))
        m.wall_s = time.perf_counter() - wall_start
        if m.busy_s >= seconds or m.wall_s >= wall_cap:
            break
    return m


def run(args) -> int:
    try:
        ops, setup_s = setup(args.workload, args.seed, args.smoke)
    except SetupError as exc:
        print(f"benchmark setup failed: {exc}", file=sys.stderr)
        return 2
    calibration_before = calibration_s()
    tracer = spans.Tracer() if args.trace else None
    first_op_at = time.perf_counter() - PROCESS_T0
    m = measure(ops, args.seconds, tracer)
    calibration_after = calibration_s()

    q, tail, beyond = tail_point(m.latencies)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": m.attempted,
        "busy_s": m.busy_s,
        "mean_ops_per_s": m.attempted / m.busy_s,
        "wall_s": m.wall_s,
        "process_start_to_first_op_s": first_op_at,
        "calibration_s": {"before": calibration_before, "after": calibration_after},
        "failed_frac": m.failed / m.attempted,
        "failures": m.failures,
        "op_tail": {"percentile": q, "samples_beyond": beyond, "samples": m.attempted},
        "strata": {name: {"ops": len(v), "median_ms": 1e3 * statistics.median(v)}
                   for name, v in m.strata.items()},
        "inputs": summarize_props(m.props),
    }
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": mix_throughput(m.strata),
            "op_p50_ms": 1e3 * statistics.median(m.latencies),
            "op_tail_ms": 1e3 * tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        tracer.counts["cli.output_bytes"] = sum(p.get("output_bytes", 0) for p in m.props)
        metrics = per_layer_metrics(tracer, m.attempted, m.overhead_s, sum(m.latencies))
        units = dict(PER_LAYER)
        keys = tracer.counts["rings.annihilator_keys.key_classes"]
        if keys:
            info["inputs"]["key_classes_per_op"] = keys / m.attempted
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(span_file)
        info["spans"] = {"count": len(tracer.spans), "file": str(span_file.relative_to(HERE.parent))}
    print(json.dumps(info))
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_pair(tracer, op, op_id: int):
    """Run the op untraced and traced, alternating which goes first."""
    def traced_run():
        tracer.op_id = op_id
        tracer.install()
        try:
            return timed(op.run)
        finally:
            tracer.uninstall()

    if op_id % 2:
        out, err, dt = traced_run()
        _, _, untraced = timed(op.run)
    else:
        _, _, untraced = timed(op.run)
        out, err, dt = traced_run()
    return out, err, dt, untraced


def per_layer_metrics(tracer, ops: int, overhead: float, traced_s: float) -> dict:
    self_s = spans.grouped_self_times(tracer)
    counts = tracer.counts
    metrics = {f"{name}.self_s": self_s.get(f"{name}.self_s", 0.0) / ops for name in SELF_TIMES}
    metrics.update({name: counts[name] / ops for name in COUNTS})
    keyed = counts["graphs.key_classes_of_twinned_graphs"]
    metrics["graphs.key_class_useful_ratio"] = counts["graphs.twin_classes"] / keyed if keyed else 0.0
    metrics["trace.overhead_s"] = overhead / ops
    metrics["trace.untraced_share"] = 1.0 - tracer.top_level_seconds() / traced_s if traced_s else 0.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal input sizes, for the benchmark's self-test")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
