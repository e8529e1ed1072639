"""Self-test of the benchmark: every workload at minimal size, plus checker tests.

    python3 perfbench/selftest.py

1. Runs each workload in its own process, untraced and traced, and checks
   that the result line carries exactly the metrics BENCHMARK.json names,
   each with its unit, and that no op failed.
2. Corrupts library outputs in-process (a flipped threshold verdict, a
   perturbed charpoly coefficient) and checks that the ops are counted as
   failed instead of aborting the run.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def result_line(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> list[str]:
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = result_line(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m.get("unit") for name, m in res["metrics"].items()}
            where = f"{workload} trace={trace}"
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(res)}")
            if got != want:
                problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {want}")
            if not all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()):
                problems.append(f"{where}: a metric value is not a number")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{where}: {res['failed']} of {res['attempted']} ops failed")
            print(f"ok: {where}, {res['attempted']} ops")
    return problems


def patch_everywhere(module_name: str, func_name: str, make_bad) -> None:
    """Replace a library function at every module that bound it."""
    original = getattr(sys.modules[f"zdgraph.{module_name}"], func_name)
    bad = make_bad(original)
    for name, mod in list(sys.modules.items()):
        if name == "zdgraph" or name.startswith("zdgraph."):
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    setattr(mod, attr, bad)


def flip_verdict(original):
    def bad(g):
        res = original(g)
        return type(res)(not res.is_threshold, res.code, res.witness)
    return bad


def perturb_charpoly(original):
    def bad(m):
        poly = original(m)
        return type(poly)(poly.coeffs[:-1] + (poly.coeffs[-1] + 1,))
    return bad


CORRUPTIONS = (
    ("large-rings", "threshold", "is_threshold", flip_verdict),
    ("claim-sweep", "threshold", "is_threshold", flip_verdict),
    ("query-stream", "threshold", "is_threshold", flip_verdict),
    ("spectra", "spectral", "char_poly", perturb_charpoly),
)


def check_corruptions() -> list[str]:
    problems = []
    for workload, module_name, func_name, make_bad in CORRUPTIONS:
        ops, _ = run.setup(workload, 0, smoke=True)
        patch_everywhere(module_name, func_name, make_bad)
        stats = run.measure(ops, seconds=1.0, tracer=None)
        where = f"{workload} with corrupted {module_name}.{func_name}"
        if stats.failed == 0:
            problems.append(f"{where}: no op counted as failed ({stats.attempted} attempted)")
        else:
            print(f"ok: {where}: {stats.failed} of {stats.attempted} ops failed, "
                  f"e.g. {stats.failures[0]['failures'][0][:100]}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_metrics(spec) + check_corruptions()
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
