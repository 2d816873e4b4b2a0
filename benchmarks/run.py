#!/usr/bin/env python3
"""tripeel benchmark: four experiment workloads, end to end and by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N

One run of a workload, single-threaded:

1. set-up: a fresh interpreter imports the package from ``src/`` and
   builds the workload's parameters, SETUP_PROCESSES times in turn;
2. timed rounds: round k runs the experiment on ``RngStream(seed, (k,))``
   with freshly built parameters and writes its report, until ``--seconds``
   have passed and at least MIN_ROUNDS rounds are done;
3. one traced replay of round 0, whose report must equal round 0's byte
   for byte;
4. the workload's cross-check and the checks on every report.

Every metric is printed by name with its unit.  The last line of standard
output is one JSON object: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The last run's reports and span
trace of each workload are written under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from array import array
from bisect import bisect_right
from hashlib import sha256
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC_FILE = ROOT / "BENCHMARK.json"

MIN_ROUNDS = 3
SETUP_PROCESSES = 3

# The machine this benchmark was written on drifts in speed by up to 1.7x
# within minutes, as other tenants come and go.  A fixed calibration loop,
# run before and after every round, tracks that drift: over a four-minute
# spell in 10 s blocks, dividing by it cut the coefficient of variation of
# fixed tripeel work from 0.14-0.18 to 0.02-0.05 on all four workloads.
# Reported times are raw times scaled by the loop's reference duration
# CAL_REF_S over its duration around the same round; the raw figures are
# printed beside them.
CAL_REF_S = 0.1
CAL_SAMPLES = 3          # calibration loops per sampling point

# Timed in the child: the import and the parameter build, not interpreter
# start-up.  -I keeps the child's path to the standard library plus src/.
SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tripeel
tripeel.build_params(**json.loads(sys.argv[2]))
print(repr(time.perf_counter() - t0))
"""


def calibration_seconds() -> float:
    """One pass of the fixed calibration loop: tight integer arithmetic,
    then index chasing, bisection and small allocations, the kind of work
    tripeel's inner loops do.  It touches no tripeel code, and its index
    table is an array so that it adds almost nothing to peak_rss_mb."""
    t0 = perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    n = 1 << 17
    nxt = array("l", ((i * 40503 + 1) % n for i in range(n)))
    cuts = [i / 64 for i in range(1, 65)]
    h, kept, stack = 0, [], []
    for _ in range(50_000):
        h = nxt[h]
        k = bisect_right(cuts, (h & 1023) / 1024.0)
        stack.append((h, k))
        if k > 32:
            kept.append([h, k])
        if len(stack) > 64:
            acc += stack.pop()[1] + stack.pop()[1]
    return perf_counter() - t0


def calibrate() -> float:
    """Mean calibration loop duration at this moment."""
    return statistics.fmean(calibration_seconds() for _ in range(CAL_SAMPLES))


def setup_seconds(w) -> float:
    """Import plus parameter build in one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), json.dumps(w.coupling)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def write_report(rep: dict, path: Path) -> str:
    from tripeel import report_to_json

    text = report_to_json(rep)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def timed_rounds(w, seed: int, seconds: float, min_rounds: int) -> tuple:
    """Whole rounds until the time is spent: [(wall, steps, report, text)],
    and the calibration before the first round and after each round."""
    from spans import StepCounter
    from tripeel import RngStream, build_params, run_experiment

    rounds, cal = [], [calibrate()]
    start = perf_counter()
    while len(rounds) < min_rounds or perf_counter() - start < seconds:
        k = len(rounds)
        params = build_params(**w.coupling)
        rng = RngStream(seed, (k,))
        counter = StepCounter()
        with counter.active():
            t0 = perf_counter()
            rep = run_experiment(w.name, params, rng, **w.settings)
            text = write_report(rep, OUT / f"{w.name}-round{k}.json")
            wall = perf_counter() - t0
        rounds.append((wall, counter.steps, rep, text))
        cal.append(calibrate())
    return rounds, cal


def traced_replay(w, seed: int):
    """Round 0 again under the tracer: (wall, report text, layer metrics)."""
    from spans import Tracer, layer_metrics
    from tripeel import RngStream, build_params, run_experiment

    tracer = Tracer()
    with tracer.active():
        params = tracer.span("params.build", build_params)(**w.coupling)
        rng = RngStream(seed, (0,))
        t0 = perf_counter()
        rep = tracer.span("experiments.run", run_experiment)(w.name, params, rng, **w.settings)
        text = tracer.span("experiments.report", write_report)(rep, OUT / f"{w.name}-traced.json")
        wall = perf_counter() - t0
    tracer.dump(OUT / f"{w.name}.trace.json")
    return wall, text, layer_metrics(tracer, params.p_max)


def run_workload(w, seed: int, seconds: float, min_rounds: int, setup_processes: int) -> dict:
    """One whole run; returns metrics, problems and trial counts."""
    from tripeel import build_params

    OUT.mkdir(exist_ok=True)
    cal_setup = calibrate()
    setup = statistics.median(setup_seconds(w) for _ in range(setup_processes))
    rounds, cal = timed_rounds(w, seed, seconds, min_rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced_wall, traced_text, layers = traced_replay(w, seed)

    walls = [r[0] for r in rounds]
    steps = [r[1] for r in rounds]
    # machine slowness around each round, relative to the reference
    slow = [(a + b) / (2 * CAL_REF_S) for a, b in zip(cal, cal[1:])]
    slow_setup = (cal_setup + cal[0]) / (2 * CAL_REF_S)
    scaled = [t / s for t, s in zip(walls, slow)]
    reports = [(seed, k, r[2]) for k, r in enumerate(rounds)]
    problems = []
    if traced_text != rounds[0][3]:
        problems.append("the traced replay's report differs from round 0's")
    if layers["peeling.peel_steps"] != steps[0]:
        problems.append(f"traced peel steps {layers['peeling.peel_steps']} differ from "
                        f"the {steps[0]} counted in round 0")
    problems += w.cross_check(w, build_params(**w.coupling), seed)
    found, figures = w.check(w, reports)
    problems += found

    attempted = w.trials * len(rounds)
    failed = attempted if problems else sum(w.discarded(rep) for _, _, rep in reports)
    # rounds run distinct inputs, so their mean estimates one call's
    # expected cost; the spread across inputs is in the round walls
    raw = {
        "setup_s": setup,
        "wall_s": statistics.fmean(walls),
        "peel_steps_per_s": sum(steps) / sum(walls),
    }
    metrics = {
        "setup_s": setup / slow_setup,
        "wall_s": statistics.fmean(scaled),
        "peel_steps_per_s": sum(steps) / sum(scaled),
        "peak_rss_mb": peak_rss_mb,
        **layers,
        "trace.overhead_ratio": traced_wall / walls[0],
    }
    return {
        "metrics": metrics,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "raw": raw,
        "slowness": slow,
        "slowness_setup": slow_setup,
        "rounds": len(rounds),
        "round_walls": walls,
        "report_sha256": [sha256(r[3].encode()).hexdigest() for r in rounds],
        "figures": figures,
    }


def result_line(run: dict, trace: int) -> dict:
    """The JSON result: the end-to-end metrics, or the per-layer ones."""
    spec = json.loads(SPEC_FILE.read_text())
    return {
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if trace else "end_to_end"]
        },
    }


def run_all(args) -> int:
    """Every workload in turn, each in its own process so that each peak
    resident size is its own."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        doc = json.loads(lines[-1])
        total["correct"] &= doc["correct"]
        total["attempted"] += doc["attempted"]
        total["failed"] += doc["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in doc["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not SPEC_FILE.is_file() or not (SRC / "tripeel" / "__init__.py").is_file():
        print(f"no tripeel sources under {SRC} (or no BENCHMARK.json beside them); "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tripeel
    from workloads import WORKLOADS

    if Path(tripeel.__file__).resolve().parent != SRC / "tripeel":
        print(f"imported tripeel from {tripeel.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}, all",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    run = run_workload(w, args.seed, args.seconds, MIN_ROUNDS, SETUP_PROCESSES)
    for p in run["problems"]:
        print(f"CHECK FAILED {w.name}: {p}", file=sys.stderr)
    print(f"{w.name} seed {args.seed}: {run['rounds']} rounds of {w.trials} trials, "
          f"round walls {', '.join(f'{x:.3f}' for x in run['round_walls'])} s")
    print(f"{w.name} calibration: machine at {run['slowness_setup']:.3f} x the reference "
          f"duration during set-up, {', '.join(f'{x:.3f}' for x in run['slowness'])} "
          "around the rounds")
    print(f"{w.name} uncalibrated: " + ", ".join(f"{k} = {v!r}" for k, v in run["raw"].items()))
    print(f"{w.name} report sha256 by round: "
          + " ".join(h[:16] for h in run["report_sha256"]))
    for label, text in run["figures"].items():
        print(f"{w.name} check {label}: {text}")
    for trace in (0, 1):
        for name, m in result_line(run, trace)["metrics"].items():
            print(f"{w.name} {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result_line(run, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
