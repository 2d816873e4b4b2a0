#!/usr/bin/env python3
"""Throughput of each stack level on its own, outside any experiment.

    python3 benchmarks/layers.py

Re-measures the per-layer table of ROADMAP.md on fixed inputs.  Each
figure is the median of five repetitions; the calibration loop of
run.py is timed alongside, so figures from a slow moment of a shared
machine can be recognized.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tripeel import (  # noqa: E402
    BoltzmannFiller,
    LayerChain,
    PeelEngine,
    RngStream,
    StepSampler,
    build_params,
)

REPEATS = 5


def rate(fn, n: int) -> float:
    """Median operations per second of fn(n) over REPEATS calls."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn(n)
        times.append(perf_counter() - t0)
    return n / statistics.median(times)


def draws(n):
    u = RngStream(1).u
    for _ in range(n):
        u()


def streams(n):
    for i in range(n):
        RngStream(1, (i,))


def streams_first_draw(n):
    for i in range(n):
        RngStream(1, (i,)).u()


def sampler_events(n):
    sample, rng = StepSampler(build_params(alpha="3/4")).sample, RngStream(2)
    for _ in range(n):
        sample(50, rng)


def fill_volumes(n):
    fill, rng = BoltzmannFiller(build_params(alpha="3/4")).fill_volume, RngStream(3)
    for _ in range(n):
        fill(3, rng)


def engine_steps(n):
    engine = PeelEngine(build_params(kappa="9/128"), RngStream(4), record=False)
    for _ in range(n):
        engine.peel_step(engine.cursor)


def chain_steps(volume: bool, alpha: str, r_max: int):
    """Steps per second of LayerChain.run (volume) or run_fast."""
    params = build_params(alpha=alpha)
    times, steps = [], []
    for rep in range(REPEATS):
        chain = LayerChain(params, RngStream(5, (rep,)), volume=volume)
        t0 = perf_counter()
        chain.run(r_max) if volume else chain.run_fast(r_max)
        times.append(perf_counter() - t0)
        steps.append(chain.steps)
    return statistics.median(s / t for s, t in zip(steps, times))


def ctilde_growth_seconds(p: int = 3000) -> float:
    times = []
    for _ in range(REPEATS):
        params = build_params(kappa="2/27")
        t0 = perf_counter()
        params.ensure_ctilde(p)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from run import CAL_REF_S, calibration_seconds

    before = statistics.median(calibration_seconds() for _ in range(5))
    rows = [
        ("RngStream.u", rate(draws, 2_000_000), "draws/s"),
        ("RngStream(...) construction", rate(streams, 20_000), "streams/s"),
        ("RngStream(...) construction + first draw", rate(streams_first_draw, 20_000), "streams/s"),
        ("StepSampler.sample (p=50, alpha=3/4)", rate(sampler_events, 200_000), "events/s"),
        ("fill_volume (3-gon, alpha=3/4)", rate(fill_volumes, 100_000), "fills/s"),
        ("PeelEngine.peel_step (kappa=9/128)", rate(engine_steps, 50_000), "steps/s"),
        ("LayerChain.run with volume (alpha=7/10)", chain_steps(True, "7/10", 9), "steps/s"),
        ("LayerChain.run_fast (alpha=3/4)", chain_steps(False, "3/4", 9), "steps/s"),
    ]
    after = statistics.median(calibration_seconds() for _ in range(5))
    for name, value, unit in rows:
        print(f"{name:44s} {value:14,.0f} {unit}")
    print(f"{'ensure_ctilde(3000) at kappa=2/27':44s} {ctilde_growth_seconds():14.3f} s")
    print(f"calibration loop {before:.4f} s before, {after:.4f} s after "
          f"(reference {CAL_REF_S} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
