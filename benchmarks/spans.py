"""Span tracing and step counting around tripeel's public entry points.

Nothing here edits the package: instrumentation replaces class and
module attributes with wrappers for the duration of a ``with`` block and
puts the originals back on exit.  Two instruments exist.

* :class:`StepCounter` hooks only the constructors of the three peel
  drivers (``LayerChain``, ``LayerEngine``, ``PeelEngine``) and sums
  their ``steps`` fields, one call per trial.  It is the only hook
  present during timed rounds.
* :class:`Tracer` records a span around each call into a layer: name,
  start, end and parent.  Self time is a span's duration minus its
  child spans.  Counts too fine to wrap (uniforms per sampler event,
  hole decisions) come from ``RngStream.n_drawn`` read before and after
  the wrapped call.  Every span feeds the per-(name, parent) aggregates;
  the first ``keep`` spans are also kept whole and written out.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import tripeel.experiments as experiments
import tripeel.peeling as peeling
import tripeel.walk as walk
from tripeel.boltzmann import BoltzmannFiller
from tripeel.params import PeelParams
from tripeel.planarmap import TriMap
from tripeel.rng import RngStream

PEEL_DRIVERS = (peeling.LayerChain, peeling.LayerEngine, peeling.PeelEngine)


@contextmanager
def _patched(replacements):
    """Set (owner, attribute, value) triples; restore them on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


class StepCounter:
    """Total peel steps of every chain and engine built inside the block.

    Holds only the most recent driver; the previous one is read and
    released when the next is built, which is when the program drops it.
    """

    def __init__(self):
        self.steps = 0
        self._last = None

    def _settle(self):
        if self._last is not None:
            self.steps += self._last.steps
            self._last = None

    @contextmanager
    def active(self):
        def hook(init):
            def __init__(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                self._settle()
                self._last = obj

            return __init__

        with _patched([(cls, "__init__", hook(cls.__init__)) for cls in PEEL_DRIVERS]):
            try:
                yield self
            finally:
                self._settle()


class Tracer:
    """In-memory span recorder with live per-(name, parent) aggregates."""

    def __init__(self, keep: int = 100_000):
        self.keep = keep
        self.spans: list = []      # [name, parent index or -1, start, end]
        self.dropped = 0
        self.stats: dict = {}      # (name, parent name) -> [count, total, self]
        self.counts: dict = {}     # counter name -> int
        self._stack: list = []     # open frames: [name, span index, child time]

    # -- recording ------------------------------------------------------

    def enter(self, name: str) -> list:
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        if len(self.spans) < self.keep:
            idx = len(self.spans)
            self.spans.append([name, parent, perf_counter(), 0.0])
        else:
            idx = -1
            self.dropped += 1
        frame = [name, idx, 0.0, perf_counter()]
        stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        t1 = perf_counter()
        stack = self._stack
        stack.pop()
        name, idx, child, t0 = frame
        d = t1 - t0
        key = (name, stack[-1][0] if stack else None)
        agg = self.stats.get(key)
        if agg is None:
            agg = self.stats[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += d
        agg[2] += d - child
        if stack:
            stack[-1][2] += d
        if idx >= 0:
            self.spans[idx][3] = t1

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- reading --------------------------------------------------------

    def calls(self, name: str, parent: str | None = ...) -> int:
        return sum(a[0] for (n, p), a in self.stats.items()
                   if n == name and (parent is ... or p == parent))

    def self_time(self, name: str) -> float:
        return sum((a[2] for (n, _), a in self.stats.items() if n == name), 0.0)

    def dump(self, path) -> None:
        """Write aggregates and the kept spans as one JSON document."""
        doc = {
            "aggregates": [
                {"name": n, "parent": p, "count": a[0], "total_s": a[1], "self_s": a[2]}
                for (n, p), a in sorted(self.stats.items(), key=lambda kv: -kv[1][2])
            ],
            "counts": self.counts,
            "span_fields": ["name", "parent", "start", "end"],
            "spans": self.spans,
            "dropped_spans": self.dropped,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    # -- instrumentation ------------------------------------------------

    def span(self, name, fn):
        """fn wrapped so that each call records one span."""
        enter, leave = self.enter, self.leave

        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return wrapper

    def _drawing_span(self, name, fn, rng_at, counter):
        """Span that also counts the uniforms the call drew."""
        enter, leave, count = self.enter, self.leave, self.count

        def wrapper(*args, **kwargs):
            rng = args[rng_at]
            before = rng.n_drawn
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)
                count(counter, rng.n_drawn - before)

        return wrapper

    def _growth_span(self, name, fn, size_of):
        """Span only for calls that extend a table; lookups that find the
        entry already materialized pass straight through."""
        enter, leave = self.enter, self.leave

        def wrapper(params, n):
            if n <= size_of(params):
                return fn(params, n)
            frame = enter(name)
            try:
                return fn(params, n)
            finally:
                leave(frame)

        return wrapper

    def _block_run_span(self, fn):
        """run_fast: steps taken in blocks are its steps minus the scalar
        chain steps it delegated."""
        enter, leave, count = self.enter, self.leave, self.count

        def run_fast(chain, *args, **kwargs):
            steps0 = chain.steps
            scalar0 = self.calls("peeling.chain_step")
            frame = enter("peeling.block_run")
            try:
                return fn(chain, *args, **kwargs)
            finally:
                leave(frame)
                scalar = self.calls("peeling.chain_step") - scalar0
                count("peeling.block_steps", chain.steps - steps0 - scalar)

        return run_fast

    def _walk_span(self, fn):
        enter, leave, count = self.enter, self.leave, self.count

        def run_walk_peeling(*args, **kwargs):
            frame = enter("walk.run")
            try:
                trace = fn(*args, **kwargs)
            finally:
                leave(frame)
            count("walk.moves", trace.n_steps)
            self._note_arena(trace.map)
            return trace

        return run_walk_peeling

    def _ball_span(self, fn):
        enter, leave = self.enter, self.leave

        def complete_ball(engine, *args, **kwargs):
            frame = enter("peeling.complete_ball")
            try:
                return fn(engine, *args, **kwargs)
            finally:
                leave(frame)
                self._note_arena(engine.map)

        return complete_ball

    def _note_arena(self, tmap) -> None:
        n = tmap.n_half_edges()
        if n > self.counts.get("planarmap.max_half_edges", 0):
            self.counts["planarmap.max_half_edges"] = n

    def _counting(self, name, fn):
        count = self.count

        def wrapper(*args, **kwargs):
            count(name, 1)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def active(self):
        """Instrument every layer for the duration of the block."""
        s = self.span
        block = RngStream.block
        ball = self._ball_span(peeling.complete_ball)
        walker = self._walk_span(walk.run_walk_peeling)
        surgery = {
            attr: s("planarmap.surgery", TriMap.__dict__[attr])
            for attr in ("attach_fresh", "open_swallow", "close_two_gon")
        }

        def rng_block(rng, n):
            self.count("rng.block_draws", n)
            return block(rng, n)

        replacements = [
            (RngStream, "__init__", s("rng.construct", RngStream.__init__)),
            (RngStream, "block", s("rng.block", rng_block)),
            (RngStream, "index", self._counting("rng.index_draws", RngStream.index)),
            (PeelParams, "ensure_q", self._growth_span(
                "params.grow_q", PeelParams.ensure_q, lambda p: p.i_max)),
            (PeelParams, "ensure_ctilde", self._growth_span(
                "params.grow_ctilde", PeelParams.ensure_ctilde,
                lambda p: p.p_max if not p.ctilde_clamped else float("inf"))),
            (BoltzmannFiller, "__init__", s("boltzmann.new", BoltzmannFiller.__init__)),
            (BoltzmannFiller, "fill_volume", self._drawing_span(
                "boltzmann.fill_volume", BoltzmannFiller.fill_volume, 2,
                "boltzmann.decisions")),
            (BoltzmannFiller, "fill_hole", self._drawing_span(
                "boltzmann.fill_hole", BoltzmannFiller.fill_hole, 4,
                "boltzmann.decisions")),
            (peeling.StepSampler, "sample", self._drawing_span(
                "peeling.sampler", peeling.StepSampler.sample, 2, "peeling.sampler_draws")),
            (peeling.LayerChain, "step", s("peeling.chain_step", peeling.LayerChain.step)),
            (peeling.LayerChain, "run", s("peeling.chain_run", peeling.LayerChain.run)),
            (peeling.LayerChain, "run_fast", self._block_run_span(peeling.LayerChain.run_fast)),
            (peeling.LayerEngine, "step", s("peeling.engine_step", peeling.LayerEngine.step)),
            (peeling.PeelEngine, "peel_step", s("peeling.engine_step", peeling.PeelEngine.peel_step)),
            (TriMap, "bfs_distances", s("planarmap.bfs", TriMap.bfs_distances)),
            (walk.WalkTrace, "displacement_series",
             s("walk.displacement", walk.WalkTrace.displacement_series)),
            (experiments, "complete_ball", ball),
            (walk, "complete_ball", ball),
            (peeling, "complete_ball", ball),
            (experiments, "run_walk_peeling", walker),
            (walk, "run_walk_peeling", walker),
        ] + [(TriMap, attr, fn) for attr, fn in surgery.items()]
        with _patched(replacements):
            yield self


def layer_metrics(tr: Tracer, ctilde_size: int) -> dict:
    """Per-layer figures of one traced round, keyed by metric name."""
    c = tr.counts.get
    events = tr.calls("peeling.sampler")
    chain_steps = tr.calls("peeling.chain_step")
    engine_steps = tr.calls("peeling.engine_step")
    block_steps = c("peeling.block_steps", 0)
    decisions = c("boltzmann.decisions", 0)
    return {
        "rng.draws": (c("peeling.sampler_draws", 0) + decisions
                      + c("rng.block_draws", 0) + c("rng.index_draws", 0)),
        "rng.streams": tr.calls("rng.construct"),
        "rng.construct_s": tr.self_time("rng.construct"),
        "rng.block_s": tr.self_time("rng.block"),
        "params.table_s": sum(tr.self_time(n) for n in
                              ("params.build", "params.grow_q", "params.grow_ctilde")),
        "params.ctilde_size": ctilde_size,
        "boltzmann.fillers": tr.calls("boltzmann.new"),
        "boltzmann.decisions": decisions,
        "boltzmann.fill_volume_s": tr.self_time("boltzmann.fill_volume"),
        "boltzmann.fill_hole_s": tr.self_time("boltzmann.fill_hole"),
        "peeling.sampler_events": events,
        "peeling.sampler_draws_per_event": (
            c("peeling.sampler_draws", 0) / events if events else 0.0),
        "peeling.sampler_s": tr.self_time("peeling.sampler"),
        "peeling.chain_steps": chain_steps,
        "peeling.chain_s": tr.self_time("peeling.chain_step") + tr.self_time("peeling.chain_run"),
        "peeling.block_steps": block_steps,
        "peeling.block_s": tr.self_time("peeling.block_run"),
        "peeling.engine_steps": engine_steps,
        "peeling.engine_s": tr.self_time("peeling.engine_step"),
        "peeling.ball_steps": tr.calls("peeling.engine_step", "peeling.complete_ball"),
        "peeling.ball_s": tr.self_time("peeling.complete_ball"),
        "peeling.peel_steps": chain_steps + block_steps + engine_steps,
        "planarmap.surgeries": tr.calls("planarmap.surgery"),
        "planarmap.surgery_s": tr.self_time("planarmap.surgery"),
        "planarmap.max_half_edges": c("planarmap.max_half_edges", 0),
        "planarmap.bfs_calls": tr.calls("planarmap.bfs"),
        "planarmap.bfs_s": tr.self_time("planarmap.bfs"),
        "walk.moves": c("walk.moves", 0),
        "walk.s": tr.self_time("walk.run") + tr.self_time("walk.displacement"),
        "experiments.report_s": tr.self_time("experiments.report"),
    }
