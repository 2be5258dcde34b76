"""Span recorder for the traced benchmark run.

The recorder wraps the public entry points of each herdlearn module from
outside the package, so the program itself is unchanged.  A wrapped name is
rebound everywhere the package looks it up, including modules that imported
it by name (``observer.update_public``, ``consensus.jump_g``,
``cli.consensus_path`` and so on).

Spans called once per step or per action (FINE_SPANS) cost about as much
as the work they time on the scalar paths (observer replay, consensus path),
so a traced run comes in two kinds: ``layer`` wraps only the layer entry
points, and ``full`` wraps the fine spans too.  The metrics of the fine
spans (FINE_METRICS) come from ``full`` runs and all others from ``layer``
runs; counts are the same in both.

Spans are aggregated in memory per span name as they close: calls, inclusive
time of the outermost span of that name, self time (duration minus the time
covered by child spans) and work counts.  ``Tracer.stats`` is written out by
the child process when the workload ends.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

import numpy as np

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.stats: dict = {}
        self._stack: list = []  # child time, in ns, of each open span
        self._depth: dict = {}  # span name -> [number of open spans of that name]

    def _stat(self, name: str) -> dict:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = {"calls": 0, "total_ns": 0, "self_ns": 0}
            self._depth[name] = [0]
        return stat

    def add(self, name: str, key: str, amount) -> None:
        stat = self._stat(name)
        stat[key] = stat.get(key, 0) + amount

    def peak(self, name: str, key: str, value) -> None:
        stat = self._stat(name)
        stat[key] = max(stat.get(key, 0), value)

    def inside(self, name: str) -> bool:
        return name in self._depth and self._depth[name][0] > 0

    def _span(self, name: str):
        """(open, close) for spans of one name.  ``close(frame, start, call)``
        returns whether the span was the outermost open one of its name."""
        stat, depth, stack = self._stat(name), self._depth[name], self._stack

        def open_():
            depth[0] += 1
            frame = [0]
            stack.append(frame)
            return frame, _clock()

        def close(frame, start, call=True):
            duration = _clock() - start
            stack.pop()
            depth[0] -= 1
            if stack:
                stack[-1][0] += duration
            stat["self_ns"] += duration - frame[0]
            if depth[0] == 0:
                stat["total_ns"] += duration
                stat["calls"] += call
                return True
            return False

        return open_, close

    def wrap(self, fn, name: str, count=None):
        """Span around each call; ``count(tracer, args, result)`` runs after
        the outermost span of this name closes, outside the timed interval."""
        open_, close = self._span(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, start = open_()
            try:
                result = fn(*args, **kwargs)
            finally:
                outermost = close(frame, start)
            if count is not None and outermost:
                count(self, args, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        """One call per generator; each resumption is a span, so the time
        the consumer spends between items goes to the consumer."""
        open_, close = self._span(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            self.add(name, "calls", 1)
            while True:
                frame, start = open_()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    close(frame, start, call=False)
                self.add(name, "items", 1)
                yield item

        return traced


def _count_log_tail(tracer, args, result):
    elems = int(np.size(result))
    tracer.add("beliefs.log_tail", "elems", elems)
    if tracer.inside("montecarlo.run_experiment"):
        tracer.add("beliefs.log_tail", "kernel_elems", elems)


def _count_draws(tracer, args, result):
    tracer.add("beliefs.sample", "draws", int(np.size(result)))


def _count_experiment(tracer, args, result):
    config = result.config
    tracer.add("montecarlo.run_experiment", "steps", config.horizon * config.num_trajectories)


def _count_batch(tracer, args, result):
    config, lo, hi = args
    tracer.peak("montecarlo.batch", "llr_block_bytes", (hi - lo) * config.horizon * 8)


def _count_path(tracer, args, result):
    tracer.add("consensus.path", "steps", len(result.values))


def _count_rows(tracer, args, result):
    tracer.add("cli.rows_csv", "rows", len(args[0]))


def _count_trace_lines(tracer, args, result):
    tracer.add("cli.trace_csv", "lines", len(args[0].actions))


def _count_csv_lines(tracer, args, result):
    tracer.add("cli.csv", "lines", result.count("\n"))


def _count_file(tracer, args, result):
    tracer.add("cli.write", "files", 1)
    tracer.add("cli.write", "bytes", len(args[-1].encode("utf-8")))


def _count_manifest(tracer, args, result):
    tracer.add("cli.write", "files", 1)
    tracer.add("cli.write", "bytes", (Path(args[1]) / "manifest.json").stat().st_size)


# (module, attribute path, span name, counter) for every wrapped entry point.
ENTRY_POINTS = (
    ("beliefs", "NormalCdf.log_cdf", "beliefs.log_tail", _count_log_tail),
    ("beliefs", "NormalCdf.log_sf", "beliefs.log_tail", _count_log_tail),
    ("beliefs", "MixtureCdf.log_cdf", "beliefs.log_tail", _count_log_tail),
    ("beliefs", "MixtureCdf.log_sf", "beliefs.log_tail", _count_log_tail),
    ("beliefs", "LlrModel.sample", "beliefs.sample", _count_draws),
    ("dynamics", "update_public", "dynamics.update_public", None),
    ("dynamics", "jump_g", "dynamics.jump", None),
    ("dynamics", "jump_b", "dynamics.jump", None),
    ("observer", "observer_update", "observer.update", None),
    ("observer", "replay", "observer.replay", "generator"),
    ("tails", "classify_gaussian", "tails.classify", None),
    ("tails", "classify_mixture", "tails.classify", None),
    ("tails", "classify_empirical", "tails.classify", None),
    ("consensus", "consensus_path", "consensus.path", _count_path),
    ("consensus", "divergence_test", "consensus.divergence_test", None),
    ("consensus", "tail_sum_upper_bound", "consensus.tail_sum_bound", None),
    ("consensus", "immediate_agreement_prob", "consensus.agree_prob", None),
    ("montecarlo", "run_experiment", "montecarlo.run_experiment", _count_experiment),
    ("montecarlo", "_simulate_batch", "montecarlo.batch", _count_batch),
    ("montecarlo", "_trajectory_rng", "montecarlo.stream_setup", None),
    ("montecarlo", "compute_aggregates", "montecarlo.aggregate", None),
    ("cli", "main", "cli.main", None),
    ("cli", "_rows_csv", "cli.rows_csv", _count_rows),
    ("cli", "_trace_csv", "cli.trace_csv", _count_trace_lines),
    ("cli", "_csv_lines", "cli.csv", _count_csv_lines),
    ("cli", "_Manifest.add", "cli.write", _count_file),
    ("cli", "_Manifest.add_relative", "cli.write", _count_file),
    ("cli", "_Manifest.write", "cli.write", _count_manifest),
)


FINE_SPANS = ("beliefs.log_tail", "dynamics.update_public", "dynamics.jump", "observer.update")
FINE_METRICS = FINE_SPANS + ("montecarlo.kernel",)


def is_fine(metric: str) -> bool:
    return metric.startswith(tuple(name + "." for name in FINE_METRICS))


def install(tracer: Tracer, fine: bool) -> None:
    """Wrap the entry points (with ``fine``, also FINE_SPANS) and rebind each
    wherever the package holds it."""
    package = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "herdlearn"]
    for module_name, attr, span, count in ENTRY_POINTS:
        if span in FINE_SPANS and not fine:
            continue
        owner = sys.modules[f"herdlearn.{module_name}"]
        *classes, fname = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = getattr(owner, fname)
        if count == "generator":
            wrapped = tracer.wrap_generator(original, span)
        else:
            wrapped = tracer.wrap(original, span, count)
        if classes:
            setattr(owner, fname, wrapped)
            continue
        for module in package:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict) -> dict:
    """Per-layer metric values (without units) from one traced workload run."""

    def get(name: str, key: str):
        return stats.get(name, {}).get(key, 0)

    steps = get("montecarlo.run_experiment", "steps")
    elems = get("beliefs.log_tail", "elems")
    draws = get("beliefs.sample", "draws")
    stream_calls = get("montecarlo.stream_setup", "calls")
    kernel_self = get("montecarlo.run_experiment", "self_ns") + get("montecarlo.batch", "self_ns")
    replay_actions = get("observer.replay", "items") - get("observer.replay", "calls")
    path_steps = get("consensus.path", "steps")
    update_calls = get("dynamics.update_public", "calls")
    return {
        "beliefs.log_tail.calls": get("beliefs.log_tail", "calls"),
        "beliefs.log_tail.elems": elems,
        "beliefs.log_tail.elems_per_step": _ratio(get("beliefs.log_tail", "kernel_elems"), steps),
        "beliefs.log_tail.ns_per_elem": _ratio(get("beliefs.log_tail", "self_ns"), elems),
        "beliefs.sample.draws": draws,
        "beliefs.sample.ns_per_draw": _ratio(get("beliefs.sample", "total_ns"), draws),
        "montecarlo.stream_setup.us_per_traj": _ratio(
            get("montecarlo.stream_setup", "total_ns"), 1e3 * stream_calls
        ),
        "montecarlo.kernel.self_ns_per_step": _ratio(kernel_self, steps),
        "montecarlo.batch.count": get("montecarlo.batch", "calls"),
        "montecarlo.aggregate.ms": get("montecarlo.aggregate", "total_ns") / 1e6,
        "montecarlo.llr_block.mb_computed": get("montecarlo.batch", "llr_block_bytes") / 1e6,
        "cli.rows_csv.us_per_row": _ratio(
            get("cli.rows_csv", "total_ns"), 1e3 * get("cli.rows_csv", "rows")
        ),
        "cli.trace_csv.us_per_line": _ratio(
            get("cli.trace_csv", "total_ns"), 1e3 * get("cli.trace_csv", "lines")
        ),
        "cli.csv.lines": get("cli.csv", "lines"),
        "cli.write.bytes": get("cli.write", "bytes"),
        "cli.write.mb_per_s": _ratio(1e3 * get("cli.write", "bytes"), get("cli.write", "total_ns")),
        "cli.files_written": get("cli.write", "files"),
        "observer.replay.us_per_action": _ratio(
            get("observer.replay", "total_ns"), 1e3 * replay_actions
        ),
        "observer.update.calls": get("observer.update", "calls"),
        "dynamics.update_public.calls": update_calls,
        "dynamics.update_public.us_per_call": _ratio(
            get("dynamics.update_public", "total_ns"), 1e3 * update_calls
        ),
        "dynamics.jump.calls": get("dynamics.jump", "calls"),
        "consensus.path.calls": get("consensus.path", "calls"),
        "consensus.path.us_per_step": _ratio(get("consensus.path", "total_ns"), 1e3 * path_steps),
        "consensus.divergence_test.calls": get("consensus.divergence_test", "calls"),
        "consensus.tail_sum_bound.s": get("consensus.tail_sum_bound", "total_ns") / 1e9,
        "consensus.agree_prob.s": get("consensus.agree_prob", "total_ns") / 1e9,
        "tails.classify.s": get("tails.classify", "total_ns") / 1e9,
    }


def time_shares(stats: dict) -> dict:
    """Per span name, largest first: its share of all self time, and the share
    of command time (``cli.main``) spent inside its outermost spans."""
    total_self = sum(s["self_ns"] for s in stats.values()) or 1
    commands = stats.get("cli.main", {}).get("total_ns") or 1

    def ranked(shares: dict) -> dict:
        return {k: round(v, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}

    return {
        "self": ranked({name: s["self_ns"] / total_self for name, s in stats.items()}),
        "inclusive": ranked({name: s["total_ns"] / commands for name, s in stats.items()}),
    }


_COUNT = "count"
# Unit of every per-layer metric the traced run reports, in report order.
LAYER_UNITS = {
    "beliefs.log_tail.calls": _COUNT,
    "beliefs.log_tail.elems": _COUNT,
    "beliefs.log_tail.elems_per_step": "ratio",
    "beliefs.log_tail.ns_per_elem": "ns",
    "beliefs.sample.draws": _COUNT,
    "beliefs.sample.ns_per_draw": "ns",
    "montecarlo.stream_setup.us_per_traj": "us",
    "montecarlo.kernel.self_ns_per_step": "ns",
    "montecarlo.batch.count": _COUNT,
    "montecarlo.aggregate.ms": "ms",
    "montecarlo.llr_block.mb_computed": "MB",
    "cli.rows_csv.us_per_row": "us",
    "cli.trace_csv.us_per_line": "us",
    "cli.csv.lines": _COUNT,
    "cli.write.bytes": "B",
    "cli.write.mb_per_s": "MB/s",
    "cli.files_written": _COUNT,
    "observer.replay.us_per_action": "us",
    "observer.update.calls": _COUNT,
    "dynamics.update_public.calls": _COUNT,
    "dynamics.update_public.us_per_call": "us",
    "dynamics.jump.calls": _COUNT,
    "consensus.path.calls": _COUNT,
    "consensus.path.us_per_step": "us",
    "consensus.divergence_test.calls": _COUNT,
    "consensus.tail_sum_bound.s": "s",
    "consensus.agree_prob.s": "s",
    "tails.classify.s": "s",
    "setup.import.numpy_s": "s",
    "setup.import.scipy_special_s": "s",
    "setup.import.scipy_optimize_s": "s",
    "setup.import.herdlearn_self_s": "s",
    "trace.overhead_s": "s",
}
