"""Spans and counts around pointnull's public functions, from outside.

``Tracer.install`` replaces module attributes with timing wrappers, one per
(caller module, name) pair, so a call is seen exactly as the calling module
makes it: ``pointnull.paradox.log_bayes_factor_lindley`` is the normal
layer's Bayes factor as the paradox sweep calls it. Nothing under ``src/``
changes; ``restore`` puts every attribute back.

Coarse calls (CLI entry, renderers, solvers, sweeps, RNG blocks) are kept as
spans: name, start, end, parent and operation id. Per-replicate and
per-solver-step calls are "hot": they are counted and timed in aggregate
only, so a 3e5-replicate sweep does not allocate 6e5 span records. Hot
wrappers cost more than the calls they wrap, so the benchmark takes span
timings from a pass without them and counts from a pass with them.
"""

from __future__ import annotations

import collections
import statistics
import time
from typing import Any, Callable

LAYERS = ("cli", "normal", "binomial", "paradox", "severity", "scores", "numerics")

# (caller module, attribute, hot?) -- every boundary the benchmark observes
WRAPPED = (
    ("cli", "main", False),
    ("cli", "render_json", False),
    ("cli", "render_csv", False),
    ("cli", "render_table", False),
    ("cli", "crossing_sample_size", False),
    ("cli", "required_bf", False),
    ("cli", "consistency_simulation", False),
    ("cli", "pvalue_uniformity_check", False),
    ("cli", "score_consistency_sim", False),
    ("cli", "severity_curve", False),
    ("cli", "binomial_bf_flat", False),
    ("cli", "binomial_bf_laplace", False),
    ("cli", "binomial_p_value", False),
    ("cli", "binomial_z", False),
    ("cli", "bayes_factor_conjugate", False),
    ("cli", "bayes_factor_lindley", False),
    ("cli", "p_value", False),
    ("cli", "posterior_prob_null", False),
    ("cli", "reinterpret_as_prior_scale", False),
    ("cli", "savage_dickey_bf", False),
    ("cli", "t_statistic", False),
    ("cli", "log_score_compare", False),
    ("cli", "hyvarinen_compare", False),
    ("cli", "sprenger_kl_report", False),
    ("normal", "evaluate_test", False),
    ("normal", "log_normal_pdf", True),
    ("paradox", "crossing_sample_size", False),
    ("paradox", "paradox_table", False),
    ("paradox", "find_crossing", False),
    ("paradox", "log_bayes_factor_lindley", True),
    ("paradox", "bayes_factor_lindley", True),
    ("paradox", "p_value", True),
    ("paradox", "posterior_prob_null", True),
    ("severity", "severity_curve", False),
    ("severity", "warranted_discrepancy", False),
    ("severity", "find_crossing", False),
    ("severity", "severity_at", True),
    ("severity", "std_normal_cdf", True),
    ("severity", "std_normal_quantile", True),
    ("scores", "hyvarinen_compare", True),
    ("scores", "conjugate_posterior", True),
    ("scores", "log_normal_pdf", True),
    ("binomial", "binomial_bf_flat", False),
    ("binomial", "p_value", True),
    ("binomial", "log_beta", True),
)
# classes constructed per sweep: their instances' normals() become spans
RNG_USERS = ("paradox", "scores")


class Frame:
    __slots__ = ("name", "layer", "child_ns", "span_id", "solved")

    def __init__(self, name: str, layer: str, span_id: int) -> None:
        self.name = name
        self.layer = layer
        self.child_ns = 0
        self.span_id = span_id
        self.solved = False


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, op_id)
        self.durations: dict[str, list[int]] = collections.defaultdict(list)
        self.counts: collections.Counter = collections.Counter()
        self.hot_ns: collections.Counter = collections.Counter()
        self.self_ns: collections.Counter = collections.Counter()
        self.stack: list[Frame] = []
        self.op_id = -1
        self._next_id = 0
        self._saved: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, fn: Callable, name: str, hot: bool) -> Callable:
        layer = name.partition(".")[0]
        stack = self.stack
        counts = self.counts
        clock = time.perf_counter_ns
        classify = _CLASSIFY.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            counts[layer + ".calls"] += 1
            counts[name] += 1
            if classify is not None:
                classify(self, parent, args)
            span_id = -1
            if not hot:
                span_id = self._next_id
                self._next_id += 1
            frame = Frame(name, layer, span_id)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if parent is None or parent.layer != layer:
                    counts[layer + ".errors"] += 1
                if name == "paradox.crossing_sample_size" and type(exc).__name__ == (
                        "UnreachableTargetError"):
                    counts["paradox.unreachable"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self.self_ns[layer] += elapsed - frame.child_ns
                if parent is not None:
                    parent.child_ns += elapsed
                    if name == "numerics.find_crossing":
                        parent.solved = True
                if hot:
                    self.hot_ns[name] += elapsed
                else:
                    self.spans.append((span_id, name, start, end,
                                       parent.span_id if parent else -1, self.op_id))
                    self.durations[name].append(elapsed)

        traced.__wrapped__ = fn
        return traced

    def _rng_factory(self, cls):
        construct = self.wrap(cls, "numerics.rng_streams", False)

        def make(*args, **kwargs):
            stream = construct(*args, **kwargs)
            stream.normals = self.wrap(stream.normals, "numerics.rng_normals", False)
            return stream

        return make

    def install(self, modules: dict, hot_calls: bool) -> None:
        """Wrap the boundaries in WRAPPED; modules maps short names to the
        imported pointnull modules. Without hot_calls only the coarse spans
        are wrapped, which keeps their timings close to untraced ones."""
        for caller, attr, hot in WRAPPED:
            if hot and not hot_calls:
                continue
            module = modules[caller]
            fn = getattr(module, attr)
            layer = fn.__module__.rpartition(".")[2]
            self._set(module, attr, self.wrap(fn, f"{layer}.{attr}", hot))
        for caller in RNG_USERS:
            module = modules[caller]
            self._set(module, "RngStream", self._rng_factory(module.RngStream))

    def _set(self, module, attr, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    # ------------------------------------------------------------ reporting

    def median_ms(self, name: str) -> float:
        values = self.durations.get(name)
        return statistics.median(values) / 1e6 if values else 0.0

    def span_ms(self, name: str) -> float:
        return sum(self.durations.get(name, ())) / 1e6

    def rng_ms(self) -> float:
        return self.span_ms("numerics.rng_streams") + self.span_ms("numerics.rng_normals")

    def per_rep(self, calls: str, reps: str) -> float:
        return self.counts[calls] / self.counts[reps] if self.counts[reps] else 0.0

    def self_time_ms(self) -> dict:
        return {layer: self.self_ns[layer] / 1e6 for layer in LAYERS}


def _crossing_eval(tracer: Tracer, parent: Frame | None, args) -> None:
    if parent is None:
        return
    if parent.name == "numerics.find_crossing":
        tracer.counts["paradox.bf_evals_in_solver"] += 1
    elif parent.name == "paradox.crossing_sample_size" and parent.solved:
        tracer.counts["paradox.bf_evals_in_refine"] += 1
    elif parent.name == "paradox.consistency_simulation":
        tracer.counts["paradox.kernel_calls"] += 1


def _kernel_p(tracer: Tracer, parent: Frame | None, args) -> None:
    if parent is not None and parent.name == "paradox.consistency_simulation":
        tracer.counts["paradox.kernel_calls"] += 1


def _sweep_reps(key: str):
    def count(tracer: Tracer, parent: Frame | None, args) -> None:
        run = args[0]
        tracer.counts[key] += run.replications * len(run.n_grid)

    return count


def _compare(tracer: Tracer, parent: Frame | None, args) -> None:
    if parent is not None and parent.name == "scores.score_consistency_sim":
        tracer.counts["scores.compare_calls"] += 1


def _severity_eval(tracer: Tracer, parent: Frame | None, args) -> None:
    if parent is not None and parent.name == "numerics.find_crossing":
        tracer.counts["severity.solver_evals"] += 1


def _draws(tracer: Tracer, parent: Frame | None, args) -> None:
    tracer.counts["numerics.rng_draws"] += int(args[0])


_CLASSIFY = {
    "normal.log_bayes_factor_lindley": _crossing_eval,
    "normal.p_value": _kernel_p,
    "paradox.consistency_simulation": _sweep_reps("paradox.kernel_reps"),
    "scores.score_consistency_sim": _sweep_reps("scores.compare_reps"),
    "scores.hyvarinen_compare": _compare,
    "severity.severity_at": _severity_eval,
    "numerics.rng_normals": _draws,
}
