"""Span tracing from outside the program.

The tracer wraps public jumpkit functions in place, records one span per
call (id, name, start, end, parent, op id) and keeps the spans in memory
until the run ends.  Wrappers are installed only around traced passes and
removed afterwards, so untraced passes run the unmodified functions.

A function is rebound wherever jumpkit holds it (``from .mc import
replicate`` gives each importing module its own reference), so intra-
and inter-module calls both pass through the wrapper.
"""

import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); "Class.method" patches the class.
TRACED = [
    ("jumpkit.cli", "main", "cli.main"),
    ("jumpkit.qvi", "solve_benchmark_qvi", "qvi.solve_benchmark_qvi"),
    ("scipy.sparse.linalg", "spsolve", "qvi.spsolve"),
    ("jumpkit.impulse", "minimize_over_targets", "impulse.minimize_over_targets"),
    ("jumpkit.impulse", "qvi_residual", "impulse.qvi_residual"),
    ("jumpkit.impulse", "synthesize_policy", "impulse.synthesize_policy"),
    ("jumpkit.impulse", "estimate_cost", "impulse.estimate_cost"),
    ("jumpkit.impulse", "verify_value", "impulse.verify_value"),
    ("jumpkit.mc", "map_blocks", "mc.map_blocks"),
    ("jumpkit.mc", "replicate", "mc.replicate"),
    ("jumpkit.streams", "RandomStream.substream", "streams.substream"),
    ("jumpkit.sde", "simulate_jump_diffusion", "sde.simulate_jump_diffusion"),
    ("jumpkit.calculus", "generator_apply", "calculus.generator_apply"),
    ("jumpkit.calculus", "ito_residual", "calculus.ito_residual"),
    ("jumpkit.calculus", "dynkin_residual", "calculus.dynkin_residual"),
    ("jumpkit.race", "simulate_pattern_race", "race.simulate_pattern_race"),
    ("jumpkit.race", "race_solve", "race.race_solve"),
    ("jumpkit.patterns", "automaton_expected_time", "patterns.automaton_expected_time"),
    ("jumpkit.patterns", "conditional_expected_time", "patterns.conditional_expected_time"),
    ("jumpkit.renewal", "simulate_renewal", "renewal.simulate_renewal"),
    ("jumpkit.renewal", "estimate_mean_process", "renewal.estimate_mean_process"),
    ("jumpkit.renewal", "blackwell_check", "renewal.blackwell_check"),
    ("jumpkit.renewal", "wald_check", "renewal.wald_check"),
    ("jumpkit.renewal", "reward_rate_check", "renewal.reward_rate_check"),
    ("jumpkit.renewal", "delayed_renewal_stats", "renewal.delayed_renewal_stats"),
    ("jumpkit.renewal", "regenerative_occupancy", "renewal.regenerative_occupancy"),
    ("jumpkit.renewal_equation", "solve_renewal_equation", "renewal_equation.solve_renewal_equation"),
]

# span names whose first positional argument is a per-replication or
# per-block kernel; the kernel gets a child span of its own
KERNEL_SPANS = {"mc.replicate": "mc.replication", "mc.map_blocks": "mc.block"}


def _estimate_cost_steps(args, kwargs):
    """Path-steps an ``estimate_cost`` call runs, from its arguments."""
    problem, _policy, _y0, n_paths, dt = args[:5]
    horizon = kwargs.get("horizon", args[6] if len(args) > 6 else None)
    if problem.horizon is not None:
        horizon = problem.horizon
    elif horizon is None:
        horizon = 14.0 / problem.discount
    return n_paths * max(1, int(round(horizon / dt)))


def _count_result(tracer, name, args, kwargs, result):
    """Counters read from a traced call's arguments and result."""
    if name == "qvi.solve_benchmark_qvi":
        tracer.count("qvi.sweeps", result.sweeps)
    elif name == "impulse.estimate_cost":
        tracer.count("impulse.path_steps", _estimate_cost_steps(args, kwargs))
    elif name == "sde.simulate_jump_diffusion":
        tracer.count("sde.path_steps", result.times.size - 1)
    elif name == "race.simulate_pattern_race":
        source = "markov" if type(args[1]).__name__ == "MarkovChain" else "iid"
        tracer.count(f"race.{source}_trial_steps", result.min_time.value * result.min_time.n)
        tracer.count("race.trials", result.n_trials)
        tracer.count("race.truncated", result.n_truncated)
        return source
    elif name == "renewal_equation.solve_renewal_equation":
        tracer.count("renewal_equation.nodes", result.times.size)
    return None


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []          # [id, name, start, end, parent, op, tag]
        self.counters = defaultdict(float)
        self.op = None
        self._stack = []
        self._undo = []

    # -- recording ----------------------------------------------------------

    def count(self, name, amount=1):
        self.counters[name] += amount

    def _open(self, name):
        span = [len(self.spans), name, time.perf_counter(), None,
                self._stack[-1][0] if self._stack else None, self.op, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        tracer = self
        child = KERNEL_SPANS.get(name)

        def traced(*args, **kwargs):
            if child is not None:
                args = (tracer._wrap(args[0], child),) + args[1:]
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            span[6] = _count_result(tracer, name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def install(self, extra=()):
        """Wrap every traced function; ``extra`` holds (object, attribute,
        replacement) triples set for the same duration."""
        for module_name, attr, name in TRACED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = getattr(cls, meth)
                self._set(cls, meth, self._wrap(original, name))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            self._set(module, attr, wrapper)
            for other_name, other in list(sys.modules.items()):
                if other is module or not other_name.startswith("jumpkit"):
                    continue
                if getattr(other, attr, None) is original:
                    self._set(other, attr, wrapper)
        for obj, attr, value in extra:
            self._set(obj, attr, value)

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- summaries ----------------------------------------------------------

    def summary(self, ops):
        """Per span name: calls, total and self seconds, over spans of ``ops``."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span[4] is not None:
                child_time[span[4]] += span[3] - span[2]
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span in self.spans:
            if span[5] not in ops:
                continue
            entry = out[span[1]]
            duration = span[3] - span[2]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[span[0]]
        return dict(out)

    def tagged_total(self, name, tag):
        return sum(s[3] - s[2] for s in self.spans if s[1] == name and s[6] == tag)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write("%d\t%s\t%.9f\t%.9f\t%s\t%s\n" % (
                    span[0], span[1], span[2], span[3],
                    "" if span[4] is None else span[4], span[5]))


def counting_callable(tracer, fn, calls, scalars=None, elements=None):
    """Wrap a cost callable to count calls, scalar calls and elements."""

    def counted(*args):
        x = args[1]
        tracer.count(calls)
        if scalars is not None and np.ndim(x) == 0:
            tracer.count(scalars)
        if elements is not None:
            tracer.count(elements, np.size(x))
        return fn(*args)

    return counted
