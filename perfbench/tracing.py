"""Call-boundary tracing of dpsqkd from outside the package.

A traced run rebinds public names at the module where their callers look
them up (``dpsqkd.session.detect``, ``dpsqkd.stations.mzi_pass``, ...) to a
wrapper that times the call. Per span name it keeps calls, busy time, self
time (busy minus the busy time of traced calls made inside it) and calls
that raised. Full spans are kept only for the first MAX_SPANS calls, so
memory stays bounded however long the run is.

A name missing from its module yields no span: later refactors may delete
``eve_*_hook``, ``round_unitary`` or the per-round ``CascadeConfig``, and the
affected metrics then read 0 instead of the run crashing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time

MAX_SPANS = 20_000


def _experiment_name(args) -> str:
    return getattr(args[0], "name", "unknown") if args else "unknown"


# (span name, module whose global is rebound, attribute, call -> name suffix)
SITES = (
    ("session.run_session", "dpsqkd.session", "run_session", None),
    ("session.run_session", "dpsqkd.cli", "run_session", None),
    ("session.make_eve", "dpsqkd.session", "make_eve", None),
    ("session.round_rng", "dpsqkd.session", "round_rng", None),
    ("session.run_round", "dpsqkd.session", "run_round", None),
    ("session.session_stats", "dpsqkd.session", "session_stats", None),
    ("session.sift", "dpsqkd.session", "sift", None),
    ("session.estimate_qber", "dpsqkd.session", "estimate_qber", None),
    ("stations.CascadeConfig", "dpsqkd.session", "CascadeConfig", None),
    ("stations.bob_prepare", "dpsqkd.session", "bob_prepare", None),
    ("stations.bob_measure", "dpsqkd.session", "bob_measure", None),
    ("stations.infer_bit", "dpsqkd.session", "infer_bit", None),
    ("stations.alice_energy_monitor", "dpsqkd.session", "alice_energy_monitor", None),
    ("stations.alice_sample_and_check", "dpsqkd.session", "alice_sample_and_check", None),
    ("stations.alice_decoy_replace", "dpsqkd.session", "alice_decoy_replace", None),
    ("optics.mzi_pass", "dpsqkd.stations", "mzi_pass", None),
    ("optics.detect", "dpsqkd.stations", "detect", None),
    ("optics.detect", "dpsqkd.session", "detect", None),
    ("optics.attenuate", "dpsqkd.session", "attenuate", None),
    ("optics.faraday_reflect", "dpsqkd.session", "faraday_reflect", None),
    ("channel.round_unitary", "dpsqkd.session", "round_unitary", None),
    ("channel.fiber_transmit", "dpsqkd.session", "fiber_transmit", None),
    ("channel.eve_forward_hook", "dpsqkd.session", "eve_forward_hook", None),
    ("channel.eve_backward_hook", "dpsqkd.session", "eve_backward_hook", None),
    ("cli.parse_config", "dpsqkd.cli", "parse_config", None),
    ("cli.run_experiment", "dpsqkd.cli", "run_experiment", _experiment_name),
    ("cli.emit", "dpsqkd.cli", "emit", None),
)


class _CallableProxy:
    """Stands in for a class: calls are traced, attribute reads delegate."""

    def __init__(self, target, call):
        self._target = target
        self._call = call

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class Tracer:
    """Aggregates and a bounded span log for every installed site."""

    def __init__(self):
        # name -> [calls, busy_ns, self_ns, errors]
        self.aggregates: dict[str, list[int]] = {}
        # (span id, parent span id or 0, operation index, name, start_ns, end_ns, raised)
        self.spans: list[tuple] = []
        self.operation = 0
        self.missing: list[str] = []
        self._stack: list[list[int]] = []
        self._ids = itertools.count(1)
        self._installed: list[tuple] = []

    def install(self) -> None:
        for name, module_name, attr, suffix in SITES:
            module = importlib.import_module(module_name)
            target = getattr(module, attr, None)
            if target is None or not callable(target):
                self.missing.append(f"{module_name}.{attr}")
                continue
            traced = self._wrap(name, target, suffix)
            if inspect.isclass(target):
                traced = _CallableProxy(target, traced)
            else:
                functools.update_wrapper(traced, target)
            self._installed.append((module, attr, target))
            setattr(module, attr, traced)

    def restore(self) -> None:
        for module, attr, target in reversed(self._installed):
            setattr(module, attr, target)
        self._installed.clear()

    def _wrap(self, name, fn, suffix):
        aggregates = self.aggregates
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            key = name if suffix is None else f"{name}.{suffix(args)}"
            agg = aggregates.get(key)
            if agg is None:
                agg = aggregates[key] = [0, 0, 0, 0]
            frame = [0, next(ids)]
            stack.append(frame)
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                agg[3] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                busy = end - start
                agg[0] += 1
                agg[1] += busy
                agg[2] += busy - frame[0]
                parent = 0
                if stack:
                    stack[-1][0] += busy
                    parent = stack[-1][1]
                if len(spans) < MAX_SPANS:
                    spans.append((frame[1], parent, tracer.operation, key, start, end, raised))

        return traced

    def calls(self, name: str) -> int:
        return self.aggregates.get(name, (0,))[0]

    def us_per_call(self, name: str, self_time: bool = False) -> float:
        agg = self.aggregates.get(name)
        if not agg or not agg[0]:
            return 0.0
        return (agg[2] if self_time else agg[1]) / agg[0] / 1e3

    def busy_s(self, name: str) -> float:
        agg = self.aggregates.get(name)
        return agg[1] / 1e9 if agg else 0.0

    def errors(self, name: str) -> int:
        agg = self.aggregates.get(name)
        return agg[3] if agg else 0
