"""Outside-in layer trace of one `resilient-marl run`.

The program is not edited. While a :class:`Tracer` is installed, the names
that ``resilient_marl.engine`` and ``resilient_marl.cli`` imported, plus a
few ``Mdp`` and ``TrajectoryLog`` methods, are replaced by wrappers that
time each call. A wrapper keeps one child-time accumulator per open call,
so a layer's self time is its calls' wall time minus the time spent in
wrapped calls beneath them. Spans are aggregated on the fly (self time and
call count per layer) rather than kept one by one: a traced run makes
hundreds of thousands of calls.
"""
from __future__ import annotations

import time

from resilient_marl import cli, engine
from resilient_marl.engine import TrajectoryLog
from resilient_marl.mdp import Mdp

# layer -> the (owner, attribute) pairs whose calls are charged to it
LAYERS = {
    "mdp.transition": [(engine, "sample_transition"), (Mdp, "rewards_at"), (Mdp, "sample_rewards")],
    "mdp.oracle": [(engine, "global_return"), (engine, "stationary_distribution")],
    "agents.select": [(engine, "select_action")],
    "agents.update": [
        (engine, "policy_probs"),
        (engine, "td_error"),
        (engine, "critic_local_step"),
        (engine, "actor_step"),
    ],
    "consensus.trim": [(engine, "trim")],
    "consensus.combine": [(engine, "consensus_combine")],
    "consensus.adversary": [(engine, "adversary_message")],
    "engine.metrics": [(engine, "compute_metrics")],
    "engine.self": [(cli, "run")],
    "cli.write": [(cli, "run_experiment")],
    "config.build": [(cli, "build_simulation")],
}


class Tracer:
    """Per-layer self time and call counts, plus trim and log counters.

    Use as a context manager: the wrappers are installed on entry and the
    original attributes restored on exit, whatever happens in between.
    """

    def __init__(self):
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.rows_logged = 0
        self.trim_events = 0
        self.received_coords = 0
        self.retained_coords = 0
        self._open = [0]  # child time of each open wrapped call, outermost first
        self._saved = []

    def _timed(self, layer, fn):
        self_ns, calls, open_ = self.self_ns, self.calls, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            open_.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[layer] += elapsed - open_.pop()
                calls[layer] += 1
                open_[-1] += elapsed

        return traced

    def _trim(self, fn):
        def trim_counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.received_coords += result.mask.size
            self.retained_coords += int(result.mask.sum())
            return result

        return trim_counted

    def _counted(self, counter, fn):
        def counted(*args, **kwargs):
            setattr(self, counter, getattr(self, counter) + 1)
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, name, wrapper):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapper(original))

    def __enter__(self):
        for layer, targets in LAYERS.items():
            for owner, name in targets:
                self._patch(owner, name, lambda fn, layer=layer: self._timed(layer, fn))
        # the mask count runs inside the timed trim call's parent, not in trim
        self._patch(engine, "trim", self._trim)
        self._patch(TrajectoryLog, "add_row", lambda fn: self._counted("rows_logged", fn))
        self._patch(TrajectoryLog, "add_trim_event", lambda fn: self._counted("trim_events", fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False
