"""Lockstep oracle: the engine's scheduler vs a naive pure-heap one.

The engine pushes through three entry points (relative, with or
without an argument; absolute; Event timeouts), resumes processes
through Events, and stops its run loop at a horizon.  It dispatches an
entry where it lies at the heap's top, and the handler's first push
replaces it (a *hold*).  The claim is that it dispatches in *exactly*
``(time, seq)`` order — not approximately, not "up to ties" — whether a
handler pushes nothing, one entry or several, or raises.

This suite machine-checks the claim: hypothesis generates random
workload trees (mixed zero-delay and timed pushes, same-timestamp
bursts, pushes-during-dispatch, absolute-time ``schedule_at`` entries,
``run(until=...)`` horizons, raising handlers) and executes each one
through the real :class:`repro.sim.engine.Simulator` and through
``PureHeapScheduler``, a deliberately naive scheduler that pushes every
entry through ``heapq`` as a ``(time, seq, action)`` triple and pops it
before dispatching it.  The dispatch logs — ``(time, node)`` per fired
entry — the final clocks, the heap lengths and the profiler's depth
samples must be identical.
"""

import heapq
from functools import partial

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.telemetry.profile import SimProfiler


def budget(tier1_examples: int) -> int:
    """``max_examples`` for a lockstep case: shallow in tier-1, scaled
    by the loaded hypothesis profile (``--hypothesis-profile=ci`` is ten
    times tier-1's, see ``tests/conftest.py``)."""
    scale = (settings.default.max_examples
             / settings.get_profile("tier1").max_examples)
    return max(1, round(tier1_examples * scale))


#: Small delay alphabet with duplicates so same-timestamp bursts are
#: common, not a corner case.
DELAYS = [0.0, 0.0, 0.0, 1e-9, 1e-9, 2e-9, 5e-9, 1e-8]


class PureHeapScheduler:
    """A scheduler minimized: one heap, strict (time, seq) pops."""

    def __init__(self):
        self.now = 0.0
        self._queue = []
        self._seq = 0
        self.depths = []     # the heap's length after each pop

    def call_later(self, delay, action, *arg):
        heapq.heappush(self._queue, (self.now + delay, self._seq,
                                     partial(action, *arg)))
        self._seq += 1

    def schedule_at(self, time, action):
        assert time >= self.now
        heapq.heappush(self._queue, (time, self._seq, action))
        self._seq += 1

    def run(self, until=None):
        queue = self._queue
        while queue:
            time, _seq, action = queue[0]
            if until is not None and time > until:
                self.now = until
                return self.now
            heapq.heappop(queue)
            self.depths.append(len(queue))
            self.now = time
            action()
        if until is not None:
            self.now = max(self.now, until)
        return self.now


# A workload is a tree of nodes.  Each node carries (delay_index,
# via_timeout, children); firing a node logs its identity and schedules
# its children — pushes-during-dispatch by construction, none, one or
# several of them.  ``delay_index`` < 0 means schedule_at(now + |delay|)
# instead of a relative push, which is one-argument ``call_later``.
workload_nodes = st.deferred(
    lambda: st.tuples(
        st.integers(min_value=-len(DELAYS), max_value=len(DELAYS) - 1),
        st.booleans(),
        st.lists(workload_nodes, max_size=3),
    )
)

workloads = st.lists(workload_nodes, min_size=1, max_size=6)


class HandlerFailed(Exception):
    """Raised by the handler a lockstep case chose to fail."""


def execute(sim, workload, log, label_path=(), raise_at=None):
    """Schedule ``workload``'s roots; children recurse on fire.  With
    ``raise_at=(fire, pushed)``, the ``fire``-th handler pushes its first
    ``pushed`` children only, then raises :class:`HandlerFailed`."""

    def fire(node, path):
        delay_index, via_timeout, children = node
        log.append((round(sim.now, 15), path))
        fails = raise_at is not None and len(log) - 1 == raise_at[0]
        for i, child in enumerate(children[:raise_at[1]] if fails
                                  else children):
            schedule_node(child, path + (i,))
        if fails:
            raise HandlerFailed(path)

    def fire_entry(node_path):
        fire(*node_path)

    def schedule_node(node, path):
        delay_index, via_timeout, children = node
        if delay_index < 0:
            sim.schedule_at(sim.now + DELAYS[-delay_index - 1],
                            lambda n=node, p=path: fire(n, p))
        elif via_timeout and hasattr(sim, "timeout"):
            # Event-mediated push: timeout + callback, the generator idiom.
            event = sim.timeout(DELAYS[delay_index])
            event.add_callback(lambda _e, n=node, p=path: fire(n, p))
        else:
            sim.call_later(DELAYS[delay_index], fire_entry, (node, path))

    for i, node in enumerate(workload):
        schedule_node(node, label_path + (i,))


@settings(max_examples=budget(6), deadline=None)
@given(workload=workloads, horizon=st.sampled_from([None, 0.0, 1.5e-9,
                                                    4e-9, 1e-7]))
def test_lockstep_dispatch_order(workload, horizon):
    real, real_log = Simulator(), []
    ref, ref_log = PureHeapScheduler(), []
    execute(real, workload, real_log)
    execute(ref, workload, ref_log)
    real_end = real.run(until=horizon)
    ref_end = ref.run(until=horizon)
    assert real_log == ref_log
    assert real_end == ref_end
    assert real.now == ref.now


@settings(max_examples=budget(4), deadline=None)
@given(workload=workloads)
def test_lockstep_resumed_runs(workload):
    """Multiple run(until=...) segments agree too — the run loop must
    stop and resume correctly at every horizon, not just at quiesce."""
    real, real_log = Simulator(), []
    ref, ref_log = PureHeapScheduler(), []
    execute(real, workload, real_log)
    execute(ref, workload, ref_log)
    for until in (1e-9, 2e-9, 6e-9, None):
        real.run(until=until)
        ref.run(until=until)
        assert real_log == ref_log
    assert real.now == ref.now


def run_to_failure(sim):
    """``sim.run()``; whether a handler raised :class:`HandlerFailed`."""
    try:
        sim.run()
    except HandlerFailed:
        return True
    return False


@settings(max_examples=budget(6), deadline=None)
@given(workload=workloads, fire=st.integers(min_value=0, max_value=8),
       pushed=st.integers(min_value=0, max_value=3))
def test_lockstep_a_raising_handler(workload, fire, pushed):
    """A handler that raises takes its entry with it, whether it pushed
    nothing first (its entry still held at the top, popped by ``run``'s
    ``finally``) or some of its children (the first push replaced it).
    The entry is counted, and the next run dispatches the rest in
    ``(time, seq)`` order."""
    real, real_log = Simulator(), []
    ref, ref_log = PureHeapScheduler(), []
    execute(real, workload, real_log, raise_at=(fire, pushed))
    execute(ref, workload, ref_log, raise_at=(fire, pushed))
    raised = run_to_failure(real)
    assert raised == run_to_failure(ref)
    assert real_log == ref_log and real.now == ref.now
    assert real.stats_events == len(real_log)
    assert len(real._queue) == len(ref._queue)
    if raised:
        real.run()
        ref.run()
        assert real_log == ref_log and real.now == ref.now
        assert real.stats_events == len(real_log) and not real._queue


# -- mixed-kind oracle: continuations, Event timeouts, processes ---------
#
# The engine's event kinds (plain entries, Event timeouts, generator
# processes) must interleave exactly as the single-heap model
# dispatches the same pushes.  Each node is
# (kind, delay_index, aux_index, children):
#
#   kind 0  call_later(d)
#   kind 1  schedule_at(now + d)
#   kind 2  timeout(d) + add_callback   (the generator-free Event idiom)
#   kind 3  a spawned generator process: two timed resumes, children
#           scheduled from the first (pushes-during-resume)
#
# The reference mirrors each kind's *scheduler entry* sequence: spawn is
# one zero-delay entry, every yield one timed entry.

mixed_nodes = st.deferred(
    lambda: st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=len(DELAYS) - 1),
        st.integers(min_value=0, max_value=len(DELAYS) - 1),
        st.lists(mixed_nodes, max_size=3),
    )
)

mixed_workloads = st.lists(mixed_nodes, min_size=1, max_size=6)


def execute_mixed(sim, workload, log, is_real):
    """Schedule a mixed-kind workload on the real engine or the
    pure-heap reference; ``log`` records every actual fire."""

    def fire(node, path):
        log.append((round(sim.now, 15), path))
        for i, child in enumerate(node[3]):
            schedule_node(child, path + (i,))

    def schedule_node(node, path):
        kind, delay_index, aux_index, _children = node
        delay = DELAYS[delay_index]
        if kind == 0:
            sim.call_later(delay, lambda n=node, p=path: fire(n, p))
        elif kind == 1:
            sim.schedule_at(sim.now + delay,
                            lambda n=node, p=path: fire(n, p))
        elif kind == 2:
            if is_real:
                event = sim.timeout(delay)
                event.add_callback(lambda _e, n=node, p=path: fire(n, p))
            else:
                sim.call_later(delay, lambda n=node, p=path: fire(n, p))
        else:  # kind 3: generator process with two timed resumes
            second_delay = DELAYS[aux_index]
            if is_real:
                def proc(n=node, p=path):
                    yield sim.timeout(delay)
                    fire(n, p + ("r1",))
                    yield sim.timeout(second_delay)
                    log.append((round(sim.now, 15), p + ("r2",)))

                sim.spawn(proc())
            else:
                def resume2(p=path):
                    log.append((round(sim.now, 15), p + ("r2",)))

                def resume1(n=node, p=path):
                    fire(n, p + ("r1",))
                    sim.call_later(second_delay, resume2)

                def step(n=node):
                    sim.call_later(DELAYS[n[1]], resume1)

                sim.call_later(0.0, step)

    for i, node in enumerate(workload):
        schedule_node(node, (i,))


@settings(max_examples=budget(6), deadline=None)
@given(workload=mixed_workloads, horizon=st.sampled_from([None, 0.0,
                                                          1.5e-9, 4e-9,
                                                          1e-7]))
def test_lockstep_mixed_kinds(workload, horizon):
    """Continuations, Event timeouts and processes dispatch in exactly
    the single-heap order."""
    real, real_log = Simulator(), []
    ref, ref_log = PureHeapScheduler(), []
    execute_mixed(real, workload, real_log, is_real=True)
    execute_mixed(ref, workload, ref_log, is_real=False)
    real_end = real.run(until=horizon)
    ref_end = ref.run(until=horizon)
    assert real_log == ref_log
    assert real_end == ref_end
    assert real.now == ref.now


@settings(max_examples=budget(4), deadline=None)
@given(workload=mixed_workloads)
def test_lockstep_mixed_kinds_resumed_runs(workload):
    """Horizon-segmented runs agree for the mixed-kind alphabet too —
    suspended processes must survive a run(until=...) boundary without
    reordering."""
    real, real_log = Simulator(), []
    ref, ref_log = PureHeapScheduler(), []
    execute_mixed(real, workload, real_log, is_real=True)
    execute_mixed(ref, workload, ref_log, is_real=False)
    for until in (1e-9, 2e-9, 6e-9, None):
        real.run(until=until)
        ref.run(until=until)
        assert real_log == ref_log
    assert real.now == ref.now



@settings(max_examples=budget(4), deadline=None)
@given(workload=mixed_workloads)
def test_lockstep_profiler_depth(workload):
    """The profiler samples the heap's depth less the entry it is about
    to dispatch, which the engine holds at the top: the naive heap's
    length after its pop."""
    profiler = SimProfiler(depth_sample_every=1)
    real, real_log = Simulator(profiler=profiler), []
    ref, ref_log = PureHeapScheduler(), []
    execute_mixed(real, workload, real_log, is_real=True)
    execute_mixed(ref, workload, ref_log, is_real=False)
    real.run()
    ref.run()
    assert real_log == ref_log
    assert [depth for _index, depth in profiler.depth_samples] == ref.depths
