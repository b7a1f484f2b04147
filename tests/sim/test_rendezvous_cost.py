"""Deterministic cost gate: what a hand-off between stages costs.

A stage waiting on a :class:`~repro.sim.Store` is a parked callable,
and a fabric write nobody waits on builds nothing to wait on, so a
packet crossing the whole FLD-E echo path allocates no
:class:`~repro.sim.Event` and steps no generator.  Function calls under
``cProfile`` repeat to the digit, so a stage that goes back to
``get().add_callback(...)``, a ``timeout`` or a ``Process`` fails here,
in tier-1, and not only in ``benchmarks/perf``'s ``sim.engine`` row.
The burst is ``tests/telemetry/test_span_cost.py``'s: warmed, paced
64 B frames through ``flde_echo_remote``, only the steady state
profiled.
"""

from repro.sim import Store

from ..telemetry.test_span_cost import FRAMES, profiled_burst

GENERATOR_SEND = "<method 'send' of 'generator' objects>"


def untraced_burst():
    return profiled_burst(None).stats


def calls(stats, filename, name):
    return sum(entry[1] for key, entry in stats.items()
               if key[0].endswith(filename) and key[2] == name)


def test_a_packet_builds_no_event_and_steps_no_generator():
    """Over the whole 128-packet burst here: 5 engine objects built
    (four ``Event``s, one ``Process``) and 4 generator ``send``s, all
    of them the burst's own ``drive`` script, and 3.0 ``is_full``
    frames a packet.  12.0 ``Event.__init__``, 4.0 ``send``s and 8.1
    ``is_full`` frames *a packet* when every wait was an Event, every
    accelerator unit a generator sending through a generator
    ``fld.send``, and every ``try_put`` asked ``is_full`` first."""
    stats = untraced_burst()
    assert calls(stats, "sim/engine.py", "__init__") < FRAMES
    assert calls(stats, "sim/engine.py", "is_full") <= 4 * FRAMES

    # The only process stepped is this test's driver: nothing on the
    # datapath is a generator.
    sends = [key for key in stats if key[2] == GENERATOR_SEND]
    stepped = {key[2] for key, entry in stats.items()
               if any(caller in entry[4] for caller in sends)}
    assert stepped == {"drive"}
    driver_steps = calls(stats, "test_span_cost.py", "drive")
    assert calls(stats, "sim/engine.py", "_step") <= driver_steps
    assert sum(stats[key][1] for key in sends) == driver_steps


def test_fullness_is_asked_only_where_a_put_could_be_refused(monkeypatch):
    """``try_put`` on an unbounded store, or on one with a consumer
    parked (the item goes straight through), skips ``is_full``."""
    asked = []
    is_full = Store.is_full

    def recording(store):
        asked.append((store.capacity, len(store._getters)))
        return is_full.fget(store)

    monkeypatch.setattr(Store, "is_full", property(recording))
    untraced_burst()
    assert asked
    assert all(capacity is not None and parked == 0
               for capacity, parked in asked)
