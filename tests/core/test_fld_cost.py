"""Deterministic cost gate: an FLD packet pays only for its translations.

Each FLD stage an echoed frame crosses is one frame that computes its
own bookkeeping: send admission (``_send_credited``), the pipeline
submit (``TxRingManager.submit``), the NIC's data read
(``FlexDriver.handle_read`` straight into the gather), the send
completion (``on_send_completion``), the rx-buffer write
(``FlexDriver.handle_write``) and the rx CQE (``RxRingManager.deliver``).
The BAR is decoded by offset comparisons in the handlers, not by a
``core/bar.py`` object, and what they still call is the work: cuckoo
probes, pool and credit operations, ``Struct`` packs.  Shaped like
``tests/nic/test_rc_cost.py``; the burst is
``tests/net/test_frame_cost.py``'s warmed paced 64 B FLD-E echo.
"""

import pytest

from ..net.test_frame_cost import FRAMES, calls, profiled_echo

CORE = "/repro/core/"

#: Helpers whose work now happens in the stage that called them.
FOLDED = {
    ("fld.py", "_launch"), ("fld.py", "_submit"), ("tx.py", "queue"),
    ("tx.py", "_ring_nic"), ("tx.py", "handle_data_read"),
    ("rx.py", "binding"), ("rx.py", "buffer_size"),
    ("rx.py", "_full_desc_index"), ("rx.py", "handle_buffer_write"),
    ("translation.py", "resolve"), ("translation.py", "chunks_per_window"),
    ("translation.py", "free_slots"), ("buffers.py", "free_chunks"),
    ("buffers.py", "chunks_for"), ("buffers.py", "read"),
}


@pytest.fixture(scope="module")
def stats():
    return profiled_echo()


def core_calls(stats):
    """Calls of ``repro/core`` functions, plus the builtins they call."""
    total = 0
    for (filename, _line, _name), (_prim, ncalls, _tt, _ct, callers) \
            in stats.stats.items():
        if CORE in filename:
            total += ncalls
        elif filename == "~":
            total += sum(counts[1] for caller, counts in callers.items()
                         if CORE in caller[0])
    return total


def test_no_bar_object_and_no_folded_helper_runs(stats):
    seen = {(filename.rsplit("/", 1)[-1], name)
            for filename, _line, name in stats.stats
            if CORE in filename}
    assert not {entry for entry in seen if entry[0] == "bar.py"}
    assert not seen & FOLDED


def test_fld_does_not_count_cycles_through_its_config(stats):
    """Delays are ``n / clock_hz`` in the stage (``FldConfig.cycles``
    stays for the accelerators' processing times)."""
    for (filename, _line, name), (*_counts, callers) in stats.stats.items():
        if filename.endswith("core/fld.py") and name == "cycles":
            assert not any(CORE in caller[0] for caller in callers)


def test_translations_per_echo(stats):
    # Descriptor slot + one data chunk mapped at submit, the data chunk
    # translated once by the NIC's read, both released at completion.
    assert calls(stats, "core/cuckoo.py", "insert") == 2 * FRAMES
    assert calls(stats, "core/cuckoo.py", "lookup") == 1 * FRAMES
    assert calls(stats, "core/cuckoo.py", "remove") == 2 * FRAMES


def test_core_calls_per_echo(stats):
    """62.1 ``repro/core`` calls an echo here (own frames and the
    builtins they call); 100.1 when every BAR access built a
    ``BarRegion``, chunk counts and cycle delays were helper calls
    recomputed per stage, pool levels were properties and the data
    gather read each chunk through ``resolve``/``BufferPool.read``."""
    assert core_calls(stats) / FRAMES <= 64
