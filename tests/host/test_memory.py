"""`HostMemory` at its edges: the last byte, one past it, page seams and
pages nobody wrote.  The per-access bounds test and page split are on
every DMA's path, so the rewrite that shortens them is held to these."""

import pytest

from repro.host import HostMemory, PAGE_SIZE
from repro.host.memory import PAGE_SHIFT
from repro.pcie import PcieError

SIZE = 4 * PAGE_SIZE


@pytest.fixture
def memory():
    return HostMemory("dram", size=SIZE)


def test_page_size_is_one_shift():
    assert PAGE_SIZE == 1 << PAGE_SHIFT == 4096


@pytest.mark.parametrize("length", [1, 64, PAGE_SIZE, PAGE_SIZE + 7])
def test_access_ending_exactly_at_size(memory, length):
    data = bytes(range(1, 256)) * (length // 255 + 1)
    data = data[:length]
    memory.handle_write(SIZE - length, data)
    assert memory.handle_read(SIZE - length, length) == data


@pytest.mark.parametrize("address,length", [
    (SIZE - 63, 64),            # one byte past the end
    (SIZE, 1),                  # starts at the end
    (SIZE - PAGE_SIZE - 3, PAGE_SIZE + 4),   # straddles, then overruns
    (-1, 4),                    # below the window
])
def test_access_outside_raises_the_same_text(memory, address, length):
    message = f"access [{address:#x}+{length}] outside dram"
    with pytest.raises(PcieError) as read_error:
        memory.handle_read(address, length)
    with pytest.raises(PcieError) as write_error:
        memory.handle_write(address, bytes(length))
    assert str(read_error.value) == str(write_error.value) == message
    # A refused access is not counted and touches no page.
    assert memory.stats_reads == memory.stats_writes == 0
    assert memory.resident_bytes == 0


def test_write_straddling_a_page_boundary_lands_on_both_pages(memory):
    data = bytes(range(100, 164))
    memory.handle_write(PAGE_SIZE - 24, data)
    assert memory.resident_bytes == 2 * PAGE_SIZE
    assert memory.handle_read(PAGE_SIZE - 24, 24) == data[:24]
    assert memory.handle_read(PAGE_SIZE, 40) == data[24:]
    assert memory.handle_read(PAGE_SIZE - 25, 66) == b"\0" + data + b"\0"


def test_read_straddling_a_written_and_an_unwritten_page(memory):
    memory.handle_write(2 * PAGE_SIZE - 8, b"\xff" * 8)
    assert memory.handle_read(2 * PAGE_SIZE - 8, 16) == b"\xff" * 8 + bytes(8)
    memory.handle_write(3 * PAGE_SIZE, b"\xee" * 8)
    assert (memory.handle_read(2 * PAGE_SIZE - 8, PAGE_SIZE + 16)
            == b"\xff" * 8 + bytes(PAGE_SIZE) + b"\xee" * 8)
    # Reading the hole between them did not materialize it.
    assert memory.resident_bytes == 2 * PAGE_SIZE


def test_never_written_pages_read_as_zeros_and_stay_absent(memory):
    assert memory.handle_read(0, 64) == bytes(64)
    assert memory.handle_read(PAGE_SIZE - 1, 2 * PAGE_SIZE + 2) \
        == bytes(2 * PAGE_SIZE + 2)
    assert memory.resident_bytes == 0
    assert memory.stats_reads == 2


def test_access_that_exactly_fills_a_page_takes_the_one_page_path(memory):
    page = bytes(range(256)) * (PAGE_SIZE // 256)
    memory.handle_write(PAGE_SIZE, page)
    assert memory.resident_bytes == PAGE_SIZE
    assert memory.handle_read(PAGE_SIZE, PAGE_SIZE) == page
    assert memory.handle_read(2 * PAGE_SIZE - 1, 1) == page[-1:]


@pytest.mark.parametrize("address", [2, 10])
def test_negative_length_read_raises_the_bounds_text(memory, address):
    memory.handle_write(0, b"abcdef")
    with pytest.raises(PcieError) as error:
        memory.read_local(address, -1)
    assert str(error.value) == f"access [{address:#x}+-1] outside dram"
    assert memory.stats_reads == 0


def test_empty_write_touches_no_page(memory):
    memory.write_local(PAGE_SIZE - 2, b"")
    memory.write_local(0, b"")
    assert memory.resident_bytes == 0
    assert memory.stats_writes == 2
    assert memory.read_local(PAGE_SIZE - 2, 0) == b""
