"""Property: host memory's page access is a flat byte array.

Random writes and reads over a few pages — within one page, straddling
page seams, empty, and of pages nobody wrote — read back exactly what a
flat ``bytearray`` of the same size holds, and the resident pages are
exactly the pages that non-empty writes touched.
"""

from hypothesis import example, given, settings, strategies as st

from repro.host import HostMemory, PAGE_SIZE

PAGES = 4
SIZE = PAGES * PAGE_SIZE

#: An address and a length that stay inside the window; lengths run
#: past a page so some accesses cross two or three seams.
spans = st.integers(0, SIZE).flatmap(
    lambda address: st.tuples(st.just(address),
                              st.integers(0, min(SIZE - address,
                                                 2 * PAGE_SIZE + 64))))
#: Addresses that sit near a page seam, where the split happens.
seams = st.tuples(
    st.integers(1, PAGES - 1).flatmap(
        lambda page: st.integers(page * PAGE_SIZE - 16,
                                 page * PAGE_SIZE + 16)),
    st.integers(0, 64))
ops = st.lists(st.tuples(st.booleans(), st.one_of(spans, seams),
                         st.integers(0, 255)), max_size=40)


@given(ops)
@example([(True, (PAGE_SIZE - 2, 0), 7),           # empty, at a seam
          (False, (3 * PAGE_SIZE, 64), 0),         # an untouched page
          (True, (PAGE_SIZE - 8, 16), 9),          # straddles one seam
          (False, (PAGE_SIZE - 16, PAGE_SIZE + 32), 0)])
@settings(deadline=None)
def test_pages_read_back_like_a_flat_array(ops):
    memory = HostMemory("dram", size=SIZE)
    flat = bytearray(SIZE)
    touched = set()
    for write, (address, length), fill in ops:
        if write:
            data = bytes((fill + i) & 0xFF for i in range(length))
            memory.write_local(address, data)
            flat[address:address + length] = data
            if length:
                touched.update(range(address // PAGE_SIZE,
                                     (address + length - 1) // PAGE_SIZE + 1))
        else:
            assert memory.read_local(address, length) \
                == bytes(flat[address:address + length])
    assert sorted(memory._pages) == sorted(touched)
    assert memory.resident_bytes == len(touched) * PAGE_SIZE
    assert memory.read_local(0, SIZE) == bytes(flat)
    assert memory.stats_writes == sum(write for write, _span, _fill in ops)
