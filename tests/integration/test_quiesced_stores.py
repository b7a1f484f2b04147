"""A quiesced testbed holds nothing in any ``Store``.

Every store a packet crosses has a consumer that drains it, so once a
row's traffic has drained and the testbed quiesces, no store of that
testbed holds an item.  (FLD's completion queues fed a ``notify`` store
that nothing drained — FLD reads each CQE as it lands in its BAR — and
it kept one item per completion: 40 after 40 echoes.)
"""

import gc

import pytest

from repro.scenario import run
from repro.sim import Store


@pytest.mark.parametrize("name", ["fig7b", "forwarding", "fldr", "fig8a"])
def test_no_store_holds_an_item_after_quiesce(name):
    _row, testbed = run(name, 40)
    assert testbed.quiesce() == []
    stores = [obj for obj in gc.get_objects()
              if isinstance(obj, Store) and obj.sim is testbed.sim]
    assert stores
    assert [(store.name, len(store)) for store in stores if len(store)] == []
