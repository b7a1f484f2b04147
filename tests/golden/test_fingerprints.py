"""Each case of :mod:`tests.golden.fingerprints` against its entry.

A mismatch names the fields that moved.  If the move is intended,
regenerate the case's entry (see that module) and review the diff.
"""

import pytest

from .fingerprints import ABSENT, CASES, entries, fingerprint, report


def test_every_entry_is_a_case():
    assert sorted(entries()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fingerprint(name):
    lines = report(name, entries().get(name, ABSENT), fingerprint(name))
    assert not lines, "a pinned result moved:\n" + "\n".join(lines)
