"""The flat ZUC kernel against the specification-literal oracle.

``zuc_oracle.OracleZuc`` is the per-function form of the specification;
``repro.accelerators.zuc.Zuc`` must give the same words whatever the key,
IV, length and the way the words are asked for.  The EEA3 / EIA3 cases
cover what their big-integer forms can get wrong: bit lengths short of
the buffer, not a multiple of 8, and zero.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.accelerators.zuc import Zuc, eea3_encrypt, eia3_mac
from repro.accelerators.zuc.eea3 import eea3_keystream
from repro.accelerators.zuc.zuc_core import D, S0, S1

from .zuc_oracle import OracleZuc, eea3_reference, eia3_reference, load_key

blocks = st.binary(min_size=16, max_size=16)


def test_constant_tables():
    """The oracle shares S0, S1 and D with the kernel, so an edited entry
    would move both.  What the specification says of them: the S-boxes
    are permutations of a byte and d0..d14 are the fifteen rotations of
    one 15-bit word; the digest pins the exact tables the specification's
    test vectors (``test_zuc.py``) were passed with."""
    assert sorted(S0) == sorted(S1) == list(range(256))
    rotations = {((D[0] << k) | (D[0] >> (15 - k))) & 0x7FFF
                 for k in range(15)}
    assert set(D[:15]) == rotations and len(rotations) == 15
    digest = hashlib.sha256(S0 + S1 + b"".join(
        d.to_bytes(2, "big") for d in D)).hexdigest()
    assert digest == ("bc43be76267398971d92f0d796d1a322"
                      "de9d0e3e870efb6dbe1c183d5e02ec15")


class TestKeystreamAgainstOracle:
    @given(key=blocks, iv=blocks, words=st.integers(0, 96))
    @settings(max_examples=40, deadline=None)
    def test_same_words(self, key, iv, words):
        assert Zuc(key, iv).keystream(words) \
            == OracleZuc(key, iv).keystream(words)

    @pytest.mark.parametrize("fill", [0x00, 0xFF])
    def test_2000_words_of_the_specification_vectors(self, fill):
        """Long runs from the two keys the specification starts with:
        the all-FF one keeps LFSR cells at or next to 2^31 - 1, where
        the single reduction and the end-around carries could part."""
        key = iv = bytes([fill]) * 16
        assert Zuc(key, iv).keystream(2000) \
            == OracleZuc(key, iv).keystream(2000)

    def test_zero_feedback_is_stored_as_all_ones(self):
        """A key/IV (found by search) whose very first feedback is
        0 mod 2^31 - 1, one chance in 2^31 otherwise: the cell stored is
        2^31 - 1, and the bit reorganization reads its bits."""
        key = bytes.fromhex("6b0d315e1ae5cd4927b4cf67111da5f5")
        iv = bytes.fromhex("7f621811016dfaedcb3a456aacd7f343")
        first = OracleZuc.__new__(OracleZuc)
        first._lfsr, first._r1, first._r2 = load_key(key, iv), 0, 0
        x0, x1, x2, _x3 = first._bit_reorganization()
        first._lfsr_init_mode(first._f(x0, x1, x2) >> 1)
        assert first._lfsr[15] == 0x7FFFFFFF
        assert Zuc(key, iv).keystream(64) == OracleZuc(key, iv).keystream(64)

    @given(key=blocks, iv=blocks, a=st.integers(0, 40),
           b=st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_calls_concatenate(self, key, iv, a, b):
        zuc = Zuc(key, iv)
        assert zuc.keystream(a) + zuc.keystream(b) \
            == Zuc(key, iv).keystream(a + b)

    @given(key=blocks, iv=blocks,
           plan=st.lists(st.integers(0, 9), max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_next_word_interleaves_with_keystream(self, key, iv, plan):
        """0 in the plan asks for one word through ``next_word``, n > 0
        for n through ``keystream``; the oracle answers one at a time."""
        zuc, oracle = Zuc(key, iv), OracleZuc(key, iv)
        for step in plan:
            got = zuc.keystream(step) if step else [zuc.next_word()]
            assert got == [oracle.next_word() for _ in got]

    @given(key=blocks, iv=blocks, nbytes=st.integers(0, 70))
    @settings(max_examples=25, deadline=None)
    def test_keystream_bytes(self, key, iv, nbytes):
        assert Zuc(key, iv).keystream_bytes(nbytes) \
            == OracleZuc(key, iv).keystream_bytes(nbytes)


#: (message length, nbits): short of the buffer, not a multiple of 8,
#: both, none, one bit, a word boundary, and nothing at all.
BIT_LENGTHS = [(40, 320), (40, 96), (40, 193), (5, 33), (1, 1), (8, 32),
               (4, 31), (9, 0), (0, 0)]


class TestBitLengths:
    KEY = bytes(range(16))

    @pytest.mark.parametrize("length,nbits", BIT_LENGTHS)
    def test_eea3(self, length, nbits):
        message = bytes(range(255, 255 - length, -1))
        assert eea3_encrypt(self.KEY, 9, 3, 1, message, nbits=nbits) \
            == eea3_reference(self.KEY, 9, 3, 1, message, nbits)

    @pytest.mark.parametrize("length,nbits", BIT_LENGTHS)
    def test_eia3(self, length, nbits):
        message = bytes(range(255, 255 - length, -1))
        assert eia3_mac(self.KEY, 9, 3, 1, message, nbits=nbits) \
            == eia3_reference(self.KEY, 9, 3, 1, message, nbits)

    @given(key=blocks, message=st.binary(max_size=80), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_bit_length(self, key, message, data):
        nbits = data.draw(st.integers(0, 8 * len(message)))
        assert eea3_encrypt(key, 1, 2, 0, message, nbits=nbits) \
            == eea3_reference(key, 1, 2, 0, message, nbits)
        assert eia3_mac(key, 1, 2, 0, message, nbits=nbits) \
            == eia3_reference(key, 1, 2, 0, message, nbits)

    def test_eea3_keystream_rounds_up_to_words(self):
        assert len(eea3_keystream(self.KEY, 0, 0, 0, 33)) == 8
        assert eea3_keystream(self.KEY, 0, 0, 0, 0) == b""
