"""ZUC cipher validation against the ETSI/SAGE specification vectors."""

import pytest

from repro.accelerators.zuc import (
    Zuc,
    eea3_decrypt,
    eea3_encrypt,
    eia3_mac,
)


class TestZucKeystream:
    """Test vectors from the ZUC specification (Document 3)."""

    def test_all_zero_key_iv(self):
        zuc = Zuc(bytes(16), bytes(16))
        assert zuc.keystream(2) == [0x27BEDE74, 0x018082DA]

    def test_all_ff_key_iv(self):
        zuc = Zuc(b"\xff" * 16, b"\xff" * 16)
        assert zuc.keystream(2) == [0x0657CFA0, 0x7096398B]

    def test_random_key_iv_vector(self):
        key = bytes.fromhex("3d4c4be96a82fdaeb58f641db17b455b")
        iv = bytes.fromhex("84319aa8de6915ca1f6bda6bfbd8c766")
        zuc = Zuc(key, iv)
        assert zuc.keystream(2) == [0x14F1C272, 0x3279C419]

    def test_keystream_bytes_truncates(self):
        zuc = Zuc(bytes(16), bytes(16))
        assert zuc.keystream_bytes(5) == bytes.fromhex("27bede7401")

    def test_bad_key_size_rejected(self):
        with pytest.raises(ValueError):
            Zuc(bytes(15), bytes(16))
        with pytest.raises(ValueError):
            Zuc(bytes(16), bytes(17))

    def test_deterministic(self):
        a = Zuc(bytes(range(16)), bytes(range(16, 32))).keystream(8)
        b = Zuc(bytes(range(16)), bytes(range(16, 32))).keystream(8)
        assert a == b


class TestEea3:
    """128-EEA3 test sets from the specification (Document 3)."""

    def test_test_set_1(self):
        ck = bytes.fromhex("173d14ba5003731d7a60049470f00a29")
        plaintext = bytes.fromhex(
            "6cf65340735552ab0c9752fa6f9025fe0bd675d9005875b200000000"
            "0000000000"
        )
        expected = bytes.fromhex(
            "a6c85fc66afb8533aafc2518dfe784940ee1e4b030238cc800000000"
            "0000000000"
        )
        out = eea3_encrypt(ck, 0x66035492, 0xF, 0, plaintext, nbits=193)
        assert out == expected

    def test_test_set_2(self):
        ck = bytes.fromhex("e5bd3ea0eb55ade866c6ac58bd54302a")
        count, bearer, direction, nbits = 0x56823, 0x18, 1, 800
        plaintext = bytes.fromhex(
            "14a8ef693d678507bbe7270a7f67ff5006c3525b9807e467c4e56000"
            "ba338f5d429559036751822246c80d3b38f07f4be2d8ff5805f51322"
            "29bde93bbbdcaf382bf1ee972fbf9977bada8945847a2a6c9ad34a66"
            "7554e04d1f7fa2c33241bd8f01ba220d"
        )
        expected = bytes.fromhex(
            "131d43e0dea1be5c5a1bfd971d852cbf712d7b4f57961fea3208afa8"
            "bca433f456ad09c7417e58bc69cf8866d1353f74865e80781d202dfb"
            "3ecff7fcbc3b190fe82a204ed0e350fc0f6f2613b2f2bca6df5a473a"
            "57a4a00d985ebad880d6f23864a07b01"
        )
        out = eea3_encrypt(ck, count, bearer, direction, plaintext,
                           nbits=nbits)
        assert out == expected

    def test_roundtrip(self):
        key = bytes(range(16))
        message = b"round trip of an arbitrary payload" * 10
        ciphertext = eea3_encrypt(key, 1, 2, 0, message)
        assert ciphertext != message
        assert eea3_decrypt(key, 1, 2, 0, ciphertext) == message

    def test_direction_matters(self):
        key = bytes(range(16))
        a = eea3_encrypt(key, 1, 2, 0, b"x" * 64)
        b = eea3_encrypt(key, 1, 2, 1, b"x" * 64)
        assert a != b

    def test_count_matters(self):
        key = bytes(range(16))
        assert (eea3_encrypt(key, 1, 2, 0, b"x" * 64)
                != eea3_encrypt(key, 2, 2, 0, b"x" * 64))

    def test_invalid_bearer_rejected(self):
        with pytest.raises(ValueError):
            eea3_encrypt(bytes(16), 0, 32, 0, b"x")

    def test_nbits_exceeding_message_rejected(self):
        with pytest.raises(ValueError):
            eea3_encrypt(bytes(16), 0, 0, 0, b"x", nbits=9)


class TestEia3:
    """128-EIA3 test sets from the specification (Document 3)."""

    def test_test_set_1(self):
        assert eia3_mac(bytes(16), 0, 0, 0, bytes(1), nbits=1) == 0xC8A9595E

    def test_test_set_2(self):
        ik = bytes.fromhex("47054125561eb2dda94059da05097850")
        assert eia3_mac(ik, 0x561EB2DD, 0x14, 0, bytes(12),
                        nbits=90) == 0x6719A088

    def test_test_set_3(self):
        ik = bytes.fromhex("c9e6cec4607c72db000aefa88385ab0a")
        message = bytes.fromhex(
            "983b41d47d780c9e1ad11d7eb70391b1de0b35da2dc62f83e7b78d63"
            "06ca0ea07e941b7be91348f9fcb170e2217fecd97f9f68adb16e5d7d"
            "21e569d280ed775cebde3f4093c53881000000000000000000"
        )
        assert eia3_mac(ik, 0xA94059DA, 0xA, 1, message,
                        nbits=577) == 0xFAE8FF0B

    def test_a_changed_message_changes_the_mac(self):
        key = bytes(range(16))
        message = b"authenticated message"
        mac = eia3_mac(key, 5, 1, 0, message)
        assert eia3_mac(key, 5, 1, 0, message + b"!") != mac

    def test_key_matters(self):
        message = b"m" * 32
        assert (eia3_mac(bytes(16), 0, 0, 0, message)
                != eia3_mac(bytes([1] * 16), 0, 0, 0, message))
