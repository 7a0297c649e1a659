"""Unit and property tests for the crypto substrate (block cipher, OCB, providers)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.blockcipher import BLOCK_SIZE, BlockCipher, gf_double, xor_bytes
from repro.crypto.ocb import NONCE_SIZE, TAG_SIZE, Ocb
from repro.crypto.provider import (
    FastProvider,
    NullProvider,
    OcbProvider,
    _NonceCounter,
    clone_provider,
)
from repro.errors import AuthenticationError, ConfigurationError

KEY = b"0123456789abcdef0123456789abcdef"

#: Ciphertexts captured from the reference implementation before the
#: performance work (offset hoisting, big-int XOR); any byte drift here means
#: an optimization changed the cipher, not just its speed.
OCB_GOLDEN = {
    1: "e6ac14ebbc942c965f408d6fe2b1a4e830",
    16: "609d5037013a44a30bdfba24c024a72a38ee58ec9f0e93c5874687433ac0a3e4",
    33: "b32d698f297b6beffbd8a858f77fa5c0ae1c62061d2c4a4c5e2867b678741900"
        "517aaea809cd08e2850edc96c0a7dd2cd4",
    65: "b32d698f297b6beffbd8a858f77fa5c0ae1c62061d2c4a4c5e2867b678741900"
        "7064097e539e5d9a70dfb9e168e67bcbbe6c9052ac12b20d3c2866b08858da42"
        "c1f9d9eab1eedeb04f850e1c376bb395c6",
}


class TestBlockCipher:
    def test_roundtrip(self):
        cipher = BlockCipher(KEY)
        block = bytes(range(16))
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_wrong_block_size_rejected(self):
        cipher = BlockCipher(KEY)
        with pytest.raises(ConfigurationError):
            cipher.encrypt_block(b"short")
        with pytest.raises(ConfigurationError):
            cipher.decrypt_block(b"x" * 17)

    def test_short_key_rejected(self):
        with pytest.raises(ConfigurationError):
            BlockCipher(b"short")

    def test_permutation_is_injective_on_sample(self):
        cipher = BlockCipher(KEY)
        inputs = [i.to_bytes(16, "big") for i in range(256)]
        outputs = {cipher.encrypt_block(b) for b in inputs}
        assert len(outputs) == 256

    def test_different_keys_differ(self):
        block = bytes(16)
        assert BlockCipher(KEY).encrypt_block(block) != BlockCipher(
            KEY[::-1]
        ).encrypt_block(block)

    @settings(max_examples=80)
    @given(st.binary(min_size=16, max_size=16))
    def test_roundtrip_property(self, block):
        cipher = BlockCipher(KEY)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


class TestGfDouble:
    def test_shifts_left(self):
        assert gf_double((1).to_bytes(16, "big")) == (2).to_bytes(16, "big")

    def test_reduction_on_overflow(self):
        top = (1 << 127).to_bytes(16, "big")
        assert gf_double(top) == (0x87).to_bytes(16, "big")

    def test_xor_bytes(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"


class TestOcb:
    def nonce(self, i=1):
        return i.to_bytes(NONCE_SIZE, "big")

    @pytest.mark.parametrize("size", [1, 15, 16, 17, 31, 32, 33, 100])
    def test_roundtrip_various_sizes(self, size):
        ocb = Ocb(KEY)
        plaintext = bytes(range(256))[:size] or b"\x00"
        ciphertext = ocb.encrypt(self.nonce(), plaintext)
        assert len(ciphertext) == size + TAG_SIZE
        assert ocb.decrypt(self.nonce(), ciphertext) == plaintext

    def test_tamper_detection_every_byte(self):
        ocb = Ocb(KEY)
        ciphertext = bytearray(ocb.encrypt(self.nonce(), b"secret join tuple!"))
        for i in range(len(ciphertext)):
            corrupted = bytearray(ciphertext)
            corrupted[i] ^= 0x01
            with pytest.raises(AuthenticationError):
                ocb.decrypt(self.nonce(), bytes(corrupted))

    def test_wrong_nonce_fails_authentication(self):
        ocb = Ocb(KEY)
        ciphertext = ocb.encrypt(self.nonce(1), b"payload-bytes")
        with pytest.raises(AuthenticationError):
            ocb.decrypt(self.nonce(2), ciphertext)

    def test_same_plaintext_different_nonces_differ(self):
        ocb = Ocb(KEY)
        assert ocb.encrypt(self.nonce(1), b"decoy!") != ocb.encrypt(self.nonce(2), b"decoy!")

    def test_deterministic_under_same_nonce(self):
        ocb = Ocb(KEY)
        assert ocb.encrypt(self.nonce(), b"abc") == ocb.encrypt(self.nonce(), b"abc")

    def test_random_access_offset_matches_sequential(self):
        """Section 4.4.1: Z[i] reachable by applying f i times from Z[0]."""
        ocb = Ocb(KEY)
        nonce = self.nonce(9)
        sequential = ocb._offsets(nonce, 8)
        for i in range(8):
            assert ocb.offset(nonce, i) == sequential[i]

    def test_empty_message_rejected(self):
        with pytest.raises(ConfigurationError):
            Ocb(KEY).encrypt(self.nonce(), b"")

    def test_truncated_ciphertext_rejected(self):
        with pytest.raises(AuthenticationError):
            Ocb(KEY).decrypt(self.nonce(), b"short")

    @pytest.mark.parametrize("size", sorted(OCB_GOLDEN))
    def test_golden_vectors(self, size):
        """The micro-optimized OCB is byte-identical to the reference."""
        ciphertext = Ocb(KEY).encrypt(self.nonce(7), bytes(range(size)))
        assert ciphertext.hex() == OCB_GOLDEN[size]

    @settings(max_examples=60)
    @given(st.binary(min_size=1, max_size=64), st.integers(min_value=1, max_value=2**64))
    def test_roundtrip_property(self, plaintext, nonce_value):
        ocb = Ocb(KEY)
        nonce = nonce_value.to_bytes(NONCE_SIZE, "big")
        assert ocb.decrypt(nonce, ocb.encrypt(nonce, plaintext)) == plaintext


@pytest.mark.parametrize("provider_cls", [OcbProvider, FastProvider, NullProvider])
class TestProviders:
    def test_roundtrip(self, provider_cls):
        provider = provider_cls(KEY)
        assert provider.decrypt(provider.encrypt(b"hello tuple")) == b"hello tuple"

    def test_semantic_security(self, provider_cls):
        """Two encryptions of the same plaintext must be byte-distinct."""
        provider = provider_cls(KEY)
        assert provider.encrypt(b"decoy") != provider.encrypt(b"decoy")

    def test_fixed_expansion(self, provider_cls):
        provider = provider_cls(KEY)
        c1 = provider.encrypt(b"a" * 24)
        c2 = provider.encrypt(b"b" * 24)
        assert len(c1) == len(c2) == 24 + provider.overhead

    def test_tamper_detection(self, provider_cls):
        provider = provider_cls(KEY)
        ciphertext = bytearray(provider.encrypt(b"join result payload"))
        ciphertext[-1] ^= 0xFF
        with pytest.raises(AuthenticationError):
            provider.decrypt(bytes(ciphertext))

    def test_too_short_ciphertext(self, provider_cls):
        provider = provider_cls(KEY)
        with pytest.raises(AuthenticationError):
            provider.decrypt(b"tiny")

    def test_empty_plaintext_rejected(self, provider_cls):
        """encrypt(b"") must fail loudly, matching OCB's split check, instead
        of emitting a ciphertext that cannot round-trip."""
        with pytest.raises(ConfigurationError):
            provider_cls(KEY).encrypt(b"")

    def test_tamper_detection_every_byte(self, provider_cls):
        """Nonce, body, or tag: one flipped bit anywhere must be detected."""
        provider = provider_cls(KEY)
        ciphertext = provider.encrypt(b"oTuple!!")
        for i in range(len(ciphertext)):
            corrupted = bytearray(ciphertext)
            corrupted[i] ^= 0x01
            with pytest.raises(AuthenticationError):
                provider.decrypt(bytes(corrupted))

    def test_clone_interoperates(self, provider_cls):
        """A clone decrypts the original's ciphertexts and vice versa."""
        provider = provider_cls(KEY)
        clone = clone_provider(provider)
        assert clone is not provider
        assert clone.decrypt(provider.encrypt(b"staged tuple")) == b"staged tuple"
        assert provider.decrypt(clone.encrypt(b"join output")) == b"join output"

    @settings(max_examples=40)
    @given(st.binary(min_size=1, max_size=512))
    def test_roundtrip_property(self, provider_cls, plaintext):
        provider = provider_cls(KEY)
        ciphertext = provider.encrypt(plaintext)
        assert len(ciphertext) == len(plaintext) + provider.overhead
        assert provider.decrypt(ciphertext) == plaintext


@pytest.mark.parametrize("provider_cls", [OcbProvider, FastProvider, NullProvider])
class TestNonceUniqueness:
    """Regression tests for the cross-instance nonce-reuse bug.

    Nonces must be unique per *key*: a counter restarting at 1 in every
    provider instance made any two same-key instances emit identical nonce
    sequences — a two-time pad for the keystream providers and a violation of
    OCB's security theorem.
    """

    @staticmethod
    def nonces(provider, count=64):
        return {provider.encrypt(b"x" * 8)[:NONCE_SIZE] for _ in range(count)}

    def test_same_key_instances_use_disjoint_nonces(self, provider_cls):
        first = self.nonces(provider_cls(KEY))
        second = self.nonces(provider_cls(KEY))
        assert len(first) == len(second) == 64
        assert not first & second



@pytest.mark.parametrize("provider_cls", [OcbProvider, FastProvider])
def test_two_time_pad_no_longer_reproduces(provider_cls):
    """Before the fix, same-key instances encrypting under colliding nonces
    leaked XOR(p1, p2) = XOR(c1, c2) from the keystream provider (NullProvider
    is excluded: it carries the plaintext in the clear by design)."""
    p1, p2 = b"attack at dawn!!", b"retreat at dusk!"
    c1 = provider_cls(KEY).encrypt(p1)
    c2 = provider_cls(KEY).encrypt(p2)
    body1 = c1[NONCE_SIZE:NONCE_SIZE + len(p1)]
    body2 = c2[NONCE_SIZE:NONCE_SIZE + len(p2)]
    pad = bytes(a ^ b for a, b in zip(body1, body2))
    assert pad != bytes(a ^ b for a, b in zip(p1, p2))


class TestNonceCounter:
    def test_monotone_within_instance(self):
        counter = _NonceCounter()
        drawn = [counter.next_nonce() for _ in range(256)]
        assert len(set(drawn)) == 256
        assert all(len(n) == NONCE_SIZE for n in drawn)

    def test_prefix_rotates_on_counter_exhaustion(self):
        import itertools

        counter = _NonceCounter()
        before = counter.next_nonce()[:_NonceCounter.PREFIX_SIZE]
        counter._counter = itertools.count(counter._limit)  # force overflow
        after = counter.next_nonce()
        assert after[:_NonceCounter.PREFIX_SIZE] != before
        # The rotated segment restarts its counter and keeps yielding.
        following = counter.next_nonce()
        assert following[:_NonceCounter.PREFIX_SIZE] == after[:_NonceCounter.PREFIX_SIZE]
        assert following != after


def test_clone_provider_refuses_uncloneable_provider():
    class Bare:
        def encrypt(self, plaintext):
            return plaintext

        def decrypt(self, ciphertext):
            return ciphertext

    with pytest.raises(ConfigurationError):
        clone_provider(Bare())
