"""Per-tuple encryption providers used by hosts, coprocessors, and parties.

All traffic between the data providers, the host ``H`` and the secure
coprocessor ``T`` is encrypted tuple-by-tuple (Section 3.2).  The algorithms
only need three properties from the scheme, captured by the
:class:`CryptoProvider` interface:

* **semantic security** — two encryptions of the same plaintext (decoys!) are
  indistinguishable, implemented by drawing a fresh nonce per encryption;
* **authenticity** — decryption of a tampered ciphertext raises
  :class:`AuthenticationError` (Section 3.3.1);
* **fixed expansion** — equal-length plaintexts yield equal-length
  ciphertexts, preserving the *Fixed Size* principle.

Three implementations trade fidelity for speed:

* :class:`OcbProvider` — the paper's OCB mode, faithful structure;
* :class:`FastProvider` — SHAKE-256 keystream + truncated MAC, much faster,
  used for larger benchmark runs;
* :class:`NullProvider` — no confidentiality (checksum-only integrity), for
  cost-model validation runs where only access patterns and transfer counts
  matter.

Nonce uniqueness
----------------
Every scheme here is only semantically secure while nonces never repeat
*under a key*, not merely within one provider object: two providers sharing a
key (two ``JoinContext.fresh()`` calls with the default session key, a
restarted service, parallel workers) must not emit overlapping nonce
sequences.  A bare counter restarting at 1 per instance violates exactly
that — for the keystream providers the two streams cancel into a two-time
pad, and for OCB it voids the mode's security theorem.  :class:`_NonceCounter`
therefore prefixes each instance's counter with fresh random bytes, so
sequences from independent instances are disjoint except with negligible
probability (2^-64 per instance pair).
"""

from __future__ import annotations

import hashlib
import itertools
import os

from typing import Protocol, runtime_checkable

from repro.crypto.ocb import NONCE_SIZE, TAG_SIZE, Ocb
from repro.errors import AuthenticationError, ConfigurationError


@runtime_checkable
class CryptoProvider(Protocol):
    """Semantically secure authenticated encryption of byte strings."""

    #: Bytes added to every plaintext (nonce + tag).
    overhead: int

    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt under a fresh nonce; output is nonce || ciphertext || tag."""
        ...

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Decrypt and authenticate; raises AuthenticationError on tamper."""
        ...


class _NonceCounter:
    """Nonce sequence: per-instance random prefix || monotone counter.

    OCB (and the keystream schemes) require nonces unique per *key*; the
    random prefix keeps instances that share a key from colliding, while the
    counter keeps each instance trivially collision-free with itself.
    """

    PREFIX_SIZE = NONCE_SIZE // 2

    def __init__(self) -> None:
        self._prefix = os.urandom(self.PREFIX_SIZE)
        self._counter = itertools.count(1)
        self._limit = 1 << (8 * (NONCE_SIZE - self.PREFIX_SIZE))

    def next_nonce(self) -> bytes:
        value = next(self._counter)
        if value >= self._limit:
            # Counter segment exhausted (2^64 encryptions): rotate the prefix.
            self._prefix = os.urandom(self.PREFIX_SIZE)
            self._counter = itertools.count(2)
            value = 1
        return self._prefix + value.to_bytes(NONCE_SIZE - self.PREFIX_SIZE, "big")

    def next_nonces(self, count: int) -> list[bytes]:
        """Reserve ``count`` consecutive nonces in one call.

        The batch providers draw their per-message nonces through this so a
        batch costs one attribute lookup instead of one per message; rotation
        at the counter-segment boundary behaves exactly as in
        :meth:`next_nonce`.
        """
        width = NONCE_SIZE - self.PREFIX_SIZE
        out = []
        counter = self._counter
        prefix = self._prefix
        limit = self._limit
        for _ in range(count):
            value = next(counter)
            if value >= limit:
                prefix = self._prefix = os.urandom(self.PREFIX_SIZE)
                counter = self._counter = itertools.count(2)
                value = 1
            out.append(prefix + value.to_bytes(width, "big"))
        return out


def _xor(data: bytes, stream: bytes) -> bytes:
    """XOR equal-length byte strings via one big-int operation."""
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(len(data), "big")


#: Ranged ("span") cell layout used by :meth:`OcbProvider.encrypt_many`:
#: ``nonce(16) || body(len(plaintext)) || meta(4) || tag(12)``.  The meta
#: field is the message's keystream index *within its span* — deliberately
#: not bound to any host slot number, so host-side relocations
#: (``host_copy_into`` refills in the oblivious filter) keep decrypting.
#: Total expansion is NONCE_SIZE + TAG_SIZE, exactly the scalar cell's, so
#: equal-length plaintexts still yield equal-length cells whichever path
#: produced them (the Fixed Size principle).
_SPAN_META_SIZE = 4
_SPAN_TAG_SIZE = 12
_SPAN_TRAILER = _SPAN_META_SIZE + _SPAN_TAG_SIZE
_SPAN_KS_DOMAIN = b"ocb-span-keystream"
_SPAN_MAC_DOMAIN = b"ocb-span-mac"
#: Bound on the per-provider span-seed memo (nonce -> Z[0]); cleared when
#: exceeded so adversarial nonce streams cannot grow it without limit.
_SPAN_SEED_CACHE_LIMIT = 4096


class OcbProvider:
    """The paper's OCB authenticated encryption (Section 3.3.3).

    Ranged batch crypto
    -------------------
    :meth:`encrypt_many` amortizes the expensive per-message OCB setup over a
    whole span of messages, the Section 4.4.1 idea (one nonce covering a
    range of blocks, random-access offsets) applied at tuple granularity:

    * one fresh nonce ``I`` covers the span; the OCB base offset
      ``Z[0] = E_k(I xor E_k(0^n))`` is computed **once** (one block-cipher
      call instead of three per message);
    * message ``i`` is encrypted under the keystream
      ``SHAKE-256(domain || Z[0] || i)`` — ``Z[0]`` is a PRF output under the
      key, so distinct ``(I, i)`` pairs give independent pads;
    * each cell authenticates individually under a key-derived MAC (derived
      once in ``__init__``; the amortized key schedule), so single-cell
      decryption, reordering, and host-side relocation all keep working.

    The span tag is 12 bytes (vs. OCB's 16) to keep the cell expansion equal
    to the scalar path's; forgery probability is 2^-96 per attempt (see
    docs/THREAT_MODEL.md).  :meth:`decrypt` transparently accepts both cell
    kinds: a cheap span-tag check first, then the scalar OCB path — a
    tampered cell fails both and raises :class:`AuthenticationError`.
    """

    overhead = NONCE_SIZE + TAG_SIZE

    def __init__(self, key: bytes) -> None:
        self._key = key
        self._ocb = Ocb(key)
        self._nonces = _NonceCounter()
        self._span_mac_key = hashlib.sha256(_SPAN_MAC_DOMAIN + key).digest()
        self._span_seeds: dict[bytes, bytes] = {}

    def _span_seed(self, nonce: bytes) -> bytes:
        """``Z[0]`` for a span nonce, memoized so sibling cells pay nothing."""
        seed = self._span_seeds.get(nonce)
        if seed is None:
            if len(self._span_seeds) >= _SPAN_SEED_CACHE_LIMIT:
                self._span_seeds.clear()
            seed = self._ocb.base_offset(nonce)
            self._span_seeds[nonce] = seed
        return seed

    def encrypt_many(self, plaintexts) -> list[bytes]:
        """Encrypt a batch as one ranged span (see the class docstring)."""
        plaintexts = list(plaintexts)
        if not plaintexts:
            return []
        if len(plaintexts) > 0xFFFFFFFF:
            raise ConfigurationError("span batches are limited to 2^32 messages")
        for plain in plaintexts:
            if not plain:
                raise ConfigurationError("messages must be non-empty")
        nonce = self._nonces.next_nonce()
        ks_prefix = _SPAN_KS_DOMAIN + self._span_seed(nonce)
        mac_prefix = self._span_mac_key + nonce
        shake = hashlib.shake_256
        sha = hashlib.sha256
        xor = _xor
        cells = []
        for i, plain in enumerate(plaintexts):
            meta = i.to_bytes(_SPAN_META_SIZE, "big")
            body = xor(plain, shake(ks_prefix + meta).digest(len(plain)))
            tag = sha(mac_prefix + meta + body).digest()[:_SPAN_TAG_SIZE]
            cells.append(nonce + body + meta + tag)
        return cells

    def decrypt_many(self, ciphertexts) -> list[bytes]:
        """Decrypt a batch of cells (span or scalar, in any mixture)."""
        decrypt = self.decrypt
        return [decrypt(cell) for cell in ciphertexts]

    def _span_decrypt(self, ciphertext: bytes) -> bytes | None:
        """Decrypt a span cell, or None when the span tag does not verify."""
        nonce = ciphertext[:NONCE_SIZE]
        body = ciphertext[NONCE_SIZE:-_SPAN_TRAILER]
        meta = ciphertext[-_SPAN_TRAILER:-_SPAN_TAG_SIZE]
        tag = ciphertext[-_SPAN_TAG_SIZE:]
        expected = hashlib.sha256(
            self._span_mac_key + nonce + meta + body
        ).digest()[:_SPAN_TAG_SIZE]
        if expected != tag:
            return None
        keystream = hashlib.shake_256(
            _SPAN_KS_DOMAIN + self._span_seed(nonce) + meta
        ).digest(len(body))
        return _xor(body, keystream)

    def clone(self) -> "OcbProvider":
        """A fresh instance under the same key with its own nonce sequence.

        The unit an isolated join holds: ciphertexts interoperate (same
        key) while the fresh random nonce prefix keeps the clone's sequence
        disjoint from every other instance's — copying a live provider
        would replay its prefix *and* counter, re-creating
        exactly the cross-instance reuse :class:`_NonceCounter` exists to
        prevent.
        """
        return OcbProvider(self._key)

    def encrypt(self, plaintext: bytes) -> bytes:
        nonce = self._nonces.next_nonce()
        return nonce + self._ocb.encrypt(nonce, plaintext)

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) <= NONCE_SIZE + TAG_SIZE:
            raise AuthenticationError("ciphertext too short")
        plain = self._span_decrypt(ciphertext)
        if plain is not None:
            return plain
        nonce, body = ciphertext[:NONCE_SIZE], ciphertext[NONCE_SIZE:]
        return self._ocb.decrypt(nonce, body)


class FastProvider:
    """Keystream + MAC authenticated encryption (fast simulation substitute).

    The keystream is a single SHAKE-256 squeeze over (key || nonce) — one
    hash call per message instead of one SHA-256 per 32 bytes — and the
    plaintext/keystream XOR runs as one big-int operation.
    """

    overhead = NONCE_SIZE + TAG_SIZE

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise ConfigurationError("keys must be at least 16 bytes")
        self._key = key
        self._enc_key = hashlib.sha256(b"fast-enc" + key).digest()
        self._mac_key = hashlib.sha256(b"fast-mac" + key).digest()
        self._nonces = _NonceCounter()

    def clone(self) -> "FastProvider":
        """Same-key instance with an independent nonce sequence (see
        :meth:`OcbProvider.clone`)."""
        return FastProvider(self._key)

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        return hashlib.shake_256(self._enc_key + nonce).digest(length)

    def _mac(self, nonce: bytes, body: bytes) -> bytes:
        return hashlib.sha256(self._mac_key + nonce + body).digest()[:TAG_SIZE]

    def encrypt(self, plaintext: bytes) -> bytes:
        if not plaintext:
            raise ConfigurationError("messages must be non-empty")
        nonce = self._nonces.next_nonce()
        body = _xor(plaintext, self._keystream(nonce, len(plaintext)))
        return nonce + body + self._mac(nonce, body)

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) < NONCE_SIZE + TAG_SIZE + 1:
            raise AuthenticationError("ciphertext too short")
        nonce = ciphertext[:NONCE_SIZE]
        body = ciphertext[NONCE_SIZE:-TAG_SIZE]
        tag = ciphertext[-TAG_SIZE:]
        if self._mac(nonce, body) != tag:
            raise AuthenticationError("MAC mismatch: ciphertext was tampered with")
        return _xor(body, self._keystream(nonce, len(body)))

    def encrypt_many(self, plaintexts) -> list[bytes]:
        """Batch encryption; per-cell format identical to :meth:`encrypt`.

        The scheme is already two hash calls per message, so batching only
        amortizes nonce reservation and attribute lookups — no span format.
        """
        plaintexts = list(plaintexts)
        for plain in plaintexts:
            if not plain:
                raise ConfigurationError("messages must be non-empty")
        nonces = self._nonces.next_nonces(len(plaintexts))
        keystream = self._keystream
        mac = self._mac
        xor = _xor
        cells = []
        for nonce, plain in zip(nonces, plaintexts):
            body = xor(plain, keystream(nonce, len(plain)))
            cells.append(nonce + body + mac(nonce, body))
        return cells

    def decrypt_many(self, ciphertexts) -> list[bytes]:
        decrypt = self.decrypt
        return [decrypt(cell) for cell in ciphertexts]


class NullProvider:
    """No confidentiality; integrity via checksum.  For cost-only experiments.

    Encryptions still carry a fresh nonce so equal plaintexts remain
    byte-distinct (the property the algorithms rely on for decoys), but the
    plaintext is stored in the clear.
    """

    overhead = NONCE_SIZE + TAG_SIZE

    def __init__(self, key: bytes = b"") -> None:
        self._nonces = _NonceCounter()

    def clone(self) -> "NullProvider":
        return NullProvider()

    @staticmethod
    def _checksum(nonce: bytes, body: bytes) -> bytes:
        return hashlib.sha256(b"null" + nonce + body).digest()[:TAG_SIZE]

    def encrypt(self, plaintext: bytes) -> bytes:
        if not plaintext:
            raise ConfigurationError("messages must be non-empty")
        nonce = self._nonces.next_nonce()
        return nonce + plaintext + self._checksum(nonce, plaintext)

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) < NONCE_SIZE + TAG_SIZE + 1:
            raise AuthenticationError("ciphertext too short")
        nonce = ciphertext[:NONCE_SIZE]
        body = ciphertext[NONCE_SIZE:-TAG_SIZE]
        tag = ciphertext[-TAG_SIZE:]
        if self._checksum(nonce, body) != tag:
            raise AuthenticationError("checksum mismatch: ciphertext was tampered with")
        return body

    def encrypt_many(self, plaintexts) -> list[bytes]:
        plaintexts = list(plaintexts)
        for plain in plaintexts:
            if not plain:
                raise ConfigurationError("messages must be non-empty")
        nonces = self._nonces.next_nonces(len(plaintexts))
        checksum = self._checksum
        return [
            nonce + plain + checksum(nonce, plain)
            for nonce, plain in zip(nonces, plaintexts)
        ]

    def decrypt_many(self, ciphertexts) -> list[bytes]:
        decrypt = self.decrypt
        return [decrypt(cell) for cell in ciphertexts]


def encrypt_batch(provider: CryptoProvider, plaintexts) -> list[bytes]:
    """Batch-encrypt through ``encrypt_many`` when the provider has one.

    The default adapter of the ranged I/O layer: third-party providers that
    only implement the scalar :class:`CryptoProvider` surface keep working —
    they simply pay one :meth:`~CryptoProvider.encrypt` call per message.
    """
    many = getattr(provider, "encrypt_many", None)
    if many is not None:
        return many(plaintexts)
    encrypt = provider.encrypt
    return [encrypt(plain) for plain in plaintexts]


def decrypt_batch(provider: CryptoProvider, ciphertexts) -> list[bytes]:
    """Batch-decrypt through ``decrypt_many`` when the provider has one."""
    many = getattr(provider, "decrypt_many", None)
    if many is not None:
        return many(ciphertexts)
    decrypt = provider.decrypt
    return [decrypt(cell) for cell in ciphertexts]


def default_provider(key: bytes) -> CryptoProvider:
    """The provider algorithms use unless told otherwise (faithful OCB)."""
    return OcbProvider(key)


def clone_provider(provider: CryptoProvider) -> CryptoProvider:
    """A fresh same-key instance for an isolated join.

    Every built-in provider supports :meth:`clone`; a custom provider handed
    to :class:`~repro.core.service.JoinService` must too, because sharing the
    *same* instance (or a byte-copy of it) between concurrent joins would
    duplicate its nonce counter state.
    """
    clone = getattr(provider, "clone", None)
    if clone is None:
        raise ConfigurationError(
            f"{type(provider).__name__} cannot be cloned for an isolated "
            "join; implement clone() returning a same-key instance with a "
            "fresh nonce sequence"
        )
    return clone()
