"""Counter-based deterministic randomness for reproducible simulation.

Coupling from the past must reuse its past: the draw attached to time -t
has to come out identical in every epoch that reaches back that far.  A
counter-based generator gives that for free, since each draw depends
only on (seed, stream, t) and never on query order.

The stream's format is decided here alone: the key (:func:`keyed_hash`),
the counter (``COUNTER``), the acceptance bound (:func:`acceptance_bound`)
and rejection (:meth:`CellSampler.cell_at`).  A caller that hashes the
attempt-0 word itself must hand every rejected word to ``cell_at``.
"""

from __future__ import annotations

from hashlib import blake2b
from struct import Struct

_WORD = 64  # bits hashed out per attempt
_KEY = Struct(">QQ")  # (seed mod 2**64, stream mod 2**64), big-endian
COUNTER = Struct(">QI")  # (t mod 2**64, attempt), big-endian


def keyed_hash(seed: int, stream: int):
    """The blake2b keyed by ``(seed, stream)``; a word is a copy of it
    updated with one packed counter."""
    return blake2b(key=_KEY.pack(seed % 2**64, stream % 2**64),
                   digest_size=_WORD // 8)


def acceptance_bound(L: int) -> int:
    """The largest multiple of ``L`` at most ``2**64``: a word below it
    gives the cell ``word % L``, one at or above it is rejected."""
    if L <= 0:
        raise ValueError(f"grid size {L} must be positive")
    if L > 2**_WORD:  # no word could be accepted: cell_at would spin
        raise ValueError(f"grid size {L} exceeds 2**{_WORD}")
    return (2**_WORD // L) * L


class CellSampler:
    """Uniform draws over ``{0, ..., L-1}``, addressable by time index.

    ``cell_at(t)`` is a pure function of ``(seed, stream, t)``; repeated
    and out-of-order queries agree bit for bit, and nothing is stored
    between them.  Each word is a keyed blake2b of the 12-byte counter
    ``(t, attempt)``; the keyed state is built once per sampler and
    copied per word, which hashes exactly the bytes a fresh keyed hash
    would, so the stream does not depend on it.  Rejection sampling
    removes the modulo bias exactly, so every cell has probability
    ``1/L`` under the uniform-output model of the hash.
    """

    def __init__(self, L: int, seed: int, stream: int = 0):
        self._bound = acceptance_bound(L)
        self._L = L
        self._keyed = keyed_hash(seed, stream)

    @property
    def L(self) -> int:
        return self._L

    def cell_at(self, t: int) -> int:
        attempt = 0
        while True:
            h = self._keyed.copy()
            h.update(COUNTER.pack(t % 2**64, attempt))
            draw = int.from_bytes(h.digest(), "big")
            if draw < self._bound:  # else rejected: top sliver of the range
                return draw % self._L
            attempt += 1
