"""Plain-key random streams, derived many at a time.

np.random.default_rng(key) with a tuple of non-negative ints hashes the key
through SeedSequence and seeds a PCG64 from four of its words.  Building a
generator that way costs about 25 us, which dominates a loop that draws a
few numbers from each of thousands of keys (*prefix, i).  plain_key_words
runs the same hash for a whole range of i in one numpy pass, and generators
sets one reused Generator to each derived state in turn, so every draw is
bit for bit the one default_rng((*prefix, i)) would give.

The derivation follows numpy's SeedSequence (pool of four 32-bit words) and
PCG64 seeding.  All word arithmetic is uint32 and wraps.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# SeedSequence's hash and mixing constants
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341

_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
# the last key word is taken as one 32-bit word
MAX_INDEX = 1 << 32
# rows hashed together, and rows turned into Python ints at a time
_CHUNK = 1024
_BLOCK = 64


class StreamMismatch(RuntimeError):
    """A derived stream differs from the one default_rng builds for its key."""


def _int_words(value: int) -> list[int]:
    """SeedSequence's words of a non-negative int: 32-bit, least significant first."""
    if value < 0:
        raise ValueError(f"key entries must be non-negative, got {value}")
    words = []
    while True:
        words.append(value & _MASK32)
        value >>= 32
        if not value:
            return words


def _hashmix(value: np.ndarray, h: int) -> tuple[np.ndarray, int]:
    value = value ^ np.uint32(h)
    h = (h * _MULT_A) & _MASK32
    value = value * np.uint32(h)
    return value ^ (value >> np.uint32(16)), h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> np.uint32(16))


def _pcg64_state(words) -> tuple[int, int]:
    """(state, inc) of a PCG64 seeded with generate_state(4, uint64) words."""
    s_hi, s_lo, i_hi, i_lo = words
    inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
    return ((((s_hi << 64) | s_lo) + inc) * _PCG_MULT + inc) & _MASK128, inc


def _check(words: np.ndarray, key: tuple[int, ...]) -> None:
    want = np.random.default_rng(key).bit_generator.state["state"]
    got = _pcg64_state([int(w) for w in words])
    if got != (want["state"], want["inc"]):
        raise StreamMismatch(
            f"derived PCG64 state of key {key} differs from numpy's default_rng; "
            "this numpy seeds its generators differently"
        )


def plain_key_words(prefix: tuple[int, ...], start: int, stop: int) -> np.ndarray:
    """Seed words of the streams default_rng((*prefix, i)) for i in start..stop-1.

    Row r holds SeedSequence((*prefix, start + r)).generate_state(4, uint64),
    shape (stop - start, 4): 32 bytes per stream, and the hash works on
    _CHUNK rows at a time.  The first row is checked against default_rng,
    and a mismatch raises StreamMismatch rather than let any stream differ.
    """
    if not 0 <= start <= stop <= MAX_INDEX:
        raise ValueError(f"need 0 <= start <= stop <= 2**32, got {start}, {stop}")
    fixed = [w for v in prefix for w in _int_words(int(v))]
    words = np.empty((stop - start, 4), dtype=np.uint64)
    for first in range(start, stop, _CHUNK):
        last = min(first + _CHUNK, stop)
        _hash_into(words[first - start:last - start], fixed, first, last)
    if stop > start:
        _check(words[0], (*prefix, start))
    return words


def _hash_into(out: np.ndarray, fixed: list[int], start: int, stop: int) -> None:
    """Write the seed words of keys (*fixed, i), i in start..stop-1, to out."""
    count = stop - start
    # every key word is fixed but the last, i; i = 0 is the single word [0]
    entropy = [np.full(count, w, dtype=np.uint32) for w in fixed]
    entropy.append(np.arange(start, stop, dtype=np.uint64).astype(np.uint32))
    zero = np.zeros(count, dtype=np.uint32)

    h = _INIT_A
    pool = []
    for j in range(_POOL_SIZE):
        word, h = _hashmix(entropy[j] if j < len(entropy) else zero, h)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], word)
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            word, h = _hashmix(entropy[src], h)
            pool[dst] = _mix(pool[dst], word)

    hb = _INIT_B
    for k in range(8):  # generate_state(4, uint64): word pairs, low word first
        v = pool[k % _POOL_SIZE] ^ np.uint32(hb)
        hb = (hb * _MULT_B) & _MASK32
        v = v * np.uint32(hb)
        v = (v ^ (v >> np.uint32(16))).astype(np.uint64)
        if k % 2:
            out[:, k // 2] |= v << np.uint64(32)
        else:
            out[:, k // 2] = v


def generators(words: np.ndarray) -> Iterator[np.random.Generator]:
    """One Generator set in turn to the stream of each row of words.

    The same object is yielded every time, so draw from it before advancing.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    pcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for first in range(0, len(words), _BLOCK):
        for row in words[first:first + _BLOCK].tolist():
            pcg["state"], pcg["inc"] = _pcg64_state(row)
            bit_generator.state = full
            yield rng
