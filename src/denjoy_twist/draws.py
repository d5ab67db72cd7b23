"""The program's sampling stream: numpy's ``default_rng(seed)``, bit for bit.

numpy's SeedSequence hashing, its PCG64 (XSL-RR 128/64) and the Generator
draws the program makes. numpy.random itself would load OpenSSL through
`secrets`: about 5.5 MB and 12 ms in every process that draws. Scalar draws
step the state on Python ints; array draws form their states by jump-ahead,
128-bit affine maps in uint64 limbs.
"""

import math
import operator

import numpy as np

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645   # PCG64's 128-bit multiplier
_BLOCK = 2**14                               # states per array pass


def _seed_words(seed: int) -> tuple:
    """(state, increment) of numpy's SeedSequence(seed).generate_state(4, uint64)."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> b & _M32 for b in range(0, max(seed.bit_length(), 1), 32)]
    h = 0x43B0D7E5

    def hashmix(v, mult=0x931E8875):
        nonlocal h
        v ^= h
        h = h * mult & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for i in range(4):
        for j in range(4):
            if i != j:
                pool[j] = mix(pool[j], hashmix(pool[i]))
    for w in words[4:]:
        for j in range(4):
            pool[j] = mix(pool[j], hashmix(w))
    h = 0x8B51F9DD
    out = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
    s0, s1, i0, i1 = (out[k] | out[k + 1] << 32 for k in (0, 2, 4, 6))
    return s0 << 64 | s1, i0 << 64 | i1


def _affine(hi, lo, a: int, c: int):
    """(a s + c) mod 2**128 for the states s = hi 2**64 + lo, in uint64 limbs."""
    x0, x1 = lo & _M32, lo >> 32
    a0, a1 = a & _M32, a >> 32 & _M32
    p0, p1, q0 = x0 * a0, x1 * a0, x0 * a1
    mid = (p0 >> 32) + (p1 & _M32) + (q0 & _M32)
    h = (x1 * a1 + (p1 >> 32) + (q0 >> 32) + (mid >> 32)
         + hi * (a & _M64) + lo * (a >> 64))
    low = lo * (a & _M64) + (c & _M64)
    return h + (c >> 64) + (low < (c & _M64)), low


def _xsl_rr(hi, lo):
    """PCG64's output word of each state, XOR the halves and rotate right."""
    v, rot = hi ^ lo, hi >> 58
    return v >> rot | v << (64 - rot & 63)


class Generator:
    """The draws of numpy's ``Generator(PCG64(seed))`` the program makes."""

    def __init__(self, seed: int):
        s, i = _seed_words(seed)
        self._inc = (i << 1 | 1) & _M128
        self._state = ((self._inc + s) * _MULT + self._inc) & _M128
        self._half = None                    # PCG64's buffered upper 32-bit word

    def _next64(self) -> int:
        self._state = s = (self._state * _MULT + self._inc) & _M128
        return _xsl_rr(s >> 64, s & _M64) & _M64

    def _next64_many(self, n: int) -> np.ndarray:
        out = np.empty(n, np.uint64)
        if not n:
            return out
        a, c = _MULT, self._inc              # x -> a x + c advances len(hi) states
        hi, lo = _affine(np.array([self._state >> 64], np.uint64),
                         np.array([self._state & _M64], np.uint64), a, c)
        first = min(n, _BLOCK)
        while len(hi) < first:               # double up to the first block
            h, low = _affine(hi[:first - len(hi)], lo[:first - len(hi)], a, c)
            hi, lo = np.concatenate([hi, h]), np.concatenate([lo, low])
            a, c = a * a & _M128, (a * c + c) & _M128
        for i in range(0, n, _BLOCK):
            if i:
                hi, lo = _affine(hi[:n - i], lo[:n - i], a, c)
            out[i:i + len(hi)] = _xsl_rr(hi, lo)
        self._state = int(hi[-1]) << 64 | int(lo[-1])
        return out

    def _next32(self) -> int:
        if self._half is not None:
            w, self._half = self._half, None
            return w
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def _words32(self, n: int) -> np.ndarray:
        """The next n 32-bit words as uint64, the buffered word first."""
        head = [self._next32()] if n and self._half is not None else []
        x = self._next64_many((n - len(head) + 1) // 2)
        w = np.concatenate([np.array(head, np.uint64),
                            np.stack([x & _M32, x >> 32], axis=1).ravel()])
        if len(w) > n:
            self._half = int(w[-1])
        return w[:n]

    def random(self, size=None):
        """Doubles on [0, 1): the top 53 bits of an output word, times 2**-53."""
        if size is None:
            return (self._next64() >> 11) * 2.0**-53
        shape = tuple(size) if isinstance(size, tuple) else (operator.index(size),)
        return ((self._next64_many(math.prod(shape)) >> 11) * 2.0**-53).reshape(shape)

    def uniform(self, low: float, high: float) -> float:
        low, high = float(low), float(high)
        return low + (high - low) * self.random()

    def integers(self, low: int, high: int, size=None):
        """Integers on [low, high): Lemire's method on 32-bit words (int64)."""
        low, high = operator.index(low), operator.index(high)
        span = high - low
        if not 0 < span <= _M32:
            raise ValueError(f"integers: [{low}, {high}) is empty or spans 2**32 or more")
        if span == 1:                        # numpy draws nothing for one value
            return low if size is None else np.full(size, low, np.int64)
        thr = 2**32 % span                   # a word is redrawn below this
        if size is None:
            m = self._next32() * span
            while m & _M32 < thr:
                m = self._next32() * span
            return low + (m >> 32)
        out, left = [np.empty(0, np.uint64)], operator.index(size)
        while left:
            m = self._words32(left) * np.uint64(span)
            out.append(m[m & _M32 >= thr] >> 32)
            left -= len(out[-1])
        return low + np.concatenate(out).astype(np.int64)


def default_rng(seed: int) -> Generator:
    """The generator numpy's ``np.random.default_rng(seed)`` would give."""
    return Generator(seed)
