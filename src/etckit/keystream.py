"""Keyed deterministic randomness: 64-bit streams, permutations, key-space sizing.

Every quantity the cipher consumes (block permutations, orientation codes,
inversion bits, channel-shuffle indices) is a pure function of the 64-bit
master key and a small integer step tag, so independent implementations can
reproduce ciphertexts bit for bit. The generator is SplitMix64; it is chosen
for portability and golden-vector testability, NOT as production-grade
cryptography. A deployment would swap in a standard KDF plus CSPRNG behind
the same interface.

SplitMix64 is counter-based: the k-th output (k = 1, 2, ...) of a stream
started at ``seed`` is ``mix(seed + k*gamma) mod 2**64``, with ``gamma`` the
golden-ratio increment and ``mix`` the output finalizer. So ``n`` draws are
one numpy ``uint64`` expression (:meth:`StepStream.next_u64_array`), and a
stream's state after them is simply ``seed + n*gamma``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Fixed stream tags, one per cipher step.
TAG_SCRAMBLE = 0
TAG_ROTATE_FLIP = 1
TAG_NEGPOS = 2
TAG_COLOR_SHUFFLE = 3
TAG_TEMPLATE = 100

# Step names, each drawing from the tag above of the same name.
SCRAMBLE = "scramble"
ROTATE_FLIP = "rotate_flip"
NEGPOS = "negpos"
COLOR_SHUFFLE = "color_shuffle"

# Application order is fixed; decryption undoes steps in reverse.
STEP_ORDER = (SCRAMBLE, ROTATE_FLIP, NEGPOS, COLOR_SHUFFLE)

STEP_LETTERS = {SCRAMBLE: "s", ROTATE_FLIP: "r", NEGPOS: "n", COLOR_SHUFFLE: "c"}
_LETTER_STEPS = {v: k for k, v in STEP_LETTERS.items()}

# Draws are made and turned into Python ints this many at a time, so the
# numpy temporaries stay small and no list but the result is as long as n.
_DRAW_CHUNK = 1 << 14

_KEY_RE = re.compile(r"^[0-9a-f]{16}$")


@dataclass(frozen=True)
class MasterKey:
    """64-bit secret from which all per-step streams derive."""

    seed: int

    def __post_init__(self):
        seed = int(self.seed)  # accept numpy integers; arithmetic needs Python ints
        if not 0 <= seed <= MASK64:
            raise ValueError(f"key must be a 64-bit unsigned value, got {seed:#x}")
        object.__setattr__(self, "seed", seed)

    @classmethod
    def from_hex(cls, text: str) -> "MasterKey":
        """Parse 16 lowercase hex characters (the key-file format, newline optional)."""
        token = text.strip()
        if not _KEY_RE.match(token):
            raise ValueError("key must be exactly 16 lowercase hex characters")
        return cls(int(token, 16))

    def to_hex(self) -> str:
        return f"{self.seed:016x}"


def splitmix_next(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns ``(new_state, output)``.

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

    All arithmetic wraps modulo 2**64.
    """
    state = (state + _GOLDEN) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def normalize_steps(steps) -> frozenset[str]:
    """Accept step names, single-letter codes, or 's,r,n,c' strings."""
    if steps is None:
        return frozenset()
    if isinstance(steps, str):
        text = steps.replace(",", "")
        names = []
        for ch in text:
            if ch not in _LETTER_STEPS:
                raise ValueError(f"unknown step letter {ch!r} (use s, r, n, c)")
            names.append(_LETTER_STEPS[ch])
        return frozenset(names)
    out = set()
    for s in steps:
        if s in STEP_LETTERS:
            out.add(s)
        elif s in _LETTER_STEPS:
            out.add(_LETTER_STEPS[s])
        else:
            raise ValueError(f"unknown step {s!r}")
    return frozenset(out)


def _mix64(z: int) -> int:
    # SplitMix64 output transform alone (no state increment).
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_step_seed(key: MasterKey, step_tag: int) -> int:
    """Seed for one step's stream: finalizer-mix of ``key XOR (tag+1)*golden``."""
    if step_tag < 0:
        raise ValueError(f"step_tag must be >= 0, got {step_tag}")
    return _mix64(key.seed ^ (((step_tag + 1) * _GOLDEN) & MASK64))


class StepStream:
    """A per-step generator advanced one 64-bit draw at a time."""

    __slots__ = ("step_tag", "state")

    def __init__(self, seed: int, step_tag: int = 0):
        self.step_tag = step_tag
        self.state = seed & MASK64

    @classmethod
    def for_step(cls, key: MasterKey, step_tag: int) -> "StepStream":
        return cls(derive_step_seed(key, step_tag), step_tag)

    def next_u64(self) -> int:
        self.state, out = splitmix_next(self.state)
        return out

    def next_u64_array(self, n: int) -> np.ndarray:
        """The next ``n`` outputs as a ``uint64`` array, equal to ``n`` calls
        of :meth:`next_u64`; the state advances by ``n * gamma``."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self.state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        self.state = (self.state + n * _GOLDEN) & MASK64
        return z


def _check_modulus(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > 1 << 32:
        raise ValueError(f"n must be <= 2**32, got {n}")


def uniform_below(stream: StepStream, n: int) -> int:
    """Next draw reduced modulo ``n``; advances the stream by exactly one draw.

    Modulo reduction carries a bias below 2**-32 for n <= 2**32, which is
    negligible for the alphabet sizes used here (2, 6, 8, block counts).
    """
    _check_modulus(n)
    return stream.next_u64() % n


def _draw_chunks(seed: int, n: int):
    """The first ``n`` draws of a stream seeded with ``seed``, as ``(start,
    uint64 array)`` pieces of at most ``_DRAW_CHUNK`` draws each."""
    stream = StepStream(seed)
    for start in range(0, n, _DRAW_CHUNK):
        yield start, stream.next_u64_array(min(_DRAW_CHUNK, n - start))


def gen_permutation(seed: int, n: int) -> list[int]:
    """Fisher-Yates shuffle of ``0..n-1`` driven by a stream seeded with ``seed``.

    For i from n-1 down to 1: j = uniform_below(i+1), swap positions i and j.
    The draws and their reductions are vectorised; only the swaps loop.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    perm = list(range(n))
    for start, js in _draw_chunks(seed, n - 1):
        hi = n - 1 - start
        lo = hi - js.size
        js %= np.arange(hi + 1, lo + 1, -1, dtype=np.uint64)
        for i, j in zip(range(hi, lo, -1), js.tolist()):
            perm[i], perm[j] = perm[j], perm[i]
    return perm


def gen_symbols(seed: int, n: int, alphabet: int) -> list[int]:
    """``n`` successive draws uniform over ``[0, alphabet)`` from one seeded stream."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    _check_modulus(alphabet)
    out: list[int] = []
    for _, draws in _draw_chunks(seed, n):
        draws %= np.uint64(alphabet)
        out += draws.tolist()
    return out


def keyspace_bits(n_blocks: int, steps, scheme: str = "color") -> float:
    """log2 of the brute-force key space for the enabled steps.

    Factors: scramble n!, rotate_flip 8**n, negpos 2**n, color_shuffle 6**n
    (color scheme only). Uses log-gamma so large block counts do not overflow.
    """
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    enabled = normalize_steps(steps)
    if COLOR_SHUFFLE in enabled and scheme != "color":
        raise ValueError("color_shuffle has no key-space factor outside the color scheme")
    bits = 0.0
    if SCRAMBLE in enabled:
        bits += math.lgamma(n_blocks + 1) / math.log(2.0)
    if ROTATE_FLIP in enabled:
        bits += 3.0 * n_blocks
    if NEGPOS in enabled:
        bits += 1.0 * n_blocks
    if COLOR_SHUFFLE in enabled:
        bits += n_blocks * math.log2(6.0)
    return bits


def parse_key_file(raw: bytes) -> MasterKey:
    """Key file: one line of 16 lowercase hex characters, newline-terminated."""
    return MasterKey.from_hex(raw.decode("ascii"))


def format_key_file(key: MasterKey) -> bytes:
    return (key.to_hex() + "\n").encode("ascii")
