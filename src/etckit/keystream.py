"""Keyed deterministic randomness: keys, stream tags, SplitMix64 streams,
permutations, symbol runs and key files.

Every quantity the cipher and the template protection consume is a pure
function of the 64-bit master key and a small integer stream tag, so
independent implementations can reproduce ciphertexts bit for bit. Which step
draws from which tag is the cipher's step table, ``cipher.STEPS``. SplitMix64
is chosen for portability and golden-vector testability, NOT as
production-grade cryptography. A deployment would swap in a standard KDF plus
CSPRNG behind the same interface.

SplitMix64 is counter-based: the k-th output (k = 1, 2, ...) of a stream
started at ``seed`` is ``mix(seed + k*gamma) mod 2**64``, with ``gamma`` the
golden-ratio increment and ``mix`` the output finalizer. So a stream is just a
seed and a count: its first ``n`` draws are one numpy ``uint64`` expression
(:func:`draws`), and :func:`splitmix_next` states the same generator one
scalar step at a time. Permutations and symbol runs are built from those
draws as ``int64`` arrays by :func:`gen_permutation` and :func:`gen_symbols`,
the cipher's two draws; the Fisher-Yates swaps are resolved without a
per-element loop (:func:`resolve_swaps`).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Fixed stream tags, all distinct: one per cipher step (see cipher.STEPS), one for templates.
TAG_SCRAMBLE = 0
TAG_ROTATE_FLIP = 1
TAG_NEGPOS = 2
TAG_COLOR_SHUFFLE = 3
TAG_TEMPLATE = 100

_KEY_RE = re.compile(r"^[0-9a-f]{16}$")


@dataclass(frozen=True)
class MasterKey:
    """64-bit secret from which all per-step streams derive."""

    seed: int

    def __post_init__(self):
        seed = operator.index(self.seed)  # ints and numpy integers; a float or str raises TypeError
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
    return state, _mix64(state)


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


def draws(seed: int, n: int) -> np.ndarray:
    """The first ``n`` outputs of the stream seeded with ``seed``, as a
    ``uint64`` array: ``n`` successive :func:`splitmix_next` outputs."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def resolve_swaps(targets: np.ndarray) -> np.ndarray:
    """Result of the Fisher-Yates swaps ``for t = n-1 .. 1: swap(t, targets[t])``
    applied to ``0..n-1``, with no per-element loop.

    ``targets`` holds ``n`` integers with ``0 <= targets[t] <= t`` (so
    ``targets[0] == 0``). Position t is final after step t: it receives what
    position ``j = targets[t]`` held just before. That is ``j`` itself unless a
    step that ran earlier (a larger s) also targeted ``j``; then it is what the
    most recent of them, the smallest s > t with ``targets[s] == j``, carried.
    Step s carries what position s held before it: s itself, or by the same
    rule the carry of the first step that targeted s. (When that first step is
    s swapping in place, no other step reads the carry of s, so the link may
    point at s.) One sort of the packed keys ``j*n + t`` gives every link, and
    pointer doubling follows all carry chains at once. Treating t = 0 as a step
    that targets 0 makes position 0 follow the same rule. ``n*n`` must stay
    below 2**63.
    """
    n = targets.size
    keys = targets * n + np.arange(n, dtype=np.int64)
    keys.sort()
    key_target = keys // n
    key_step = keys - key_target * n
    same = key_target[1:] == key_target[:-1]
    # nxt[t]: the smallest s > t with the same target as t, or -1
    nxt = np.empty(n, dtype=np.int64)
    nxt[key_step[:-1]] = np.where(same, key_step[1:], -1)
    nxt[key_step[-1:]] = -1
    # carrier[p]: the first step that targeted p, or p. Only the first key of
    # each target writes a real slot; the others go to the spare slot n. The
    # first key of all is 0 (step 0 targets 0), which leaves carrier[0] = 0.
    carrier = np.arange(n + 1, dtype=np.int64)
    carrier[np.where(same, n, key_target[1:])] = key_step[1:]
    carrier = carrier[:n]
    while True:  # pointer doubling: carrier[p] becomes the end of p's chain
        hop = carrier[carrier]
        if np.array_equal(hop, carrier):
            break
        carrier = hop
    return np.where(nxt >= 0, carrier[nxt], targets)


def gen_permutation(seed: int, n: int) -> np.ndarray:
    """Fisher-Yates shuffle of ``0..n-1`` driven by a stream seeded with ``seed``,
    as an ``int64`` array.

    For i from n-1 down to 1: j = (next draw) mod (i+1), swap positions i and j.
    Modulo reduction carries a bias below 2**-32 for i+1 <= 2**32, which is
    negligible for the cipher's block counts.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n * n >= 1 << 63:
        raise ValueError(f"n must be below sqrt(2**63) (about 3.04e9), got {n}")
    targets = np.zeros(n, dtype=np.int64)
    if n > 1:
        # draw k is for step i = n-1-k and is reduced modulo i+1
        reduced = draws(seed, n - 1)
        reduced %= np.arange(n, 1, -1, dtype=np.uint64)
        targets[:0:-1] = reduced
    return resolve_swaps(targets)


def gen_symbols(seed: int, n: int, alphabet: int) -> np.ndarray:
    """``n`` successive draws uniform over ``[0, alphabet)`` from one seeded
    stream, as an ``int64`` array. The count is checked before the alphabet,
    so a call with both out of range names ``n``."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 1 <= alphabet <= 1 << 32:
        raise ValueError(f"alphabet must be in [1, 2**32], got {alphabet}")
    out = draws(seed, n)
    if alphabet & (alphabet - 1):
        out %= np.uint64(alphabet)
    else:  # a power of two: the low bits, without a 64-bit division
        out &= np.uint64(alphabet - 1)
    return out.view(np.int64)  # exact: every value is below 2**32


def parse_key_file(raw: bytes) -> MasterKey:
    """Key file: one line of 16 lowercase hex characters, newline-terminated."""
    return MasterKey.from_hex(raw.decode("ascii"))


def format_key_file(key: MasterKey) -> bytes:
    return (key.to_hex() + "\n").encode("ascii")
