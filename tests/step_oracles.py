"""Per-block reference implementations of block cutting and of the four
cipher steps.

The library cuts an image and applies each step to a whole block stack at
once; these slice out and transform one block at a time, written as plainly
as possible, so tests can compare the two.
"""

import numpy as np

from etckit.cipher import (
    CHANNEL_PERMS,
    COLOR_SHUFFLE,
    NEGPOS,
    ROTATE_FLIP,
    SCHEME_GRAYSCALE,
    SCRAMBLE,
    stack_planes,
    step_draws,
)
from etckit.images import ImageBuffer


def cut_blocks(data: np.ndarray, b: int) -> np.ndarray:
    """The ``b x b`` blocks of an ``(H, W, C)`` array, row by row, as an
    ``(n, b, b, C)`` stack."""
    rows, cols = data.shape[0] // b, data.shape[1] // b
    return np.stack(
        [data[r * b : (r + 1) * b, c * b : (c + 1) * b] for r in range(rows) for c in range(cols)]
    )


def paste_blocks(blocks: np.ndarray, cols: int) -> np.ndarray:
    """Inverse of :func:`cut_blocks` for a grid ``cols`` blocks wide."""
    n, b, _, channels = blocks.shape
    out = np.empty((n // cols * b, cols * b, channels), np.uint8)
    for i, block in enumerate(blocks):
        r, c = divmod(i, cols)
        out[r * b : (r + 1) * b, c * b : (c + 1) * b] = block
    return out


def apply_scramble(blocks: np.ndarray, perm) -> np.ndarray:
    """Permute a block stack: ``out[i] = blocks[perm[i]]``."""
    perm = np.asarray(perm, dtype=np.int64)
    if len(blocks) != len(perm):
        raise ValueError(f"{len(blocks)} blocks but permutation of {len(perm)}")
    return blocks[perm]


def orient_block(block: np.ndarray, code: int) -> np.ndarray:
    """Rotate one (B, B, C) block 90deg CCW ``code % 4`` times, then mirror
    it left-right iff ``code >= 4``."""
    out = np.rot90(block, code % 4)
    return np.fliplr(out) if code >= 4 else out


def apply_negpos(block: np.ndarray, bit: int) -> np.ndarray:
    """Sample inversion ``p -> 255 - p`` on every channel when ``bit`` is 1."""
    if bit not in (0, 1):
        raise ValueError(f"negpos bit must be 0 or 1, got {bit}")
    if bit == 0:
        return block.copy()
    return (255 - block.astype(np.int16)).astype(np.uint8)


def apply_color_shuffle(block: np.ndarray, perm3: int) -> np.ndarray:
    """Reorder RGB channels by permutation index ``perm3`` (lexicographic)."""
    if not 0 <= perm3 < 6:
        raise ValueError(f"channel permutation index must be in [0, 6), got {perm3}")
    if block.ndim != 3 or block.shape[2] != 3:
        raise ValueError("color shuffle requires a 3-channel block")
    return np.ascontiguousarray(block[..., CHANNEL_PERMS[perm3]])


def reference_encrypt(img, key, cfg):
    """Ciphertext of ``encrypt(img, key, cfg)``, built block by block."""
    work = stack_planes(img) if cfg.scheme == SCHEME_GRAYSCALE else img
    blocks = cut_blocks(work.data, cfg.block_size)
    draws = step_draws(key, cfg, len(blocks))
    if SCRAMBLE in draws:
        blocks = apply_scramble(blocks, draws[SCRAMBLE])
    per_block = [
        (ROTATE_FLIP, orient_block),
        (NEGPOS, apply_negpos),
        (COLOR_SHUFFLE, apply_color_shuffle),
    ]
    for name, step in per_block:
        if name in draws:
            blocks = np.stack([step(b, int(d)) for b, d in zip(blocks, draws[name])])
    return ImageBuffer(paste_blocks(blocks, work.width // cfg.block_size))
