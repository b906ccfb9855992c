"""Block scrambling-based image encryption and its exact inverse.

The pipeline splits the image into square blocks and applies up to four keyed
steps in a fixed order: block scrambling, per-block rotation/flip, per-block
negative-positive inversion, and per-block RGB channel shuffling. The color
scheme works on 16x16 blocks of the RGB raster; the grayscale-based variant
first stacks the R, G, B planes vertically into one single-channel raster and
uses smaller (8x8) blocks, trading color information for a larger block count.
Every step draws its randomness from an independent keyed stream, so
enabling or disabling one step never shifts another step's draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .images import ImageBuffer, merge_blocks, split_blocks
from .keystream import (  # the step names and gen_* are re-exported from here
    COLOR_SHUFFLE,
    NEGPOS,
    ROTATE_FLIP,
    SCRAMBLE,
    STEP_LETTERS,
    STEP_ORDER,
    TAG_COLOR_SHUFFLE,
    TAG_NEGPOS,
    TAG_ROTATE_FLIP,
    TAG_SCRAMBLE,
    MasterKey,
    derive_step_seed,
    gen_permutation,
    gen_symbols,
    normalize_steps,
    permutation_array,
    symbol_array,
)

SCHEME_COLOR = "color"
SCHEME_GRAYSCALE = "grayscale_based"

SIDECAR_VERSION = 1

# The 6 RGB channel permutations in lexicographic order; out[c] = in[perm[c]].
CHANNEL_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
COLOR_INVERSE = (0, 1, 2, 4, 3, 5)


def steps_to_letters(steps) -> str:
    enabled = normalize_steps(steps)
    return "".join(STEP_LETTERS[s] for s in STEP_ORDER if s in enabled)


@dataclass(frozen=True)
class CipherConfig:
    """Scheme, block size, and enabled steps.

    ``block_size`` defaults to 16 for the color scheme (the 4:2:0 JPEG MCU)
    and 8 for the grayscale-based scheme (the DCT block).
    """

    scheme: str = SCHEME_COLOR
    block_size: int | None = None
    steps: frozenset[str] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.scheme not in (SCHEME_COLOR, SCHEME_GRAYSCALE):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.block_size is None:
            object.__setattr__(
                self, "block_size", 16 if self.scheme == SCHEME_COLOR else 8
            )
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if self.steps is None:
            default = STEP_ORDER if self.scheme == SCHEME_COLOR else STEP_ORDER[:3]
            object.__setattr__(self, "steps", frozenset(default))
        else:
            object.__setattr__(self, "steps", normalize_steps(self.steps))
        if COLOR_SHUFFLE in self.steps and self.scheme != SCHEME_COLOR:
            raise ValueError("color_shuffle requires the color scheme")


@dataclass(frozen=True)
class CipherSidecar:
    """Everything needed to invert the geometry of an encryption except the key."""

    scheme: str
    block_size: int
    steps: frozenset[str]
    orig_w: int
    orig_h: int
    pad_r: int = 0
    pad_b: int = 0
    version: int = SIDECAR_VERSION

    def __post_init__(self):
        self.config()  # the scheme, block size and steps must form a valid configuration
        if self.orig_w < 1 or self.orig_h < 1:
            raise ValueError(
                f"original size must be at least 1x1, got {self.orig_w}x{self.orig_h}"
            )
        for name, pad in (("pad_r", self.pad_r), ("pad_b", self.pad_b)):
            if not 0 <= pad < self.block_size:
                raise ValueError(f"{name} must be in [0, {self.block_size}), got {pad}")

    def to_text(self) -> str:
        lines = [
            f"version={self.version}",
            f"scheme={self.scheme}",
            f"block_size={self.block_size}",
            f"steps={steps_to_letters(self.steps)}",
            f"orig_w={self.orig_w}",
            f"orig_h={self.orig_h}",
            f"pad_r={self.pad_r}",
            f"pad_b={self.pad_b}",
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CipherSidecar":
        fields = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed sidecar line {line!r}")
            k, v = line.split("=", 1)
            if k in fields:
                raise ValueError(f"sidecar repeats field {k!r}")
            fields[k] = v
        try:
            version = int(fields["version"])
            if version != SIDECAR_VERSION:
                raise ValueError(f"unsupported sidecar version {version}")
            return cls(
                scheme=fields["scheme"],
                block_size=int(fields["block_size"]),
                steps=normalize_steps(fields["steps"]),
                orig_w=int(fields["orig_w"]),
                orig_h=int(fields["orig_h"]),
                pad_r=int(fields["pad_r"]),
                pad_b=int(fields["pad_b"]),
                version=version,
            )
        except KeyError as exc:
            raise ValueError(f"sidecar missing field {exc}") from exc

    def config(self) -> CipherConfig:
        return CipherConfig(self.scheme, self.block_size, self.steps)


# ---------------------------------------------------------------------------
# Block symmetries (shared with the attack)


def inverse_permutation(perm) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.int64)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm), dtype=np.int64)
    return inv


def apply_orientation(block: np.ndarray, code: int) -> np.ndarray:
    """One of the 8 square symmetries: rotate 90deg CCW ``code % 4`` times,
    then mirror horizontally iff ``code >= 4``.

    Acts on the last three axes ``(B, B, C)``, so ``block`` may be one block
    or a stack of them. The result may be a view of ``block``.
    """
    if not 0 <= code < 8:
        raise ValueError(f"orientation code must be in [0, 8), got {code}")
    if block.shape[-3] != block.shape[-2]:
        raise ValueError(f"block must be square, got {block.shape}")
    out = np.rot90(block, code % 4, axes=(-3, -2))
    return np.flip(out, axis=-2) if code >= 4 else out


def _orientation_tables() -> tuple[np.ndarray, np.ndarray]:
    """ORIENT_COMPOSE[a, b], the code of applying ``a`` and afterwards ``b``,
    and ORIENT_INVERSE[a], the code that undoes ``a``, read off
    :func:`apply_orientation` on a 2x2 block of distinct values."""
    once = np.stack([apply_orientation(np.arange(4).reshape(2, 2, 1), c) for c in range(8)])
    code = {block.tobytes(): c for c, block in enumerate(once)}
    twice = [apply_orientation(once, b) for b in range(8)]  # twice[b][a]: a, then b
    compose = np.array([[code[t.tobytes()] for t in row] for row in twice]).T
    inverse = np.argwhere(compose == 0)[:, 1]  # row a hits the identity at a^-1
    compose.flags.writeable = inverse.flags.writeable = False
    return compose, inverse


ORIENT_COMPOSE, ORIENT_INVERSE = _orientation_tables()


# ---------------------------------------------------------------------------
# The step table
#
# Each map transforms a whole (n, B, B, C) block stack under per-block draws
# and may overwrite its input. The inverse of every step is the same map under
# inverted draws, so decryption walks the table backwards.


def _scramble(blocks: np.ndarray, perm: np.ndarray) -> np.ndarray:
    return np.take(blocks, perm, axis=0)  # out[i] = blocks[perm[i]]


def _by_code(n_codes: int, planes):
    # per code in [1, n_codes): np.take its blocks and fill the scatter source plane by
    # plane, not pixel by pixel (a C-sample inner loop); two copies of them at most
    def step_map(blocks: np.ndarray, codes: np.ndarray) -> np.ndarray:
        for code in range(1, n_codes):
            idx = np.flatnonzero(codes == code)
            moved = np.take(blocks, idx, axis=0)
            out = np.empty_like(moved)
            for ch, plane in enumerate(planes(moved, code)):
                out[..., ch] = plane
            blocks[idx] = out
        return blocks
    return step_map


_rotate_flip = _by_code(8, lambda m, code: np.moveaxis(apply_orientation(m, code), -1, 0))
_color_shuffle = _by_code(6, lambda m, code: (m[..., ch] for ch in CHANNEL_PERMS[code]))


def _negpos(blocks: np.ndarray, bits: np.ndarray) -> np.ndarray:
    # p -> 255 - p, which is p ^ 255 on uint8, on the blocks whose bit is 1;
    # the mask broadcasts, so the update stays in place on any block layout
    mask = bits.astype(np.uint8)
    mask *= 255
    blocks ^= mask[:, None, None, None]
    return blocks


# (name, stream tag, alphabet or None for a permutation, map, invert_draws)
STEPS = (
    (SCRAMBLE, TAG_SCRAMBLE, None, _scramble, inverse_permutation),
    (ROTATE_FLIP, TAG_ROTATE_FLIP, 8, _rotate_flip, lambda c: np.take(ORIENT_INVERSE, c)),
    (NEGPOS, TAG_NEGPOS, 2, _negpos, lambda bits: bits),
    (COLOR_SHUFFLE, TAG_COLOR_SHUFFLE, 6, _color_shuffle, lambda c: np.take(COLOR_INVERSE, c)),
)


def step_draws(key: MasterKey, cfg: CipherConfig, n_blocks: int) -> dict[str, np.ndarray]:
    """Per-block draws of every enabled step, keyed by step name.

    Each step reads its own keyed stream, so enabling or disabling one step
    never shifts another step's draws.
    """
    draws = {}
    for name, tag, alphabet, _, _ in STEPS:
        if name not in cfg.steps:
            continue
        seed = derive_step_seed(key, tag)
        if alphabet is None:
            draws[name] = permutation_array(seed, n_blocks)
        else:
            draws[name] = symbol_array(seed, n_blocks, alphabet)
    return draws


# ---------------------------------------------------------------------------
# Plane stacking for the grayscale-based scheme


def stack_planes(img: ImageBuffer) -> ImageBuffer:
    """(W, H, 3) -> (W, 3H, 1): R plane on top, then G, then B."""
    if img.channels == 1:
        return img
    planes = [img.data[:, :, c : c + 1] for c in range(3)]
    return ImageBuffer(np.concatenate(planes, axis=0))


def unstack_planes(img: ImageBuffer) -> ImageBuffer:
    """Inverse of :func:`stack_planes`; height must be a multiple of 3."""
    if img.channels != 1 or img.height % 3:
        raise ValueError(f"cannot unstack {img!r}")
    h = img.height // 3
    planes = [img.data[c * h : (c + 1) * h, :, 0] for c in range(3)]
    return ImageBuffer(np.stack(planes, axis=2))


# ---------------------------------------------------------------------------
# Full pipeline


def _check_geometry(img: ImageBuffer, cfg: CipherConfig) -> None:
    if cfg.scheme == SCHEME_COLOR and img.channels != 3:
        raise ValueError(
            f"color scheme requires a 3-channel image, got {img.channels} channel(s)"
        )
    if img.width % cfg.block_size or img.height % cfg.block_size:
        raise ValueError(
            f"{img.width}x{img.height} not divisible by block size "
            f"{cfg.block_size}; pad the image first"
        )


def encrypt(
    img: ImageBuffer,
    key: MasterKey,
    cfg: CipherConfig,
    pad: tuple[int, int] = (0, 0),
) -> tuple[ImageBuffer, CipherSidecar]:
    """Encrypt an already block-aligned image.

    ``pad`` is the (right, bottom) edge padding previously applied to reach
    divisibility; it is recorded in the sidecar so decryption can crop it off.
    """
    _check_geometry(img, cfg)
    pad_r, pad_b = pad
    sidecar = CipherSidecar(
        scheme=cfg.scheme,
        block_size=cfg.block_size,
        steps=cfg.steps,
        orig_w=img.width - pad_r,
        orig_h=img.height - pad_b,
        pad_r=pad_r,
        pad_b=pad_b,
    )

    work = stack_planes(img) if cfg.scheme == SCHEME_GRAYSCALE else img
    blocks, grid = split_blocks(work, cfg.block_size)
    draws = step_draws(key, cfg, grid.n_blocks)
    for name, _, _, step_map, _ in STEPS:
        if name in draws:
            blocks = step_map(blocks, draws[name])
    return merge_blocks(blocks, grid, work.channels), sidecar


def decrypt(img: ImageBuffer, key: MasterKey, sidecar: CipherSidecar) -> ImageBuffer:
    """Exact inverse of :func:`encrypt` (when no lossy codec intervened)."""
    cfg = sidecar.config()
    padded_w = sidecar.orig_w + sidecar.pad_r
    padded_h = sidecar.orig_h + sidecar.pad_b
    stacked = cfg.scheme == SCHEME_GRAYSCALE and img.height == 3 * padded_h
    expect_h = 3 * padded_h if stacked else padded_h
    if img.width != padded_w or img.height != expect_h:
        raise ValueError(
            f"ciphertext is {img.width}x{img.height}, sidecar implies "
            f"{padded_w}x{expect_h}"
        )
    if cfg.scheme == SCHEME_GRAYSCALE and img.channels != 1:
        raise ValueError("grayscale-based ciphertext must be single-channel")
    _check_geometry(img, cfg)

    blocks, grid = split_blocks(img, cfg.block_size)
    draws = step_draws(key, cfg, grid.n_blocks)
    for name, _, _, step_map, invert_draws in reversed(STEPS):
        if name in draws:
            blocks = step_map(blocks, invert_draws(draws[name]))
    out = merge_blocks(blocks, grid, img.channels)
    if stacked:
        out = unstack_planes(out)
    if sidecar.pad_r or sidecar.pad_b:
        out = ImageBuffer(out.data[: sidecar.orig_h, : sidecar.orig_w, :])
    return out
