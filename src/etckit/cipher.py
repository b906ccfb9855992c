"""Block scrambling-based image encryption and its exact inverse.

The pipeline splits the image into square blocks and applies up to four keyed
steps in a fixed order: block scrambling, per-block rotation/flip, per-block
negative-positive inversion, and per-block RGB channel shuffling. The color
scheme works on 16x16 blocks of the RGB raster; the grayscale-based variant
first stacks the R, G, B planes vertically into one single-channel raster and
uses smaller (8x8) blocks, trading color information for a larger block count.

:data:`STEPS` is the one description of the steps, one row each: name,
letter, keystream tag and alphabet. Every step draws from its own keyed
stream, so enabling or disabling one step never shifts another step's draws.
Both directions apply one cached key schedule (:func:`key_schedule`): each
block is gathered and put in its pose (:func:`apply_poses`), and decryption
does the same with the inverse (:func:`cell_poses`). One probe of it gives
:data:`POSE_COMPOSE`, :data:`POSE_INVERSE` and :data:`EDGES`, the one pose
algebra of the cipher, the solver and the scorer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .images import ImageBuffer, merge_blocks, read_int, split_blocks
from .keystream import (
    TAG_COLOR_SHUFFLE,
    TAG_NEGPOS,
    TAG_ROTATE_FLIP,
    TAG_SCRAMBLE,
    MasterKey,
    derive_step_seed,
    gen_permutation,
    gen_symbols,
)

SCRAMBLE = "scramble"
ROTATE_FLIP = "rotate_flip"
NEGPOS = "negpos"
COLOR_SHUFFLE = "color_shuffle"

SCHEME_COLOR = "color"
SCHEME_GRAYSCALE = "grayscale_based"

SIDECAR_VERSION = 1

# The 6 RGB channel permutations in lexicographic order; out[c] = in[perm[c]].
CHANNEL_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


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
        fields = {"version": SIDECAR_VERSION, **{k: getattr(self, k) for k in self.__dataclass_fields__}}
        fields["steps"] = steps_to_letters(self.steps)
        return "".join(f"{k}={v}\n" for k, v in fields.items())

    @classmethod
    def from_text(cls, text: str) -> "CipherSidecar":
        fields = {}
        for line in text.splitlines():  # unstripped: a space is part of the field it touches
            if not line.strip():
                continue
            if "=" not in line:
                raise ValueError(f"malformed sidecar line {line!r}")
            k, v = line.split("=", 1)
            if k in fields:
                raise ValueError(f"sidecar repeats field {k!r}")
            fields[k] = v
        try:
            version = read_int(fields["version"], "sidecar field version")
            if version != SIDECAR_VERSION:
                raise ValueError(f"unsupported sidecar version {version}")
            if unknown := sorted(fields.keys() - {"version", *cls.__dataclass_fields__}):
                raise ValueError(f"unknown sidecar field(s) {', '.join(map(repr, unknown))}")
            ints = {k: read_int(fields[k], f"sidecar field {k}")
                    for k in ("block_size", "orig_w", "orig_h", "pad_r", "pad_b")}
            return cls(scheme=fields["scheme"], steps=normalize_steps(fields["steps"]), **ints)
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


def _sides(blocks: np.ndarray) -> tuple[np.ndarray, ...]:
    """Left and right columns, top and bottom rows of a (..., B, B, C) stack,
    each read top to bottom or left to right."""
    return blocks[..., :, 0, :], blocks[..., :, -1, :], blocks[..., 0, :, :], blocks[..., -1, :, :]


# ---------------------------------------------------------------------------
# The per-block maps
#
# Each transforms a whole (n, B, B, C) block stack under per-block codes and
# may overwrite its input.


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


_rotate_flip = _by_code(8, lambda m, k: np.moveaxis(apply_orientation(m, k), -1, 0))
_color_shuffle = _by_code(len(CHANNEL_PERMS), lambda m, k: (m[..., ch] for ch in CHANNEL_PERMS[k]))


# (name, letter, stream tag, alphabet or None for a permutation), in application order
STEPS = (
    (SCRAMBLE, "s", TAG_SCRAMBLE, None),
    (ROTATE_FLIP, "r", TAG_ROTATE_FLIP, 8),
    (NEGPOS, "n", TAG_NEGPOS, 2),
    (COLOR_SHUFFLE, "c", TAG_COLOR_SHUFFLE, 6),
)

STEP_ORDER = tuple(name for name, *_ in STEPS)
STEP_LETTERS = {name: letter for name, letter, *_ in STEPS}
_LETTER_STEPS = {letter: name for name, letter, *_ in STEPS}


def normalize_steps(steps) -> frozenset[str]:
    """Accept step names, single-letter codes, or 's,r,n,c' strings; None is no step."""
    if isinstance(steps, str):
        steps = steps.replace(",", "")
    names = set()
    for s in steps or ():
        name = _LETTER_STEPS.get(s, s)
        if name not in STEP_LETTERS:
            letters = ", ".join(_LETTER_STEPS)
            raise ValueError(f"unknown step {s!r} (letters {letters}; step names only as list items)")
        names.add(name)
    return frozenset(names)


def keyspace_bits(n_blocks: int, steps, scheme: str = SCHEME_COLOR) -> float:
    """log2 of the brute-force key space for the enabled steps: n! for the
    permutation (by log-gamma, so large block counts do not overflow) and
    alphabet**n for every other step."""
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    enabled = CipherConfig(scheme, 1, normalize_steps(steps)).steps
    bits = 0.0
    for name, _, _, alphabet in STEPS:
        if name in enabled:
            bits += n_blocks * math.log2(alphabet) if alphabet else math.lgamma(n_blocks + 1) / math.log(2.0)
    return bits


def step_draws(key: MasterKey, cfg: CipherConfig, n_blocks: int) -> dict[str, np.ndarray]:
    """Per-block draws of every enabled step, keyed by step name.

    Each step reads its own keyed stream, so enabling or disabling one step
    never shifts another step's draws.
    """
    draws = {}
    for name, _, tag, alphabet in STEPS:
        if name not in cfg.steps:
            continue
        seed = derive_step_seed(key, tag)
        if alphabet is None:
            draws[name] = gen_permutation(seed, n_blocks)
        else:
            draws[name] = gen_symbols(seed, n_blocks, alphabet)
    return draws


# ---------------------------------------------------------------------------
# Poses: the per-block steps' draws in mixed radix, o + 8 * (neg + 2 * perm), in
# [0, 96) ([0, 16) on one channel, [0, 8) for orientations alone; each range is
# closed under composition and inversion).


@functools.lru_cache(maxsize=1)
def key_schedule(key: MasterKey, cfg: CipherConfig, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """``(perm, poses)`` of :func:`step_draws` on ``n_blocks`` blocks:
    ciphertext block i is plaintext block ``perm[i]`` (int64) in pose
    ``poses[i]`` (uint8). Both are read-only. Only the last schedule is
    kept, 9 bytes per block, until the next miss or ``cache_clear()``."""
    draws = step_draws(key, cfg, n_blocks)
    perm = draws.get(SCRAMBLE, np.arange(n_blocks))
    rotate, neg, shuffle = (draws.get(name, 0) for name in (ROTATE_FLIP, NEGPOS, COLOR_SHUFFLE))
    poses = np.empty(n_blocks, np.uint8)
    poses[:] = rotate + 8 * (neg + 2 * shuffle)
    perm.flags.writeable = poses.flags.writeable = False
    return perm, poses


def apply_poses(blocks: np.ndarray, poses: np.ndarray) -> np.ndarray:
    """Each block of an (n, B, B, C) stack in its pose; may overwrite ``blocks``. Raises
    ``ValueError`` for a code outside [0, 96), or one that orders the channels of a stack without 3."""
    top = 16 * len(CHANNEL_PERMS)  # len(POSE_INVERSE), which is read off this function
    if poses.size and (poses.min() < 0 or poses.max() >= top):
        raise ValueError(f"pose code {poses[(poses < 0) | (poses >= top)][0]} is outside [0, {top})")
    perm, rest = np.divmod(poses, 16)
    if perm.any() and blocks.shape[-1] != 3:
        raise ValueError(f"pose {poses[perm.argmax()]} orders channels, which needs 3, not {blocks.shape[-1]}")
    neg, orient = np.divmod(rest, 8)
    blocks = _rotate_flip(blocks, orient)
    if neg.any():  # p -> 255 - p is p ^ 255; the mask broadcasts, so it stays in place on any layout
        blocks ^= (neg.astype(np.uint8) * 255)[:, None, None, None]
    return _color_shuffle(blocks, perm) if perm.any() else blocks


def _pose_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """POSE_COMPOSE[a, b], the pose ``a`` and afterwards ``b``; POSE_INVERSE[a],
    the pose that undoes ``a``; SEAM_TURNS[seam, g], the (row, column) offset
    that orientation ``g`` turns the right neighbour's (0, 1) (seam 0) or the
    lower one's (1, 0) (seam 1) into; and EDGES[e, g] = (s, r): side e
    (:func:`_sides`) of a block in orientation ``g`` is side s unturned,
    reversed iff r. All are int64 and read-only, read off :func:`apply_poses`
    on a 2x2 block of 0..11, which negation maps to 244..255, so that every
    pose gives another block."""
    n = 16 * len(CHANNEL_PERMS)
    once = apply_poses(np.tile(np.arange(12, dtype=np.uint8).reshape(2, 2, 3), (n, 1, 1, 1)), np.arange(n))
    keys = once.reshape(n, 12).view("V12").ravel()  # each pose's block as one 12-byte key
    twice = apply_poses(np.repeat(once, n, axis=0), np.tile(np.arange(n), n))  # twice[a * n + b]: a, then b
    order = keys.argsort()
    compose = order[np.searchsorted(keys, twice.reshape(-1, 12).view("V12").ravel(), sorter=order)].reshape(n, n)
    inverse = np.argwhere(compose == 0)[:, 1]  # row a hits the identity at a^-1
    # at[g, v]: the (row, column) of pixel v under g; 1 and 2 start right of and below 0
    at = np.stack(np.divmod(once[:8, ..., 0].reshape(8, 4).argsort(axis=1), 2), axis=-1)
    seams = (at[:, 1:3] - at[:, :1]).swapaxes(0, 1)
    where = {side[::step].tobytes(): (s, step < 0) for s, side in enumerate(_sides(once[0])) for step in (1, -1)}
    edges = np.array([[where[e.tobytes()] for e in _sides(block)] for block in once[:8]], np.int64).swapaxes(0, 1)
    compose.flags.writeable = inverse.flags.writeable = seams.flags.writeable = edges.flags.writeable = False
    return compose, inverse, seams, edges


POSE_COMPOSE, POSE_INVERSE, SEAM_TURNS, EDGES = _pose_tables()


def cell_poses(perm: np.ndarray, poses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, poses)`` that undo :func:`key_schedule`'s ``(perm, poses)``:
    plaintext cell j is ciphertext block ``ids[j]`` in pose ``poses[j]`` (int64)."""
    ids = inverse_permutation(perm)
    return ids, POSE_INVERSE[poses[ids]]


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
        raise ValueError(f"color scheme requires a 3-channel image, got {img.channels} channel(s)")
    if img.width % cfg.block_size or img.height % cfg.block_size:
        raise ValueError(f"{img.width}x{img.height} not divisible by block size {cfg.block_size}; "
                         "pad the image first")


def check_ciphertext(img: ImageBuffer, cfg: CipherConfig) -> None:
    """Raise ``ValueError`` unless ``img`` has a ``cfg`` ciphertext's channels and block alignment."""
    if cfg.scheme == SCHEME_GRAYSCALE and img.channels != 1:
        raise ValueError("grayscale-based ciphertext must be single-channel")
    _check_geometry(img, cfg)


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
    blocks, grid = split_blocks(work, cfg.block_size)  # each rebinding of blocks frees the last stack
    perm, poses = key_schedule(key, cfg, grid.n_blocks)
    blocks = np.take(blocks, perm, axis=0)
    return merge_blocks(apply_poses(blocks, poses), grid), sidecar


def decrypt(img: ImageBuffer, key: MasterKey, sidecar: CipherSidecar) -> ImageBuffer:
    """Exact inverse of :func:`encrypt` (when no lossy codec intervened)."""
    cfg = sidecar.config()
    padded_w = sidecar.orig_w + sidecar.pad_r
    padded_h = sidecar.orig_h + sidecar.pad_b
    stacked = cfg.scheme == SCHEME_GRAYSCALE and img.height == 3 * padded_h
    expect_h = 3 * padded_h if stacked else padded_h
    if img.width != padded_w or img.height != expect_h:
        raise ValueError(f"ciphertext is {img.width}x{img.height}, sidecar implies {padded_w}x{expect_h}")
    check_ciphertext(img, cfg)

    out, grid = split_blocks(img, cfg.block_size)  # each rebinding of out frees the last stack
    ids, poses = cell_poses(*key_schedule(key, cfg, grid.n_blocks))
    out = np.take(out, ids, axis=0)
    out = merge_blocks(apply_poses(out, poses), grid)
    if stacked:
        out = unstack_planes(out)
    if sidecar.pad_r or sidecar.pad_b:
        out = ImageBuffer(out.data[: sidecar.orig_h, : sidecar.orig_w, :])
    return out
