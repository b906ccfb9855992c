"""8-bit raster images: buffers, lossless PPM/PGM I/O, block partitioning, PSNR."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np


class ImageBuffer:
    """8-bit raster, 1 (gray) or 3 (RGB) channels, row-major interleaved samples.

    ``data`` is always a C-contiguous ``(height, width, channels)`` uint8
    array, which is exactly the flat row-major channel-interleaved layout when
    viewed as bytes. It may be read-only: :func:`load_ppm` returns a view of
    the bytes it parsed. :meth:`copy` gives an image with writable data of its
    own, and no etckit function writes into an image it is given.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.asarray(data)
        if arr.dtype != np.uint8:
            raise ValueError(f"samples must be uint8, got {arr.dtype}")
        if arr.ndim == 2:
            arr = arr[:, :, np.newaxis]
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise ValueError(f"expected (H, W, 1|3) array, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"empty image: shape {arr.shape}")
        self.data = np.ascontiguousarray(arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    def tobytes(self) -> bytes:
        return self.data.tobytes()

    def copy(self) -> "ImageBuffer":
        return ImageBuffer(self.data.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ImageBuffer):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(
            np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        return f"ImageBuffer({self.width}x{self.height}x{self.channels})"


@dataclass(frozen=True)
class BlockGrid:
    """Partition geometry: ``rows x cols`` square blocks of ``block_size`` pixels."""

    block_size: int
    rows: int
    cols: int

    @property
    def n_blocks(self) -> int:
        return self.rows * self.cols


def read_int(text: str | bytes, what: str = "value") -> int:
    """``text`` as an int if it spells ``-?[0-9]+`` in ASCII, the one integer format of PPM
    headers, sidecars, template CSVs and flags; int() also takes " 1", "+1", "1_0", non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", text if isinstance(text, str) else text.decode("latin-1")):
        raise ValueError(f"{what} must be an integer, got {text!r}")
    return int(text)


def load_ppm(raw: bytes) -> ImageBuffer:
    """Parse a binary PGM (P5, 1 channel) or PPM (P6, 3 channels), maxval 255.

    Header tokens may be separated by any whitespace and ``#`` comments.
    The image's data is a read-only view of ``raw``'s payload, which it keeps
    alive; only a buffer its caller can write (a ``bytearray``, a writable
    ``mmap``) is copied, so no image aliases memory that can change under it.
    """
    magic = raw[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise ValueError(f"not a binary PGM/PPM (magic {magic!r})")

    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(raw):
            raise ValueError("truncated header")
        ch = raw[pos : pos + 1]
        if ch == b"#":
            nl = raw.find(b"\n", pos)
            if nl < 0:
                raise ValueError("unterminated comment")
            pos = nl + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(raw) and not raw[end : end + 1].isspace():
                end += 1
            fields.append(read_int(raw[pos:end], "header token"))
            pos = end
    # exactly one whitespace byte separates the header from the payload
    if pos >= len(raw) or not raw[pos : pos + 1].isspace():
        raise ValueError("missing separator before payload")
    pos += 1

    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval} (only 255)")
    if width < 1 or height < 1:
        raise ValueError(f"bad dimensions {width}x{height}")
    n = width * height * channels
    if len(raw) - pos < n:
        raise ValueError(f"truncated payload: need {n} bytes, have {len(raw) - pos}")
    arr = np.frombuffer(raw, dtype=np.uint8, count=n, offset=pos)
    if arr.flags.writeable:
        arr = arr.copy()
    return ImageBuffer(arr.reshape(height, width, channels))


def save_ppm(img: ImageBuffer) -> bytes:
    """Serialize to canonical binary PGM/PPM: ``P5|P6\\n<w> <h>\\n255\\n<samples>``."""
    magic = b"P5" if img.channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    return b"".join((header, img.data))  # one copy: join reads the samples' buffer in place


def _swap_block_axes(data: np.ndarray, shape: tuple[int, int, int, int]) -> np.ndarray:
    """A fresh C-contiguous copy of ``data`` seen as ``shape = (a, x, y, row)``
    bytes with the middle axes swapped, so of shape ``(a, y, x, row)``.

    Each row of ``row`` bytes moves as the widest unsigned word that tiles it;
    numpy copies short rows byte by byte several times slower.
    """
    a, x, y, row = shape
    word = next(w for w in (8, 4, 2, 1) if row % w == 0)
    words = np.ascontiguousarray(data).reshape(a, x, y, row).view(f"u{word}")
    return words.swapaxes(1, 2).copy().view(np.uint8)


def split_blocks(img: ImageBuffer, block_size: int) -> tuple[np.ndarray, BlockGrid]:
    """Cut into square blocks, raster order by block position.

    Returns a ``(n_blocks, block_size, block_size, channels)`` uint8 array and
    the grid. The array is always a fresh copy, never a view of ``img``, so
    callers may overwrite it. Dimensions must divide exactly; no implicit
    padding.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    if img.height % block_size or img.width % block_size:
        raise ValueError(
            f"{img.width}x{img.height} not divisible by block size {block_size}"
        )
    rows = img.height // block_size
    cols = img.width // block_size
    c = img.channels
    blocks = _swap_block_axes(img.data, (rows, block_size, cols, block_size * c))
    blocks = blocks.reshape(rows * cols, block_size, block_size, c)
    return blocks, BlockGrid(block_size, rows, cols)


def merge_blocks(blocks: np.ndarray, grid: BlockGrid) -> ImageBuffer:
    """Inverse of :func:`split_blocks`; the channel count is the stack's last axis.

    The image's data is always a fresh array, never a view of ``blocks``, so
    callers may go on to overwrite their stack.
    """
    blocks = np.asarray(blocks)
    b = grid.block_size
    if blocks.shape[:-1] != (grid.n_blocks, b, b) or blocks.dtype != np.uint8:
        raise ValueError(f"expected uint8 blocks of shape ({grid.n_blocks}, {b}, {b}, channels), "
                         f"got {blocks.dtype} {blocks.shape}")
    channels = blocks.shape[-1]
    arr = _swap_block_axes(blocks, (grid.rows, grid.cols, b, b * channels))
    return ImageBuffer(arr.reshape(grid.rows * b, grid.cols * b, channels))


def psnr(a: ImageBuffer, b: ImageBuffer) -> float:
    """Peak signal-to-noise ratio in dB over all samples; ``inf`` when identical."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"shape mismatch: {a.data.shape} vs {b.data.shape}")
    diff = a.data.astype(np.int64) - b.data.astype(np.int64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 * 255.0 / mse)


def pad_replicate(img: ImageBuffer, block_size: int) -> tuple[ImageBuffer, int, int]:
    """Edge-replicate on the right/bottom up to block divisibility.

    Returns ``(padded, pad_right, pad_bottom)``; pads are 0 when already aligned.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    pad_b = (-img.height) % block_size
    pad_r = (-img.width) % block_size
    if pad_r == 0 and pad_b == 0:
        return img, 0, 0
    arr = np.pad(img.data, ((0, pad_b), (0, pad_r), (0, 0)), mode="edge")
    return ImageBuffer(arr), pad_r, pad_b
