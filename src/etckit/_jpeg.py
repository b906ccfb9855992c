"""Built-in JPEG codec (ITU-T T.81): baseline sequential Huffman coding of
8-bit greyscale and YCbCr images, in numpy.

Both directions work on one frame, built by :func:`_frame`: the image size,
the components with their sampling factors and quantisation tables, and one
int16 store of quantised zigzag coefficients laid out as whole MCUs. The codec
is two inverse pairs over it: ``encode = _write(_forward(pixels, frame))`` and
``decode = _inverse(_read(data))``. ``_forward`` and ``_inverse`` map pixels to
the store and back; ``_write`` and ``_read`` map the store to a stream and
back, visiting blocks in :func:`_block_order`. Entropy coding is lossless, so
``_inverse(_read(_write(f)))`` equals ``_inverse(f)``, and :func:`roundtrip`
skips ``_read``. ``_write`` codes all components in one interleaved scan. The
decoder also reads non-interleaved baseline streams, one scan per component:
such a scan codes only the component's own block grid (the blocks holding its
samples of the image), not the padding blocks that complete its MCUs, and
``_inverse`` crops those.

Encoding uses the Annex K quantisation tables scaled by the IJG quality
formula and the Annex K Huffman tables. 4:2:0 chroma is a 2x2 box average of
the edge-padded image, and decoding replicates each chroma sample back over
its 2x2 pixels, so every 16x16 MCU is coded and reconstructed without
reference to its neighbours. The decoder takes its tables from the stream, so
it also reads other encoders' baseline output; what it does not support
(progressive coding, arithmetic coding, restart intervals, 12-bit samples)
raises :class:`JpegError` naming the feature.

Tables are built on first use, not at import. Work is done in bounded strips
and chunks, so memory stays within a small multiple of the raster size.
"""

from __future__ import annotations

import functools
import struct
from array import array

import numpy as np

_SAMPLING = {"420": ((2, 2), (1, 1), (1, 1)), "444": ((1, 1), (1, 1), (1, 1))}

# Annex K, tables K.1 and K.2: luminance and chrominance quantisation, natural order
_LUMA_Q = (
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
)
_CHROMA_Q = (
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
) + (99,) * 32

# Annex K, tables K.3-K.6, as DHT payloads: 16 code counts by length, then the
# symbols in code order. Keyed by (table class, table id): class 0 is DC, 1 is AC.
_HUFFMAN_SPECS = {
    (0, 0): "00010501010101010100000000000000" "000102030405060708090a0b",
    (0, 1): "00030101010101010101010000000000" "000102030405060708090a0b",
    (1, 0): "0002010303020403050504040000017d"
    "01020300041105122131410613516107" "227114328191a1082342b1c11552d1f0"
    "2433627282090a161718191a25262728" "292a3435363738393a43444546474849"
    "4a535455565758595a63646566676869" "6a737475767778797a83848586878889"
    "8a92939495969798999aa2a3a4a5a6a7" "a8a9aab2b3b4b5b6b7b8b9bac2c3c4c5"
    "c6c7c8c9cad2d3d4d5d6d7d8d9dae1e2" "e3e4e5e6e7e8e9eaf1f2f3f4f5f6f7f8"
    "f9fa",
    (1, 1): "00020102040403040705040400010277"
    "00010203110405213106124151076171" "1322328108144291a1b1c109233352f0"
    "156272d10a162434e125f11718191a26" "2728292a35363738393a434445464748"
    "494a535455565758595a636465666768" "696a737475767778797a828384858687"
    "88898a92939495969798999aa2a3a4a5" "a6a7a8a9aab2b3b4b5b6b7b8b9bac2c3"
    "c4c5c6c7c8c9cad2d3d4d5d6d7d8d9da" "e2e3e4e5e6e7e8e9eaf2f3f4f5f6f7f8"
    "f9fa",
}

# JFIF colour transform: RGB -> (Y, Cb, Cr) and back, on level-shifted samples
_RGB_TO_YCC = (
    (0.299, 0.587, 0.114),
    (-0.168736, -0.331264, 0.5),
    (0.5, -0.418688, -0.081312),
)
_YCC_TO_RGB = ((1.0, 0.0, 1.402), (1.0, -0.344136, -0.714136), (1.0, 1.772, 0.0))

_STRIP_PIXELS = 1 << 17  # pixels per colour-transform/DCT strip
_CHUNK_BLOCKS = 4096  # blocks per entropy-coding chunk
_READ_CHUNK = 1 << 16  # scan bytes held as 32-bit windows while decoding
_READ_GUARD = 512  # bytes one block can consume (64 codes of at most 31 bits), rounded up

_SOF_UNSUPPORTED = {
    0xC2: "progressive coding",
    0xC3: "lossless coding",
    0xC5: "hierarchical coding",
    0xC6: "hierarchical coding",
    0xC7: "hierarchical coding",
    0xC9: "arithmetic coding",
    0xCA: "arithmetic coding",
    0xCB: "arithmetic coding",
    0xCD: "arithmetic coding",
    0xCE: "arithmetic coding",
    0xCF: "arithmetic coding",
}


class JpegError(ValueError):
    """The stream is malformed, or uses a feature this codec does not support."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@functools.cache
def _zigzag() -> np.ndarray:
    """Natural (row-major) index of each zigzag position."""
    def key(p):
        r, c = divmod(p, 8)
        return r + c, r if (r + c) % 2 else c

    return _frozen(np.array(sorted(range(64), key=key)))


@functools.cache
def _dct_basis() -> np.ndarray:
    """Orthonormal 2-D DCT-II as a 64x64 matrix with rows in zigzag order.

    ``coefs = blocks @ basis.T`` for blocks flattened row-major, and
    ``blocks = coefs @ basis`` inverts it.
    """
    x = np.arange(8)
    c = 0.5 * np.cos((2 * x[None, :] + 1) * x[:, None] * np.pi / 16)
    c[0] = np.sqrt(1 / 8)
    return _frozen(np.kron(c, c)[_zigzag()])


@functools.lru_cache(maxsize=16)
def _quant_table(quality: int, chroma: bool) -> np.ndarray:
    """Annex K table scaled by the IJG quality formula, clipped to 1..255, in zigzag order."""
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    base = np.array(_CHROMA_Q if chroma else _LUMA_Q)
    return _frozen(np.clip((base * scale + 50) // 100, 1, 255)[_zigzag()])


def _canonical_codes(counts: bytes, symbols: bytes):
    """Yield (code, length, symbol) for a DHT table (T.81 Annex C)."""
    code, k = 0, 0
    for length in range(1, 17):
        for _ in range(counts[length - 1]):
            if code >= 1 << length:
                raise JpegError("invalid Huffman table: code space overflow")
            yield code, length, symbols[k]
            code += 1
            k += 1
        code <<= 1


@functools.cache
def _encode_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Annex K codes and lengths by symbol: (dc_code, dc_len, ac_code, ac_len), each [table id, symbol]."""
    out = np.zeros((4, 2, 256), np.int64)
    for (cls, tid), spec in _HUFFMAN_SPECS.items():
        raw = bytes.fromhex(spec)
        for code, length, sym in _canonical_codes(raw[:16], raw[16:]):
            out[2 * cls, tid, sym] = code
            out[2 * cls + 1, tid, sym] = length
    return tuple(_frozen(t) for t in out)


@functools.lru_cache(maxsize=8)
def _decode_lut(counts: bytes, symbols: bytes) -> tuple[int, ...]:
    """Entry per 16-bit lookahead: ``length << 8 | symbol``, 0 where no code matches."""
    lut = np.zeros(1 << 16, np.int64)
    for code, length, sym in _canonical_codes(counts, symbols):
        lut[code << (16 - length):(code + 1) << (16 - length)] = length << 8 | sym
    return tuple(lut.tolist())


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ----------------------------------------------------------------------- frame


class _Component:
    __slots__ = ("cid", "h", "v", "tq", "q", "offset", "rows", "cols", "own")

    def __init__(self, cid, h, v, tq, q=None):
        self.cid, self.h, self.v, self.tq, self.q = cid, h, v, tq, q


def _layout(width: int, height: int, comps: list) -> dict:
    """The frame of both directions without its store: each component's padded
    block grid (``rows`` x ``cols``, whole MCUs), its own grid and its offset in
    the store, and the store's ``size`` in coefficients."""
    hmax = max(c.h for c in comps)
    vmax = max(c.v for c in comps)
    mcux = _ceil_div(width, 8 * hmax)
    mcuy = _ceil_div(height, 8 * vmax)
    offset = 0
    for c in comps:
        c.rows, c.cols = mcuy * c.v, mcux * c.h
        c.own = (_ceil_div(_ceil_div(height * c.v, vmax), 8), _ceil_div(_ceil_div(width * c.h, hmax), 8))
        c.offset = offset
        offset += c.rows * c.cols * 64
    return {
        "width": width, "height": height, "comps": comps,
        "mcux": mcux, "mcuy": mcuy, "hmax": hmax, "vmax": vmax, "size": offset,
    }


def _frame(width: int, height: int, comps: list) -> dict:
    """:func:`_layout` with its zeroed store; the decoder allocates it at the first scan."""
    frame = _layout(width, height, comps)
    frame["coefs"] = array("h", [0]) * frame["size"]
    return frame


def _grids(frame) -> list[np.ndarray]:
    """Each component's padded grid of the store, as a writable (rows, cols, 64) view."""
    coefs = np.frombuffer(frame["coefs"], np.int16)
    return [coefs[c.offset:c.offset + c.rows * c.cols * 64].reshape(c.rows, c.cols, 64) for c in frame["comps"]]


def _block_order(frame, comps) -> tuple[np.ndarray, np.ndarray]:
    """Offset in the store and scan-component index of every block a scan over
    ``comps`` codes, in coding order: MCU by MCU, each component's blocks row
    by row. A single-component scan's MCU is one block of its own grid."""
    one = len(comps) == 1
    rows, cols = comps[0].own if one else (frame["mcuy"], frame["mcux"])
    my = np.arange(rows)[:, None, None]
    mx = np.arange(cols)[None, :, None]
    parts, index = [], []
    for k, c in enumerate(comps):
        h, v = (1, 1) if one else (c.h, c.v)
        dv, dh = np.divmod(np.arange(h * v), h)
        parts.append(c.offset + 64 * ((my * v + dv) * c.cols + mx * h + dh))
        index += [k] * (h * v)
    return np.concatenate(parts, axis=2).ravel(), np.tile(index, rows * cols)


def _coded(pixels: np.ndarray, quality: int, subsampling: str) -> dict:
    """The frame of an (H, W, 1|3) uint8 raster, its store filled by :func:`_forward`."""
    height, width, channels = pixels.shape
    if height > 0xFFFF or width > 0xFFFF:
        raise JpegError(f"{width}x{height} exceeds JPEG's 65535-pixel limit")
    sampling = ((1, 1),) if channels == 1 else _SAMPLING[subsampling]
    comps = [_Component(i + 1, h, v, tq, _quant_table(quality, tq == 1))
             for i, ((h, v), tq) in enumerate(zip(sampling, (0, 1, 1)))]
    return _forward(pixels, _frame(width, height, comps))


def encode(pixels: np.ndarray, quality: int, subsampling: str) -> bytes:
    """JFIF bytes of an (H, W, 1|3) uint8 raster."""
    return _write(_coded(pixels, quality, subsampling))


def roundtrip(pixels: np.ndarray, quality: int, subsampling: str) -> tuple[np.ndarray, int]:
    """``decode(encode(...))`` and the stream's length, rebuilt from the frame
    that ``encode`` writes instead of decoding the stream."""
    frame = _coded(pixels, quality, subsampling)
    return _inverse(frame), len(_write(frame))


def decode(data: bytes) -> np.ndarray:
    """(H, W, 1|3) uint8 raster of a baseline JPEG."""
    return _inverse(_read(data))


# ---------------------------------------------------- pixels <-> coefficients


def _forward(pixels: np.ndarray, frame: dict) -> dict:
    """Fill the frame's store with the quantised zigzag DCT coefficients of an
    (H, W, 1|3) raster, edge-padded to whole MCUs; returns the frame."""
    height, width, channels = pixels.shape
    comps, hmax, vmax = frame["comps"], frame["hmax"], frame["vmax"]
    mcu_h, mcu_w = 8 * vmax, 8 * hmax
    img = np.pad(pixels, ((0, frame["mcuy"] * mcu_h - height), (0, frame["mcux"] * mcu_w - width), (0, 0)),
                 mode="edge")
    basis = _dct_basis()
    rgb_to_ycc = np.array(_RGB_TO_YCC).T
    grids = _grids(frame)
    strip = mcu_h * max(1, _STRIP_PIXELS // (img.shape[1] * mcu_h))
    for y0 in range(0, img.shape[0], strip):
        x = img[y0:y0 + strip].astype(np.float64)
        if channels == 3:
            x = x @ rgb_to_ycc
        x[..., 0] -= 128.0
        for ci, (c, grid) in enumerate(zip(comps, grids)):
            plane = x[..., ci]
            fy, fx = vmax // c.v, hmax // c.h
            if fy > 1 or fx > 1:
                plane = plane.reshape(plane.shape[0] // fy, fy, -1, fx).mean(axis=(1, 3))
            rows = plane.shape[0] // 8
            blocks = plane.reshape(rows, 8, -1, 8).swapaxes(1, 2).reshape(-1, 64)
            grid[y0 // 8 // fy:y0 // 8 // fy + rows] = np.rint(blocks @ basis.T / c.q).reshape(rows, -1, 64)
    return frame


def _inverse(frame) -> np.ndarray:
    """Dequantise, inverse-DCT, upsample by replication and convert to RGB, in strips."""
    width, height, comps = frame["width"], frame["height"], frame["comps"]
    hmax, vmax = frame["hmax"], frame["vmax"]
    mcu_h = 8 * vmax
    grids = _grids(frame)
    basis = _dct_basis()
    ycc_to_rgb = np.array(_YCC_TO_RGB).T
    out = np.empty((height, width, len(comps)), np.uint8)
    step = max(1, _STRIP_PIXELS // (frame["mcux"] * 8 * hmax * mcu_h))
    for m0 in range(0, frame["mcuy"], step):
        n = min(step, frame["mcuy"] - m0)
        y0 = m0 * mcu_h
        y1 = min(height, y0 + n * mcu_h)
        planes = []
        for c, grid in zip(comps, grids):
            rows = grid[m0 * c.v:(m0 + n) * c.v]
            plane = ((rows.reshape(-1, 64) * c.q) @ basis).reshape(len(rows), c.cols, 8, 8)
            plane = plane.swapaxes(1, 2).reshape(8 * len(rows), 8 * c.cols)
            np.clip(plane, -128.0, 127.0, out=plane)  # 8-bit samples before colour conversion, as libjpeg
            plane = plane.repeat(vmax // c.v, axis=0).repeat(hmax // c.h, axis=1)
            planes.append(plane[:y1 - y0, :width])
        x = np.stack(planes, axis=-1)
        if len(comps) == 3:
            x = x @ ycc_to_rgb
        out[y0:y1] = np.clip(np.rint(x + 128.0), 0, 255)
    return out


# ----------------------------------------------------- coefficients <-> bytes


def _write(frame) -> bytes:
    """JFIF bytes of a frame: its headers and tables, then one interleaved scan
    of every component."""
    comps = frame["comps"]
    qtables = {c.tq: c.q for c in comps}
    out = [b"\xff\xd8", _segment(0xE0, b"JFIF\x00" + struct.pack(">BBBHHBB", 1, 1, 0, 1, 1, 0, 0))]
    out.append(_segment(0xDB, b"".join(bytes([t]) + q.astype(np.uint8).tobytes() for t, q in qtables.items())))
    sof = struct.pack(">BHHB", 8, frame["height"], frame["width"], len(comps))
    sof += b"".join(bytes([c.cid, c.h << 4 | c.v, c.tq]) for c in comps)
    out.append(_segment(0xC0, sof))
    out.append(_segment(0xC4, b"".join(
        bytes([cls << 4 | tid]) + bytes.fromhex(spec)
        for (cls, tid), spec in _HUFFMAN_SPECS.items() if tid in qtables
    )))
    out += [_scan(frame, comps), b"\xff\xd9"]
    return b"".join(out)


def _scan(frame, comps) -> bytes:
    """SOS segment and entropy-coded data of a baseline scan over ``comps``,
    its blocks coded with the Annex K Huffman tables of their quantisation
    table ids, in chunks of at most ``_CHUNK_BLOCKS``. The bit writer and the
    DC predictors carry across chunks, so the chunk bounds do not change the
    bytes."""
    sos = b"".join(bytes([c.cid, c.tq << 4 | c.tq]) for c in comps)
    blocks = np.frombuffer(frame["coefs"], np.int16).reshape(-1, 64)
    tables = np.array([c.tq for c in comps])
    bases, which = _block_order(frame, comps)
    writer = _BitWriter()
    pred = [0] * len(comps)
    for i in range(0, len(bases), _CHUNK_BLOCKS):
        k = which[i:i + _CHUNK_BLOCKS]
        writer.write(*_scan_codes(blocks[bases[i:i + _CHUNK_BLOCKS] >> 6], tables[k], k, pred))
    return _segment(0xDA, bytes([len(comps)]) + sos + bytes([0, 63, 0])) + writer.finish()


def _segment(marker: int, payload: bytes) -> bytes:
    return struct.pack(">HH", 0xFF00 | marker, len(payload) + 2) + payload


def _magnitude(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T.81 magnitude category (bit length of |x|) and the appended bits of x."""
    size = np.frexp(np.abs(x))[1].astype(np.int64)
    return size, np.where(x < 0, x - 1, x) & ((1 << size) - 1)


def _scan_codes(blocks, tables, comp, pred) -> tuple[np.ndarray, np.ndarray]:
    """Bits of one chunk of a scan, as (value, length) per Huffman code with
    its appended magnitude bits, in stream order. ``comp`` is each block's
    index among the scan's components; ``pred`` carries their DC predictors
    from chunk to chunk."""
    dc_code, dc_len, ac_code, ac_len = _encode_tables()
    n = len(blocks)
    dc = blocks[:, 0].astype(np.int64)
    diff = np.empty(n, np.int64)
    for ci in np.unique(comp):
        mask = comp == ci
        values = dc[mask]
        diff[mask] = np.diff(values, prepend=pred[ci])
        pred[ci] = int(values[-1])
    size, extra = _magnitude(diff)
    dc_val = dc_code[tables, size] << size | extra
    dc_bits = dc_len[tables, size] + size

    band = blocks[:, 1:]
    rows, cols = np.nonzero(band)
    value = band[rows, cols].astype(np.int64)
    first = np.ones(len(rows), bool)
    first[1:] = rows[1:] != rows[:-1]
    last = np.ones(len(rows), bool)
    last[:-1] = first[1:]
    prev = np.empty_like(cols)
    prev[1:] = cols[:-1]
    prev[first] = -1
    run = cols - prev - 1
    zrl = run >> 4  # each run of 16 zeros is one ZRL code before the coefficient's own
    size, extra = _magnitude(value)
    t = tables[rows]
    symbol = (run & 15) << 4 | size
    nz_val = ac_code[t, symbol] << size | extra
    nz_bits = ac_len[t, symbol] + size
    eob = np.ones(n, bool)
    eob[rows[last]] = cols[last] < 62

    # stream position of every code: per block, DC, then each coefficient's
    # ZRLs and code, then EOB
    ends = np.cumsum(zrl + 1)
    before = np.concatenate(([0], ends))[np.searchsorted(rows, np.arange(n + 1))]
    eobs_before = np.concatenate(([0], np.cumsum(eob)))
    start = np.arange(n + 1) + eobs_before + before
    val = np.zeros(start[-1], np.int64)
    bits = np.zeros(start[-1], np.int64)
    val[start[:-1]] = dc_val
    bits[start[:-1]] = dc_bits
    pos = rows + eobs_before[rows] + ends
    val[pos] = nz_val
    bits[pos] = nz_bits
    at = start[1:][eob] - 1
    val[at] = ac_code[tables[eob], 0x00]
    bits[at] = ac_len[tables[eob], 0x00]
    with_zrl = np.flatnonzero(zrl)
    if with_zrl.size:
        reps = zrl[with_zrl]
        offsets = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        at = np.repeat(pos[with_zrl] - reps, reps) + offsets
        zt = np.repeat(t[with_zrl], reps)
        val[at] = ac_code[zt, 0xF0]
        bits[at] = ac_len[zt, 0xF0]
    return val, bits


def _stuff(data: bytes) -> bytes:
    """Insert the 0x00 that must follow every 0xFF in entropy-coded data."""
    arr = np.frombuffer(data, np.uint8)
    ff = np.flatnonzero(arr == 0xFF)
    return np.insert(arr, ff + 1, 0).tobytes() if ff.size else data


class _BitWriter:
    """Packs (value, length) codes MSB first into stuffed bytes, one chunk at a time."""

    def __init__(self):
        self._parts: list[bytes] = []
        self._carry = 0  # the trailing bits that do not fill a byte yet
        self._carry_bits = 0

    def write(self, val: np.ndarray, bits: np.ndarray) -> None:
        if self._carry_bits:
            val = np.concatenate(([self._carry], val))
            bits = np.concatenate(([self._carry_bits], bits))
        if not len(val):
            return
        end = np.cumsum(bits)
        total = int(end[-1])
        pos = end - bits
        word = pos >> 5
        # every code is at most 27 bits, so it lies within 64 bits from its 32-bit word
        shifted = val.astype(np.uint64) << (64 - bits - (pos & 31)).astype(np.uint64)
        first = np.flatnonzero(np.diff(word, prepend=-1))
        words = np.zeros(total // 32 + 2, np.uint64)
        words[word[first]] |= np.bitwise_or.reduceat(shifted >> 32, first)
        words[word[first] + 1] |= np.bitwise_or.reduceat(shifted & 0xFFFFFFFF, first)
        data = words.astype(">u4").tobytes()
        full = total >> 3
        self._carry_bits = total & 7
        self._carry = data[full] >> (8 - self._carry_bits) if self._carry_bits else 0
        self._parts.append(_stuff(data[:full]))

    def finish(self) -> bytes:
        """The scan's bytes, the last one padded with 1-bits."""
        if self._carry_bits:
            pad = 8 - self._carry_bits
            self.write(np.array([(1 << pad) - 1]), np.array([pad]))
        return b"".join(self._parts)


def _read(data: bytes) -> dict:
    """The frame of a JPEG stream, its store filled from every scan. As T.81
    requires of a sequential frame, each component is coded in exactly one scan."""
    buf = bytes(data)
    if buf[:2] != b"\xff\xd8":
        raise JpegError("not a JPEG stream: no SOI marker")
    pos = 2
    qtables: dict[int, np.ndarray] = {}
    huffman: dict[tuple[int, int], tuple[bytes, bytes]] = {}
    frame = None
    scanned: list[int] = []  # the component ids of every scan, in stream order
    while True:
        marker, pos = _next_marker(buf, pos)
        if marker == 0xD9:  # EOI
            break
        if len(buf) < pos + 2:
            raise JpegError(f"truncated stream inside marker 0xFF{marker:02X}")
        length = buf[pos] << 8 | buf[pos + 1]
        if length < 2 or len(buf) < pos + length:
            raise JpegError(f"truncated stream inside marker segment 0xFF{marker:02X}")
        seg = buf[pos + 2:pos + length]
        pos += length
        if marker == 0xDB:
            _parse_dqt(seg, qtables)
        elif marker == 0xC4:
            _parse_dht(seg, huffman)
        elif marker in (0xC0, 0xC1):
            if frame is not None:
                raise JpegError("more than one frame header")
            frame = _parse_sof(seg)
        elif marker in _SOF_UNSUPPORTED:
            raise JpegError(f"unsupported feature: {_SOF_UNSUPPORTED[marker]}")
        elif marker == 0xCC:
            raise JpegError("unsupported feature: arithmetic coding")
        elif marker == 0xDD:
            if len(seg) != 2:
                raise JpegError("malformed DRI segment")
            if seg != b"\x00\x00":
                raise JpegError("unsupported feature: restart intervals")
        elif marker == 0xDA:
            if frame is None:
                raise JpegError("scan before frame header")
            pos = _decode_scan(buf, pos, seg, frame, qtables, huffman)
            scanned += seg[1:1 + 2 * seg[0]:2]
        elif not (0xE0 <= marker <= 0xEF or marker == 0xFE):  # APPn and COM are skipped
            raise JpegError(f"unsupported marker 0xFF{marker:02X}")
    if not scanned:
        raise JpegError("no scan data")
    for c in frame["comps"]:
        if scanned.count(c.cid) != 1:
            raise JpegError(f"component {c.cid} is coded in {scanned.count(c.cid)} scans, not 1")
    return frame


def _next_marker(buf: bytes, pos: int) -> tuple[int, int]:
    if pos >= len(buf):
        raise JpegError("truncated stream: no EOI marker")
    if buf[pos] != 0xFF:
        raise JpegError(f"expected a marker at byte {pos}, found 0x{buf[pos]:02X}")
    while pos < len(buf) and buf[pos] == 0xFF:  # fill bytes
        pos += 1
    if pos >= len(buf):
        raise JpegError("truncated stream: no EOI marker")
    if buf[pos] == 0x00 or 0xD0 <= buf[pos] <= 0xD8:
        raise JpegError(f"unexpected marker 0xFF{buf[pos]:02X} at byte {pos}")
    return buf[pos], pos + 1


def _parse_dqt(seg: bytes, qtables: dict) -> None:
    i = 0
    while i < len(seg):
        precision, tq = seg[i] >> 4, seg[i] & 15
        size = 64 * (precision + 1)
        if precision > 1 or tq > 3 or len(seg) < i + 1 + size:
            raise JpegError("malformed DQT segment")
        dtype = ">u2" if precision else np.uint8
        qtables[tq] = np.frombuffer(seg, dtype, 64, i + 1).astype(np.float64)
        i += 1 + size


def _parse_dht(seg: bytes, huffman: dict) -> None:
    i = 0
    while i < len(seg):
        if len(seg) < i + 17:
            raise JpegError("malformed DHT segment")
        cls, tid = seg[i] >> 4, seg[i] & 15
        counts = seg[i + 1:i + 17]
        n = sum(counts)
        symbols = seg[i + 17:i + 17 + n]
        if cls > 1 or tid > 3 or len(symbols) != n or n > 256:
            raise JpegError("malformed DHT segment")
        if cls == 0 and any(s > 11 for s in symbols):
            raise JpegError("DC Huffman table has a category above 11")
        list(_canonical_codes(counts, symbols))  # rejects an overfull table now
        huffman[cls, tid] = (counts, symbols)
        i += 17 + n


def _parse_sof(seg: bytes) -> dict:
    if len(seg) < 6:
        raise JpegError("malformed frame header")
    precision, height, width, n = struct.unpack(">BHHB", seg[:6])
    if precision != 8:
        raise JpegError(f"unsupported feature: {precision}-bit sample precision")
    if height == 0:
        raise JpegError("unsupported feature: height defined by a DNL marker")
    if width == 0:
        raise JpegError("frame width is 0")
    if n not in (1, 3):
        raise JpegError(f"unsupported feature: {n}-component image")
    if len(seg) != 6 + 3 * n:
        raise JpegError("malformed frame header")
    comps = [_Component(seg[6 + 3 * i], seg[7 + 3 * i] >> 4, seg[7 + 3 * i] & 15, seg[8 + 3 * i])
             for i in range(n)]
    hmax = max(c.h for c in comps)
    vmax = max(c.v for c in comps)
    if len({c.cid for c in comps}) != n or any(
        not (1 <= c.h <= 4 and 1 <= c.v <= 4) or hmax % c.h or vmax % c.v or c.tq > 3 for c in comps
    ):
        raise JpegError("unsupported component sampling or table selection")
    return _layout(width, height, comps)


def _decode_scan(buf, pos, seg, frame, qtables, huffman) -> int:
    """Decode one scan's entropy-coded data into the frame; returns the position after it."""
    n = seg[0] if seg else 0
    if not 1 <= n <= 4 or len(seg) != 4 + 2 * n:
        raise JpegError("malformed SOS segment")
    by_id = {c.cid: c for c in frame["comps"]}
    selected = []
    for i in range(n):
        comp = by_id.get(seg[1 + 2 * i])
        if comp is None:
            raise JpegError(f"scan names unknown component {seg[1 + 2 * i]}")
        selected.append((comp, seg[2 + 2 * i] >> 4, seg[2 + 2 * i] & 15))
    ss, se, approx = seg[1 + 2 * n], seg[2 + 2 * n], seg[3 + 2 * n]
    if approx:
        raise JpegError("unsupported feature: successive approximation")
    if (ss, se) != (0, 63):
        raise JpegError(f"invalid sequential scan: band {ss}..{se}")

    dcluts, acluts = [], []
    for comp, td, ta in selected:
        if comp.q is None:
            if comp.tq not in qtables:
                raise JpegError(f"quantization table {comp.tq} not defined")
            comp.q = qtables[comp.tq]
        for cls, tid, luts in ((0, td, dcluts), (1, ta, acluts)):
            if (cls, tid) not in huffman:
                raise JpegError(f"Huffman table {'DC' if cls == 0 else 'AC'} {tid} not defined")
            luts.append(_decode_lut(*huffman[cls, tid]))

    body = np.frombuffer(buf, np.uint8, offset=pos)
    ff = np.flatnonzero(body[:-1] == 0xFF)
    follow = body[ff + 1]
    markers = ff[follow != 0]
    end = int(markers[0]) if markers.size else len(body)
    stuffed = ff[(follow == 0) & (ff < end)] + 1
    scan = np.delete(body[:end], stuffed)

    comps = [c for c, _, _ in selected]
    if "coefs" not in frame:
        # each block takes at least a bit (its DC code): the first scan's
        # blocks in its data, and every component's own blocks from here on
        rows, cols = comps[0].own if n == 1 else (frame["mcuy"], frame["mcux"])
        first = rows * cols * (1 if n == 1 else sum(c.h * c.v for c in comps))
        total = sum(r * k for r, k in (c.own for c in frame["comps"]))
        if first > 8 * len(scan) or total > 8 * (len(buf) - pos):
            raise JpegError(f"a {frame['width']}x{frame['height']} frame needs more data than the "
                            f"{len(buf) - pos} bytes from its first scan hold")
        frame["coefs"] = array("h", [0]) * frame["size"]
    bases, which = _block_order(frame, comps)
    try:
        _huffman_decode(scan, bases.tolist(), which.tolist(), dcluts, acluts, frame["coefs"])
    except OverflowError:
        raise JpegError("DC coefficient out of range") from None
    return pos + end


def _windows(scan: np.ndarray, start: int) -> list[int]:
    """Big-endian 32-bit window at each byte from ``start``, for a bounded chunk."""
    b = scan[start:start + _READ_CHUNK + 3].astype(np.uint32)
    return (b[:-3] << 24 | b[1:-2] << 16 | b[2:-1] << 8 | b[3:]).tolist()


def _huffman_decode(scan, bases, which, dcluts, acluts, coefs) -> None:
    """Walk the scan's Huffman codes, writing coefficients (zigzag order) into ``coefs``."""
    nbits = 8 * len(scan)
    scan = np.concatenate((scan, np.zeros(_READ_GUARD + 3, np.uint8)))
    p = 0  # bit position
    wbase = 0
    win = _windows(scan, 0)
    refill = _READ_CHUNK - _READ_GUARD
    pred = [0] * len(acluts)
    for base, k0 in zip(bases, which):
        if p > nbits:
            raise JpegError("truncated scan data")
        if (p >> 3) - wbase >= refill:
            wbase = p >> 3
            win = _windows(scan, wbase)
        t = dcluts[k0][(win[(p >> 3) - wbase] >> (16 - (p & 7))) & 0xFFFF]
        if not t:
            raise JpegError("invalid Huffman code")
        p += t >> 8
        s = t & 0xFF
        if s:
            v = (win[(p >> 3) - wbase] >> (32 - (p & 7) - s)) & ((1 << s) - 1)
            p += s
            if v < 1 << (s - 1):
                v -= (1 << s) - 1
            pred[k0] += v
        coefs[base] = pred[k0]
        lut = acluts[k0]
        k = 1
        while k <= 63:
            t = lut[(win[(p >> 3) - wbase] >> (16 - (p & 7))) & 0xFFFF]
            if not t:
                raise JpegError("invalid Huffman code")
            p += t >> 8
            s = t & 15
            r = (t >> 4) & 15
            if s:
                k += r
                if k > 63:
                    raise JpegError("AC coefficient index out of range")
                v = (win[(p >> 3) - wbase] >> (32 - (p & 7) - s)) & ((1 << s) - 1)
                p += s
                if v < 1 << (s - 1):
                    v -= (1 << s) - 1
                coefs[base + k] = v
                k += 1
            elif r == 15:
                k += 16
            elif r:
                raise JpegError("end-of-band run in a sequential scan")
            else:
                break
    if p > nbits:
        raise JpegError("truncated scan data")
    if nbits - p >= 8:
        raise JpegError(f"{(nbits - p) // 8} extraneous bytes after scan data")
