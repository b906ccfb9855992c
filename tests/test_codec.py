import functools
import hashlib
import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etckit.cipher import CipherConfig
from etckit import _jpeg
from etckit.codec import (
    RD_CSV_HEADER,
    CodecError,
    CodecParams,
    ProviderProfile,
    RDPoint,
    jpeg_decode,
    jpeg_encode,
    jpeg_roundtrip,
    mean_bpp_inflation,
    mean_psnr_gap,
    provider_recompress,
    rd_csv,
    rd_curve,
)
from etckit.images import ImageBuffer, psnr
from etckit.keystream import MasterKey
from etckit.synth import synth_natural_image


class TestParams:
    def test_defaults(self):
        p = CodecParams()
        assert (p.quality, p.subsampling, p.progressive) == (85, "420", False)

    def test_rejects_bad_quality(self):
        for q in (0, 101, -3):
            with pytest.raises(ValueError):
                CodecParams(quality=q)

    def test_rejects_bad_subsampling(self):
        with pytest.raises(ValueError):
            CodecParams(subsampling="422")

    def test_provider_profile_validation(self):
        with pytest.raises(ValueError):
            ProviderProfile("p", 0)
        with pytest.raises(ValueError, match="provider 'p'"):
            ProviderProfile("p", 80, "422")


class TestJpeg:
    def test_encode_emits_jfif_magic(self):
        data = jpeg_encode(synth_natural_image(64, 64, seed=1), CodecParams())
        assert data[:2] == b"\xff\xd8" and data[-2:] == b"\xff\xd9"

    def test_roundtrip_preserves_geometry(self):
        img = synth_natural_image(48, 80, seed=2)  # width 48, height 80
        decoded, size = jpeg_roundtrip(img, CodecParams(quality=90))
        assert (decoded.height, decoded.width, decoded.channels) == (80, 48, 3)
        assert 0 < size < img.data.size

    def test_high_quality_beats_low_quality(self):
        img = synth_natural_image(128, 128, seed=3)
        lo, _ = jpeg_roundtrip(img, CodecParams(quality=30))
        hi, _ = jpeg_roundtrip(img, CodecParams(quality=95))
        assert psnr(img, hi) > psnr(img, lo)

    def test_444_beats_420_on_chroma_detail(self):
        rng = np.random.default_rng(5)
        img = ImageBuffer(rng.integers(0, 256, (64, 64, 3), dtype=np.uint8))
        s420, _ = jpeg_roundtrip(img, CodecParams(quality=90, subsampling="420"))
        s444, _ = jpeg_roundtrip(img, CodecParams(quality=90, subsampling="444"))
        assert psnr(img, s444) > psnr(img, s420)

    def test_grayscale_roundtrip(self):
        img = synth_natural_image(64, 64, channels=1, seed=4)
        decoded, _ = jpeg_roundtrip(img, CodecParams(quality=95))
        assert decoded.channels == 1
        assert psnr(img, decoded) > 30.0

    @pytest.mark.parametrize("damage", ["garbage", "cut-in-half", "cut-inside-segment"])
    def test_decode_rejects_garbage(self, damage):
        valid = jpeg_encode(synth_natural_image(64, 64, seed=8), CodecParams())
        data = {
            "garbage": b"not a jpeg at all",
            "cut-in-half": valid[: len(valid) // 2],
            "cut-inside-segment": valid[: valid.index(b"\xff\xdb") + 10],  # inside DQT
        }[damage]
        with pytest.raises(CodecError, match="decode failed"):
            jpeg_decode(data)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["gray", "420", "444", "420-progressive"]),
        st.lists(
            st.tuples(st.sampled_from(["flip", "delete", "insert"]), st.integers(0, 1 << 16), st.integers(1, 255)),
            min_size=1, max_size=4,
        ),
    )
    def test_mutated_stream_decodes_or_raises_codec_error(self, mode, mutations):
        # the built-in decoder is all that stands between external bytes and
        # the caller, so no damage may escape as another exception
        data = bytearray(fuzz_seed_stream(mode))
        for op, at, byte in mutations:
            if op == "flip":
                data[at % len(data)] ^= byte
            elif op == "delete":
                del data[at % len(data)]
            else:
                data.insert(at % (len(data) + 1), byte)
        try:
            decoded = jpeg_decode(bytes(data))
        except CodecError:
            return
        assert isinstance(decoded, ImageBuffer)

    def test_progressive_flag_changes_stream(self):
        img = synth_natural_image(64, 64, seed=6)
        base = jpeg_encode(img, CodecParams(quality=80))
        prog = jpeg_encode(img, CodecParams(quality=80, progressive=True))
        assert base != prog

    def test_encode_deterministic(self):
        img = synth_natural_image(64, 64, seed=7)
        assert jpeg_encode(img, CodecParams()) == jpeg_encode(img, CodecParams())


@functools.cache
def fuzz_seed_stream(mode: str) -> bytes:
    channels = 1 if mode == "gray" else 3
    img = synth_natural_image(24, 16, channels=channels, seed=15)
    return jpeg_encode(img, CodecParams(75, mode[:3] if channels == 3 else "420", "progressive" in mode))


@pytest.fixture(scope="module")
def curves():
    img = synth_natural_image(128, 128, seed=10)
    return rd_curve(img, MasterKey(0xD00D), CipherConfig(block_size=16), [50, 85])


class TestRDCurve:

    def test_point_counts(self, curves):
        plain, encrypted = curves
        assert len(plain) == len(encrypted) == 2
        assert [p.quality for p in plain] == [50, 85]

    def test_bpp_grows_with_quality(self, curves):
        plain, _ = curves
        assert plain[1].bits_per_pixel > plain[0].bits_per_pixel

    def test_psnr_grows_with_quality(self, curves):
        plain, _ = curves
        assert plain[1].psnr_db > plain[0].psnr_db

    def test_encrypted_path_decrypts_near_plain(self, curves):
        # decrypt-after-decode must land near the plain path, not at noise level
        _, encrypted = curves
        assert all(e.psnr_db > 25.0 for e in encrypted)

    def test_rejects_empty_qualities(self):
        img = synth_natural_image(32, 32, seed=11)
        with pytest.raises(ValueError):
            rd_curve(img, MasterKey(1), CipherConfig(block_size=16), [])


class TestCsv:
    def test_header_and_shape(self):
        plain = [RDPoint(50, 1.0, 30.0)]
        enc = [RDPoint(50, 1.25, 29.0)]
        text = rd_csv(plain, enc)
        lines = text.strip().split("\n")
        assert lines[0] == RD_CSV_HEADER == "path,quality,bpp,psnr_db"
        assert lines[1] == "plain,50,1.000000,30.000000"
        assert lines[2] == "encrypted,50,1.250000,29.000000"
        assert text.endswith("\n")


class TestProviderRecompress:
    def test_output_is_valid_jpeg(self):
        img = synth_natural_image(64, 64, seed=20)
        first = jpeg_encode(img, CodecParams(quality=95))
        second = provider_recompress(first, ProviderProfile("host", 70))
        decoded = jpeg_decode(second)
        assert (decoded.height, decoded.width) == (64, 64)

    def test_multi_generation_stabilizes(self):
        # repeated recompression at a fixed quality converges; later
        # generations change the bytes far less than the first one does
        img = synth_natural_image(64, 64, seed=21)
        profile = ProviderProfile("host", 75)
        data = jpeg_encode(img, CodecParams(quality=95))
        g1 = provider_recompress(data, profile)
        g2 = provider_recompress(g1, profile)
        g3 = provider_recompress(g2, profile)
        d12 = psnr(jpeg_decode(g1), jpeg_decode(g2))
        d23 = psnr(jpeg_decode(g2), jpeg_decode(g3))
        assert d23 >= d12

    def test_forced_subsampling(self):
        img = synth_natural_image(64, 64, seed=22)
        data = jpeg_encode(img, CodecParams(quality=95))
        a = provider_recompress(data, ProviderProfile("a", 70, "444"))
        b = provider_recompress(data, ProviderProfile("b", 70, "420"))
        assert a != b


class TestAggregates:
    def test_mean_psnr_gap(self):
        plain = [RDPoint(50, 1.0, 32.0), RDPoint(85, 2.0, 38.0)]
        enc = [RDPoint(50, 1.1, 31.0), RDPoint(85, 2.3, 36.0)]
        assert mean_psnr_gap(plain, enc) == pytest.approx(1.5)

    def test_mean_bpp_inflation(self):
        plain = [RDPoint(50, 1.0, 32.0), RDPoint(85, 2.0, 38.0)]
        enc = [RDPoint(50, 1.2, 31.0), RDPoint(85, 2.2, 36.0)]
        assert mean_bpp_inflation(plain, enc) == pytest.approx(0.15)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mean_psnr_gap([RDPoint(50, 1.0, 32.0)], [])


def assert_refused_in_16_mib(data: bytes) -> None:
    """``jpeg_decode`` refuses a stream too short for its frame before allocating the store."""
    tracemalloc.start()
    try:
        with pytest.raises(CodecError, match="needs more data"):
            jpeg_decode(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, f"peak {peak / 2**20:.1f} MiB"


class TestBuiltinCodec:
    """Properties of the built-in codec, through ``etckit._jpeg`` and the ``codec`` adapter."""

    def test_annex_k_huffman_tables_are_complete(self):
        ac_symbols = {0x00, 0xF0} | {r << 4 | s for r in range(16) for s in range(1, 11)}
        for (cls, _), spec in _jpeg._HUFFMAN_SPECS.items():
            raw = bytes.fromhex(spec)
            counts, symbols = raw[:16], raw[16:]
            assert sum(counts) == len(symbols)
            assert set(symbols) == (set(range(12)) if cls == 0 else ac_symbols)

    def test_quality_scaling(self):
        # IJG: q50 is Annex K itself, q100 is all ones, q1 clips at 255
        assert _jpeg._quant_table(50, False)[:3].tolist() == [16, 11, 12]
        assert set(_jpeg._quant_table(100, True).tolist()) == {1}
        assert _jpeg._quant_table(1, False).max() == 255

    @pytest.mark.parametrize("size", [(1, 1), (17, 9), (50, 37)])
    @pytest.mark.parametrize(
        "mode", ["420", "444", "420-progressive", "444-progressive", "gray", "gray-progressive"]
    )
    def test_roundtrip_any_size(self, size, mode):
        # sizes off the MCU lattice exercise padding, cropping and the
        # smaller block grids of single-component progressive scans
        width, height = size
        channels = 1 if mode.startswith("gray") else 3
        rng = np.random.default_rng(width * height)
        smooth = np.cumsum(rng.integers(-3, 4, (height, width, channels)), axis=1) + 128
        img = ImageBuffer(np.clip(smooth, 0, 255).astype(np.uint8))
        params = CodecParams(95, mode[:3] if channels == 3 else "420", "progressive" in mode)
        data = jpeg_encode(img, params)
        decoded = jpeg_decode(data)
        assert decoded.data.shape == img.data.shape
        assert psnr(img, decoded) > 30.0
        # the round trip takes the raster from the encoder's coefficients, not the stream
        rebuilt, length = jpeg_roundtrip(img, params)
        assert np.array_equal(rebuilt.data, decoded.data) and length == len(data)

    def test_420_keeps_each_mcu_self_contained(self):
        # box-averaged, replicated chroma: an MCU decodes the same wherever it sits
        img = synth_natural_image(64, 64, seed=9).data
        swapped = img.copy()
        swapped[:16, :16], swapped[:16, 16:32] = img[:16, 16:32], img[:16, :16]
        a = _jpeg.decode(_jpeg.encode(img, 75, "420", False))
        b = _jpeg.decode(_jpeg.encode(swapped, 75, "420", False))
        assert np.array_equal(a[:16, :16], b[:16, 16:32])
        assert np.array_equal(a[:16, 16:32], b[:16, :16])

    @pytest.mark.parametrize(
        "feature, edit",
        [
            ("12-bit", lambda d: d.replace(b"\xff\xc0\x00\x11\x08", b"\xff\xc0\x00\x11\x0c", 1)),
            ("arithmetic coding", lambda d: d.replace(b"\xff\xc0", b"\xff\xc9", 1)),
            ("restart intervals", lambda d: d.replace(b"\xff\xda", b"\xff\xdd\x00\x04\x00\x10\xff\xda", 1)),
        ],
    )
    def test_unsupported_features_are_named(self, feature, edit):
        data = _jpeg.encode(synth_natural_image(32, 32, seed=12).data, 75, "420", False)
        with pytest.raises(_jpeg.JpegError, match=f"unsupported feature: {feature}"):
            _jpeg.decode(edit(data))

    def test_successive_approximation_is_named(self):
        data = bytearray(_jpeg.encode(synth_natural_image(32, 32, seed=12).data, 75, "420", True))
        sos = data.index(b"\xff\xda")
        data[sos + 2 + data[sos + 3] - 1] = 0x01  # Ah/Al of the first scan: Al = 1
        with pytest.raises(_jpeg.JpegError, match="unsupported feature: successive approximation"):
            _jpeg.decode(bytes(data))

    def test_header_larger_than_stream_is_refused(self):
        data = bytearray(_jpeg.encode(synth_natural_image(32, 32, seed=13).data, 75, "444", False))
        sof = data.index(b"\xff\xc0")
        data[sof + 5:sof + 9] = b"\xff\xff\xff\xff"  # claims 65535x65535
        with pytest.raises(_jpeg.JpegError, match="needs more data"):
            _jpeg.decode(bytes(data))

    def test_padding_does_not_pay_for_a_huge_frame(self):
        # an 8x8 stream claiming 7000x7000, padded to 131 403 bytes by two
        # 64 KiB COM segments: the store would be 93 MiB, and the padding must
        # not count as data that could fill it
        data = bytearray(_jpeg.encode(np.zeros((8, 8, 1), np.uint8), 75, "420", False))
        sof = data.index(b"\xff\xc0")
        data[sof + 5:sof + 9] = struct.pack(">HH", 7000, 7000)
        end = sof + 2 + (data[sof + 2] << 8 | data[sof + 3])
        com = b"\xff\xfe\xff\xff" + bytes(0xFFFD)
        data[end:end] = com + com
        assert len(data) == 131_403
        assert_refused_in_16_mib(bytes(data))

    def test_first_chroma_scan_does_not_pay_for_the_frame(self):
        # 8192x8192 with 4x4 luma and 1x1 chroma, whose first scan codes only
        # Cb's 256x256 blocks in 8 KiB: that scan's data would suffice, but the
        # store of all three components would be 151 MiB, and the luma and Cr
        # blocks still to come need more data than the stream holds
        data = bytearray(_jpeg.encode(np.zeros((16, 16, 3), np.uint8), 75, "420", False))
        sof = data.index(b"\xff\xc0")
        data[sof + 5:sof + 9] = struct.pack(">HH", 8192, 8192)
        data[sof + 11] = 0x44  # the luma's sampling factors
        sos = data.index(b"\xff\xda")
        cb = data[sos + 7:sos + 9]  # Cb's component id and table selectors
        data[sos:] = b"\xff\xda\x00\x08\x01" + cb + b"\x00\x3f\x00" + bytes(8 << 10) + b"\xff\xd9"
        assert_refused_in_16_mib(bytes(data))

    def test_every_truncation_is_a_codec_error(self):
        data = _jpeg.encode(synth_natural_image(24, 16, seed=14).data, 80, "420", True)
        for n in range(len(data)):
            with pytest.raises(_jpeg.JpegError):
                _jpeg.decode(data[:n])


ENTROPY_CASES = [
    (mode, size, progressive)
    for mode in ("gray", "420", "444")
    for size in ((1, 1), (17, 9), (50, 37))
    for progressive in (False, True)
]


def integer_frame(mode, size, progressive):
    """A frame whose every block, padding included, holds seeded integer
    coefficients, about 80% of them zero. RandomState's stream is frozen, so
    the frame is the same on every numpy."""
    width, height = size
    sampling = ((1, 1),) if mode == "gray" else _jpeg._SAMPLING[mode]
    comps = [_jpeg._Component(i + 1, h, v, tq, _jpeg._quant_table(75, tq == 1))
             for i, ((h, v), tq) in enumerate(zip(sampling, (0, 1, 1)))]
    frame = _jpeg._frame(width, height, comps, progressive)
    store = np.frombuffer(frame["coefs"], np.int16)
    rng = np.random.RandomState(width * 100 + height)
    category = rng.randint(1, 11, store.size)  # 1..10 bits, so DC differences stay within category 11
    magnitude = (1 << (category - 1)) + rng.randint(0, 1 << 9, store.size) % (1 << (category - 1))
    sign = np.where(rng.randint(0, 2, store.size) == 1, -1, 1)
    store[:] = np.where(rng.random_sample(store.size) < 0.8, 0, sign * magnitude)
    return frame


# SHA-256 of _write(integer_frame(*case)), first 16 hex digits. Integer frames
# keep the float DCT out of the pins, so only the entropy layer moves them.
STREAM_PINS = {
    ("gray", (1, 1), False): "eb06af7b90997b05",
    ("gray", (1, 1), True): "f659bd11a72442bc",
    ("gray", (17, 9), False): "105a920bd9b4bbd2",
    ("gray", (17, 9), True): "9861842767d526c8",
    ("gray", (50, 37), False): "39f65ae88e90e064",
    ("gray", (50, 37), True): "ff1f2d801bce9c7b",
    ("420", (1, 1), False): "e44b3344cb71dd4e",
    ("420", (1, 1), True): "deb8cccb42eb0c37",
    ("420", (17, 9), False): "492bf9b9d182991c",
    ("420", (17, 9), True): "b6f328c3fae3162e",
    ("420", (50, 37), False): "2c333da8f18017d6",
    ("420", (50, 37), True): "a8f225b834a8d97f",
    ("444", (1, 1), False): "cf06442e8c6fdbbf",
    ("444", (1, 1), True): "43215c4f848dccbf",
    ("444", (17, 9), False): "d5c19d8f3f16c56a",
    ("444", (17, 9), True): "50a8732390c75e9b",
    ("444", (50, 37), False): "32172a65d0983b2e",
    ("444", (50, 37), True): "4e2b294200ec0867",
}


class TestEntropyLayer:
    """``_write`` and ``_read`` are lossless inverses over a frame's coefficients."""

    @pytest.mark.parametrize("mode, size, progressive", ENTROPY_CASES)
    def test_read_inverts_write(self, mode, size, progressive):
        frame = integer_frame(mode, size, progressive)
        data = _jpeg._write(frame)
        back = _jpeg._read(data)
        assert np.array_equal(_jpeg._inverse(back), _jpeg._inverse(frame))
        for c, ours, theirs in zip(frame["comps"], _jpeg._grids(frame), _jpeg._grids(back)):
            rows, cols = c.own
            assert np.array_equal(ours[:rows, :cols], theirs[:rows, :cols])
        if not progressive:
            # a progressive AC scan codes only its component's own block grid,
            # so in 4:2:0 the luma padding blocks of the two stores differ
            assert back["coefs"] == frame["coefs"]
            assert _jpeg._write(back) == data

    @pytest.mark.parametrize("mode, size, progressive", ENTROPY_CASES)
    def test_stream_is_pinned(self, mode, size, progressive):
        data = _jpeg._write(integer_frame(mode, size, progressive))
        assert hashlib.sha256(data).hexdigest()[:16] == STREAM_PINS[mode, size, progressive]


def test_builtin_and_pillow_agree():
    """Each codec decodes the other's streams, so the built-in one is standard-compliant.

    Pillow decodes the built-in codec's baseline 4:2:0, 4:4:4 and greyscale
    streams and its progressive stream; the built-in codec decodes Pillow's
    baseline streams. Both encoders use the Annex K tables at the same IJG
    quality, so sizes differ only through rounding in the colour transform
    and the chroma downsampling filter: bpp within 3%. Both decoders of one
    stream, and both encoders at one quality, differ only through libjpeg's
    integer IDCT and triangle-filter chroma upsampling against the built-in
    float IDCT and replication: PSNR against the original within 0.5 dB.
    With libjpeg-turbo 2.1 called directly in Pillow's place, the gaps on
    these images were at most 0.6% and 0.06 dB; the bounds leave room for
    other libjpeg builds.
    """
    pil = pytest.importorskip("PIL.Image")

    img = synth_natural_image(256, 256, seed=40)
    gray = synth_natural_image(256, 256, channels=1, seed=41)
    n_pixels = 256 * 256

    def pil_encode(src, subsampling):
        arr = src.data[:, :, 0] if src.channels == 1 else src.data
        buf = io.BytesIO()
        kwargs = {} if src.channels == 1 else {"subsampling": {"420": 2, "444": 0}[subsampling]}
        pil.fromarray(arr).save(buf, format="JPEG", quality=85, **kwargs)
        return buf.getvalue()

    def pil_decode(data):
        return ImageBuffer(np.asarray(pil.open(io.BytesIO(data))))

    def ours_decode(data):
        return ImageBuffer(_jpeg.decode(data))

    cases = [(img, "420", False), (img, "444", False), (gray, "420", False), (img, "420", True)]
    for src, subsampling, progressive in cases:
        ours = _jpeg.encode(src.data, 85, subsampling, progressive)
        by_pil, by_ours = pil_decode(ours), ours_decode(ours)
        assert abs(psnr(src, by_pil) - psnr(src, by_ours)) <= 0.5
        if progressive:
            continue
        theirs = pil_encode(src, subsampling)
        bpp_ours, bpp_theirs = len(ours) * 8 / n_pixels, len(theirs) * 8 / n_pixels
        assert abs(bpp_ours - bpp_theirs) <= 0.03 * bpp_theirs
        assert abs(psnr(src, ours_decode(theirs)) - psnr(src, pil_decode(theirs))) <= 0.5
        assert abs(psnr(src, by_ours) - psnr(src, ours_decode(theirs))) <= 0.5
