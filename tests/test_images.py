import math
import mmap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etckit.attack import Puzzle, ground_truth_from_plain
from etckit.cipher import SCHEME_GRAYSCALE, CipherConfig, decrypt, encrypt, stack_planes
from etckit.codec import CodecParams, jpeg_encode, jpeg_roundtrip, rd_curve
from etckit.images import (
    BlockGrid,
    ImageBuffer,
    load_ppm,
    merge_blocks,
    pad_replicate,
    psnr,
    save_ppm,
    split_blocks,
)
from etckit.keystream import MasterKey
from etckit.templates import extract_template
from step_oracles import cut_blocks, paste_blocks


def _img(h, w, c, seed=0):
    rng = np.random.default_rng(seed)
    return ImageBuffer(rng.integers(0, 256, (h, w, c), dtype=np.uint8))


def _traced_peak(fn, *args):
    """The most memory that tracemalloc saw live while ``fn(*args)`` ran, its
    result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _anonymous_mmap(raw: bytes) -> mmap.mmap:
    out = mmap.mmap(-1, len(raw))
    out.write(raw)
    return out


class TestImageBuffer:
    def test_properties(self):
        img = _img(4, 6, 3)
        assert (img.height, img.width, img.channels) == (4, 6, 3)

    def test_rejects_bad_dtype(self):
        with pytest.raises(ValueError):
            ImageBuffer(np.zeros((4, 4, 1), dtype=np.float64))

    def test_rejects_bad_channel_count(self):
        with pytest.raises(ValueError):
            ImageBuffer(np.zeros((4, 4, 2), dtype=np.uint8))

    def test_promotes_rank_2_to_grayscale(self):
        img = ImageBuffer(np.zeros((4, 5), dtype=np.uint8))
        assert (img.height, img.width, img.channels) == (4, 5, 1)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            ImageBuffer(np.zeros((4, 4, 1, 1), dtype=np.uint8))
        with pytest.raises(ValueError):
            ImageBuffer(np.zeros((0, 4, 1), dtype=np.uint8))

    def test_equality(self):
        a, b = _img(3, 3, 1, 1), _img(3, 3, 1, 1)
        assert a == b
        assert a != _img(3, 3, 1, 2)
        assert (a == 3) is False


class TestPPM:
    def test_round_trip_color(self):
        img = _img(5, 7, 3)
        assert load_ppm(save_ppm(img)) == img

    def test_round_trip_gray(self):
        img = _img(7, 5, 1)
        assert load_ppm(save_ppm(img)) == img

    def test_canonical_header(self):
        img = ImageBuffer(np.zeros((2, 3, 3), dtype=np.uint8))
        raw = save_ppm(img)
        assert raw.startswith(b"P6\n3 2\n255\n")
        assert len(raw) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3

    def test_gray_uses_p5(self):
        img = ImageBuffer(np.zeros((2, 3, 1), dtype=np.uint8))
        assert save_ppm(img).startswith(b"P5\n")

    def test_comments_and_whitespace(self):
        raw = b"P5 # a comment\n# another\n 2\t2 #w\n255\n\x01\x02\x03\x04"
        img = load_ppm(raw)
        assert img.data[:, :, 0].tolist() == [[1, 2], [3, 4]]

    def test_load_is_a_read_only_view_of_its_bytes(self):
        raw = save_ppm(_img(5, 7, 3))
        img = load_ppm(raw)
        assert not img.data.flags.writeable
        assert np.shares_memory(img.data, np.frombuffer(raw, np.uint8))
        assert img.copy().data.flags.writeable

    @pytest.mark.parametrize("writable", [bytearray, _anonymous_mmap])
    def test_load_copies_a_buffer_its_caller_can_write(self, writable):
        img = _img(5, 7, 3)
        raw = writable(save_ppm(img))
        loaded = load_ppm(raw)
        raw[-1] ^= 0xFF  # the last sample, were the image a view of raw
        assert loaded == img

    def test_load_allocates_no_payload(self):
        raw = save_ppm(_img(512, 512, 3))
        assert _traced_peak(load_ppm, raw) < 0.01 * 512 * 512 * 3

    def test_save_copies_the_payload_once(self):
        img = _img(512, 512, 3)
        assert _traced_peak(save_ppm, img) <= 1.01 * img.data.nbytes

    def test_rejects_bad_magic(self):
        with pytest.raises(ValueError):
            load_ppm(b"P3\n1 1\n255\n0 0 0")

    def test_rejects_truncated_payload(self):
        with pytest.raises(ValueError):
            load_ppm(b"P5\n2 2\n255\n\x00\x00\x00")

    @pytest.mark.parametrize("magic", [b"P5", b"P6"])
    def test_rejects_a_zero_size(self, magic):
        with pytest.raises(ValueError, match="bad dimensions 0x4"):
            load_ppm(magic + b"\n0 4\n255\n")

    def test_rejects_a_header_without_separator(self):
        with pytest.raises(ValueError, match="missing separator before payload"):
            load_ppm(b"P5\n1 1\n255")

    def test_rejects_nonmax_255(self):
        with pytest.raises(ValueError):
            load_ppm(b"P5\n1 1\n65535\n\x00\x00")

    @given(st.integers(1, 12), st.integers(1, 12), st.sampled_from([1, 3]), st.integers(0, 50))
    def test_round_trip_property(self, h, w, c, seed):
        img = _img(h, w, c, seed)
        assert load_ppm(save_ppm(img)) == img

    # a header as the grammar builds it, then a cut and byte splices
    _GAP = st.sampled_from([b" ", b"\n", b"\t", b" #c\n", b"#c", b""])
    _FIELD = st.one_of(st.integers(-1, 3).map(str), st.sampled_from(["255", "9" * 30, "x", ""]))
    _SPLICES = st.one_of(st.binary(max_size=3), st.sampled_from([b" ", b"\n", b"#", b"0", b"255"]))

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([b"P5", b"P6", b"P3", b""]),
        st.lists(st.tuples(_GAP, _FIELD.map(str.encode)), min_size=3, max_size=3),
        _GAP,
        st.binary(max_size=20),
        st.data(),
    )
    def test_fuzzed_input_parses_or_raises_value_error(self, magic, fields, gap, payload, data):
        head = magic + b"".join(g + f for g, f in fields)
        raw = bytearray(head + gap + payload)
        # cut anywhere, but most often where the header meets the payload
        near = st.integers(max(len(head) - 2, 0), len(head) + 2)
        del raw[data.draw(st.just(len(raw)) | st.integers(0, len(raw)) | near) :]
        for _ in range(data.draw(st.integers(0, 2))):
            at = data.draw(st.integers(0, len(raw)))
            raw[at : at + data.draw(st.integers(0, 3))] = data.draw(self._SPLICES)
        try:
            img = load_ppm(bytes(raw))
        except ValueError:
            return
        assert img.data.size > 0 and load_ppm(save_ppm(img)) == img


class TestBlocks:
    def test_split_merge_round_trip(self):
        img = _img(32, 48, 3)
        blocks, grid = split_blocks(img, 16)
        assert grid == BlockGrid(block_size=16, rows=2, cols=3)
        assert blocks.shape == (6, 16, 16, 3)
        assert merge_blocks(blocks, grid) == img

    def test_block_order_is_row_major(self):
        data = np.arange(16, dtype=np.uint8).reshape(4, 4, 1)
        blocks, grid = split_blocks(ImageBuffer(data), 2)
        assert blocks[0, :, :, 0].tolist() == [[0, 1], [4, 5]]
        assert blocks[1, :, :, 0].tolist() == [[2, 3], [6, 7]]
        assert blocks[2, :, :, 0].tolist() == [[8, 9], [12, 13]]

    def test_split_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            split_blocks(_img(30, 32, 1), 16)

    @pytest.mark.parametrize("cut", [split_blocks, pad_replicate], ids=["split", "pad"])
    def test_rejects_block_size_zero(self, cut):
        with pytest.raises(ValueError, match="block_size must be >= 1, got 0"):
            cut(_img(4, 4, 1), 0)

    def test_merge_rejects_wrong_count(self):
        blocks, grid = split_blocks(_img(32, 32, 1), 16)
        with pytest.raises(ValueError):
            merge_blocks(blocks[:3], grid)

    @pytest.mark.parametrize("c", [2, 4])
    def test_merge_rejects_a_stack_of_other_channel_counts(self, c):
        # the channel count is the stack's last axis, so an image's rule refuses it
        with pytest.raises(ValueError, match=r"\(H, W, 1\|3\)"):
            merge_blocks(np.zeros((4, 2, 2, c), np.uint8), BlockGrid(2, 2, 2))

    @pytest.mark.parametrize("dtype", [np.int8, np.bool_, np.int64])
    def test_merge_rejects_other_dtypes(self, dtype):
        # merge moves bytes as words, which would reinterpret any other dtype
        blocks, grid = split_blocks(_img(32, 32, 1), 16)
        with pytest.raises(ValueError, match="expected uint8 blocks"):
            merge_blocks(blocks.astype(dtype), grid)

    @pytest.mark.parametrize(
        "h, w, c, bs",
        [(32, 16, 3, 16), (48, 8, 1, 8), (16, 16, 3, 16), (16, 48, 3, 16), (32, 48, 1, 16)],
    )
    def test_split_returns_a_fresh_array(self, h, w, c, bs):
        # one block wide (w == bs) is the case a plain reshape would alias
        img = _img(h, w, c)
        blocks, _ = split_blocks(img, bs)
        assert not np.shares_memory(blocks, img.data)
        assert blocks.flags.c_contiguous

    @pytest.mark.parametrize(
        "h, w, c, bs",
        [(32, 16, 3, 16), (48, 8, 1, 8), (16, 16, 3, 16), (16, 48, 3, 16), (32, 48, 1, 16)],
    )
    def test_merge_returns_a_fresh_array(self, h, w, c, bs):
        blocks, grid = split_blocks(_img(h, w, c), bs)
        merged = merge_blocks(blocks, grid)
        assert not np.shares_memory(merged.data, blocks)
        assert merged.data.flags.c_contiguous

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 12),
        st.sampled_from([1, 3]),
        st.integers(0, 7),
    )
    def test_split_merge_property(self, rows, cols, bs, c, offset):
        # split and merge move block rows of bs * c bytes as 1-, 2-, 4- or
        # 8-byte words; both must equal plain slicing, not only undo each
        # other, also on samples that start at an unaligned address
        h, w = rows * bs, cols * bs
        samples = np.empty(h * w * c + offset, np.uint8)[offset:].reshape(h, w, c)
        samples[...] = _img(h, w, c, seed=rows * 31 + cols).data
        img = ImageBuffer(samples)
        blocks, grid = split_blocks(img, bs)
        assert np.array_equal(blocks, cut_blocks(samples, bs))
        merged = merge_blocks(blocks, grid)
        assert np.array_equal(merged.data, paste_blocks(blocks, cols))
        assert merged == img

    @pytest.mark.parametrize("layout", ["every-other-block", "transposed"])
    @pytest.mark.parametrize("bs, c", [(3, 1), (2, 3), (4, 1), (8, 3)])  # 1, 2, 4, 8-byte words
    def test_merge_of_a_strided_stack(self, layout, bs, c):
        big, _ = split_blocks(_img(4 * bs, 3 * bs, c), bs)
        stack = big[::2] if layout == "every-other-block" else big[:6].transpose(0, 2, 1, 3)
        assert not stack.flags.c_contiguous
        grid = BlockGrid(bs, 2, 3)
        merged = merge_blocks(stack, grid)
        assert merged == merge_blocks(np.ascontiguousarray(stack), grid)
        assert not np.shares_memory(merged.data, big)
        assert merged.data.flags.c_contiguous


class TestPadReplicate:
    def test_no_padding_needed(self):
        img = _img(16, 16, 3)
        padded, pr, pb = pad_replicate(img, 16)
        assert (pr, pb) == (0, 0)
        assert padded == img

    def test_pads_to_divisibility(self):
        img = _img(30, 41, 3)
        padded, pr, pb = pad_replicate(img, 16)
        assert (padded.height, padded.width) == (32, 48)
        assert (pr, pb) == (7, 2)
        # replicated edge values
        assert (padded.data[:30, 41:, :] == img.data[:, 40:41, :]).all()
        assert (padded.data[30:, :41, :] == img.data[29:30, :41, :]).all()


class TestPSNR:
    def test_identical_is_infinite(self):
        img = _img(8, 8, 3)
        assert psnr(img, img) == math.inf

    def test_known_value(self):
        a = ImageBuffer(np.zeros((4, 4, 1), dtype=np.uint8))
        b = ImageBuffer(np.full((4, 4, 1), 255, dtype=np.uint8))
        assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_single_unit_error(self):
        a = ImageBuffer(np.zeros((1, 1, 1), dtype=np.uint8))
        b = ImageBuffer(np.ones((1, 1, 1), dtype=np.uint8))
        assert psnr(a, b) == pytest.approx(10 * math.log10(255**2), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(_img(4, 4, 1), _img(4, 5, 1))

    def test_symmetry(self):
        a, b = _img(8, 8, 3, 1), _img(8, 8, 3, 2)
        assert psnr(a, b) == psnr(b, a)


_KEY = MasterKey(7)

# library functions that take an image, each given a read-only 48x32 RGB one
_IMAGE_USES = {
    "encrypt": lambda img: encrypt(img, _KEY, CipherConfig()),
    "encrypt-gray": lambda img: encrypt(img, _KEY, CipherConfig(SCHEME_GRAYSCALE)),
    "decrypt": lambda img: decrypt(img, _KEY, encrypt(img, _KEY, CipherConfig())[1]),
    "pad_replicate": lambda img: pad_replicate(img, 20),
    "stack_planes": stack_planes,
    "split_blocks": lambda img: split_blocks(img, 8),
    "psnr": lambda img: psnr(img, img),
    "jpeg_encode": lambda img: jpeg_encode(img, CodecParams()),
    "jpeg_roundtrip": lambda img: jpeg_roundtrip(img, CodecParams()),
    "rd_curve": lambda img: rd_curve(img, _KEY, CipherConfig(), [50]),
    "ground_truth_from_plain": lambda img: ground_truth_from_plain(img, Puzzle.from_image(img, 16)),
    "extract_template": lambda img: extract_template(img, 6),
}


@pytest.mark.parametrize("use", _IMAGE_USES.values(), ids=_IMAGE_USES.keys())
def test_a_loaded_image_is_read_only_and_left_unchanged(use):
    # no etckit function writes into an image it is given: into this one a
    # write would raise, and the bytes must read the same afterwards
    img = load_ppm(save_ppm(_img(32, 48, 3)))
    assert not img.data.flags.writeable
    before = img.data.tobytes()
    use(img)
    assert img.data.tobytes() == before
