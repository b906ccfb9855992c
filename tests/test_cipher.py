import hashlib
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etckit.cipher import (
    CHANNEL_PERMS,
    COLOR_SHUFFLE,
    NEGPOS,
    POSE_COMPOSE,
    POSE_INVERSE,
    ROTATE_FLIP,
    SCHEME_COLOR,
    SCHEME_GRAYSCALE,
    SCRAMBLE,
    STEP_ORDER,
    STEPS,
    CipherConfig,
    CipherSidecar,
    _color_shuffle,
    _rotate_flip,
    apply_orientation,
    apply_poses,
    decrypt,
    encrypt,
    inverse_permutation,
    key_schedule,
    normalize_steps,
    stack_planes,
    step_draws,
    steps_to_letters,
    unstack_planes,
)
from etckit.images import ImageBuffer
from etckit.keystream import MasterKey, draws
from step_oracles import (
    apply_color_shuffle,
    apply_negpos,
    apply_scramble,
    orient_block,
    reference_encrypt,
)


def _img(h, w, c=3, seed=0):
    rng = np.random.default_rng(seed)
    return ImageBuffer(rng.integers(0, 256, (h, w, c), dtype=np.uint8))


class TestSteps:
    def test_normalize_accepts_letters_and_names(self):
        assert normalize_steps("s,r") == frozenset({"scramble", "rotate_flip"})
        assert normalize_steps("nc") == frozenset({"negpos", "color_shuffle"})
        assert normalize_steps(["scramble", "c"]) == frozenset({"scramble", "color_shuffle"})
        assert normalize_steps("") == frozenset()
        assert normalize_steps(None) == frozenset()

    def test_normalize_rejects_unknown(self):
        with pytest.raises(ValueError):
            normalize_steps("x")

    def test_letters_are_canonically_ordered(self):
        assert steps_to_letters(frozenset({"color_shuffle", "scramble"})) == "sc"
        assert steps_to_letters("rnsc") == "srnc"


class TestConfig:
    def test_defaults(self):
        cfg = CipherConfig()
        assert cfg.scheme == SCHEME_COLOR
        assert cfg.block_size == 16
        assert cfg.steps == normalize_steps("srnc")

    def test_grayscale_defaults(self):
        cfg = CipherConfig(scheme=SCHEME_GRAYSCALE)
        assert cfg.block_size == 8
        assert cfg.steps == normalize_steps("srn")

    def test_color_shuffle_requires_color(self):
        with pytest.raises(ValueError):
            CipherConfig(scheme=SCHEME_GRAYSCALE, steps="c")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            CipherConfig(scheme="cmyk")


class TestOrientation:
    def test_worked_example_code_1(self):
        block = np.asarray([[1, 2], [3, 4]], dtype=np.uint8).reshape(2, 2, 1)
        out = apply_orientation(block, 1)
        assert out[:, :, 0].tolist() == [[2, 4], [1, 3]]

    def test_code_0_is_identity(self):
        block = _img(4, 4).data
        assert (apply_orientation(block, 0) == block).all()

    def test_all_codes_are_bijections(self):
        block = np.arange(16, dtype=np.uint8).reshape(4, 4, 1)
        seen = {apply_orientation(block, code).tobytes() for code in range(8)}
        assert len(seen) == 8  # distinct on an asymmetric block

    def test_inverse_table(self):
        block = _img(8, 8).data
        for code in range(8):
            back = apply_orientation(apply_orientation(block, code), POSE_INVERSE[code])
            assert (back == block).all()
            inv = POSE_INVERSE[code]
            assert POSE_COMPOSE[code, inv] == POSE_COMPOSE[inv, code] == 0

    def test_composition_law(self):
        block = _img(4, 4).data
        for first in range(8):
            for then in range(8):
                direct = apply_orientation(apply_orientation(block, first), then)
                composed = apply_orientation(block, POSE_COMPOSE[first, then])
                assert (direct == composed).all(), (first, then)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            apply_orientation(np.zeros((2, 3, 1), dtype=np.uint8), 1)

    @pytest.mark.parametrize("code", [-1, 8])
    def test_rejects_codes_outside_the_group(self, code):
        with pytest.raises(ValueError, match=rf"orientation code must be in \[0, 8\), got {code}"):
            apply_orientation(np.zeros((2, 2, 1), dtype=np.uint8), code)


class TestScramble:
    def test_applies_permutation(self):
        blocks = np.arange(4, dtype=np.uint8).reshape(4, 1, 1, 1)
        out = apply_scramble(blocks, np.asarray([2, 0, 3, 1]))
        assert out.ravel().tolist() == [2, 0, 3, 1]

    def test_inverse_permutation(self):
        perm = np.asarray([2, 0, 3, 1])
        inv = inverse_permutation(perm)
        assert (inv[perm] == np.arange(4)).all()
        blocks = _img(8, 8).data.reshape(4, 4, 4, 3)
        assert (apply_scramble(apply_scramble(blocks, perm), inv) == blocks).all()


class TestNegposAndShuffle:
    def test_negpos_is_involution(self):
        block = _img(8, 8).data
        assert (apply_negpos(apply_negpos(block, 1), 1) == block).all()

    def test_negpos_values(self):
        block = np.zeros((2, 2, 1), dtype=np.uint8)
        assert (apply_negpos(block, 1) == 255).all()
        assert (apply_negpos(block, 0) == 0).all()
        with pytest.raises(ValueError):
            apply_negpos(block, 2)

    def test_channel_perm_index_5_reverses(self):
        block = np.zeros((1, 1, 3), dtype=np.uint8)
        block[0, 0] = (10, 20, 30)
        assert apply_color_shuffle(block, 5)[0, 0].tolist() == [30, 20, 10]

    def test_shuffle_inverse_table(self):
        block = _img(4, 4).data
        for idx in range(6):
            back = apply_color_shuffle(apply_color_shuffle(block, idx), POSE_INVERSE[16 * idx] // 16)
            assert (back == block).all(), idx

    def test_channel_perms_lexicographic(self):
        assert CHANNEL_PERMS == tuple(sorted(CHANNEL_PERMS))
        assert len(set(CHANNEL_PERMS)) == 6


class TestPlaneStacking:
    def test_stack_unstack_round_trip(self):
        img = _img(6, 4, 3)
        stacked = stack_planes(img)
        assert (stacked.height, stacked.width, stacked.channels) == (18, 4, 1)
        assert unstack_planes(stacked) == img

    def test_stack_layout(self):
        img = _img(2, 2, 3)
        stacked = stack_planes(img)
        assert (stacked.data[0:2, :, 0] == img.data[:, :, 0]).all()
        assert (stacked.data[2:4, :, 0] == img.data[:, :, 1]).all()
        assert (stacked.data[4:6, :, 0] == img.data[:, :, 2]).all()

    def test_gray_input_passes_through(self):
        img = _img(4, 4, 1)
        assert stack_planes(img) == img

    @pytest.mark.parametrize("h, c", [(6, 3), (4, 1)])
    def test_unstack_rejects_colour_and_heights_off_three(self, h, c):
        with pytest.raises(ValueError, match=rf"^cannot unstack ImageBuffer\(4x{h}x{c}\)$"):
            unstack_planes(_img(h, 4, c))


class TestSidecar:
    def test_text_round_trip(self):
        sc = CipherSidecar(
            scheme=SCHEME_COLOR, block_size=16, steps=normalize_steps("sn"),
            orig_w=100, orig_h=60, pad_r=12, pad_b=4,
        )
        assert CipherSidecar.from_text(sc.to_text()) == sc

    def test_text_is_stable(self):
        sc = CipherSidecar(
            scheme=SCHEME_COLOR, block_size=16, steps=normalize_steps("srnc"),
            orig_w=32, orig_h=32,
        )
        assert sc.to_text() == (
            "version=1\nscheme=color\nblock_size=16\nsteps=srnc\n"
            "orig_w=32\norig_h=32\npad_r=0\npad_b=0\n"
        )

    def test_rejects_unknown_version(self):
        sc = CipherSidecar(
            scheme=SCHEME_COLOR, block_size=16, steps=frozenset(), orig_w=16, orig_h=16
        )
        text = sc.to_text().replace("version=1", "version=99")
        with pytest.raises(ValueError):
            CipherSidecar.from_text(text)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            CipherSidecar.from_text("not a sidecar")

    VALID = (
        "version=1\nscheme=color\nblock_size=16\nsteps=srnc\n"
        "orig_w=40\norig_h=40\npad_r=8\npad_b=8\n"
    )

    def test_valid_text_parses(self):
        sc = CipherSidecar.from_text(self.VALID)
        assert (sc.orig_w, sc.orig_h, sc.pad_r, sc.pad_b) == (40, 40, 8, 8)

    def test_rejects_negative_pad_that_would_crop_silently(self):
        # 32x32 ciphertext, sidecar claims 40x40 with pad -8: 40 - 8 = 32
        # matches the ciphertext, so only the pad check stops a wrong crop
        ct, sc = encrypt(_img(32, 32), MasterKey(3), CipherConfig())
        text = sc.to_text().replace("orig_w=32", "orig_w=40").replace("pad_r=0", "pad_r=-8")
        with pytest.raises(ValueError, match="pad_r"):
            CipherSidecar.from_text(text)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("pad_r=8", "pad_r=-1"),
            ("pad_b=8", "pad_b=-8"),
            ("pad_r=8", "pad_r=16"),
            ("pad_b=8", "pad_b=17"),
        ],
    )
    def test_rejects_pad_outside_block(self, old, new):
        with pytest.raises(ValueError, match="pad_"):
            CipherSidecar.from_text(self.VALID.replace(old, new))

    @pytest.mark.parametrize("field", ["orig_w", "orig_h"])
    @pytest.mark.parametrize("value", ["0", "-40"])
    def test_rejects_empty_original_size(self, field, value):
        with pytest.raises(ValueError, match="original size"):
            CipherSidecar.from_text(self.VALID.replace(f"{field}=40", f"{field}={value}"))

    @pytest.mark.parametrize("value", ["0", "-16"])
    def test_rejects_block_size_below_one(self, value):
        with pytest.raises(ValueError, match="block_size"):
            CipherSidecar.from_text(self.VALID.replace("block_size=16", f"block_size={value}"))

    @pytest.mark.parametrize(
        "scheme, message",
        [
            ("bogus", "unknown scheme 'bogus'"),
            # VALID enables the channel shuffle, which only the color scheme has
            ("grayscale_based", "color_shuffle requires the color scheme"),
        ],
    )
    def test_rejects_invalid_configuration(self, scheme, message):
        with pytest.raises(ValueError, match=message):
            CipherSidecar.from_text(self.VALID.replace("scheme=color", f"scheme={scheme}"))

    @pytest.mark.parametrize("line", ["pad_r=8", "pad_r=0", "version=1", "steps=s"])
    def test_rejects_repeated_field(self, line):
        with pytest.raises(ValueError, match="repeats"):
            CipherSidecar.from_text(self.VALID + line + "\n")

    @pytest.mark.parametrize("field", ["version", "block_size", "orig_w", "orig_h", "pad_r", "pad_b"])
    @pytest.mark.parametrize("value", ["abc", "1_6", "\u0663\u0662", "+0", " 0", "0 ", "0x10", ""])
    def test_non_integer_field_is_named(self, field, value):
        # plain ASCII digits with an optional minus only, as in the PPM header
        # and the key file; int() alone would read "1_6", "+0", " 0", "0 " and
        # the Arabic-Indic "32", and a line's spaces belong to its field
        text = "".join(f"{k}={value if k == field else v}\n"
                       for k, v in (ln.split("=") for ln in self.VALID.splitlines()))
        with pytest.raises(ValueError, match=re.escape(f"sidecar field {field} must be an integer, got {value!r}")):
            CipherSidecar.from_text(text)

    def test_rejects_unknown_field_by_name(self):
        with pytest.raises(ValueError, match="unknown sidecar field\\(s\\) 'extra', 'zzz'"):
            CipherSidecar.from_text(self.VALID + "zzz=2\nextra=1\n")

    def test_version_is_checked_before_unknown_fields(self):
        with pytest.raises(ValueError, match="unsupported sidecar version 2"):
            CipherSidecar.from_text(self.VALID.replace("version=1", "version=2") + "extra=1\n")

    def test_constructor_validates_too(self):
        with pytest.raises(ValueError):
            CipherSidecar(SCHEME_COLOR, 16, frozenset(), orig_w=16, orig_h=16, pad_r=-8)

    _SPLICES = st.one_of(
        st.text(max_size=3),
        st.sampled_from(["\n", "=", "-", "0", "8", "gray", "scheme=", "steps=q", "9" * 30, "\x00"]),
    )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fuzzed_text_parses_or_raises_value_error(self, data):
        text = list(self.VALID)
        for _ in range(data.draw(st.integers(0, 4))):
            at = data.draw(st.integers(0, len(text)))
            text[at : at + data.draw(st.integers(0, 4))] = data.draw(self._SPLICES)
        try:
            sc = CipherSidecar.from_text("".join(text))
        except ValueError:
            return
        assert CipherSidecar.from_text(sc.to_text()) == sc


class TestEncryptDecrypt:
    def test_empty_steps_is_identity(self):
        img = _img(32, 32)
        ct, _ = encrypt(img, MasterKey(5), CipherConfig(steps=""))
        assert ct == img

    def test_histogram_preserved_without_negpos(self):
        img = _img(32, 32)
        ct, _ = encrypt(img, MasterKey(5), CipherConfig(steps="sr"))
        assert (
            np.bincount(ct.data.ravel(), minlength=256)
            == np.bincount(img.data.ravel(), minlength=256)
        ).all()

    def test_ciphertext_differs_from_plaintext(self):
        img = _img(64, 64)
        ct, _ = encrypt(img, MasterKey(5), CipherConfig())
        assert ct != img

    def test_keys_differ(self):
        img = _img(64, 64)
        a, _ = encrypt(img, MasterKey(1), CipherConfig())
        b, _ = encrypt(img, MasterKey(2), CipherConfig())
        assert a != b

    def test_wrong_key_fails_to_decrypt(self):
        img = _img(64, 64)
        ct, sc = encrypt(img, MasterKey(1), CipherConfig())
        assert decrypt(ct, MasterKey(2), sc) != img

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            encrypt(_img(30, 32), MasterKey(1), CipherConfig())

    def test_color_scheme_rejects_gray_input(self):
        with pytest.raises(ValueError):
            encrypt(_img(32, 32, 1), MasterKey(1), CipherConfig())

    def test_grayscale_scheme_stacks_planes(self):
        img = _img(32, 32, 3)
        ct, sc = encrypt(img, MasterKey(3), CipherConfig(scheme=SCHEME_GRAYSCALE))
        assert (ct.height, ct.width, ct.channels) == (96, 32, 1)
        assert decrypt(ct, MasterKey(3), sc) == img

    def test_grayscale_scheme_on_single_channel(self):
        img = _img(32, 32, 1)
        ct, sc = encrypt(img, MasterKey(3), CipherConfig(scheme=SCHEME_GRAYSCALE))
        assert (ct.height, ct.channels) == (32, 1)
        assert decrypt(ct, MasterKey(3), sc) == img

    def test_decrypt_rejects_wrong_geometry(self):
        img = _img(32, 32)
        ct, sc = encrypt(img, MasterKey(1), CipherConfig())
        with pytest.raises(ValueError):
            decrypt(_img(48, 48), MasterKey(1), sc)

    @pytest.mark.parametrize("steps", ["srnc", "srn", ""])
    def test_decrypt_rejects_gray_ciphertext_with_color_sidecar(self, steps):
        ct, sc = encrypt(_img(32, 32), MasterKey(1), CipherConfig(steps=steps))
        gray = ImageBuffer(ct.data[:, :, :1])
        with pytest.raises(ValueError, match="3-channel image, got 1 channel"):
            decrypt(gray, MasterKey(1), sc)

    def test_padding_recorded_and_cropped(self):
        img = _img(30, 41)
        from etckit.images import pad_replicate

        padded, pr, pb = pad_replicate(img, 16)
        ct, sc = encrypt(padded, MasterKey(9), CipherConfig(), pad=(pr, pb))
        assert (sc.orig_w, sc.orig_h, sc.pad_r, sc.pad_b) == (41, 30, pr, pb)
        assert decrypt(ct, MasterKey(9), sc) == img

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(["", "s", "r", "n", "c", "sr", "nc", "srn", "srnc"]),
        st.integers(0, 2**64 - 1),
        st.integers(0, 10),
    )
    def test_round_trip_property_color(self, steps, key_seed, img_seed):
        img = _img(48, 32, 3, img_seed)
        cfg = CipherConfig(block_size=16, steps=steps)
        ct, sc = encrypt(img, MasterKey(key_seed), cfg)
        assert decrypt(ct, MasterKey(key_seed), sc) == img

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(["", "s", "rn", "srn"]), st.integers(0, 2**64 - 1))
    def test_round_trip_property_grayscale(self, steps, key_seed):
        img = _img(24, 16, 3, 7)
        cfg = CipherConfig(scheme=SCHEME_GRAYSCALE, block_size=8, steps=steps)
        ct, sc = encrypt(img, MasterKey(key_seed), cfg)
        assert decrypt(ct, MasterKey(key_seed), sc) == img

    def test_step_independence(self):
        # disabling one step must not change another step's draws: encrypting
        # with scramble alone matches the scramble part of scramble+negpos
        img = _img(64, 64)
        key = MasterKey(0xFEED)
        ct_s, _ = encrypt(img, key, CipherConfig(steps="s"))
        ct_sn, _ = encrypt(img, key, CipherConfig(steps="sn"))
        # undoing negpos of ct_sn must reproduce ct_s
        from etckit.cipher import NEGPOS, step_draws
        from etckit.images import merge_blocks, split_blocks

        blocks, grid = split_blocks(ct_sn, 16)
        draws = step_draws(key, CipherConfig(steps="sn"), grid.n_blocks)
        undone = blocks.copy()
        flip = draws[NEGPOS] == 1
        undone[flip] = 255 - undone[flip]
        assert merge_blocks(undone, grid) == ct_s


def _subsets(letters):
    return ["".join(c) for r in range(len(letters) + 1) for c in combinations(letters, r)]


COLOR_SUBSETS = _subsets("srnc")
GRAY_SUBSETS = _subsets("srn")


class TestStepTable:
    def test_table_follows_step_order(self):
        assert tuple(row[0] for row in STEPS) == STEP_ORDER

    # grids of 1x1, 1xn, nx1 and odd nxn blocks
    GRIDS = st.one_of(
        st.just((1, 1)),
        st.integers(2, 6).map(lambda n: (1, n)),
        st.integers(2, 6).map(lambda n: (n, 1)),
        st.sampled_from([3, 5, 7]).map(lambda n: (n, n)),
    )

    @pytest.mark.parametrize(
        "scheme, steps",
        [(SCHEME_COLOR, s) for s in COLOR_SUBSETS] + [(SCHEME_GRAYSCALE, s) for s in GRAY_SUBSETS],
    )
    @settings(max_examples=8, deadline=None)
    @given(
        key_seed=st.integers(0, 2**64 - 1),
        grid=GRIDS,
        gray_channels=st.sampled_from([1, 3]),
        img_seed=st.integers(0, 10),
    )
    def test_matches_per_block_reference(
        self, scheme, steps, key_seed, grid, gray_channels, img_seed
    ):
        # the stack maps must equal the per-block oracles applied one block at
        # a time, and decrypting must undo them. Block sizes 3, 4, 6 and 8 or
        # 16 make split and merge move block rows as 1-, 4-, 2- and 8-byte
        # words
        rows, cols = grid
        # a 3-channel image under the grayscale-based scheme has 3x the rows
        channels = 3 if scheme == SCHEME_COLOR else gray_channels
        key = MasterKey(key_seed)
        for bs in (3, 4, 6, 8, 16):
            img = _img(rows * bs, cols * bs, channels, img_seed)
            cfg = CipherConfig(scheme=scheme, block_size=bs, steps=steps)
            ct, sc = encrypt(img, key, cfg)
            assert ct == reference_encrypt(img, key, cfg), bs
            assert decrypt(ct, key, sc) == img, bs

    @pytest.mark.parametrize("layout", ["every-other-block", "transposed"])
    def test_stack_maps_on_strided_stacks(self, layout):
        # a map must return the transformed stack whatever the strides of its
        # input; one that reshaped a strided stack would update a copy
        def strided():
            stack = _img(16 * 4, 4, seed=5).data.reshape(16, 4, 4, 3)
            return stack[::2] if layout == "every-other-block" else stack.transpose(0, 2, 1, 3)

        n = len(strided())
        maps = {ROTATE_FLIP: (_rotate_flip, np.arange(n) % 8), COLOR_SHUFFLE: (_color_shuffle, np.arange(n) % 6),
                "poses": (apply_poses, np.arange(n) * 13 % 96)}
        for name, (step_map, codes) in maps.items():
            blocks = strided()
            assert not blocks.flags.c_contiguous
            want = step_map(np.ascontiguousarray(blocks), codes)
            assert (step_map(blocks, codes) == want).all(), name

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("bad, dtype", [(96, np.int64), (113, np.int64), (255, np.uint8), (-1, np.int64)])
    def test_apply_poses_refuses_codes_outside_the_pose_range(self, channels, bad, dtype):
        # the message names the first code outside [0, 96), and the stack is left as it was
        blocks = _img(4 * 4, 4, channels, seed=2).data.reshape(4, 4, 4, channels)
        before = blocks.copy()
        with pytest.raises(ValueError, match=rf"^pose code {bad} is outside \[0, 96\)"):
            apply_poses(blocks, np.array([5, bad, 200, 3], dtype))
        assert (blocks == before).all()

    @staticmethod
    def _code_draws(kind, n_codes, rng):
        # stacks where every code occurs at least twice, where one
        # non-identity code is absent, and of one block each
        if kind == "every-code-twice":
            return [rng.permutation(np.arange(3 * n_codes) % n_codes)]
        if kind == "one-code-absent":
            codes = np.repeat(np.delete(np.arange(n_codes), 3), 2)
            return [rng.permutation(codes)]
        return [np.array([code]) for code in range(n_codes)]

    @pytest.mark.parametrize("b", [1, 2, 3, 16])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("kind", ["every-code-twice", "one-code-absent", "single-block"])
    def test_code_maps_match_per_block_oracles(self, b, channels, strided, kind):
        # each per-code map equals its oracle applied block by block, on
        # contiguous stacks and on views that skip every other block and
        # every other sample, and the map under the inverse draws undoes it
        rng = np.random.default_rng(b)
        maps = [(_rotate_flip, orient_block, POSE_INVERSE[:8])]
        if channels == 3:
            maps.append((_color_shuffle, apply_color_shuffle, POSE_INVERSE[::16] // 16))
        for step_map, oracle, inverse in maps:
            for codes in self._code_draws(kind, len(inverse), rng):
                n = len(codes)
                if strided:
                    base = rng.integers(0, 256, (2 * n, b, b, 2 * channels), dtype=np.uint8)
                    blocks = base[::2, :, :, ::2]
                    assert blocks.size == 1 or not blocks.flags.c_contiguous
                else:
                    blocks = rng.integers(0, 256, (n, b, b, channels), dtype=np.uint8)
                before = blocks.copy()
                want = np.stack([oracle(block, int(c)) for block, c in zip(before, codes)])
                out = step_map(blocks, codes)
                assert (out == want).all(), (oracle.__name__, codes)
                assert (step_map(out, np.take(inverse, codes)) == before).all(), (oracle.__name__, codes)

    @pytest.mark.parametrize(
        "scheme, steps, shape",
        [(SCHEME_COLOR, s, (32, 16, 3)) for s in COLOR_SUBSETS]
        + [(SCHEME_GRAYSCALE, s, (48, 8, 1)) for s in GRAY_SUBSETS],
    )
    def test_one_block_wide_inputs_are_left_unchanged(self, scheme, steps, shape):
        # the step maps overwrite their block stack, which must never be a
        # view of the caller's image
        img = _img(*shape, seed=4)
        before = img.copy()
        cfg = CipherConfig(scheme=scheme, steps=steps)
        ct, sc = encrypt(img, MasterKey(11), cfg)
        assert img == before
        ct_before = ct.copy()
        assert decrypt(ct, MasterKey(11), sc) == img
        assert ct == ct_before


class TestKeySchedule:
    @pytest.mark.parametrize(
        "scheme, steps",
        [(SCHEME_COLOR, s) for s in COLOR_SUBSETS] + [(SCHEME_GRAYSCALE, s) for s in GRAY_SUBSETS],
    )
    def test_schedule_is_read_only_and_what_the_draws_imply(self, scheme, steps):
        key, cfg, n = MasterKey(0x5EED), CipherConfig(scheme, steps=steps), 37
        perm, poses = key_schedule(key, cfg, n)
        assert (perm.dtype, poses.dtype) == (np.int64, np.uint8)
        for array in perm, poses:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        draws, zero = step_draws(key, cfg, n), np.zeros(n, np.int64)
        rotate, neg, shuffle = (draws.get(name, zero) for name in (ROTATE_FLIP, NEGPOS, COLOR_SHUFFLE))
        assert perm.tolist() == draws.get(SCRAMBLE, np.arange(n)).tolist()
        assert poses.tolist() == (rotate + 8 * (neg + 2 * shuffle)).tolist()
        assert key_schedule(key, cfg, n) == (perm, poses)  # the cached arrays themselves

    def test_interleaved_keys_steps_and_sizes_round_trip(self):
        # the cache holds one schedule, so every call under another key, step
        # set or block count must draw its own: each ciphertext equals the
        # per-block reference and decrypts, in any interleaving
        a, b = _img(64, 64, seed=1), _img(48, 64, seed=2)
        ka, kb = MasterKey(1), MasterKey(2)
        srnc, sr, gray = CipherConfig(steps="srnc"), CipherConfig(steps="sr"), CipherConfig(SCHEME_GRAYSCALE)
        calls = [(a, ka, srnc), (a, kb, srnc), (a, ka, sr), (b, ka, srnc), (a, ka, gray), (b, kb, gray)]
        encrypted = [encrypt(img, key, cfg) for img, key, cfg in calls]
        for (img, key, cfg), (ct, _) in zip(calls, encrypted):
            assert ct == reference_encrypt(img, key, cfg), (key, cfg)
        for (img, key, cfg), (ct, sc) in zip(calls, encrypted):
            assert decrypt(ct, key, sc) == img, (key, cfg)
        for (img, key, cfg), (ct, sc) in reversed(list(zip(calls, encrypted))):
            assert decrypt(ct, key, sc) == img, (key, cfg)
        # a wrong key stays wrong right after the right one was cached
        ct, sc = encrypted[0]
        assert decrypt(ct, ka, sc) == a
        assert decrypt(ct, kb, sc) != a


class TestGoldenCiphertext:
    """Regression vectors generated once from this implementation and frozen.

    The plaintext is drawn from the keyed stream itself (integer arithmetic
    only), so the input bytes are platform-independent.
    """

    PLAIN_SHA = "94196de5f88d484d43525213df1c1e3052f2436d88514df862f6fd6cf81e6545"
    COLOR_SHA = "49fb47bb4e736e02a95ad6039c6b19b4fa08de8eac2dd4fb3f1f5788dfe1cf07"
    GRAY_SHA = "ce632a8bf330596afbac5585573d58d2a675b752593348e91b7d507a47abc2e3"
    PATTERN_SHA = "f841bde65fb9c6f1e871b93136dd8125f577aba2f71cecbe165691e301eb705d"

    @staticmethod
    def _plain():
        vals = (draws(0xA5A5A5A5A5A5A5A5, 32 * 32 * 3) & np.uint64(0xFF)).astype(np.uint8)
        return ImageBuffer(vals.reshape(32, 32, 3))

    def test_plain_hash(self):
        assert hashlib.sha256(self._plain().tobytes()).hexdigest() == self.PLAIN_SHA

    def test_color_ciphertext_hash(self):
        ct, sc = encrypt(self._plain(), MasterKey(0x1), CipherConfig(steps="srnc"))
        assert hashlib.sha256(ct.tobytes()).hexdigest() == self.COLOR_SHA
        assert sc.to_text() == (
            "version=1\nscheme=color\nblock_size=16\nsteps=srnc\n"
            "orig_w=32\norig_h=32\npad_r=0\npad_b=0\n"
        )

    def test_grayscale_ciphertext_hash(self):
        cfg = CipherConfig(scheme=SCHEME_GRAYSCALE, block_size=8, steps="srn")
        ct, _ = encrypt(self._plain(), MasterKey(0x1), cfg)
        assert hashlib.sha256(ct.tobytes()).hexdigest() == self.GRAY_SHA

    @staticmethod
    def _pattern(size):
        """The benchmark canary's RGB test pattern, integer arithmetic alone, at size x size."""
        y, x, c = np.ogrid[:size, :size, :3]
        return ImageBuffer(((x * 7 + y * 13 + c * 101 + (x * y) % 251) % 256).astype(np.uint8))

    @pytest.mark.parametrize("scheme, steps, digest", [
        (SCHEME_GRAYSCALE, "srn", "3fdc1884d1b463aef5fa80e3f725ec3adebc1ed7b366a12b4710b76ce15df3c4"),
        (SCHEME_COLOR, "srnc", "d3d48eecb66ff220de44e82ac53219e7f2155c4a257ed71661cfe6a45950554d"),
    ])
    def test_ciphertext_hash_at_the_benchmark_size(self, scheme, steps, digest):
        # 2048x2048: 196 608 gray-based and 16 384 color blocks
        img, key = self._pattern(2048), MasterKey(0x0123456789ABCDEF)
        assert hashlib.sha256(img.tobytes()).hexdigest() == self.PATTERN_SHA
        ct, sc = encrypt(img, key, CipherConfig(scheme, steps=steps))
        assert hashlib.sha256(ct.tobytes()).hexdigest() == digest
        assert decrypt(ct, key, sc) == img
