import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etckit import templates
from etckit.images import ImageBuffer
from etckit.keystream import MASK64, TAG_TEMPLATE, MasterKey, derive_step_seed, splitmix_next
from etckit.templates import (
    CentroidModel,
    ProtectedTemplate,
    Template,
    classify,
    enroll,
    extract_template,
    format_template_csv,
    orthogonal_matrix,
    parse_template_csv,
    protect_template,
)


class TestTemplateTypes:
    def test_values_coerced_to_float64(self):
        t = Template(np.asarray([1, 2], dtype=np.int32), client_id=3)
        assert t.values.dtype == np.float64
        assert t.dim == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Template(np.asarray([1.0, np.nan]), client_id=0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Template(np.asarray([]), client_id=0)

    def test_label_defaults_to_none(self):
        assert Template(np.ones(4), client_id=1).label is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_protected_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ProtectedTemplate(np.asarray([1.0, bad]), client_id=0)


class TestExtractTemplate:
    def test_constant_image(self):
        img = ImageBuffer(np.full((8, 8, 3), 128, np.uint8))
        t = extract_template(img, 4)
        assert t.values == pytest.approx(np.full(4, 128 / 255))

    def test_two_cell_split(self):
        # d=2 on a square image splits into 2 rows x 1 col;
        # top cell all 0, bottom cell all 255 -> features (0.0, 1.0)
        data = np.zeros((2, 2, 1), np.uint8)
        data[1, :] = 255
        t = extract_template(ImageBuffer(data), 2)
        assert t.values.tolist() == [0.0, 1.0]

    def test_luma_weights(self):
        # pure-red image: Rec.601 luma weight for R is 0.299
        data = np.zeros((4, 4, 3), np.uint8)
        data[:, :, 0] = 255
        t = extract_template(ImageBuffer(data), 1)
        assert t.values[0] == pytest.approx(0.299)

    def test_grid_prefers_near_square(self):
        img = ImageBuffer(np.zeros((64, 64, 1), np.uint8))
        t = extract_template(img, 12)  # 12 = 4x3 or 3x4; square image -> 4 rows
        assert t.dim == 12

    def test_carries_identity(self):
        img = ImageBuffer(np.zeros((4, 4, 1), np.uint8))
        t = extract_template(img, 2, client_id=9, label=2)
        assert (t.client_id, t.label) == (9, 2)

    @pytest.mark.parametrize("d, message", [
        (100, "dimension 100 exceeds pixel count 8"),
        (7, "cannot partition a 2x4 image into 7 cells"),
        (0, "dimension must be positive"),
    ], ids=["past-pixels", "no-grid", "zero"])
    def test_rejects_infeasible_dim(self, d, message):
        img = ImageBuffer(np.zeros((2, 4, 1), np.uint8))
        with pytest.raises(ValueError, match=f"^{message}$"):
            extract_template(img, d)


class TestOrthogonalMatrix:
    def test_dim_one_is_identity(self):
        q = orthogonal_matrix(MasterKey(7), 1)
        assert q.shape == (1, 1) and q[0, 0] == 1.0

    @pytest.mark.parametrize("d", [2, 3, 8, 16, 64])
    def test_orthogonality(self, d):
        q = orthogonal_matrix(MasterKey(0xABCD), d)
        assert np.abs(q @ q.T - np.eye(d)).max() < 1e-9
        assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-9

    def test_deterministic_per_key(self):
        a = orthogonal_matrix(MasterKey(5), 8)
        b = orthogonal_matrix(MasterKey(5), 8)
        assert (a == b).all()

    def test_distinct_keys_distinct_matrices(self):
        a = orthogonal_matrix(MasterKey(5), 8)
        b = orthogonal_matrix(MasterKey(6), 8)
        assert not np.allclose(a, b)

    def test_returns_writable_copy(self):
        q = orthogonal_matrix(MasterKey(5), 4)
        q[0, 0] = 99.0  # must not poison the cache
        assert orthogonal_matrix(MasterKey(5), 4)[0, 0] != 99.0

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            orthogonal_matrix(MasterKey(1), 0)

    def test_refuses_an_oversized_matrix_before_drawing(self, monkeypatch):
        def no_draws(seed, count):
            raise AssertionError("drew before the size check")

        templates._cached_orthogonal.cache_clear()
        monkeypatch.setattr(templates, "MAX_MATRIX_BYTES", 36 * 16 * 16 - 1)
        monkeypatch.setattr(templates, "_gaussian_draws", no_draws)
        with pytest.raises(ValueError, match=r"16 x 16 .* 9216 bytes.* 9215 bytes"):
            protect_template(Template(np.ones(16), client_id=0), MasterKey(0x5151))
        monkeypatch.undo()
        monkeypatch.setattr(templates, "MAX_MATRIX_BYTES", 36 * 16 * 16)
        assert orthogonal_matrix(MasterKey(0x5151), 16).shape == (16, 16)
        templates._cached_orthogonal.cache_clear()


class TestProtectTemplate:
    def test_isometry(self):
        rng = np.random.default_rng(0)
        key = MasterKey(0x1234)
        a = Template(rng.standard_normal(16), client_id=0)
        b = Template(rng.standard_normal(16), client_id=1)
        pa, pb = protect_template(a, key), protect_template(b, key)
        d_plain = np.linalg.norm(a.values - b.values)
        d_prot = np.linalg.norm(pa.values - pb.values)
        assert d_prot == pytest.approx(d_plain, abs=1e-9)

    def test_inner_products_preserved(self):
        rng = np.random.default_rng(1)
        key = MasterKey(0x9999)
        u = Template(rng.standard_normal(8), client_id=0)
        v = Template(rng.standard_normal(8), client_id=1)
        pu, pv = protect_template(u, key), protect_template(v, key)
        assert pu.values @ pv.values == pytest.approx(u.values @ v.values, abs=1e-9)

    def test_protection_changes_values(self):
        t = Template(np.arange(1.0, 9.0), client_id=0)
        p = protect_template(t, MasterKey(0x4242))
        assert not np.allclose(p.values, t.values)

    def test_cache_holds_only_the_last_matrix(self):
        # a batch is protected under one key; matrices of past keys are dropped
        t = Template(np.ones(8), client_id=0)
        for seed in (0x71, 0x72, 0x73):
            protect_template(t, MasterKey(seed))
        assert templates._cached_orthogonal.cache_info().currsize == 1

    def test_identity_metadata_preserved(self):
        t = Template(np.ones(4), client_id=7, label=1)
        p = protect_template(t, MasterKey(2))
        assert isinstance(p, ProtectedTemplate)
        assert (p.client_id, p.label) == (7, 1)

    def test_dim_one_passthrough(self):
        t = Template(np.asarray([0.5]), client_id=0)
        assert protect_template(t, MasterKey(3)).values[0] == 0.5

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        d=st.integers(min_value=1, max_value=24),
    )
    def test_norm_preserved_property(self, seed, d):
        rng = np.random.default_rng(seed % 2**32)
        t = Template(rng.standard_normal(d), client_id=0)
        p = protect_template(t, MasterKey(seed))
        assert np.linalg.norm(p.values) == pytest.approx(
            np.linalg.norm(t.values), abs=1e-9
        )


def _toy_templates(protect_key=None):
    """Two tight clusters on the first axis; optionally protect them."""
    out = []
    for cid, (center, label) in enumerate([(-2.0, 0), (-1.8, 0), (2.0, 1), (2.2, 1)]):
        t = Template(np.asarray([center, 0.0, 0.0]), client_id=cid, label=label)
        if protect_key is not None:
            t = protect_template(t, protect_key)
        out.append(t)
    return out


class TestEnrollClassify:
    def test_centroids_are_class_means(self):
        model = enroll(_toy_templates())
        assert model.class_ids == (0, 1)
        assert model.centroids[0] == pytest.approx([-1.9, 0.0, 0.0])
        assert model.centroids[1] == pytest.approx([2.1, 0.0, 0.0])

    def test_classify_nearest_centroid(self):
        model = enroll(_toy_templates())
        q = Template(np.asarray([1.0, 0.0, 0.0]), client_id=99)
        label, dist = classify(q, model)
        assert label == 1
        assert dist == pytest.approx(1.1)

    def test_tie_goes_to_lowest_class_id(self):
        model = CentroidModel(
            class_ids=(3, 5), centroids=np.asarray([[1.0, 0.0], [-1.0, 0.0]])
        )
        label, dist = classify(Template(np.zeros(2), client_id=0), model)
        assert label == 3 and dist == pytest.approx(1.0)

    def test_protected_domain_decisions_match_plain(self):
        key = MasterKey(0x7777)
        plain_model = enroll(_toy_templates())
        prot_model = enroll(_toy_templates(protect_key=key))
        rng = np.random.default_rng(8)
        for _ in range(20):
            q = Template(rng.standard_normal(3) * 2, client_id=0)
            lp, dp = classify(q, plain_model)
            lq, dq = classify(protect_template(q, key), prot_model)
            assert lp == lq
            assert dq == pytest.approx(dp, abs=1e-9)

    def test_enroll_requires_labels(self):
        t = Template(np.ones(3), client_id=0)
        with pytest.raises(ValueError):
            enroll([t])

    def test_enroll_requires_two_classes(self):
        ts = [Template(np.ones(3), client_id=i, label=0) for i in range(3)]
        with pytest.raises(ValueError):
            enroll(ts)

    def test_enroll_rejects_mixed_dims(self):
        ts = [
            Template(np.ones(3), client_id=0, label=0),
            Template(np.ones(4), client_id=1, label=1),
        ]
        with pytest.raises(ValueError):
            enroll(ts)

    def test_enroll_rejects_no_templates(self):
        with pytest.raises(ValueError, match="cannot enroll an empty template set"):
            enroll([])

    def test_classify_rejects_a_model_without_classes(self):
        with pytest.raises(ValueError, match="model has no classes"):
            classify(Template(np.ones(3), client_id=0), CentroidModel((), np.empty((0, 3))))

    def test_classify_rejects_dim_mismatch(self):
        model = enroll(_toy_templates())
        with pytest.raises(ValueError):
            classify(Template(np.ones(5), client_id=0), model)


class TestCsv:
    def test_round_trip(self):
        ts = [
            Template(np.asarray([0.25, -1.5]), client_id=1, label=0),
            Template(np.asarray([1e-17, 3.0]), client_id=2, label=1),
        ]
        parsed = parse_template_csv(format_template_csv(ts))
        for a, b in zip(ts, parsed, strict=True):
            assert (a.client_id, a.label) == (b.client_id, b.label)
            assert (a.values == b.values).all()

    @pytest.mark.parametrize("cls", [Template, ProtectedTemplate])
    def test_round_trip_is_bit_exact(self, cls):
        edge = np.asarray([-0.0, 5e-324, -5e-324, 1e-17, 1e308, -1e308, 0.1, -2.0 / 3])
        ts = [cls(edge, client_id=3, label=1), cls(-edge[::-1], client_id=4)]
        parsed = parse_template_csv(format_template_csv(ts), protected=cls is ProtectedTemplate)
        for a, b in zip(ts, parsed, strict=True):
            assert type(b) is cls
            assert (b.client_id, b.label) == (a.client_id, a.label)
            assert b.values.tobytes() == a.values.tobytes()

    def test_text_is_the_per_value_format(self):
        # one "%.17g" over Python floats writes what f"{v:.17g}" wrote per
        # numpy scalar, digit for digit
        rng = np.random.default_rng(4)
        edge = np.asarray([-0.0, 5e-324, -5e-324, 1e-17, 1e308, -1e308, -1.5, 0.1, -2.0 / 3])
        ts = [Template(edge, client_id=7, label=2),
              Template(rng.standard_normal(edge.size) * 10.0 ** rng.integers(-300, 300, edge.size),
                       client_id=8)]
        old = "client_id,label," + ",".join(f"v{i}" for i in range(edge.size)) + "\n"
        for t in ts:
            label = "" if t.label is None else str(t.label)
            old += f"{t.client_id},{label}," + ",".join(f"{v:.17g}" for v in t.values) + "\n"
        assert format_template_csv(ts) == old
        assert "-0,4.9406564584124654e-324," in old

    def test_header(self):
        text = format_template_csv([Template(np.zeros(3), client_id=0)])
        assert text.split("\n")[0] == "client_id,label,v0,v1,v2"

    def test_missing_label_round_trips(self):
        ts = [Template(np.ones(2), client_id=4)]
        parsed = parse_template_csv(format_template_csv(ts))
        assert parsed[0].label is None

    def test_protected_flag_returns_protected_type(self):
        p = protect_template(Template(np.ones(4), client_id=0), MasterKey(1))
        parsed = parse_template_csv(format_template_csv([p]), protected=True)
        assert isinstance(parsed[0], ProtectedTemplate)
        assert parsed[0].values == pytest.approx(p.values)

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            parse_template_csv("client_id,label,v0,v1\n1,0,0.5\n")

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            parse_template_csv("id,cls,a,b\n1,0,0.5,0.5\n")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_template_csv("")

    @pytest.mark.parametrize("dims, message", [
        ((), "nothing to serialize"),
        ((2, 3), "all templates must share one dimension"),
    ])
    def test_format_rejects_empty_and_mixed_dims(self, dims, message):
        ts = [Template(np.ones(d), client_id=i) for i, d in enumerate(dims)]
        with pytest.raises(ValueError, match=f"^{message}$"):
            format_template_csv(ts)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_protected_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            parse_template_csv(f"client_id,label,v0,v1\n1,0,0.5,{bad}\n", protected=True)

    # int() reads the first five as 1, 1, 1, 10 and 1; the one integer format is
    # ASCII -?[0-9]+, and a label may only be empty as a whole field
    _NOT_INTS = {"leading-space": " 1", "trailing-space": "1 ", "plus": "+1", "underscore": "1_0",
                 "arabic-indic": "\u0661", "hex": "0x1", "point": "1.0", "empty": ""}

    @pytest.mark.parametrize(
        "row, message",
        [
            ("x,0,0.5,0.5", "client_id must be an integer, got 'x'"),
            ("3,y,0.5,0.5", "label must be an integer, got 'y'"),
            ("3,0,0.5,half", "could not convert string to float"),
            ("3,0,0.5", "row has 3 fields, expected 4"),
            ("3,0,0.5,1e999", "finite"),
            *((f"{v},0,0.5,0.5", f"client_id must be an integer, got {v!r}") for v in _NOT_INTS.values()),
            *((f"3,{v},0.5,0.5", f"label must be an integer, got {v!r}") for v in _NOT_INTS.values() if v),
        ],
        ids=["client-id", "label", "value", "ragged", "non-finite",
             *(f"client-id-{k}" for k in _NOT_INTS), *(f"label-{k}" for k in _NOT_INTS if k != "empty")],
    )
    def test_row_errors_name_their_line(self, row, message):
        # line 4 of the text: the blank line 3 still counts
        text = f"client_id,label,v0,v1\n1,0,0.5,0.5\n\n{row}\n2,1,0.1,0.2\n"
        with pytest.raises(ValueError, match=f"^line 4: .*{re.escape(message)}"):
            parse_template_csv(text)

    @pytest.mark.filterwarnings("error")  # the reader warns on a batch of blank rows
    @pytest.mark.parametrize(
        "value",
        ["", "1.5#x", "1_0", "\u0661", "1\x1f"],
        ids=["blank", "hash", "underscore", "arabic-indic-digit", "unit-separator"],
    )
    def test_reader_refusals_name_their_line(self, value):
        # d = 1: a blank value row has no comma left to keep it from being
        # skipped, which would shift the later ids onto the wrong values
        text = f"client_id,label,v0\n1,0,0.5\n\n2,0,{value}\n3,1,0.25\n"
        message = f"line 4: could not convert string to float: {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_template_csv(text)

    def test_first_faulty_line_wins(self):
        # values are read in one batch after the id checks, yet a bad value
        # or a non-finite one on line 2 is still reported before a later
        # fault, and a short row on line 3 before a bad value on line 4
        head = "client_id,label,v0,v1\n"
        with pytest.raises(ValueError, match="^line 2: could not convert"):
            parse_template_csv(head + "1,0,0.5,x\ny,0,0.5,0.5\n")
        with pytest.raises(ValueError, match="^line 2: template values must be finite"):
            parse_template_csv(head + "1,0,0.5,inf\n2,0,0.5,x\n")
        with pytest.raises(ValueError, match="^line 3: row has 1 fields"):
            parse_template_csv(head + "1,0,0.5,0.5\nz\n2,0,x,0.5\n")

    _SPLICES = st.one_of(
        st.text(max_size=3),
        st.sampled_from([",", "\n", "-", ".", "e", "1e999", "nan", "v2", "9" * 30, "\x00"]),
    )

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["client_id,label,v0,v1\n1,0,0.5,-1.5\n2,,3e-2,4\n", "a,b\n", ""]),
        st.booleans(),
        st.data(),
    )
    def test_fuzzed_text_parses_or_raises_value_error(self, base, protected, data):
        text = list(base)
        for _ in range(data.draw(st.integers(0, 4))):
            at = data.draw(st.integers(0, len(text)))
            text[at : at + data.draw(st.integers(0, 4))] = data.draw(self._SPLICES)
        try:
            rows = parse_template_csv("".join(text), protected=protected)
        except ValueError:
            return
        assert len({t.values.size for t in rows}) <= 1


# ---------------------------------------------------------------------------
# Vectorised Box-Muller and QR against the scalar code they replace


def _oracle_gaussians(seed, count):
    state, out = seed, []
    while len(out) < count:
        state, d1 = splitmix_next(state)
        state, d2 = splitmix_next(state)
        u1, u2 = (d1 + 1) / 2.0**64, (d2 + 1) / 2.0**64
        r = math.sqrt(-2.0 * math.log(u1))
        out += [r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]
    return np.asarray(out[:count])


def _unmix64(out):
    """Inverse of the SplitMix64 output finalizer: the state that yields ``out``."""
    def unshift(z, k):
        x = z
        for _ in range(64 // k):
            x = z ^ (x >> k)
        return x

    z = unshift(out, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
    z = unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64
    return unshift(z, 30)


def _oracle_orthogonal(key, d):
    """Modified Gram-Schmidt on the columns of the keyed Gaussian matrix,
    each column flipped so its diagonal entry is non-negative."""
    m = _oracle_gaussians(derive_step_seed(key, TAG_TEMPLATE), d * d).reshape(d, d)
    q = np.empty((d, d))
    for j in range(d):
        v = m[:, j].copy()
        for i in range(j):
            v -= (q[:, i] @ v) * q[:, i]
        col = v / np.linalg.norm(v)
        q[:, j] = -col if col[j] < 0 else col
    return q


class TestVectorisedDraws:
    @pytest.mark.parametrize("seed", [0, 1, MASK64, 0x0123456789ABCDEF])
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 1000])
    def test_gaussians_match_scalar_box_muller(self, seed, count):
        got = templates._gaussian_draws(seed, count)
        want = _oracle_gaussians(seed, count)
        assert got.shape == (count,)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_top_draw_maps_to_one(self):
        # the draw 2**64 - 1 gives u = 1 exactly, so r = 0 and the pair is (0, 0)
        seed = (_unmix64(MASK64) - 0x9E3779B97F4A7C15) & MASK64
        assert splitmix_next(seed)[1] == MASK64
        assert templates._gaussian_draws(seed, 2).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("d", [1, 2, 8, 64, 128])
    def test_orthogonal_matches_gram_schmidt(self, d):
        key = MasterKey(0xC0FFEE + d)
        np.testing.assert_allclose(
            orthogonal_matrix(key, d), _oracle_orthogonal(key, d), rtol=0, atol=1e-12
        )

    def test_orthogonal_on_ill_conditioned_draw(self):
        # This key's d=128 draw has condition number about 2e8. Gram-Schmidt
        # left ||Q^T Q - I|| at 3.6e-8 on it; Householder QR stays near 1e-14.
        q = orthogonal_matrix(MasterKey(0xFB8CE04319E43B1D), 128)
        assert np.linalg.norm(q.T @ q - np.eye(128)) < 1e-12

    def test_rank_deficient_draw_retries_next_tag(self, monkeypatch):
        real = templates._gaussian_draws
        key, d = MasterKey(31337), 6
        first, retry = (derive_step_seed(key, TAG_TEMPLATE + k) for k in (0, 1))
        seeds = []

        def rank_one_first(seed, count):
            seeds.append(seed)
            if seed == first:
                return np.ones(count)
            return real(seed, count)

        templates._cached_orthogonal.cache_clear()
        monkeypatch.setattr(templates, "_gaussian_draws", rank_one_first)
        try:
            q = orthogonal_matrix(key, d)
        finally:
            templates._cached_orthogonal.cache_clear()
        assert seeds == [first, retry]
        m = real(retry, d * d).reshape(d, d)
        want = np.linalg.qr(m)[0]
        want *= np.where(np.diag(want) < 0, -1.0, 1.0)
        np.testing.assert_allclose(q, want, rtol=0, atol=1e-12)
        assert (np.diag(q) >= 0).all()
        np.testing.assert_allclose(q.T @ q, np.eye(d), atol=1e-12)
