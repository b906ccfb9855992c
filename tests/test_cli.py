import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from etckit import attack, templates
from etckit.cli import EXIT_CODEC, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from etckit.images import ImageBuffer, load_ppm, merge_blocks, save_ppm, split_blocks
from etckit.keystream import MasterKey, parse_key_file
from etckit.synth import synth_natural_image
from etckit.templates import Template, format_template_csv, protect_template

KEY = "00000000000000ab"


@pytest.fixture
def plain_ppm(tmp_path):
    img = synth_natural_image(64, 64, seed=30)
    path = tmp_path / "plain.ppm"
    path.write_bytes(save_ppm(img))
    return path


def _read(path):
    return load_ppm(path.read_bytes())


class TestEncryptDecrypt:
    def test_round_trip(self, tmp_path, plain_ppm):
        ct = tmp_path / "ct.ppm"
        out = tmp_path / "back.ppm"
        assert main(["encrypt", str(plain_ppm), "--out", str(ct), "--key", KEY]) == EXIT_OK
        assert (tmp_path / "ct.ppm.meta").exists()
        assert _read(ct) != _read(plain_ppm)
        assert main(["decrypt", str(ct), "--out", str(out), "--key", KEY]) == EXIT_OK
        assert _read(out) == _read(plain_ppm)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda t: t.replace("orig_w=64", "orig_w=72").replace("pad_r=0", "pad_r=-8"),
            lambda t: t.replace("pad_b=0", "pad_b=16"),
            lambda t: t.replace("orig_h=64", "orig_h=0"),
            lambda t: t.replace("block_size=16", "block_size=0"),
            lambda t: t + "pad_r=0\n",
            lambda t: t.replace("scheme=color", "scheme=bogus"),
            lambda t: t.replace("scheme=color", "scheme=grayscale_based"),  # with steps=srnc
        ],
        ids=["negative-pad", "pad-too-large", "zero-height", "zero-block", "repeated-key",
             "unknown-scheme", "shuffle-without-color"],
    )
    def test_bad_sidecar_is_data_error(self, tmp_path, plain_ppm, edit, capsys):
        ct = tmp_path / "ct.ppm"
        assert main(["encrypt", str(plain_ppm), "--out", str(ct), "--key", KEY]) == EXIT_OK
        meta = tmp_path / "ct.ppm.meta"
        meta.write_text(edit(meta.read_text()))
        out = tmp_path / "back.ppm"
        assert main(["decrypt", str(ct), "--out", str(out), "--key", KEY]) == EXIT_DATA
        assert not out.exists()
        assert "ct.ppm.meta" in capsys.readouterr().err

    def test_undecodable_sidecar_is_data_error(self, tmp_path, plain_ppm, capsys):
        ct = tmp_path / "ct.ppm"
        main(["encrypt", str(plain_ppm), "--out", str(ct), "--key", KEY])
        (tmp_path / "ct.ppm.meta").write_bytes(b"\xff\xfe binary")
        code = main(["decrypt", str(ct), "--out", str(tmp_path / "back.ppm"), "--key", KEY])
        assert code == EXIT_DATA
        assert "Traceback" not in capsys.readouterr().err

    def test_gray_ciphertext_with_color_sidecar_is_data_error(self, tmp_path, plain_ppm, capsys):
        ct = tmp_path / "ct.ppm"
        assert main(["encrypt", str(plain_ppm), "--out", str(ct), "--key", KEY]) == EXIT_OK
        gray = tmp_path / "gray.pgm"
        gray.write_bytes(save_ppm(ImageBuffer(_read(ct).data[:, :, :1])))
        out = tmp_path / "back.ppm"
        args = ["decrypt", str(gray), "--sidecar", str(tmp_path / "ct.ppm.meta")]
        assert main(args + ["--out", str(out), "--key", KEY]) == EXIT_DATA
        assert not out.exists()
        assert "3-channel image, got 1 channel" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, tmp_path, plain_ppm):
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        main(["encrypt", str(plain_ppm), "--out", str(a), "--key", KEY])
        main(["encrypt", str(plain_ppm), "--out", str(b), "--key", KEY])
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.ppm.meta").read_text() == (tmp_path / "b.ppm.meta").read_text()

    def test_empty_steps_is_identity(self, tmp_path, plain_ppm):
        ct = tmp_path / "ct.ppm"
        main(["encrypt", str(plain_ppm), "--out", str(ct), "--key", KEY, "--steps", ""])
        assert _read(ct) == _read(plain_ppm)

    def test_gen_key_writes_loadable_key_file(self, tmp_path, plain_ppm):
        ct = tmp_path / "ct.ppm"
        keyfile = tmp_path / "key.txt"
        code = main(
            ["encrypt", str(plain_ppm), "--out", str(ct), "--gen-key", str(keyfile)]
        )
        assert code == EXIT_OK
        key = parse_key_file(keyfile.read_bytes())
        assert isinstance(key, MasterKey)
        out = tmp_path / "back.ppm"
        main(["decrypt", str(ct), "--out", str(out), "--key-file", str(keyfile)])
        assert _read(out) == _read(plain_ppm)

    @pytest.mark.parametrize("image", ["missing.ppm", "bad.ppm"])
    def test_failed_encrypt_leaves_no_key_file(self, tmp_path, image):
        (tmp_path / "bad.ppm").write_bytes(b"P6\n2 2\n255\n")
        keyfile = tmp_path / "key.txt"
        code = main(["encrypt", str(tmp_path / image), "--out", str(tmp_path / "ct.ppm"),
                     "--gen-key", str(keyfile)])
        assert code == EXIT_DATA
        assert not keyfile.exists()

    def test_gen_key_conflicts_with_key(self, tmp_path, plain_ppm):
        code = main(
            [
                "encrypt", str(plain_ppm), "--out", str(tmp_path / "x.ppm"),
                "--gen-key", str(tmp_path / "k"), "--key", KEY,
            ]
        )
        assert code == EXIT_USAGE

    def test_pad_round_trip(self, tmp_path):
        img = ImageBuffer(
            np.random.default_rng(0).integers(0, 256, (30, 30, 3), dtype=np.uint8)
        )
        src = tmp_path / "odd.ppm"
        src.write_bytes(save_ppm(img))
        ct, out = tmp_path / "ct.ppm", tmp_path / "back.ppm"
        assert main(["encrypt", str(src), "--out", str(ct), "--key", KEY, "--pad"]) == EXIT_OK
        assert main(["decrypt", str(ct), "--out", str(out), "--key", KEY]) == EXIT_OK
        assert _read(out) == img

    def test_unpadded_indivisible_fails_with_data_error(self, tmp_path):
        img = ImageBuffer(np.zeros((30, 30, 3), np.uint8))
        src = tmp_path / "odd.ppm"
        src.write_bytes(save_ppm(img))
        code = main(["encrypt", str(src), "--out", str(tmp_path / "x.ppm"), "--key", KEY])
        assert code == EXIT_DATA

    def test_gray_scheme_round_trip(self, tmp_path, plain_ppm):
        ct, out = tmp_path / "ct.ppm", tmp_path / "back.ppm"
        main(["encrypt", str(plain_ppm), "--out", str(ct), "--key", KEY, "--scheme", "gray"])
        stacked = _read(ct)
        assert (stacked.height, stacked.width, stacked.channels) == (192, 64, 1)
        # decrypt needs no --scheme: the sidecar records the cipher settings
        main(["decrypt", str(ct), "--out", str(out), "--key", KEY])
        assert _read(out) == _read(plain_ppm)

    def test_missing_key_is_usage_error(self, tmp_path, plain_ppm):
        assert main(["encrypt", str(plain_ppm), "--out", str(tmp_path / "x")]) == EXIT_USAGE

    def test_bad_hex_key_is_usage_error(self, tmp_path, plain_ppm):
        code = main(
            ["encrypt", str(plain_ppm), "--out", str(tmp_path / "x"), "--key", "XYZ"]
        )
        assert code == EXIT_USAGE

    def test_missing_image_is_data_error(self, tmp_path):
        code = main(
            ["encrypt", str(tmp_path / "nope.ppm"), "--out", str(tmp_path / "x"), "--key", KEY]
        )
        assert code == EXIT_DATA

    def test_corrupt_sidecar_is_data_error(self, tmp_path, plain_ppm):
        ct = tmp_path / "ct.ppm"
        main(["encrypt", str(plain_ppm), "--out", str(ct), "--key", KEY])
        (tmp_path / "ct.ppm.meta").write_text("not a sidecar\n")
        code = main(["decrypt", str(ct), "--out", str(tmp_path / "y.ppm"), "--key", KEY])
        assert code == EXIT_DATA

    def test_unknown_command_is_usage_error(self):
        assert main(["no-such-command"]) == EXIT_USAGE


class TestRDCurve:
    def test_csv_shape(self, tmp_path, plain_ppm, capsys):
        code = main(["rd-curve", str(plain_ppm), "--key", KEY, "--qualities", "50,85"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "path,quality,bpp,psnr_db"
        assert len(lines) == 1 + 2 * 2  # header + 2 paths x 2 qualities
        assert sum(l.startswith("plain,") for l in lines) == 2
        assert sum(l.startswith("encrypted,") for l in lines) == 2

    def test_out_file(self, tmp_path, plain_ppm):
        out = tmp_path / "rd.csv"
        code = main(["rd-curve", str(plain_ppm), "--key", KEY, "--qualities", "85", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().startswith("path,quality,bpp,psnr_db\n")

    def test_bad_quality_list_is_usage_error(self, plain_ppm):
        for qualities in ("a,b", "0", "101", "85,101", ","):
            code = main(["rd-curve", str(plain_ppm), "--key", KEY, "--qualities", qualities])
            assert code == EXIT_USAGE, qualities

    def test_progressive_is_a_usage_error(self, plain_ppm):
        # the codec writes baseline JPEG only
        assert main(["rd-curve", str(plain_ppm), "--key", KEY, "--qualities", "85", "--progressive"]) == EXIT_USAGE

    def test_codec_failure_is_codec_error(self, tmp_path, capsys):
        # JPEG frames are at most 65535 pixels wide; both codecs refuse wider ones
        path = tmp_path / "wide.ppm"
        path.write_bytes(save_ppm(ImageBuffer(np.zeros((16, 65536, 3), np.uint8))))
        code = main(["rd-curve", str(path), "--key", KEY, "--qualities", "50", "--steps", "s"])
        assert code == EXIT_CODEC
        err = capsys.readouterr().err
        assert "codec error" in err and "Traceback" not in err


class TestAttack:
    def test_report_row_structure(self, tmp_path, plain_ppm, capsys):
        # identity cipher, appearance ground truth; the solver still runs,
        # so the row is checked structurally (solver quality is covered by
        # the attack-module tests on realistically sized inputs)
        ct = tmp_path / "ct.ppm"
        main(["encrypt", str(plain_ppm), "--out", str(ct), "--key", KEY, "--steps", ""])
        code = main(["attack", str(ct), "--plain", str(plain_ppm), "--block-size", "16"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "steps,block_size,n_pieces,dc,nc,lc,seconds"
        fields = lines[1].split(",")
        assert fields[0] == "-"
        assert (fields[1], fields[2]) == ("16", "16")
        for metric in fields[3:6]:
            assert 0.0 <= float(metric) <= 1.0
        assert float(fields[6]) >= 0.0

    def test_key_ground_truth_and_artifacts(self, tmp_path, plain_ppm):
        ct = tmp_path / "ct.ppm"
        main(["encrypt", str(plain_ppm), "--out", str(ct), "--key", KEY, "--steps", "s",
              "--block-size", "32"])
        csv_out = tmp_path / "attack.csv"
        img_out = tmp_path / "assembled.ppm"
        code = main(
            ["attack", str(ct), "--plain", str(plain_ppm), "--key", KEY,
             "--steps", "s", "--block-size", "32",
             "--out-csv", str(csv_out), "--out-image", str(img_out)]
        )
        assert code == EXIT_OK
        row = csv_out.read_text().strip().split("\n")[1]
        assert row.startswith("s,32,4,")
        assembled = _read(img_out)
        assert (assembled.height, assembled.width) == (64, 64)

    @pytest.mark.parametrize("scheme, want", [("color", "srnc"), ("gray", "srn")])
    def test_key_ground_truth_reports_the_default_steps(self, tmp_path, plain_ppm, capsys,
                                                        scheme, want):
        # without --steps the key ground truth uses the scheme's default steps,
        # so the row must name them rather than "-"
        ct = tmp_path / "ct.ppm"
        main(["encrypt", str(plain_ppm), "--out", str(ct), "--key", KEY, "--scheme", scheme])
        capsys.readouterr()
        code = main(["attack", str(ct), "--plain", str(plain_ppm), "--key", KEY,
                     "--scheme", scheme])
        assert code == EXIT_OK
        row = capsys.readouterr().out.strip().split("\n")[1]
        assert row.split(",")[0] == want

    @pytest.mark.parametrize("scheme", ["color", "gray"])
    def test_key_ground_truth_needs_no_plaintext(self, tmp_path, plain_ppm, capsys, scheme):
        # with a key the plaintext only checks the geometry, so the row but
        # for its seconds is the same with and without --plain
        ct, key_file = tmp_path / "ct.ppm", tmp_path / "k.key"
        key_file.write_text(f"{KEY}\n")
        main(["encrypt", str(plain_ppm), "--out", str(ct), "--key", KEY, "--scheme", scheme])
        argv = ["attack", str(ct), "--scheme", scheme, "--orientation-search"]
        rows = []
        for extra in (["--key", KEY], ["--key-file", str(key_file)],
                      ["--key", KEY, "--plain", str(plain_ppm)]):
            capsys.readouterr()
            assert main([*argv, *extra]) == EXIT_OK
            rows.append(capsys.readouterr().out.strip().split("\n")[1].split(",")[:6])
        assert rows[0] == rows[1] == rows[2]

    @pytest.mark.parametrize("made, scored, message", [
        ("gray", "color", "color scheme requires a 3-channel image, got 1 channel(s)"),
        ("color", "gray", "grayscale-based ciphertext must be single-channel"),
    ])
    def test_key_ground_truth_refuses_the_other_schemes_channels(self, tmp_path, plain_ppm,
                                                                  capsys, made, scored, message):
        # the key's ground truth fits only a ciphertext that decrypt takes, so
        # a ciphertext of the other scheme is a data error, not a score
        ct = tmp_path / "ct.ppm"
        main(["encrypt", str(plain_ppm), "--out", str(ct), "--key", KEY, "--scheme", made])
        capsys.readouterr()
        assert main(["attack", str(ct), "--key", KEY, "--scheme", scored]) == EXIT_DATA
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_no_plaintext_and_no_key_is_usage_error(self, tmp_path, plain_ppm, capsys):
        ct = tmp_path / "ct.ppm"
        main(["encrypt", str(plain_ppm), "--out", str(ct), "--key", KEY])
        capsys.readouterr()
        assert main(["attack", str(ct)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert all(flag in err for flag in ("--plain", "--key", "--key-file"))
        assert "Traceback" not in err

    def test_shared_cheapest_pieces_are_data_error(self, tmp_path, capsys):
        # six cells copy block 0, so the plaintext cannot tell seven pieces
        # apart: --plain alone refuses, and --key still scores
        blocks, grid = split_blocks(synth_natural_image(256, 256, seed=8), 16)
        blocks[[5, 17, 40, 41, 90, 255]] = blocks[0]
        plain, ct = tmp_path / "plain.ppm", tmp_path / "ct.ppm"
        plain.write_bytes(save_ppm(merge_blocks(blocks, grid, 3)))
        main(["encrypt", str(plain), "--out", str(ct), "--key", KEY, "--steps", "srnc",
              "--block-size", "16"])
        argv = ["attack", str(ct), "--plain", str(plain), "--steps", "srnc", "--block-size", "16"]
        capsys.readouterr()
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "7 of 256 cells share their cheapest piece" in err and "Traceback" not in err
        assert main([*argv, "--key", KEY]) == EXIT_OK

    def test_inexact_ground_truth_block_size_is_data_error(self, tmp_path, capsys):
        plain = tmp_path / "plain.ppm"
        plain.write_bytes(save_ppm(ImageBuffer(np.zeros((391, 391, 3), np.uint8))))
        code = main(["attack", str(plain), "--plain", str(plain), "--steps", "s",
                     "--block-size", "391"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "block size 391 with 3 channel(s)" in err and "Traceback" not in err

    def test_greedy_past_its_sums_budget_is_data_error(self, plain_ppm, monkeypatch, capsys):
        monkeypatch.setattr(attack, "_SUMS_BUDGET", 64)
        code = main(["attack", str(plain_ppm), "--plain", str(plain_ppm), "--steps", "s",
                     "--block-size", "16"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "n = 16 pieces (K = 16 keys)" in err and "past its budget of 64 bytes" in err
        assert "Traceback" not in err

    def test_geometry_mismatch_is_data_error(self, tmp_path, plain_ppm):
        other = tmp_path / "other.ppm"
        other.write_bytes(save_ppm(synth_natural_image(32, 32, seed=9)))
        assert main(["attack", str(other), "--plain", str(plain_ppm)]) == EXIT_DATA


class TestKeyspace:
    def test_worked_example_scramble_only(self, capsys):
        code = main(["keyspace", "--width", "64", "--height", "64", "--steps", "s"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "n_blocks 16" in out
        assert "keyspace_bits 44.250140" in out

    def test_full_default_steps(self, capsys):
        code = main(["keyspace", "--width", "512", "--height", "512"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "n_blocks 1024" in out
        assert "keyspace_bits 15512.007744" in out
        # a brute-force search tries keys, not keyed choices
        assert out.splitlines()[-1] == "key_bits 64"

    def test_indivisible_geometry_is_usage_error(self):
        assert main(["keyspace", "--width", "65", "--height", "64"]) == EXIT_USAGE
        # encrypt refuses a height the block size does not divide, even where
        # the three stacked planes (3 x 4 = 12 rows) would fit one block
        argv = ["keyspace", "--width", "12", "--height", "4", "--scheme", "gray"]
        assert main(argv + ["--block-size", "12"]) == EXIT_USAGE

    def test_zero_width_is_usage_error(self, capsys):
        assert main(["keyspace", "--width", "0", "--height", "64"]) == EXIT_USAGE
        assert "width and height must be positive" in capsys.readouterr().err

    def test_gray_scheme_counts_every_plane(self, capsys):
        argv = ["keyspace", "--width", "16", "--height", "8", "--scheme", "gray", "--steps", "s"]
        assert main(argv + ["--block-size", "8"]) == EXIT_OK
        assert "n_blocks 6" in capsys.readouterr().out


class TestTemplatesCli:
    @staticmethod
    def _write_csv(path, templates):
        path.write_text(format_template_csv(templates))

    def test_protect_then_classify(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        enrolled = [
            Template(rng.standard_normal(8) + (4.0 if label else -4.0),
                     client_id=i, label=label)
            for i, label in enumerate([0, 0, 1, 1])
        ]
        queries = [Template(np.full(8, -4.0), client_id=90),
                   Template(np.full(8, 4.0), client_id=91)]
        self._write_csv(tmp_path / "enrolled.csv", enrolled)
        self._write_csv(tmp_path / "queries.csv", queries)

        for name in ("enrolled", "queries"):
            code = main(
                ["protect", str(tmp_path / f"{name}.csv"), "--key", KEY,
                 "--out", str(tmp_path / f"{name}.prot.csv")]
            )
            assert code == EXIT_OK

        code = main(
            ["classify", str(tmp_path / "queries.prot.csv"),
             "--model", str(tmp_path / "enrolled.prot.csv")]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "client_id,predicted,distance"
        assert lines[1].startswith("90,0,")
        assert lines[2].startswith("91,1,")

    def test_protect_matches_library(self, tmp_path):
        t = Template(np.arange(1.0, 7.0), client_id=5, label=2)
        self._write_csv(tmp_path / "in.csv", [t])
        main(["protect", str(tmp_path / "in.csv"), "--key", KEY,
              "--out", str(tmp_path / "out.csv")])
        from etckit.templates import parse_template_csv

        got = parse_template_csv((tmp_path / "out.csv").read_text(), protected=True)[0]
        want = protect_template(t, MasterKey.from_hex(KEY))
        assert got.values == pytest.approx(want.values, abs=1e-15)

    def test_classify_unlabeled_model_is_data_error(self, tmp_path):
        self._write_csv(tmp_path / "m.csv", [Template(np.ones(4), client_id=0)])
        self._write_csv(tmp_path / "q.csv", [Template(np.ones(4), client_id=1)])
        code = main(
            ["classify", str(tmp_path / "q.csv"), "--model", str(tmp_path / "m.csv")]
        )
        assert code == EXIT_DATA

    def test_classify_non_finite_protected_csv_is_data_error(self, tmp_path):
        good = "client_id,label,v0,v1\n1,0,0.5,0.25\n2,1,0.1,0.9\n"
        (tmp_path / "m.csv").write_text(good)
        (tmp_path / "q.csv").write_text("client_id,label,v0,v1\n3,,nan,0.5\n")
        assert main(
            ["classify", str(tmp_path / "q.csv"), "--model", str(tmp_path / "m.csv")]
        ) == EXIT_DATA

    def test_protect_oversized_dimension_is_data_error(self, tmp_path, capsys, monkeypatch):
        templates._cached_orthogonal.cache_clear()
        monkeypatch.setattr(templates, "MAX_MATRIX_BYTES", 1000)
        self._write_csv(tmp_path / "in.csv", [Template(np.ones(6), client_id=0)])
        code = main(["protect", str(tmp_path / "in.csv"), "--key", KEY])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "6 x 6 orthogonal matrix needs about 1296 bytes" in err
        assert "Traceback" not in err

    def test_protect_bad_row_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("client_id,label,v0,v1\n1,0,0.5,0.25\n2,1,0.1,oops\n")
        assert main(["protect", str(path), "--key", KEY]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{path}: line 3: could not convert string to float" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("which", ["model", "queries"])
    def test_classify_bad_row_names_file_and_line(self, tmp_path, capsys, which):
        good = "client_id,label,v0,v1\n1,0,0.5,0.25\n2,1,0.1,0.9\n"
        files = {"model": tmp_path / "m.csv", "queries": tmp_path / "q.csv"}
        for name, path in files.items():
            path.write_text(good + ("3,1,0.5\n" if name == which else ""))
        code = main(["classify", str(files["queries"]), "--model", str(files["model"])])
        assert code == EXIT_DATA
        assert f"{files[which]}: line 4: row has 3 fields, expected 4" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["protect", "classify"])
    def test_header_only_csv_names_the_file(self, tmp_path, capsys, command):
        hdr = tmp_path / "hdr.csv"
        hdr.write_text("client_id,label,v0,v1\n")
        (tmp_path / "q.csv").write_text("client_id,label,v0,v1\n1,,0.5,0.25\n")
        argv = {"protect": ["protect", str(hdr), "--key", KEY],
                "classify": ["classify", str(tmp_path / "q.csv"), "--model", str(hdr)]}[command]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == f"etckit: {hdr}: no template rows\n"

    @pytest.mark.parametrize("command", ["protect", "classify"])
    def test_byte_order_mark_before_the_header_is_ignored(self, tmp_path, capsys, command):
        body = b"client_id,label,v0\n1,0,0.5\n2,1,-0.25\n"
        (tmp_path / "plain.csv").write_bytes(body)
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + body)

        def run(name):
            path = str(tmp_path / name)
            argv = {"protect": ["protect", path, "--key", KEY],
                    "classify": ["classify", path, "--model", path]}[command]
            assert main(argv) == EXIT_OK
            return capsys.readouterr()

        with_mark = run("bom.csv")
        assert with_mark.err == ""
        assert with_mark.out == run("plain.csv").out
        assert with_mark.out.count("\n") == 3

    def test_protect_garbage_csv_is_data_error(self, tmp_path):
        (tmp_path / "bad.csv").write_text("nonsense\n")
        assert main(["protect", str(tmp_path / "bad.csv"), "--key", KEY]) == EXIT_DATA


@pytest.mark.parametrize(
    "argv",
    [
        ["encrypt", "{plain}", "--out", "{bad}", "--key", KEY],
        ["encrypt", "{plain}", "--out", "{tmp}/ct2.ppm", "--sidecar", "{bad}", "--key", KEY],
        ["encrypt", "{plain}", "--out", "{tmp}/ct2.ppm", "--gen-key", "{bad}"],
        ["decrypt", "{ct}", "--out", "{bad}", "--key", KEY],
        ["rd-curve", "{plain}", "--key", KEY, "--qualities", "85", "--out", "{bad}"],
        ["attack", "{ct}", "--plain", "{plain}", "--block-size", "32", "--out-csv", "{bad}"],
        ["attack", "{ct}", "--plain", "{plain}", "--block-size", "32", "--out-image", "{bad}"],
        ["protect", "{csv}", "--key", KEY, "--out", "{bad}"],
        ["classify", "{csv}", "--model", "{csv}", "--out", "{bad}"],
    ],
    ids=["encrypt-out", "encrypt-sidecar", "encrypt-gen-key", "decrypt-out", "rd-curve-out",
         "attack-out-csv", "attack-out-image", "protect-out", "classify-out"],
)
def test_unwritable_output_is_data_error(tmp_path, plain_ppm, capsys, argv):
    ct = tmp_path / "ct.ppm"
    main(["encrypt", str(plain_ppm), "--out", str(ct), "--key", KEY, "--block-size", "32"])
    csv = tmp_path / "t.csv"
    csv.write_text("client_id,label,v0,v1\n1,0,0.5,0.25\n2,1,0.1,0.9\n")
    bad = tmp_path / "missing_dir" / "out"
    paths = {"plain": plain_ppm, "ct": ct, "csv": csv, "tmp": tmp_path, "bad": bad}
    capsys.readouterr()
    code = main([arg.format(**paths) for arg in argv])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"cannot write {bad}: " in err and "Traceback" not in err


class TestVersion:
    def test_version_string(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("etckit 0.")
        assert "sidecar format" in out


# ---------------------------------------------------------------------------
# Fuzzing: argv drawn from the real grammar, over valid and broken files


def _part(good, bad):
    """One part of an argv: tokens from ``good`` three times in four, else from ``bad``."""
    return st.sampled_from(good * 3 * len(bad) + bad * len(good))


def _arg(flag, good, bad, required=False):
    """``flag`` (None: a positional) with a value; absent is bad only when ``required``."""
    good, bad = ([[flag, v] if flag else [v] for v in values] for values in (good, bad))
    return _part(good, bad + [[]]) if required else _part(good + [[]], bad)


def _switch(flag):
    return st.sampled_from([[], [flag]])


# the outputs are never read back, so examples stay independent of each other
_OUTS = (["out.bin"], ["nodir/x", "dir"])
_IMAGE = _arg(None, ["a.ppm", "ct.ppm", "g.pgm"], ["odd.ppm", "trunc.ppm", "nofile", "dir"], True)
_CSV = _arg(None, ["t.csv", "p.csv"], ["a.ppm", "nofile", "dir"], True)
_KEYS = _part(
    [["--key", KEY], ["--key-file", "k.key"]],
    [[], ["--key", KEY.upper()], ["--key", "xyz"]]
    + [["--key-file", path] for path in ("bad.key", "nofile", "dir")],
)
_CIPHER = [
    _arg("--scheme", ["color", "gray"], ["bogus"]),
    _arg("--block-size", ["8", "16"], ["0", "-3", "7", "x"]),
    _arg("--steps", ["", "s", "s,r", "srn"], ["q", "c", "srnc", "negpos"]),
]
_GRAMMAR = {
    "encrypt": [_IMAGE, _arg("--out", *_OUTS, True), _arg("--sidecar", *_OUTS), _switch("--pad"),
                _KEYS, _arg("--gen-key", [], ["out.bin", "nodir/x"]), *_CIPHER],
    "decrypt": [_IMAGE, _arg("--out", *_OUTS, True), _KEYS,
                _arg("--sidecar", ["ct.ppm.meta"], ["bad.meta", "dir"])],
    "rd-curve": [_IMAGE, _arg("--qualities", ["50", "95,50"], ["", "0", "x", "50,101"]),
                 _arg("--subsampling", ["420", "444"], ["411"]),
                 _arg("--out", *_OUTS), _KEYS, *_CIPHER],
    "attack": [_IMAGE, _arg("--plain", ["a.ppm"], ["g.pgm", "odd.ppm", "dir"], True),
               _switch("--orientation-search"), _arg("--out-csv", *_OUTS),
               _arg("--out-image", *_OUTS), _KEYS, *_CIPHER],
    "keyspace": [_arg("--width", ["32", "64"], ["13", "0", "-1", "x"], True),
                 _arg("--height", ["32", "64"], ["13", "0", "-1", "x"], True), *_CIPHER],
    "protect": [_CSV, _arg("--out", *_OUTS), _KEYS],
    "classify": [_CSV, _arg("--model", ["p.csv", "t.csv"], ["a.ppm", "dir"], True),
                 _arg("--out", *_OUTS)],
}


@pytest.fixture
def fuzz_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    img = synth_natural_image(32, 32, seed=31)
    plain = [Template(np.arange(4.0) * i, client_id=i, label=i % 2) for i in range(4)]
    protected = [protect_template(t, MasterKey.from_hex(KEY)) for t in plain]
    files = {
        "a.ppm": save_ppm(img),
        "g.pgm": save_ppm(ImageBuffer(img.data[:16, :16, :1].copy())),
        "odd.ppm": save_ppm(synth_natural_image(13, 7, seed=32)),
        "trunc.ppm": save_ppm(img)[:-5],
        "k.key": f"{KEY}\n".encode(),
        "bad.key": b"not a key\n",
        "bad.meta": b"version=1\nscheme=color\n",
        "t.csv": format_template_csv(plain).encode(),
        "p.csv": format_template_csv(protected).encode(),
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "dir").mkdir()
    assert main(["encrypt", "a.ppm", "--out", "ct.ppm", "--key", KEY]) == EXIT_OK


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.data())
def test_fuzzed_argv_exits_with_a_documented_code(fuzz_dir, capsys, data):
    # --help and --version exit through argparse, so the grammar leaves them out
    command = data.draw(st.sampled_from(sorted(_GRAMMAR)))
    argv = [command] + [token for part in _GRAMMAR[command] for token in data.draw(part)]
    assert main(argv) in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_CODEC)
    assert "Traceback" not in capsys.readouterr().err
