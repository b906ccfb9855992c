"""Command-line front end: every pipeline as a reproducible, scriptable command.

Exit codes: 0 success, 1 usage error, 2 data error, 3 codec error. All
commands are deterministic functions of their inputs and flags, and write
only to paths named in flags.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import __version__
from .attack import (
    ATTACK_CSV_HEADER,
    Puzzle,
    attack_report_row,
    greedy_assemble,
    ground_truth_from_key,
    ground_truth_from_plain,
    render_assembly,
    score_assembly,
)
from .cipher import (
    SCHEME_COLOR,
    SCHEME_GRAYSCALE,
    SIDECAR_VERSION,
    CipherConfig,
    CipherSidecar,
    check_ciphertext,
    decrypt,
    encrypt,
    keyspace_bits,
    stack_planes,
)
from .codec import CodecError, CodecParams, rd_csv, rd_curve
from .images import load_ppm, pad_replicate, save_ppm
from .keystream import MASK64, MasterKey, format_key_file, parse_key_file
from .templates import classify, enroll, format_template_csv, parse_template_csv, protect_template

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CODEC = 3

_SCHEMES = {"color": SCHEME_COLOR, "gray": SCHEME_GRAYSCALE}


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the taxonomy reserves 2 for data errors
    def error(self, message):
        raise UsageError(message)


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _parse(path: str, parse):
    """``parse`` applied to the file's bytes, its ValueError prefixed with the path."""
    try:
        return parse(_read(path))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _read_templates(path: str, protected: bool = False) -> list:
    templates = _parse(path, lambda data: parse_template_csv(data.decode(), protected=protected))
    if not templates:
        raise DataError(f"{path}: no template rows")
    return templates


def _write(path: str, data: bytes) -> None:
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _load_key(args) -> MasterKey:
    if getattr(args, "key", None):
        try:
            return MasterKey.from_hex(args.key)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if getattr(args, "key_file", None):
        return _parse(args.key_file, parse_key_file)
    raise UsageError("a key is required: pass --key HEX or --key-file PATH")


def _config(args) -> CipherConfig:
    try:  # None selects the scheme's default block size and steps
        return CipherConfig(_SCHEMES[args.scheme], args.block_size, args.steps)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _add_key_flags(p, gen_key: bool = False):
    p.add_argument("--key", metavar="HEX", help="64-bit key as 16 lowercase hex chars")
    p.add_argument("--key-file", metavar="PATH", help="file holding the hex key")
    if gen_key:
        p.add_argument(
            "--gen-key",
            metavar="PATH",
            help="derive no key from flags; draw a fresh per-image key from the OS "
            "and save it to PATH (recommended: one key per image)",
        )


def _add_cipher_flags(p):
    p.add_argument("--scheme", choices=sorted(_SCHEMES), default="color")
    p.add_argument("--block-size", type=int, metavar="N", help="default: 16 color, 8 gray")
    p.add_argument(
        "--steps",
        metavar="LIST",
        help='letters from s,r,n,c (commas optional); "" disables all steps',
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="etckit", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version",
        action="version",
        version=f"etckit {__version__} (sidecar format {SIDECAR_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encrypt", help="encrypt a PPM/PGM image")
    p.add_argument("image")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--sidecar", metavar="PATH", help="default: OUT + .meta")
    p.add_argument("--pad", action="store_true", help="edge-replicate to block divisibility")
    _add_key_flags(p, gen_key=True)
    _add_cipher_flags(p)

    p = sub.add_parser("decrypt", help="invert an encryption given key + sidecar")
    p.add_argument("image")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--sidecar", metavar="PATH", help="default: IMAGE + .meta")
    _add_key_flags(p)

    p = sub.add_parser("rd-curve", help="JPEG rate-distortion sweep, plain vs encrypted")
    p.add_argument("image")
    p.add_argument("--qualities", default="50,70,85,95", metavar="LIST")
    p.add_argument("--subsampling", choices=("420", "444"), default="420")
    p.add_argument("--out", metavar="PATH", help="CSV path (default: stdout)")
    _add_key_flags(p)
    _add_cipher_flags(p)

    p = sub.add_parser("attack", help="jigsaw-solver attack on a ciphertext")
    p.add_argument("cipher")
    p.add_argument("--plain", metavar="PATH",
                   help="ground-truth plaintext (with a key, only its geometry is checked)")
    p.add_argument("--orientation-search", action="store_true")
    p.add_argument("--out-csv", metavar="PATH", help="report CSV (default: stdout)")
    p.add_argument("--out-image", metavar="PATH", help="assembled image (default: none)")
    _add_key_flags(p)
    _add_cipher_flags(p)

    p = sub.add_parser("keyspace", help="key-space size for a geometry")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    _add_cipher_flags(p)

    p = sub.add_parser("protect", help="apply keyed orthogonal protection to a template CSV")
    p.add_argument("templates", help="CSV: client_id,label,v0,...")
    p.add_argument("--out", metavar="PATH", help="protected CSV (default: stdout)")
    _add_key_flags(p)

    p = sub.add_parser("classify", help="nearest-centroid classification of protected queries")
    p.add_argument("queries", help="protected query CSV")
    p.add_argument("--model", required=True, metavar="PATH", help="labeled protected CSV")
    p.add_argument("--out", metavar="PATH", help="prediction CSV (default: stdout)")

    return parser


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write(path, text.encode())


def _cmd_encrypt(args) -> int:
    if args.gen_key:
        if args.key or args.key_file:
            raise UsageError("--gen-key conflicts with --key/--key-file")
        import secrets

        key = MasterKey(secrets.randbits(64))
    else:
        key = _load_key(args)
    cfg = _config(args)
    img = _parse(args.image, load_ppm)
    pad = (0, 0)
    if args.pad:
        img, pad_r, pad_b = pad_replicate(img, cfg.block_size)
        pad = (pad_r, pad_b)
    cipher_img, sidecar = encrypt(img, key, cfg, pad=pad)
    if args.gen_key:  # only a key that encrypted something is kept
        _write(args.gen_key, format_key_file(key))
    _write(args.out, save_ppm(cipher_img))
    _write(args.sidecar or args.out + ".meta", sidecar.to_text().encode())
    return EXIT_OK


def _cmd_decrypt(args) -> int:
    key = _load_key(args)
    sidecar_path = args.sidecar or args.image + ".meta"
    sidecar = _parse(sidecar_path, lambda data: CipherSidecar.from_text(data.decode()))
    img = _parse(args.image, load_ppm)
    _write(args.out, save_ppm(decrypt(img, key, sidecar)))
    return EXIT_OK


def _cmd_rd_curve(args) -> int:
    key = _load_key(args)
    cfg = _config(args)
    img = _parse(args.image, load_ppm)
    try:
        qualities = [int(q) for q in args.qualities.split(",") if q.strip()]
        params = CodecParams(subsampling=args.subsampling)
        if not qualities:
            raise ValueError("qualities must be non-empty")
        for q in qualities:  # raises on a quality outside 1..100
            CodecParams(quality=q)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    plain_pts, enc_pts = rd_curve(img, key, cfg, qualities, params)
    _emit(rd_csv(plain_pts, enc_pts), args.out)
    return EXIT_OK


def _cmd_attack(args) -> int:
    from_key = bool(args.key or args.key_file)
    if not (from_key or args.plain):
        raise UsageError("a ground truth needs --plain PATH, --key HEX or --key-file PATH")
    cipher_img = _parse(args.cipher, load_ppm)
    if args.plain:
        plain_img = _parse(args.plain, load_ppm)
        stacked = cipher_img.channels == 1 and cipher_img.height == 3 * plain_img.height
        if plain_img.channels == 3 and stacked:  # gray-scheme ciphertexts are plane-stacked
            plain_img = stack_planes(plain_img)
        if (plain_img.width, plain_img.height) != (cipher_img.width, cipher_img.height):
            raise DataError(f"plaintext {plain_img.width}x{plain_img.height} does not match "
                            f"ciphertext {cipher_img.width}x{cipher_img.height}")
    cfg = _config(args)
    if from_key:  # the key's ground truth holds only for what decrypt would take
        check_ciphertext(cipher_img, cfg)

    started = time.perf_counter()
    puzzle = Puzzle.from_image(cipher_img, cfg.block_size)
    if from_key:
        gt = ground_truth_from_key(_load_key(args), cfg, puzzle.grid)
    else:
        gt = ground_truth_from_plain(plain_img, puzzle)
    puzzle = Puzzle(puzzle.pieces, puzzle.grid, gt)
    assembly = greedy_assemble(puzzle, orientation_search=args.orientation_search)
    metrics = score_assembly(assembly, puzzle)
    seconds = time.perf_counter() - started

    # a key ground truth is scored against cfg.steps, the scheme default when
    # --steps is absent; an appearance ground truth names no steps unless given
    steps = cfg.steps if from_key or args.steps is not None else ()
    row = attack_report_row(steps, cfg.block_size, puzzle.grid.n_blocks, metrics, seconds)
    _emit(ATTACK_CSV_HEADER + "\n" + row + "\n", args.out_csv)
    if args.out_image:
        _write(args.out_image, save_ppm(render_assembly(assembly, puzzle)))
    return EXIT_OK


def _cmd_keyspace(args) -> int:
    cfg = _config(args)
    if args.width < 1 or args.height < 1:
        raise UsageError("width and height must be positive")
    if args.width % cfg.block_size or args.height % cfg.block_size:
        raise UsageError(
            f"{args.width}x{args.height} not divisible by block size {cfg.block_size}"
        )
    n_blocks = (args.width // cfg.block_size) * (args.height // cfg.block_size)
    if cfg.scheme == SCHEME_GRAYSCALE:
        n_blocks *= 3  # the three colour planes are stacked into one
    bits = keyspace_bits(n_blocks, cfg.steps, cfg.scheme)
    # every keyed choice derives from one 64-bit key, which bounds a search
    sys.stdout.write(
        f"n_blocks {n_blocks}\nkeyspace_bits {bits:.6f}\nkey_bits {MASK64.bit_length()}\n"
    )
    return EXIT_OK


def _cmd_protect(args) -> int:
    key = _load_key(args)
    templates = _read_templates(args.templates)
    _emit(format_template_csv([protect_template(t, key) for t in templates]), args.out)
    return EXIT_OK


def _cmd_classify(args) -> int:
    enrolled = _read_templates(args.model, protected=True)
    queries = _read_templates(args.queries, protected=True)
    model = enroll(enrolled)
    lines = ["client_id,predicted,distance"]
    for q in queries:
        cid, dist = classify(q, model)
        lines.append(f"{q.client_id},{cid},{dist:.6f}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


_COMMANDS = {
    "encrypt": _cmd_encrypt,
    "decrypt": _cmd_decrypt,
    "rd-curve": _cmd_rd_curve,
    "attack": _cmd_attack,
    "keyspace": _cmd_keyspace,
    "protect": _cmd_protect,
    "classify": _cmd_classify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"etckit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ValueError) as exc:  # a ValueError from the library is bad input data
        print(f"etckit: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CodecError as exc:
        print(f"etckit: codec error: {exc}", file=sys.stderr)
        return EXIT_CODEC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
