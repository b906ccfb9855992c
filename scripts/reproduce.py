#!/usr/bin/env python3
"""Measure the paper's three claims; write them to results/*.csv. Takes no options.

- rd.csv, rd_summary.csv: JPEG rate-distortion, plain against encrypted, per step set.
- attack.csv: a greedy jigsaw solver per step set and piece count, averaged over keys.
- templates.csv: nearest-centroid accuracy in the plain and protected domains.

Every input is fixed here, so the files are a pure function of the code.
Timings go to stderr only.
"""

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # this checkout's package, installed or not

from etckit.attack import Puzzle, greedy_assemble, ground_truth_from_key, score_assembly  # noqa: E402
from etckit.cipher import CipherConfig, encrypt  # noqa: E402
from etckit.codec import CodecParams, mean_bpp_inflation, mean_psnr_gap, rd_encrypted, rd_plain  # noqa: E402
from etckit.keystream import MasterKey  # noqa: E402
from etckit.synth import reference_images, synth_natural_image  # noqa: E402
from etckit.templates import Template, classify, enroll, protect_template  # noqa: E402

RESULTS = ROOT / "results"


def rd():
    key = MasterKey.from_hex("0123456789abcdef")
    rows = ["image,steps,quality,path,bpp,psnr_db"]
    summary = ["image,steps,mean_psnr_gap_db,mean_bpp_inflation"]
    qualities, params = [50, 70, 85, 95], CodecParams(subsampling="420")
    for idx, img in enumerate(reference_images(count=3, size=512)):
        plain = rd_plain(img, qualities, params)  # the same for every step set
        for steps in ("", "s", "sr", "srn", "srnc"):
            enc = rd_encrypted(img, key, CipherConfig(steps=steps), qualities, params)
            head = f"ref{idx},{steps or '-'}"
            for path, points in (("plain", plain), ("encrypted", enc)):
                rows += [
                    f"{head},{pt.quality},{path},{pt.bits_per_pixel:.6f},{pt.psnr_db:.6f}"
                    for pt in points
                ]
            gap, inflation = mean_psnr_gap(plain, enc), mean_bpp_inflation(plain, enc)
            summary.append(f"{head},{gap:.6f},{inflation:.6f}")
    return {"rd.csv": rows, "rd_summary.csv": summary}


def attack():
    img = synth_natural_image(512, 512, seed=7)
    rows = ["steps,block_size,n_pieces,orientation_search,dc,nc,lc"]
    for search in (False, True):
        for steps in ("s", "sr", "srn", "srnc"):
            for block in (128, 64):
                cfg = CipherConfig(steps=steps, block_size=block)
                scores = []
                for key in map(MasterKey, range(5)):
                    puzzle = Puzzle.from_image(encrypt(img, key, cfg)[0], block)
                    gt = ground_truth_from_key(key, cfg, puzzle.grid)
                    puzzle = Puzzle(puzzle.pieces, puzzle.grid, gt)
                    asm = greedy_assemble(puzzle, orientation_search=search)
                    scores.append(score_assembly(asm, puzzle))
                means = (np.mean([getattr(s, m) for s in scores]) for m in ("dc", "nc", "lc"))
                head = f"{steps},{block},{puzzle.grid.n_blocks},{int(search)}"
                rows.append(head + "".join(f",{v:.6f}" for v in means))
    return {"attack.csv": rows}


def _clusters(rng, centers):
    return [
        Template(center + rng.standard_normal(center.size), client_id=cls * 50 + i, label=cls)
        for cls, center in enumerate(centers)
        for i in range(50)
    ]


def templates():
    # 3 Gaussian clusters of 50 templates each in 16 dimensions, unit noise
    rng = np.random.default_rng(42)
    centers = rng.standard_normal((3, 16)) * 5.0
    enrolled, queries = _clusters(rng, centers), _clusters(rng, centers)
    shared = MasterKey(0x5555)
    plain_model = enroll(enrolled)
    protected_model = enroll([protect_template(t, shared) for t in enrolled])
    rows = ["setting,plain_accuracy,protected_accuracy,agreement"]
    for name, per_query in (("shared_key", False), ("per_query_key", True)):
        plain_hits = protected_hits = agree = 0
        for i, q in enumerate(queries):
            lp, _ = classify(q, plain_model)
            key = MasterKey(10_000 + i) if per_query else shared
            lx, _ = classify(protect_template(q, key), protected_model)
            plain_hits += lp == q.label
            protected_hits += lx == q.label
            agree += lp == lx
        n = len(queries)
        rows.append(f"{name},{plain_hits / n:.6f},{protected_hits / n:.6f},{agree / n:.6f}")
    return {"templates.csv": rows}


def main() -> int:
    RESULTS.mkdir(exist_ok=True)
    for experiment in (rd, attack, templates):
        started = time.perf_counter()
        for name, rows in experiment().items():
            (RESULTS / name).write_text("\n".join(rows) + "\n")
        print(f"{experiment.__name__}: {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
