"""End-to-end acceptance gate.

One test per numbered criterion; each prints a single ``[criterion N] PASS``
line with the measured values (visible with ``pytest -s`` or on failure).
Budgets are asserted with wall-clock measurements on the same machine class
the defaults were tuned for; they are generous enough for CI noise.
"""

import math
import time

import numpy as np
import pytest

from etckit.attack import (
    Assembly,
    Metrics,
    Puzzle,
    brute_force_scramble,
    greedy_assemble,
    ground_truth_from_key,
    score_assembly,
)
from etckit.cipher import (
    SCHEME_COLOR,
    SCHEME_GRAYSCALE,
    CipherConfig,
    decrypt,
    encrypt,
    keyspace_bits,
)
from etckit.codec import mean_bpp_inflation, mean_psnr_gap, rd_curve
from etckit.images import ImageBuffer
from etckit.keystream import MASK64, MasterKey, gen_permutation, splitmix_next
from etckit.synth import reference_images, synth_natural_image
from etckit.templates import Template, classify, enroll, protect_template

REFERENCE_KEY = MasterKey(0x0123456789ABCDEF)
RD_QUALITIES = [50, 70, 85, 95]

_shared = {}


def test_criterion_1_round_trip_exactness():
    """100 random (image, key, config) triples decrypt bit-exact, < 10 s."""
    rng = np.random.default_rng(12345)
    started = time.perf_counter()
    for trial in range(100):
        scheme = SCHEME_COLOR if rng.integers(2) else SCHEME_GRAYSCALE
        block = int(rng.choice([8, 16]))
        height = block * int(rng.integers(1, 128 // block + 1))
        width = block * int(rng.integers(1, 128 // block + 1))
        if scheme == SCHEME_GRAYSCALE:
            channels = 1 if rng.integers(2) else 3
            letters = "srn"
        else:
            channels = 3
            letters = "srnc"
        steps = "".join(ch for ch in letters if rng.integers(2))
        cfg = CipherConfig(steps=steps, block_size=block, scheme=scheme)
        key = MasterKey(int(rng.integers(0, 1 << 63)))
        img = ImageBuffer(
            rng.integers(0, 256, (height, width, channels), dtype=np.uint8)
        )
        cipher_img, sidecar = encrypt(img, key, cfg)
        assert decrypt(cipher_img, key, sidecar) == img, (
            f"trial {trial}: round trip broke for steps={steps!r} block={block} "
            f"scheme={scheme} {width}x{height}x{channels}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"round-trip sweep took {elapsed:.1f}s"
    print(f"[criterion 1] PASS: 100/100 bit-exact round trips in {elapsed:.2f}s")


def test_criterion_2_prng_golden_vectors():
    """Generator outputs match an independent straight-line restatement."""
    golden = {
        0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC],
        1: [0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E, 0x71C18690EE42C90B],
        MASK64: [0xE4D971771B652C20, 0xE99FF867DBF682C9, 0x382FF84CB27281E9, 0x6D1DB36CCBA982D2],
    }

    def reference(seed, count):
        # independent straight-line restatement, shares no code with the package
        outs, state = [], seed
        for _ in range(count):
            state = (state + 0x9E3779B97F4A7C15) & MASK64
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
            outs.append(z ^ (z >> 31))
        return outs

    for seed, want in golden.items():
        assert reference(seed, 4) == want, "frozen vectors no longer match the oracle"
        state, outs = seed, []
        for _ in range(4):
            state, out = splitmix_next(state)
            outs.append(out)
        assert outs == want, f"seed {seed:#x} diverged from golden vectors"

    # hand-executed Fisher-Yates, seed 42, n=4: start [0,1,2,3];
    # i=3: draw 0xbdd732262feb6e95 % 4 = 1 -> [0,3,2,1]
    # i=2: draw 0x28efe333b266f103 % 3 = 1 -> [0,2,3,1]
    # i=1: draw 0x47526757130f9f52 % 2 = 0 -> [2,0,3,1]
    assert gen_permutation(42, 4).tolist() == [2, 0, 3, 1]
    print("[criterion 2] PASS: golden vectors and hand-executed shuffle match")


def _rd_baseline():
    """Shared 512x512 sweep for criteria 3 and 4, computed once."""
    if "rd" not in _shared:
        started = time.perf_counter()
        gaps, inflations = [], []
        for img in reference_images(count=3, size=512):
            plain, enc = rd_curve(img, REFERENCE_KEY, CipherConfig(), RD_QUALITIES)
            gaps.append(mean_psnr_gap(plain, enc))
            inflations.append(mean_bpp_inflation(plain, enc))
        _shared["rd"] = {
            "gap": float(np.mean(gaps)),
            "inflation": float(np.mean(inflations)),
            "elapsed": time.perf_counter() - started,
        }
    return _shared["rd"]


def test_criterion_3_compression_preservation():
    """Encrypted-path JPEG cost stays near the plain path at default geometry."""
    rd = _rd_baseline()
    assert rd["gap"] <= 1.0, f"mean PSNR gap {rd['gap']:.3f} dB exceeds 1.0 dB"
    assert rd["inflation"] <= 0.10, f"mean bpp inflation {rd['inflation']:.3%} exceeds 10%"
    assert rd["elapsed"] < 60.0, f"sweep took {rd['elapsed']:.1f}s"
    print(
        f"[criterion 3] PASS: mean gap {rd['gap']:.3f} dB, "
        f"inflation {rd['inflation']:.2%}, {rd['elapsed']:.1f}s"
    )


def test_criterion_4_alignment_ablation():
    """Blocks out of phase with the 16x16 coding lattice cost strictly more."""
    rd = _rd_baseline()
    gaps = []
    for img in reference_images(count=3, size=512):
        cropped = ImageBuffer(img.data[16:496, 16:496])  # 480x480, 12 | 480
        plain, enc = rd_curve(
            cropped, REFERENCE_KEY, CipherConfig(block_size=12), RD_QUALITIES
        )
        gaps.append(mean_psnr_gap(plain, enc))
    misaligned = float(np.mean(gaps))
    assert misaligned > rd["gap"], (
        f"misaligned gap {misaligned:.3f} dB not larger than aligned {rd['gap']:.3f} dB"
    )
    print(
        f"[criterion 4] PASS: block-12 gap {misaligned:.3f} dB > "
        f"aligned {rd['gap']:.3f} dB"
    )


def test_criterion_5_attack_direction():
    """Scramble-only assembles well; all four steps resist a translation solver."""
    started = time.perf_counter()
    img = synth_natural_image(512, 512, seed=7)

    def run(steps):
        cfg = CipherConfig(steps=steps, block_size=64)
        cipher_img, _ = encrypt(img, REFERENCE_KEY, cfg)
        puzzle = Puzzle.from_image(cipher_img, 64)
        gt = ground_truth_from_key(REFERENCE_KEY, cfg, puzzle.grid)
        puzzle = Puzzle(puzzle.pieces, puzzle.grid, gt)
        assembly = greedy_assemble(puzzle, orientation_search=False)
        return score_assembly(assembly, puzzle)

    weak = run("s")
    assert weak.nc >= 0.3, f"scramble-only Nc {weak.nc:.3f} below 0.3"

    strong = run("srnc")
    assert strong.dc <= 0.05, f"4-step Dc {strong.dc:.3f} above 0.05"
    assert strong.nc <= 0.10, f"4-step Nc {strong.nc:.3f} above 0.10"
    assert strong.lc <= 0.10, f"4-step Lc {strong.lc:.3f} above 0.10"

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"attack pair took {elapsed:.1f}s"
    print(
        f"[criterion 5] PASS: 1-step Nc {weak.nc:.3f}; 4-step "
        f"Dc {strong.dc:.3f} Nc {strong.nc:.3f} Lc {strong.lc:.3f}; {elapsed:.1f}s"
    )


# all 24 assemblies of a 2x2 puzzle, orientation fixed at 0, true layout
# identity; values enumerated by hand (cell -> piece, row-major).
METRIC_TABLE = {
    (0, 1, 2, 3): (1.0, 1.0, 1.0),
    (0, 1, 3, 2): (0.5, 0.25, 0.5),
    (0, 2, 1, 3): (0.5, 0.0, 0.25),
    (0, 2, 3, 1): (0.25, 0.0, 0.25),
    (0, 3, 1, 2): (0.25, 0.0, 0.25),
    (0, 3, 2, 1): (0.5, 0.25, 0.5),
    (1, 0, 2, 3): (0.5, 0.25, 0.5),
    (1, 0, 3, 2): (0.0, 0.5, 0.5),
    (1, 2, 0, 3): (0.25, 0.0, 0.25),
    (1, 2, 3, 0): (0.0, 0.25, 0.5),
    (1, 3, 0, 2): (0.0, 0.0, 0.25),
    (1, 3, 2, 0): (0.25, 0.0, 0.25),
    (2, 0, 1, 3): (0.25, 0.0, 0.25),
    (2, 0, 3, 1): (0.0, 0.0, 0.25),
    (2, 1, 0, 3): (0.5, 0.25, 0.5),
    (2, 1, 3, 0): (0.25, 0.0, 0.25),
    (2, 3, 0, 1): (0.0, 0.5, 0.5),
    (2, 3, 1, 0): (0.0, 0.25, 0.5),
    (3, 0, 1, 2): (0.0, 0.25, 0.5),
    (3, 0, 2, 1): (0.25, 0.0, 0.25),
    (3, 1, 0, 2): (0.25, 0.0, 0.25),
    (3, 1, 2, 0): (0.5, 0.0, 0.25),
    (3, 2, 0, 1): (0.0, 0.25, 0.5),
    (3, 2, 1, 0): (0.0, 0.0, 0.25),
}


def test_criterion_6_metric_oracle():
    """Assembly metrics match the exhaustive hand-enumerated 2x2 table."""
    assert len(METRIC_TABLE) == math.factorial(4)
    ids = np.arange(4, dtype=np.int64).reshape(2, 2)
    gt_puzzle = Puzzle.from_image(
        ImageBuffer(np.random.default_rng(2).integers(0, 256, (32, 32, 3), dtype=np.uint8)),
        16,
    )
    from etckit.attack import GroundTruth

    puzzle = Puzzle(gt_puzzle.pieces, gt_puzzle.grid, GroundTruth(ids, np.zeros_like(ids)))
    for perm, (dc, nc, lc) in METRIC_TABLE.items():
        asm = Assembly(np.asarray(perm).reshape(2, 2), np.zeros((2, 2), np.int64))
        got = score_assembly(asm, puzzle)
        assert got == Metrics(dc, nc, lc), f"assembly {perm}: got {got}"
    print("[criterion 6] PASS: all 24 assemblies match the hand table")


def test_criterion_7_key_space_consistency():
    """Toy brute force finds exactly one key in the 24-permutation space."""
    # four visibly distinct 8x8 blocks
    data = np.zeros((16, 16, 3), np.uint8)
    for idx, val in enumerate((10, 60, 110, 160)):
        r, c = divmod(idx, 2)
        data[r * 8 : (r + 1) * 8, c * 8 : (c + 1) * 8] = val
    img = ImageBuffer(data)
    cfg = CipherConfig(steps="s", block_size=8)
    cipher_img, _ = encrypt(img, MasterKey(99), cfg)

    search_space = math.factorial(4)
    assert search_space == 24  # the exhaustive search checks at most this many
    matches = brute_force_scramble(img, cipher_img, cfg)
    assert len(matches) == 1, f"expected a unique permutation, got {len(matches)}"

    bits = keyspace_bits(4, "s")
    assert bits == pytest.approx(math.log2(24), abs=1e-12)
    print(
        f"[criterion 7] PASS: unique permutation in <= {search_space} checks; "
        f"keyspace_bits(4, s) = {bits:.12f}"
    )


def test_criterion_8_learnable_encryption_equivalence():
    """Distance-based learning is unchanged under a shared key and near-chance
    across keys."""
    started = time.perf_counter()

    # shared key: 3 Gaussian clusters in d=16, 50 points each
    rng = np.random.default_rng(42)
    centers = rng.standard_normal((3, 16)) * 5.0
    temps = []
    cid = 0
    for cls in range(3):
        for _ in range(50):
            temps.append(
                Template(centers[cls] + rng.standard_normal(16), client_id=cid, label=cls)
            )
            cid += 1
    key = MasterKey(0x5555)
    prot = [protect_template(t, key) for t in temps]
    plain_model = enroll(temps)
    prot_model = enroll(prot)
    agree = sum(
        classify(t, plain_model)[0] == classify(p, prot_model)[0]
        for t, p in zip(temps, prot)
    )
    assert agree == 150, f"shared-key agreement {agree}/150"

    resid = 0.0
    for a, pa in zip(temps[:30], prot[:30]):
        for b, pb in zip(temps[:30], prot[:30]):
            d_plain = np.linalg.norm(a.values - b.values)
            d_prot = np.linalg.norm(pa.values - pb.values)
            resid = max(resid, abs(d_prot - d_plain))
    assert resid < 1e-9, f"isometry residual {resid:.3e}"

    # cross-key: symmetric 2-class set in d=64, fresh client keys per batch
    rng2 = np.random.default_rng(3)
    d = 64
    center = np.ones(d) / np.sqrt(d)
    enrolled = []
    for cls, sign in ((0, 1.0), (1, -1.0)):
        for j in range(50):
            enrolled.append(
                Template(sign * center + rng2.standard_normal(d), client_id=j, label=cls)
            )
    model_key = MasterKey(1)
    plain2 = enroll(enrolled)
    prot2 = enroll([protect_template(t, model_key) for t in enrolled])
    cross = 0
    for i in range(500):
        sign = 1.0 if i % 2 == 0 else -1.0
        q = Template(sign * center + rng2.standard_normal(d), client_id=i)
        client_key = MasterKey(10_000 + i // 10)  # 50 keys x 10 queries
        cross += classify(q, plain2)[0] == classify(protect_template(q, client_key), prot2)[0]
    rate = cross / 500
    assert 0.4 <= rate <= 0.6, f"cross-key agreement {rate:.3f} outside 50% +/- 10%"

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"template suite took {elapsed:.1f}s"
    print(
        f"[criterion 8] PASS: shared-key 150/150, residual {resid:.1e}, "
        f"cross-key {rate:.3f}, {elapsed:.2f}s"
    )


def test_criterion_9_difficulty_ordering():
    """Mean Nc never increases when pieces quadruple or steps go 1 -> 4."""
    img = synth_natural_image(512, 512, seed=7)

    def mean_nc(steps, block):
        scores = []
        for k in range(5):
            cfg = CipherConfig(steps=steps, block_size=block)
            cipher_img, _ = encrypt(img, MasterKey(k), cfg)
            puzzle = Puzzle.from_image(cipher_img, block)
            gt = ground_truth_from_key(MasterKey(k), cfg, puzzle.grid)
            puzzle = Puzzle(puzzle.pieces, puzzle.grid, gt)
            assembly = greedy_assemble(puzzle, orientation_search=False)
            scores.append(score_assembly(assembly, puzzle).nc)
        return float(np.mean(scores))

    grid = {
        (steps, block): mean_nc(steps, block)
        for steps in ("s", "srnc")
        for block in (128, 64)
    }
    # quadrupling pieces (block 128 -> 64: 16 -> 64 pieces)
    assert grid[("s", 128)] >= grid[("s", 64)], grid
    assert grid[("srnc", 128)] >= grid[("srnc", 64)], grid
    # 1 step -> 4 steps at fixed geometry
    assert grid[("s", 128)] >= grid[("srnc", 128)], grid
    assert grid[("s", 64)] >= grid[("srnc", 64)], grid
    print(
        "[criterion 9] PASS: mean Nc "
        f"s/16pc {grid[('s', 128)]:.3f} >= s/64pc {grid[('s', 64)]:.3f} >= "
        f"srnc/64pc {grid[('srnc', 64)]:.3f}; "
        f"srnc/16pc {grid[('srnc', 128)]:.3f} >= srnc/64pc {grid[('srnc', 64)]:.3f}"
    )
