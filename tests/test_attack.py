import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etckit import attack
from etckit.attack import (
    Assembly,
    GroundTruth,
    Metrics,
    Puzzle,
    _SEAM_SIDES,
    _seed,
    _SideTable,
    attack_report_row,
    brute_force_scramble,
    greedy_assemble,
    ground_truth_from_key,
    ground_truth_from_plain,
    identity_assembly,
    render_assembly,
    score_assembly,
)
from etckit.cipher import (
    ORIENT_COMPOSE,
    SCHEME_GRAYSCALE,
    CipherConfig,
    apply_orientation,
    encrypt,
)
from etckit.images import BlockGrid, ImageBuffer, merge_blocks
from etckit.keystream import MasterKey
from etckit.synth import synth_natural_image

from attack_oracles import (
    reference_edge_tables,
    reference_greedy_assemble,
    reference_ground_truth_from_plain,
    reference_render_assembly,
    reference_pose_codes,
    reference_pose_grid,
    reference_score_assembly,
)


def _img(h, w, c=3, seed=0):
    rng = np.random.default_rng(seed)
    return ImageBuffer(rng.integers(0, 256, (h, w, c), dtype=np.uint8))


def _identity_gt(rows, cols):
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    return GroundTruth(ids, np.zeros_like(ids))


class TestTypes:
    def test_assembly_must_use_each_piece_once(self):
        with pytest.raises(ValueError):
            Assembly(np.asarray([[0, 0], [1, 2]]), np.zeros((2, 2), np.int64))

    def test_assembly_orientation_range(self):
        with pytest.raises(ValueError):
            Assembly(np.asarray([[0, 1], [2, 3]]), np.full((2, 2), 8))

    def test_ground_truth_must_use_each_piece_once(self):
        # scored, it would give Metrics(0.25, 0.0, 0.25)
        with pytest.raises(ValueError, match="ground truth must place every piece exactly once"):
            GroundTruth(np.zeros((2, 2), np.int64), np.zeros((2, 2), np.int64))

    def test_ground_truth_orientation_range(self):
        # scored, it would index past the 8 x 8 composition table
        with pytest.raises(ValueError, match="ground truth orientations"):
            GroundTruth(np.asarray([[0, 1], [2, 3]]), np.asarray([[0, 9], [0, 0]]))
        with pytest.raises(ValueError, match="ground truth orientations"):
            GroundTruth(np.asarray([[0, 1], [2, 3]]), np.zeros((1, 4), np.int64))

    def test_puzzle_from_image(self):
        pz = Puzzle.from_image(_img(32, 48), 16)
        assert pz.pieces.shape == (6, 16, 16, 3)
        assert (pz.grid.rows, pz.grid.cols) == (2, 3)


class TestGroundTruth:
    def test_from_key_identity_when_no_steps(self):
        cfg = CipherConfig(steps="")
        pz = Puzzle.from_image(_img(32, 32), 16)
        gt = ground_truth_from_key(MasterKey(1), cfg, pz.grid)
        assert (gt.piece_ids == np.arange(4).reshape(2, 2)).all()
        assert (gt.orientations == 0).all()

    def test_from_key_restores_plaintext(self):
        # placing piece gt.piece_ids[r, c] at (r, c) with gt.orientations[r, c]
        # must repaint the plaintext for scramble+rotate ciphertexts
        img = _img(64, 64, seed=5)
        for steps in ("s", "r", "sr"):
            cfg = CipherConfig(steps=steps)
            key = MasterKey(0xBEEF)
            ct, _ = encrypt(img, key, cfg)
            pz = Puzzle.from_image(ct, 16)
            gt = ground_truth_from_key(key, cfg, pz.grid)
            assert render_assembly(Assembly(gt.piece_ids, gt.orientations), pz) == img

    def test_from_plain_matches_key_on_exact_ciphertext(self):
        img = synth_natural_image(128, 128, seed=11)
        key = MasterKey(0xCAFE)
        cfg = CipherConfig(steps="srnc", block_size=32)
        ct, _ = encrypt(img, key, cfg)
        pz = Puzzle.from_image(ct, 32)
        gt_key = ground_truth_from_key(key, cfg, pz.grid)
        gt_app = ground_truth_from_plain(img, pz)
        assert (gt_app.piece_ids == gt_key.piece_ids).all()
        assert (gt_app.orientations == gt_key.orientations).all()

    def test_from_plain_rejects_geometry_mismatch(self):
        with pytest.raises(ValueError):
            ground_truth_from_plain(_img(64, 64), Puzzle.from_image(_img(32, 32), 16))


def _oracle_metrics(perm):
    """Independent brute-force metric computation for a 2x2 puzzle with
    orientation fixed at 0; ``perm[cell] = piece`` row-major.

    Positions: 0=(0,0) 1=(0,1) 2=(1,0) 3=(1,1). True layout is the identity.
    """
    # Dc maximized over global rotations; with all orientations 0, a nonzero
    # rotation makes every cell's orientation wrong, so only rotation 0 counts.
    dc = sum(perm[i] == i for i in range(4)) / 4.0

    pos = {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}
    pairs = [((0, 0), (0, 1)), ((1, 0), (1, 1)), ((0, 0), (1, 0)), ((0, 1), (1, 1))]
    grid = {pos[i]: perm[i] for i in range(4)}
    good = []
    for a, b in pairs:
        u, v = grid[a], grid[b]
        delta = (b[0] - a[0], b[1] - a[1])
        tu, tv = pos[u], pos[v]
        if (tv[0] - tu[0], tv[1] - tu[1]) == delta:
            good.append((a, b))
    nc = len(good) / 4.0

    # largest connected region via union-find over the good seams
    parent = {p: p for p in pos.values()}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in good:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    sizes = {}
    for p in parent:
        sizes[find(p)] = sizes.get(find(p), 0) + 1
    lc = max(sizes.values()) / 4.0
    return dc, nc, lc


class TestMetricOracle:
    """All 24 assemblies of a 2x2 puzzle with distinct pieces, orientation
    fixed, scored against a hand-enumerated table and an independent oracle."""

    # perm (cell -> piece, row-major): (Dc, Nc, Lc), enumerated by hand
    TABLE = {
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

    @staticmethod
    def _puzzle():
        return Puzzle.from_image(_img(32, 32, seed=2), 16, _identity_gt(2, 2))

    def test_table_is_complete(self):
        assert set(self.TABLE) == set(itertools.permutations(range(4)))

    def test_table_matches_independent_oracle(self):
        for perm, want in self.TABLE.items():
            assert _oracle_metrics(perm) == want, perm

    def test_implementation_matches_table(self):
        pz = self._puzzle()
        for perm, (dc, nc, lc) in self.TABLE.items():
            asm = Assembly(np.asarray(perm).reshape(2, 2), np.zeros((2, 2), np.int64))
            got = score_assembly(asm, pz)
            assert got == Metrics(dc, nc, lc), perm

    def test_spec_worked_example(self):
        pz = self._puzzle()
        asm = Assembly(np.asarray([[1, 0], [2, 3]]), np.zeros((2, 2), np.int64))
        got = score_assembly(asm, pz, allow_global_pose=False)
        assert got == Metrics(0.5, 0.25, 0.5)


class TestScoreAssembly:
    def test_identity_scores_perfect(self):
        pz = Puzzle.from_image(_img(48, 48), 16, _identity_gt(3, 3))
        assert score_assembly(identity_assembly(pz.grid), pz) == Metrics(1.0, 1.0, 1.0)

    def test_global_rotation_allowance(self):
        pz = Puzzle.from_image(_img(32, 32), 16, _identity_gt(2, 2))
        for k in (1, 2, 3):
            ids = np.rot90(np.arange(4).reshape(2, 2), k)
            ors = ORIENT_COMPOSE[np.zeros((2, 2), np.int64), k]
            asm = Assembly(ids, ors)
            assert score_assembly(asm, pz) == Metrics(1.0, 1.0, 1.0), k
            strict = score_assembly(asm, pz, allow_global_pose=False)
            assert strict.dc == 0.0 and strict.nc == 1.0, k

    def test_odd_rotations_skipped_on_rectangular_grids(self):
        pz = Puzzle.from_image(_img(32, 48), 16, _identity_gt(2, 3))
        m = score_assembly(identity_assembly(pz.grid), pz)
        assert m == Metrics(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3)])
    def test_every_shape_keeping_pose_of_the_truth_scores_perfect(self, shape):
        # a pose moves the cells as np.rot90 then a left-right mirror, and
        # turns every piece with it; the rendered assembly is the plaintext
        # in that pose
        plain = _img(4 * shape[0], 4 * shape[1], seed=6)
        key, cfg = MasterKey(0xFACE), CipherConfig(steps="sr", block_size=4)
        ct, _ = encrypt(plain, key, cfg)
        pz = Puzzle.from_image(ct, 4)
        gt = ground_truth_from_key(key, cfg, pz.grid)
        pz = Puzzle(pz.pieces, pz.grid, gt)
        assert len(set(gt.orientations.ravel().tolist())) > 1

        def pose(a, g):
            turned = np.rot90(a, g % 4)
            return np.flip(turned, axis=1) if g >= 4 else turned

        poses = range(8) if shape[0] == shape[1] else (0, 2, 4, 6)
        for g in poses:
            asm = Assembly(pose(gt.piece_ids, g), ORIENT_COMPOSE[pose(gt.orientations, g), g])
            assert render_assembly(asm, pz) == ImageBuffer(np.ascontiguousarray(pose(plain.data, g)))
            assert score_assembly(asm, pz) == Metrics(1.0, 1.0, 1.0), g

    def test_lc_lower_bound(self):
        pz = Puzzle.from_image(_img(32, 32), 16, _identity_gt(2, 2))
        worst = Assembly(np.asarray([[3, 2], [1, 0]]), np.zeros((2, 2), np.int64))
        m = score_assembly(worst, pz, allow_global_pose=False)
        assert m.lc >= 1 / 4

    def test_requires_ground_truth(self):
        pz = Puzzle.from_image(_img(32, 32), 16)
        with pytest.raises(ValueError):
            score_assembly(identity_assembly(pz.grid), pz)

    def test_rejects_a_grid_unlike_the_ground_truth(self):
        pz = Puzzle.from_image(_img(32, 48), 16, _identity_gt(2, 3))
        asm = identity_assembly(BlockGrid(16, 3, 2))
        with pytest.raises(ValueError, match=r"\(3, 2\).*\(2, 3\)"):
            score_assembly(asm, pz)

    def test_import_loads_no_scipy(self):
        # scipy costs tens of MiB of RSS; the library imports it only where used
        code = ("import sys, etckit; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert done.stdout.strip() == "[]"

    def test_orientation_mismatch_breaks_dc_and_nc(self):
        pz = Puzzle.from_image(_img(32, 32), 16, _identity_gt(2, 2))
        ors = np.zeros((2, 2), np.int64)
        ors[0, 0] = 2
        m = score_assembly(Assembly(np.arange(4).reshape(2, 2), ors), pz)
        assert m.dc == 0.75
        assert m.nc == 0.5  # both seams touching the rotated piece break


class TestGreedyAssemble:
    def test_scramble_only_reconstructs_natural_image(self):
        img = synth_natural_image(256, 256, seed=9)
        key = MasterKey(0x1111)
        cfg = CipherConfig(steps="s", block_size=32)
        ct, _ = encrypt(img, key, cfg)
        pz = Puzzle.from_image(ct, 32)
        pz = Puzzle(pz.pieces, pz.grid, ground_truth_from_key(key, cfg, pz.grid))
        m = score_assembly(greedy_assemble(pz), pz)
        assert m.nc >= 0.5

    def test_deterministic(self):
        img = synth_natural_image(128, 128, seed=4)
        key = MasterKey(0x2222)
        cfg = CipherConfig(steps="s", block_size=32)
        ct, _ = encrypt(img, key, cfg)
        pz = Puzzle.from_image(ct, 32)
        a = greedy_assemble(pz)
        b = greedy_assemble(pz)
        assert (a.piece_ids == b.piece_ids).all()
        assert (a.orientations == b.orientations).all()

    def test_translation_only_keeps_orientations_zero(self):
        pz = Puzzle.from_image(_img(64, 64, seed=1), 16)
        asm = greedy_assemble(pz, orientation_search=False)
        assert (asm.orientations == 0).all()

    def test_single_block_puzzle(self):
        pz = Puzzle.from_image(_img(16, 16), 16)
        asm = greedy_assemble(pz)
        assert asm.piece_ids.tolist() == [[0]]

    def test_respects_grid_bounds(self):
        pz = Puzzle.from_image(_img(32, 96, seed=8), 16)
        asm = greedy_assemble(pz)
        assert asm.piece_ids.shape == (2, 6)


# Grids for the equivalence tests: one piece wide both ways, non-square, odd.
_GRIDS = [(1, 2), (2, 1), (1, 5), (4, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 5)]
_PIECE_KINDS = ["random", "natural", "duplicated", "uniform", "antisymmetric"]


def _pieces(kind, n, bs, c, seed):
    """``n`` pieces of ``kind``. Duplicated and uniform pieces make many
    compatibility scores tie exactly, so every tie-break rule is exercised.
    An antisymmetric piece turned by 180 degrees equals its negative, so the
    ground truth's orientation and negpos variants tie exactly."""
    rng = np.random.default_rng(seed)
    if kind == "antisymmetric":
        half = rng.integers(0, 256, (n, bs, bs // 2, c), dtype=np.uint8)
        return np.concatenate([half, 255 - half[:, ::-1, ::-1]], axis=2)
    if kind == "random":
        return rng.integers(0, 256, (n, bs, bs, c), dtype=np.uint8)
    if kind == "natural":
        img = synth_natural_image(bs, n * bs, seed=seed % 1000).data[..., :c]
        return np.ascontiguousarray(img.reshape(bs, n, bs, c).swapaxes(0, 1))
    if kind == "duplicated":
        pool = rng.integers(0, 256, (max(1, n // 3), bs, bs, c), dtype=np.uint8)
        return pool[rng.integers(0, len(pool), n)]
    # equal steps between the values give equal scores across different pairs
    values = rng.choice(np.asarray([0, 64, 128, 192, 255], np.uint8), n)
    return np.ascontiguousarray(np.broadcast_to(values[:, None, None, None], (n, bs, bs, c)))


def _cipher_case(grid, kind, c, bs, key, seed):
    """A plaintext of ``kind`` pieces and the puzzle of its ciphertext under
    ``key``, with every step the scheme for ``c`` channels allows."""
    rows, cols = grid
    plain = merge_blocks(_pieces(kind, rows * cols, bs, c, seed), BlockGrid(bs, rows, cols), c)
    if c == 3:
        cfg = CipherConfig(steps="srnc", block_size=bs)
    else:
        cfg = CipherConfig(scheme=SCHEME_GRAYSCALE, steps="srn", block_size=bs)
    ct, _ = encrypt(plain, MasterKey(key), cfg)
    return plain, Puzzle.from_image(ct, bs)


_KEYS = st.integers(0, 2**64 - 1)


class TestAgainstReference:
    """The library's incremental solver, batched ground truth and vectorised
    renderer return exactly what the per-step references in
    ``attack_oracles`` return."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(_GRIDS), st.sampled_from(_PIECE_KINDS), st.sampled_from([1, 3]),
           st.booleans(), _KEYS, st.integers(0, 2**32 - 1))
    def test_greedy_matches_reference(self, grid, kind, c, search, key, seed):
        _, pz = _cipher_case(grid, kind, c, 4, key, seed)
        orientations = list(range(8)) if search else [0]
        table = _SideTable(pz.pieces, orientations)
        piece = np.arange(len(pz.pieces) * len(orientations)) // len(orientations)
        # every row and column the solver can compute is the reference table's
        # off the self-pairs, which it never reads
        for (first, second), ref in zip(_SEAM_SIDES, reference_edge_tables(pz.pieces, orientations)):
            for k in range(len(ref)):
                other = piece != piece[k]
                assert np.array_equal(table.row(first, second, k)[other], ref[k, other])
                assert np.array_equal(table.row(second, first, k)[other], ref[other, k])
        asm = greedy_assemble(pz, orientation_search=search)
        try:
            ref = reference_greedy_assemble(pz, orientation_search=search)
        except (TypeError, IndexError):
            # the reference may seed across a one-piece-wide grid, and then
            # finds no open cell or overruns the grid; the library seeds only
            # along the grid
            assert min(grid) == 1
            assert asm.piece_ids.shape == grid
            return
        assert np.array_equal(asm.piece_ids, ref.piece_ids)
        assert np.array_equal(asm.orientations, ref.orientations)

    @pytest.mark.parametrize("search", [False, True])
    def test_greedy_matches_reference_on_a_natural_image(self, search):
        img = synth_natural_image(128, 128, seed=21)
        ct, _ = encrypt(img, MasterKey(0x5EED), CipherConfig(steps="srnc", block_size=16))
        pz = Puzzle.from_image(ct, 16)
        asm = greedy_assemble(pz, orientation_search=search)
        ref = reference_greedy_assemble(pz, orientation_search=search)
        assert np.array_equal(asm.piece_ids, ref.piece_ids)
        assert np.array_equal(asm.orientations, ref.orientations)

    @pytest.mark.parametrize("grid", [(6, 8), (2, 16), (16, 2)])
    @pytest.mark.parametrize("kind", ["duplicated", "uniform", "natural"])
    @pytest.mark.parametrize("search", [False, True])
    def test_greedy_matches_reference_on_larger_grids(self, grid, kind, search):
        # 32 to 48 pieces open frontiers wide enough that cached entries go
        # stale, used pieces' cells are rescored and the box drops open cells
        _, pz = _cipher_case(grid, kind, 3, 4, 0x5EED, 19)
        asm = greedy_assemble(pz, orientation_search=search)
        ref = reference_greedy_assemble(pz, orientation_search=search)
        assert np.array_equal(asm.piece_ids, ref.piece_ids)
        assert np.array_equal(asm.orientations, ref.orientations)

    @pytest.mark.parametrize("kind", ["natural", "uniform"])
    @pytest.mark.parametrize("search", [False, True])
    def test_seed_scan_matches_reference_across_chunks(self, monkeypatch, kind, search):
        # uniform pieces tie across many pairs, so the first minimum must
        # survive block boundaries
        _, pz = _cipher_case((3, 5), kind, 3, 4, 0x5EED, 7)
        orientations = list(range(8)) if search else [0]
        # the seed's first key takes 4 orientations per piece with search
        reps, kk, d = 4 if search else 1, 15 * len(orientations), 4 * 3
        table = _SideTable(pz.pieces, orientations)
        tables = reference_edge_tables(pz.pieces, orientations)
        want = reference_greedy_assemble(pz, orientation_search=search)
        for chunk in (1, 2 * kk * reps, 1 << 30):  # one piece, two pieces, all pieces
            monkeypatch.setattr(attack, "_SEED_CHUNK", chunk)
            for rel, ref in enumerate(tables):
                value, k1, k2, got = _seed(table, (rel,), orientations)
                assert (k1 * kk + k2, got) == (int(np.argmin(ref)), rel)
                assert value / d == ref.flat[k1 * kk + k2]
            asm = greedy_assemble(pz, orientation_search=search)
            assert np.array_equal(asm.piece_ids, want.piece_ids)
            assert np.array_equal(asm.orientations, want.orientations)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(st.sampled_from(_GRIDS), st.integers(2, 9).map(lambda n: (1, n)),
                     st.integers(2, 9).map(lambda n: (n, 1))),
           st.sampled_from(["flat", 2, 4]), st.sampled_from([1, 3]), st.sampled_from([2, 3]),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_seed_matches_reference_on_ties(self, grid, levels, c, bs, search, seed):
        # flat pieces (one value each, of 4) and pieces of 2 or 4 sample
        # values tie across many pairs; the seed maps each tie through the
        # poses and must land on the two-relation table's first minimum
        rows, cols = grid
        rng = np.random.default_rng(seed)
        n = rows * cols
        if levels == "flat":
            values = np.asarray([0, 85, 170, 255], np.uint8)[rng.integers(0, 4, n)]
            pieces = np.broadcast_to(values[:, None, None, None], (n, bs, bs, c))
        else:
            values = np.linspace(0, 255, levels).astype(np.uint8)
            pieces = values[rng.integers(0, levels, (n, bs, bs, c))]
        pieces = np.ascontiguousarray(pieces)
        orientations = list(range(8)) if search else [0]
        fitting = [rel for rel, size in enumerate((cols, rows)) if size > 1]
        tables = np.stack(reference_edge_tables(pieces, orientations), axis=2)[..., fitting]
        k1, k2, r = np.unravel_index(np.argmin(tables), tables.shape)
        table = _SideTable(pieces, orientations)
        for chunk in (1, 1 << 30):  # one piece per block, all pieces in one
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(attack, "_SEED_CHUNK", chunk)
                value, *got = _seed(table, tuple(fitting), orientations)
            assert got == [k1, k2, fitting[r]]
            assert value / (bs * c) == tables[k1, k2, r]

    @pytest.mark.parametrize(
        "values, shape, want",
        [
            # every score is 0: the seed pair ties between the relations
            # (right wins), then each step takes the lowest piece into the
            # first open cell in row-major order
            ([9, 9, 9, 9], (2, 2), [[2, 3], [0, 1]]),
            # open cells tie on value with different best pieces: the lower
            # piece wins over the earlier cell
            ([128, 0, 255, 64, 64, 192], (2, 3), [[2, 0, 5], [1, 3, 4]]),
        ],
    )
    def test_exact_ties_follow_the_documented_order(self, values, shape, want):
        v = np.asarray(values, np.uint8)
        pieces = np.ascontiguousarray(np.broadcast_to(v[:, None, None, None], (len(v), 2, 2, 1)))
        pz = Puzzle(pieces, BlockGrid(2, *shape))
        asm = greedy_assemble(pz)
        assert asm.piece_ids.tolist() == want
        assert np.array_equal(asm.piece_ids, reference_greedy_assemble(pz).piece_ids)

    @pytest.mark.parametrize("grid", [(1, 4), (4, 1), (1, 7), (7, 1)])
    @pytest.mark.parametrize("search", [False, True])
    def test_one_piece_wide_grids_assemble(self, grid, search):
        rows, cols = grid
        for seed in range(6):
            pz = Puzzle.from_image(_img(rows * 8, cols * 8, 1, seed=seed), 8)
            asm = greedy_assemble(pz, orientation_search=search)
            assert asm.piece_ids.shape == grid

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(_GRIDS), st.sampled_from(_PIECE_KINDS), st.sampled_from([1, 3]),
           st.sampled_from([4, 8, 16]), _KEYS, st.integers(0, 2**32 - 1))
    def test_ground_truth_matches_reference(self, grid, kind, c, bs, key, seed):
        # cell means over a power-of-two area are exact, so the mean oracle's
        # distances are the library's divided by area**2, with equal ties
        plain, pz = _cipher_case(grid, kind, c, bs, key, seed)
        got = ground_truth_from_plain(plain, pz)
        want = reference_ground_truth_from_plain(plain, pz)
        assert np.array_equal(got.piece_ids, want.piece_ids)
        assert np.array_equal(got.orientations, want.orientations)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(_GRIDS), st.sampled_from(_PIECE_KINDS), st.sampled_from([1, 3]),
           st.sampled_from([4, 6, 8, 12]), _KEYS, st.integers(0, 2**32 - 1))
    def test_ground_truth_matches_sum_reference(self, grid, kind, c, bs, key, seed):
        # block sizes 6 and 12 have 9-pixel cells, whose means no float holds
        # exactly; their sums are integers
        plain, pz = _cipher_case(grid, kind, c, bs, key, seed)
        got = ground_truth_from_plain(plain, pz)
        want = reference_ground_truth_from_plain(plain, pz, sums=True)
        assert np.array_equal(got.piece_ids, want.piece_ids)
        assert np.array_equal(got.orientations, want.orientations)

    @pytest.mark.parametrize("c", [1, 3])
    def test_ground_truth_ties_take_the_first_variant_at_block_6(self, c):
        # an antisymmetric piece turned by 180 degrees is its own negative, so
        # (orientation 0, negated) and (orientation 2, plain) undo both
        # ciphertexts exactly; orientation 0 comes first
        grid = BlockGrid(6, 2, 3)
        plain = _pieces("antisymmetric", 6, 6, c, 5)
        for ct in (255 - plain, apply_orientation(plain, 2)):
            pz = Puzzle(np.ascontiguousarray(ct), grid)
            gt = ground_truth_from_plain(merge_blocks(plain, grid, c), pz)
            assert gt.piece_ids.tolist() == [[0, 1, 2], [3, 4, 5]]
            assert gt.orientations.tolist() == [[0, 0, 0], [0, 0, 0]]

    def test_ground_truth_matches_reference_across_chunks(self, monkeypatch):
        img = synth_natural_image(96, 96, seed=12)
        ct, _ = encrypt(img, MasterKey(0xD1CE), CipherConfig(steps="srnc", block_size=12))
        pz = Puzzle.from_image(ct, 12)
        want = reference_ground_truth_from_plain(img, pz, sums=True)
        # 64 pieces: five-piece chunks leave a partial one
        for chunk in (1, 5, 1 << 30):  # one piece, five pieces, all pieces
            monkeypatch.setattr(attack, "_GT_PIECES", chunk)
            got = ground_truth_from_plain(img, pz)
            assert np.array_equal(got.piece_ids, want.piece_ids)
            assert np.array_equal(got.orientations, want.orientations)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(_GRIDS), st.sampled_from([1, 3]), st.integers(0, 2**32 - 1))
    def test_render_matches_reference(self, grid, c, seed):
        rows, cols = grid
        rng = np.random.default_rng(seed)
        pz = Puzzle.from_image(_img(rows * 4, cols * 4, c, seed=seed % 997), 4)
        asm = Assembly(rng.permutation(rows * cols).reshape(grid), rng.integers(0, 8, grid))
        assert render_assembly(asm, pz) == reference_render_assembly(asm, pz)


@st.composite
def _scored_cases(draw):
    """(assembly, puzzle) on grids up to 6 x 6: a random assembly, the ground
    truth moved by a global pose that keeps the grid's shape, or that pose
    perturbed by swapped cells and re-drawn orientations."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "posed", "perturbed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = rows * cols
    gt_ids = rng.permutation(n).reshape(rows, cols)
    gt_ors = rng.integers(0, 8, (rows, cols)) if draw(st.booleans()) else np.zeros_like(gt_ids)
    if kind == "random":
        ids, ors = rng.permutation(n).reshape(rows, cols), rng.integers(0, 8, (rows, cols))
    else:
        g = int(rng.integers(8)) if rows == cols else 2 * int(rng.integers(4))
        ids = reference_pose_grid(gt_ids, g).copy()
        ors = reference_pose_grid(reference_pose_codes(gt_ors, g), g).copy()
    if kind == "perturbed":
        flat_ids, flat_ors = ids.reshape(-1), ors.reshape(-1)
        for _ in range(int(rng.integers(1, 4))):
            i, j = rng.integers(n, size=2)
            flat_ids[[i, j]], flat_ors[[i, j]] = flat_ids[[j, i]], flat_ors[[j, i]]
        redraw = rng.random(n) < 0.2
        flat_ors[redraw] = rng.integers(0, 8, int(redraw.sum()))
    pieces = np.zeros((n, 1, 1, 1), np.uint8)
    pz = Puzzle(pieces, BlockGrid(1, rows, cols), GroundTruth(gt_ids, gt_ors))
    return Assembly(ids, ors), pz


class TestScoreAgainstReference:
    """The array scorer returns exactly what the per-seam reference in
    ``attack_oracles`` returns."""

    @settings(max_examples=300, deadline=None)
    @given(_scored_cases(), st.booleans())
    def test_matches_reference(self, case, allow_pose):
        asm, pz = case
        got = score_assembly(asm, pz, allow_pose)
        assert got == reference_score_assembly(asm, pz, allow_pose)
        assert all(type(v) is float for v in (got.dc, got.nc, got.lc))

    @pytest.mark.parametrize("allow_pose", [False, True])
    def test_one_cell_grid_matches_reference(self, allow_pose):
        for placed, true in itertools.product(range(8), repeat=2):
            pz = Puzzle(np.zeros((1, 1, 1, 1), np.uint8), BlockGrid(1, 1, 1),
                        GroundTruth(np.zeros((1, 1), np.int64), np.full((1, 1), true)))
            asm = Assembly(np.zeros((1, 1), np.int64), np.full((1, 1), placed))
            got = score_assembly(asm, pz, allow_pose)
            assert got == reference_score_assembly(asm, pz, allow_pose), (placed, true)


class TestMemoryGuard:
    def test_greedy_stays_far_below_one_table(self):
        # 256 RGB pieces in 8 orientations: K = 2048, and one K x K float64
        # table is 32 MiB
        pz = Puzzle.from_image(_img(128, 128), 8)
        kk = pz.grid.n_blocks * 8
        tracemalloc.start()
        try:
            greedy_assemble(pz, orientation_search=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < kk * kk * 8 // 4

    def test_ground_truth_refuses_oversized_cost_matrix(self, monkeypatch):
        monkeypatch.setattr(attack, "MAX_TABLE_BYTES", 2000)
        img = _img(32, 32)
        with pytest.raises(ValueError, match="16 pieces needs a 16x16 cost table of 2048 bytes"):
            ground_truth_from_plain(img, Puzzle.from_image(img, 8))

    def test_ground_truth_limit_counts_only_the_cost_table(self, monkeypatch):
        # 16 pieces need exactly 16 * 16 * 8 bytes, so that limit admits them
        monkeypatch.setattr(attack, "MAX_TABLE_BYTES", 2048)
        img = _img(32, 32)
        gt = ground_truth_from_plain(img, Puzzle.from_image(img, 8))
        assert gt.piece_ids.ravel().tolist() == list(range(16))

    def test_ground_truth_refuses_16385_pieces_before_allocating(self):
        # 16385**2 * 8 bytes is just past the default 2 GiB limit
        n = 16385
        pieces = np.zeros((n, 1, 1, 1), np.uint8)
        pz = Puzzle(pieces, BlockGrid(1, 1, n))
        plain = ImageBuffer(pieces.reshape(1, n, 1))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{n} pieces needs a {n}x{n} cost table"):
                ground_truth_from_plain(plain, pz)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    @pytest.mark.parametrize("c, bs", [(3, 391), (1, 515), (3, 1104), (3, 2048)])
    def test_ground_truth_refuses_inexact_block_sizes_before_allocating(self, c, bs):
        # the smallest sizes past 2**53 with 1x1 cell grids (odd sizes) and
        # with 8x8 cell grids, and the first power of two past it
        pieces = np.zeros((1, bs, bs, c), np.uint8)
        pz = Puzzle(pieces, BlockGrid(bs, 1, 1))
        plain = ImageBuffer(pieces[0])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"block size {bs} with {c} channel"):
                ground_truth_from_plain(plain, pz)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10 < pieces.nbytes

    @pytest.mark.parametrize("c, bs", [(3, 389), (1, 513), (3, 1096), (3, 1024)])
    def test_ground_truth_accepts_the_largest_exact_block_sizes(self, c, bs):
        rng = np.random.default_rng(bs)
        plain = rng.integers(0, 256, (1, bs, bs, c), dtype=np.uint8)
        gt = ground_truth_from_plain(ImageBuffer(plain[0]),
                                     Puzzle(255 - plain, BlockGrid(bs, 1, 1)))
        assert (gt.piece_ids.tolist(), gt.orientations.tolist()) == ([[0]], [[0]])


class TestRenderAssembly:
    def test_identity_renders_input(self):
        img = _img(32, 48)
        pz = Puzzle.from_image(img, 16)
        assert render_assembly(identity_assembly(pz.grid), pz) == img

    def test_orientations_applied(self):
        img = _img(16, 16)
        pz = Puzzle.from_image(img, 16)
        asm = Assembly(np.asarray([[0]]), np.asarray([[2]]))
        out = render_assembly(asm, pz)
        assert (out.data == img.data[::-1, ::-1]).all()


class TestBruteForce:
    def test_unique_permutation_on_distinct_blocks(self):
        img = _img(16, 16, seed=3)
        cfg = CipherConfig(steps="s", block_size=8)
        ct, _ = encrypt(img, MasterKey(44), cfg)
        perms = brute_force_scramble(img, ct, cfg)
        assert len(perms) == 1
        # the recovered permutation actually maps plaintext onto ciphertext
        from etckit.images import merge_blocks, split_blocks
        from step_oracles import apply_scramble

        blocks, grid = split_blocks(img, 8)
        assert merge_blocks(apply_scramble(blocks, np.asarray(perms[0])), grid, 3) == ct

    def test_uniform_image_matches_all_permutations(self):
        img = ImageBuffer(np.full((16, 16, 3), 7, np.uint8))
        cfg = CipherConfig(steps="s", block_size=8)
        ct, _ = encrypt(img, MasterKey(44), cfg)
        assert len(brute_force_scramble(img, ct, cfg)) == 24

    def test_rejects_other_steps(self):
        img = _img(16, 16)
        with pytest.raises(ValueError):
            brute_force_scramble(img, img, CipherConfig(steps="sr", block_size=8))

    def test_rejects_too_many_blocks(self):
        img = _img(64, 64)
        with pytest.raises(ValueError):
            brute_force_scramble(img, img, CipherConfig(steps="s", block_size=16))


def test_attack_report_row_format():
    row = attack_report_row("s", 16, 64, Metrics(0.5, 0.25, 1 / 3), 1.5)
    assert row == "s,16,64,0.500000,0.250000,0.333333,1.500"
    assert attack_report_row("", 8, 4, Metrics(0, 0, 0.25), 0.01).startswith("-,8,4,")
