import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

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
    CHANNEL_PERMS,
    COLOR_SHUFFLE,
    EDGES,
    NEGPOS,
    POSE_COMPOSE,
    POSE_INVERSE,
    ROTATE_FLIP,
    SCHEME_COLOR,
    SCHEME_GRAYSCALE,
    SCRAMBLE,
    SEAM_TURNS,
    CipherConfig,
    _sides,
    apply_orientation,
    apply_poses,
    encrypt,
    stack_planes,
    step_draws,
)
from etckit.codec import CodecParams, jpeg_roundtrip
from etckit.images import BlockGrid, ImageBuffer, merge_blocks, save_ppm, split_blocks
from etckit.keystream import MasterKey
from etckit.synth import synth_natural_image

from attack_oracles import (
    reference_compose_orientations,
    reference_edge_tables,
    reference_greedy_assemble,
    reference_ground_truth_from_plain,
    reference_invert_orientation,
    reference_render_assembly,
    reference_pose_codes,
    reference_pose_direction,
    reference_pose_grid,
    reference_score_assembly,
)
from test_acceptance import METRIC_TABLE


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

    def test_assembly_pose_range(self):
        with pytest.raises(ValueError):
            Assembly(np.asarray([[0, 1], [2, 3]]), np.full((2, 2), 96))

    def test_ground_truth_must_use_each_piece_once(self):
        # scored, it would give Metrics(0.25, 0.0, 0.25)
        with pytest.raises(ValueError, match="ground truth must place every piece exactly once"):
            GroundTruth(np.zeros((2, 2), np.int64), np.zeros((2, 2), np.int64))

    def test_ground_truth_pose_range(self):
        # a code past 95 names no channel order, which rendering would skip
        with pytest.raises(ValueError, match="ground truth poses"):
            GroundTruth(np.asarray([[0, 1], [2, 3]]), np.asarray([[0, 96], [0, 0]]))
        with pytest.raises(ValueError, match="ground truth poses"):
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

    @pytest.mark.parametrize("scheme, letters", [(SCHEME_COLOR, "srnc"), (SCHEME_GRAYSCALE, "srn")])
    def test_from_key_restores_plaintext(self, scheme, letters):
        # placing piece gt.piece_ids[r, c] at (r, c) in pose gt.poses[r, c]
        # must repaint the plaintext, plane-stacked in the gray-based scheme,
        # for every step subset
        img, key = _img(64, 64, seed=5), MasterKey(0xBEEF)
        want = stack_planes(img) if scheme == SCHEME_GRAYSCALE else img
        for size in range(len(letters) + 1):
            for steps in itertools.combinations(letters, size):
                cfg = CipherConfig(scheme, steps="".join(steps))
                pz = Puzzle.from_image(encrypt(img, key, cfg)[0], cfg.block_size)
                gt = ground_truth_from_key(key, cfg, pz.grid)
                assert render_assembly(Assembly(gt.piece_ids, gt.poses), pz) == want, steps

    @pytest.mark.parametrize("scheme, letters", [(SCHEME_COLOR, "srnc"), (SCHEME_GRAYSCALE, "srn")])
    def test_from_key_matches_the_hand_written_inverses_for_every_step_subset(self, scheme, letters):
        # cell j holds the piece the scramble moved it to, in the pose that
        # undoes that piece's draws: the inverse rotate/flip, the same negpos
        # bit and the inverse channel order, whose permutation is the argsort
        grid, key = BlockGrid(8, 4, 6), MasterKey(0xBEEF)
        n = grid.n_blocks
        color_inverse = [CHANNEL_PERMS.index(tuple(np.argsort(perm))) for perm in CHANNEL_PERMS]
        for size in range(len(letters) + 1):
            for steps in itertools.combinations(letters, size):
                cfg = CipherConfig(scheme, 8, "".join(steps))
                draws = step_draws(key, cfg, n)
                cell_piece = np.argsort(draws.get(SCRAMBLE, np.arange(n)))
                codes, neg, perm = (draws.get(name, np.zeros(n, np.int64))
                                    for name in (ROTATE_FLIP, NEGPOS, COLOR_SHUFFLE))
                want = [reference_invert_orientation(int(codes[p])) for p in cell_piece]
                gt = ground_truth_from_key(key, cfg, grid)
                assert gt.piece_ids.ravel().tolist() == cell_piece.tolist()
                assert gt.orientations.ravel().tolist() == want
                poses = [w + 8 * (neg[p] + 2 * color_inverse[perm[p]]) for w, p in zip(want, cell_piece)]
                assert gt.poses.ravel().tolist() == poses

    def test_from_plain_matches_key_on_exact_ciphertext(self):
        img = synth_natural_image(128, 128, seed=11)
        key = MasterKey(0xCAFE)
        cfg = CipherConfig(steps="srnc", block_size=32)
        ct, _ = encrypt(img, key, cfg)
        pz = Puzzle.from_image(ct, 32)
        gt_key = ground_truth_from_key(key, cfg, pz.grid)
        gt_app = ground_truth_from_plain(img, pz)
        assert (gt_app.piece_ids == gt_key.piece_ids).all()
        assert (gt_app.poses == gt_key.poses).all()

    def test_from_plain_rejects_geometry_mismatch(self):
        # the message names the plaintext blocks' shape and the pieces'
        with pytest.raises(ValueError, match=r"blocks \(16, 16, 16, 3\), pieces \(4, 16, 16, 3\)"):
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
    """The hand-enumerated table of all 24 assemblies of a 2x2 puzzle with
    distinct pieces, orientation fixed, that acceptance criterion 6 scores
    the implementation against, checked against an independent oracle."""

    @staticmethod
    def _puzzle():
        return Puzzle(*split_blocks(_img(32, 32, seed=2), 16), _identity_gt(2, 2))

    def test_table_is_complete(self):
        assert set(METRIC_TABLE) == set(itertools.permutations(range(4)))

    def test_table_matches_independent_oracle(self):
        for perm, want in METRIC_TABLE.items():
            assert _oracle_metrics(perm) == want, perm

    def test_spec_worked_example(self):
        pz = self._puzzle()
        asm = Assembly(np.asarray([[1, 0], [2, 3]]), np.zeros((2, 2), np.int64))
        got = score_assembly(asm, pz)
        assert got == Metrics(0.5, 0.25, 0.5)


class TestOrientationTables:
    def test_tables_match_the_hand_written_algebra(self):
        # POSE_COMPOSE, POSE_INVERSE and SEAM_TURNS are read off one
        # probe block; the oracle writes the dihedral group out by hand
        for a in range(8):
            assert POSE_INVERSE[a] == reference_invert_orientation(a)
            for b in range(8):
                assert POSE_COMPOSE[a, b] == reference_compose_orientations(a, b)
            for seam, delta in enumerate([(0, 1), (1, 0)]):
                assert tuple(SEAM_TURNS[seam, a].tolist()) == reference_pose_direction(a, delta)
        assert SEAM_TURNS.shape == (2, 8, 2)

    def test_pose_tables_compose_the_parts_separately(self):
        # pose o + 8 * (neg + 2 * perm): orientations compose by the hand-
        # written dihedral group, negation bits by XOR and channel orders as
        # permutations, out[c] = in[perm[c]]
        def code(o, neg, perm):
            return o + 8 * (neg + 2 * CHANNEL_PERMS.index(tuple(perm)))

        parts = [(p % 8, p // 8 % 2, CHANNEL_PERMS[p // 16]) for p in range(96)]
        for a, (oa, na, pa) in enumerate(parts):
            assert POSE_INVERSE[a] == code(reference_invert_orientation(oa), na, np.argsort(pa)), a
            for b, (ob, nb, pb) in enumerate(parts):
                want = code(reference_compose_orientations(oa, ob), na ^ nb, [pa[i] for i in pb])
                assert POSE_COMPOSE[a, b] == want, (a, b)

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_applying_two_poses_is_applying_their_composition(self, b):
        blocks = np.random.default_rng(b).integers(0, 256, (96 * 96, b, b, 3), dtype=np.uint8)
        first, then = np.repeat(np.arange(96), 96), np.tile(np.arange(96), 96)
        twice = apply_poses(apply_poses(blocks.copy(), first), then)
        assert (twice == apply_poses(blocks.copy(), POSE_COMPOSE[first, then])).all()

    @pytest.mark.parametrize("top", [8, 16, 96])
    def test_orientation_and_one_channel_poses_are_closed(self, top):
        assert POSE_COMPOSE[:top, :top].max() < top
        assert POSE_INVERSE[:top].max() < top
        assert (POSE_COMPOSE[np.arange(top), POSE_INVERSE[:top]] == 0).all()

    def test_edges_match_the_sides_of_turned_blocks(self):
        # side e of a block in orientation o is side s of the unturned block,
        # reversed iff r
        block = np.random.default_rng(3).integers(0, 256, (5, 5, 3), dtype=np.uint8)
        assert EDGES.shape == (4, 8, 2)
        for o in range(8):
            for e, side in enumerate(_sides(apply_orientation(block, o))):
                s, r = EDGES[e, o]
                want = _sides(block)[s]
                assert (side == (want[::-1] if r else want)).all(), (e, o)

    def test_pose_tables_are_read_only(self):
        for table in (POSE_COMPOSE, POSE_INVERSE, SEAM_TURNS, EDGES):
            assert table.dtype == np.int64
            assert table.flags.writeable is False
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0


class TestScoreAssembly:
    def test_identity_scores_perfect(self):
        pz = Puzzle(*split_blocks(_img(48, 48), 16), _identity_gt(3, 3))
        assert score_assembly(identity_assembly(pz.grid), pz) == Metrics(1.0, 1.0, 1.0)

    def test_global_rotation_allowance(self):
        pz = Puzzle(*split_blocks(_img(32, 32), 16), _identity_gt(2, 2))
        for k in (1, 2, 3):
            ids = np.rot90(np.arange(4).reshape(2, 2), k)
            ors = POSE_COMPOSE[np.zeros((2, 2), np.int64), k]
            asm = Assembly(ids, ors)
            assert score_assembly(asm, pz) == Metrics(1.0, 1.0, 1.0), k
            # the cells turned but not the pieces: no global pose maps it onto the truth
            assert score_assembly(Assembly(ids, np.zeros_like(ids)), pz).dc == 0.0, k

    def test_odd_rotations_skipped_on_rectangular_grids(self):
        pz = Puzzle(*split_blocks(_img(32, 48), 16), _identity_gt(2, 3))
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
            asm = Assembly(pose(gt.piece_ids, g), POSE_COMPOSE[pose(gt.orientations, g), g])
            assert render_assembly(asm, pz) == ImageBuffer(np.ascontiguousarray(pose(plain.data, g)))
            assert score_assembly(asm, pz) == Metrics(1.0, 1.0, 1.0), g

    def test_lc_lower_bound(self):
        pz = Puzzle(*split_blocks(_img(32, 32), 16), _identity_gt(2, 2))
        worst = Assembly(np.asarray([[3, 2], [1, 0]]), np.zeros((2, 2), np.int64))
        m = score_assembly(worst, pz)
        assert m.lc >= 1 / 4

    def test_requires_ground_truth(self):
        pz = Puzzle.from_image(_img(32, 32), 16)
        with pytest.raises(ValueError):
            score_assembly(identity_assembly(pz.grid), pz)

    def test_rejects_a_grid_unlike_the_ground_truth(self):
        pz = Puzzle(*split_blocks(_img(32, 48), 16), _identity_gt(2, 3))
        asm = identity_assembly(BlockGrid(16, 3, 2))
        with pytest.raises(ValueError, match=r"\(3, 2\).*\(2, 3\)"):
            score_assembly(asm, pz)

    def test_import_loads_no_scipy(self):
        # scipy costs tens of MiB of RSS; the library does not use it
        code = ("import sys, etckit; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert done.stdout.strip() == "[]"

    def test_attack_cli_loads_no_scipy(self, tmp_path):
        # appearance ground truth, orientation search and scoring: the whole
        # attack path runs without scipy
        img = synth_natural_image(64, 64, seed=3)
        plain, ct = tmp_path / "plain.ppm", tmp_path / "ct.ppm"
        plain.write_bytes(save_ppm(img))
        ct.write_bytes(save_ppm(encrypt(img, MasterKey(0x5EED), CipherConfig(steps="srnc"))[0]))
        argv = ["attack", str(ct), "--plain", str(plain), "--orientation-search",
                "--steps", "srnc", "--block-size", "16"]
        code = ("import sys; from etckit import cli; code = cli.main(sys.argv[1:]); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
                "sys.exit(code)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env=env, check=True)
        lines = done.stdout.strip().splitlines()
        assert lines[1].split(",")[:3] == ["srnc", "16", "16"]
        assert lines[-1] == "[]"

    def test_orientation_mismatch_breaks_dc_and_nc(self):
        pz = Puzzle(*split_blocks(_img(32, 32), 16), _identity_gt(2, 2))
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

    @pytest.mark.parametrize("steps, search, digest", [
        ("s", False, "580b559dca9b666de448e08ed61e1fc9f689041eafabb30a48720daa645ab00a"),
        ("sr", True, "07173792d1f90130cafb9c96413daa7f31a15301285398a78953e3d7151376ad"),
    ], ids=["s", "sr-search"])
    def test_float32_sums_pin_the_1024_piece_colour_solves(self, steps, search, digest):
        # B*C = 48 gives a float32 side table with float32 open-cell sums,
        # a pair that CI's digests (B*C = 8 and 96) and results/ (B*C >= 192)
        # leave unpinned. The digest is the CI 3072-piece step's formula
        img = synth_natural_image(512, 512, 7)
        cfg = CipherConfig(steps=steps, block_size=16)
        pz = Puzzle.from_image(encrypt(img, MasterKey(1234), cfg)[0], 16)
        table = _SideTable(pz.pieces, [0])
        assert (pz.grid.n_blocks, table.dtype, table.sum_dtype) == (1024, np.float32, np.float32)
        asm = greedy_assemble(pz, orientation_search=search)
        assert hashlib.sha256(asm.piece_ids.tobytes() + asm.orientations.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("search", [False, True])
    def test_rows_are_the_solvers_own(self, search):
        # the solver adds later rows into an open cell's first row in place,
        # so a row that viewed the table, a probe or another row would
        # silently corrupt it
        _, pz = _cipher_case((3, 4), "natural", 3, 4, 0x5EED, 5)
        orientations = list(range(8)) if search else [0]
        table = _SideTable(pz.pieces, orientations)
        rows = [table.row(s, s ^ 1, k) for s in range(4) for k in range(2 * len(orientations))]
        for i, row in enumerate(rows):
            assert not np.shares_memory(row, table._table) and not np.shares_memory(row, table._probes)
            assert not any(np.shares_memory(row, other) for other in rows[:i])
        pieces = pz.pieces.copy()
        greedy_assemble(pz, orientation_search=search)
        assert np.array_equal(pz.pieces, pieces)

    @pytest.mark.parametrize("c", [1, 3])
    def test_side_table_layout(self, c):
        # row [r, s, p] is side s of piece p read forward or reversed along B,
        # then its squared norm and 1; probe [s, p] column r is -2 times row
        # [r, s, p]'s samples. The seed and greedy oracle tests pin the products
        rng = np.random.default_rng(c)
        pieces = rng.integers(0, 256, (5, 4, 4, c), dtype=np.uint8)
        table = _SideTable(pieces, list(range(8)))
        d = 4 * c
        for s, side in enumerate(_sides(pieces)):
            for p in range(5):
                fwd, rev = table._table[:, s, p]
                assert np.array_equal(fwd[:d], side[p].ravel())
                assert np.array_equal(rev[:d], side[p, ::-1].ravel())
                norm = float((side[p].astype(np.int64) ** 2).sum())
                assert fwd[d:].tolist() == rev[d:].tolist() == [norm, 1.0]
                for r in range(2):
                    assert np.array_equal(table._probes[s, p, :d, r], -2 * table._table[r, s, p, :d])


def _outcome(ground_truth, *args, **kwargs):
    """A ground truth's (piece ids, poses), or the message of the
    ``ValueError`` it refuses with."""
    try:
        gt = ground_truth(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    return gt.piece_ids.tolist(), gt.poses.tolist()


def _count_pairs(monkeypatch):
    """Count the (cell, piece) pairs the ground truth scores exactly; returns
    the list of each call's count."""
    pairs, score = [], attack._Features.pair_costs

    def counted(self, cell_ids, piece_ids):
        pairs.append(len(cell_ids))
        return score(self, cell_ids, piece_ids)

    monkeypatch.setattr(attack._Features, "pair_costs", counted)
    return pairs


class TestGroundTruthPruning:
    """The sorted-feature bound finds each cell's cheapest piece without
    scoring every pair; its answer is the full cost table's, and where the
    cheapest pieces do not single out one piece per cell it refuses."""

    @staticmethod
    def _assert_same(got, want, part="poses"):
        assert np.array_equal(got.piece_ids, want.piece_ids)
        assert np.array_equal(getattr(got, part), getattr(want, part))

    @pytest.mark.parametrize("size", [512, 1024])  # 256 and 1024 pieces
    @pytest.mark.parametrize("quality", [95, 75, 50])
    def test_jpeg_ciphertexts_match_the_table(self, size, quality):
        img = synth_natural_image(size, size, seed=21)
        ct = encrypt(img, MasterKey(0xA55), CipherConfig(steps="srnc", block_size=32))[0]
        pz = Puzzle.from_image(jpeg_roundtrip(ct, CodecParams(quality=quality))[0], 32)
        got = ground_truth_from_plain(img, pz)
        self._assert_same(got, reference_ground_truth_from_plain(img, pz, sums=True))

    def test_exact_ciphertext_runs_no_assignment(self):
        img = synth_natural_image(512, 512, seed=4)
        key, cfg = MasterKey(0x5EED), CipherConfig(steps="srnc", block_size=32)
        pz = Puzzle.from_image(encrypt(img, key, cfg)[0], 32)
        got = ground_truth_from_plain(img, pz)
        self._assert_same(got, ground_truth_from_key(key, cfg, pz.grid))
        self._assert_same(got, reference_ground_truth_from_plain(img, pz, sums=True))

    def test_the_budget_admits_the_worst_measured_q50_case(self, monkeypatch):
        # 17.2 candidates per cell, the most of the synth q50 ciphertexts of
        # 16-px pieces measured: a budget of 16 would refuse it
        img = synth_natural_image(512, 512, seed=13)
        key, cfg = MasterKey(144), CipherConfig(steps="srnc", block_size=16)
        ct = jpeg_roundtrip(encrypt(img, key, cfg)[0], CodecParams(quality=50))[0]
        pz = Puzzle.from_image(ct, 16)
        pairs = _count_pairs(monkeypatch)
        got = ground_truth_from_plain(img, pz)
        # past JPEG, the appearance truth's channel order may differ from the key's
        self._assert_same(got, ground_truth_from_key(key, cfg, pz.grid), "orientations")
        assert 16 * pz.grid.n_blocks < sum(pairs) <= attack._GT_BUDGET * pz.grid.n_blocks

    def test_unrelated_plaintext_stops_at_the_budget(self, monkeypatch):
        img = synth_natural_image(512, 512, seed=21)
        pz = Puzzle.from_image(synth_natural_image(512, 512, seed=99), 32)
        pairs = _count_pairs(monkeypatch)
        with pytest.raises(ValueError, match="plaintext does not single out the ciphertext's pieces"):
            ground_truth_from_plain(img, pz)
        # the candidates pass the budget before they are scored
        assert sum(pairs) < attack._GT_BUDGET * 256

    def test_shared_cheapest_pieces_go_to_the_table(self, monkeypatch):
        # six cells copy block 0, so seven cells' cheapest pieces coincide
        # however large the budget: the bound path refuses, as the oracle's
        # full cost table does, naming the same count
        blocks, grid = split_blocks(synth_natural_image(256, 256, seed=8), 16)
        blocks[[5, 17, 40, 41, 90, 255]] = blocks[0]
        plain = merge_blocks(blocks, grid)
        pz = Puzzle.from_image(encrypt(plain, MasterKey(77), CipherConfig(steps="srnc", block_size=16))[0], 16)
        message = "^7 of 256 cells share their cheapest piece with another cell; score against the key"
        with monkeypatch.context() as m:
            m.setattr(attack, "_GT_BUDGET", 1 << 30)
            with pytest.raises(ValueError, match=message):
                attack._Features(blocks, pz.pieces).distinct_cheapest()
        with pytest.raises(ValueError, match=message):
            ground_truth_from_plain(plain, pz)
        assert _outcome(reference_ground_truth_from_plain, plain, pz, sums=True) == \
            _outcome(ground_truth_from_plain, plain, pz)

    def test_uniform_plaintext_goes_to_the_table(self):
        # every piece is a candidate for every cell: 64 per cell pass the
        # budget, and the oracle's full cost table has 64 contested cells
        plain = ImageBuffer(np.full((64, 64, 3), 128, np.uint8))
        pz = Puzzle.from_image(encrypt(plain, MasterKey(3), CipherConfig(steps="srnc", block_size=8))[0], 8)
        with pytest.raises(ValueError, match="plaintext does not single out the ciphertext's pieces"):
            ground_truth_from_plain(plain, pz)
        with pytest.raises(ValueError, match="^64 of 64 cells share"):
            reference_ground_truth_from_plain(plain, pz, sums=True)

    @pytest.mark.parametrize("quality, message", [
        (95, "^16 of 3072 cells share their cheapest piece"),
        (85, "plaintext does not single out the ciphertext's pieces"),
    ], ids=["q95-contested", "q85-budget"])
    def test_gray_jpeg_ciphertexts_of_8px_blocks_refuse(self, quality, message):
        # near-duplicate 8-px blocks of one plane: their cheapest pieces
        # collide at q95, and at q85 they pass the budget. A least-cost
        # assignment puts 4 of the q85 case's 3072 cells wrong
        img = synth_natural_image(256, 256, seed=7)
        cfg = CipherConfig(scheme=SCHEME_GRAYSCALE, steps="srn", block_size=8)
        ct = jpeg_roundtrip(encrypt(img, MasterKey(7), cfg)[0], CodecParams(quality=quality))[0]
        with pytest.raises(ValueError, match=message):
            ground_truth_from_plain(stack_planes(img), Puzzle.from_image(ct, 8))

    def test_a_bound_equal_to_the_upper_distance_is_a_candidate(self):
        # cell 0 is a bright top row. Piece 1, a bright diagonal, has cell 0's
        # sorted features, so the least bound, but no pose matches it; piece
        # 0, brighter, has a bound equal to its distance and to piece 1's.
        # Both cost 20000, and the lower index must win
        top, diagonal, brighter = [[100, 100], [0, 0]], [[100, 0], [0, 100]], [[200, 200], [0, 0]]
        cells = np.array([top, diagonal], np.uint8)[..., None]
        pieces = np.array([brighter, diagonal], np.uint8)[..., None]
        feats = attack._Features(cells, pieces)
        cost, _ = feats.pair_costs(np.array([0, 0]), np.array([0, 1]))
        assert cost.tolist() == [20000, 20000]
        ids, _ = feats.distinct_cheapest()
        assert ids.tolist() == [0, 1]

    def test_pair_blocks_do_not_change_the_answer(self, monkeypatch):
        # 64 pieces: blocks of five pairs leave a partial one on the bound's
        # candidates
        img = synth_natural_image(96, 96, seed=12)
        pz = Puzzle.from_image(jpeg_roundtrip(encrypt(img, MasterKey(0xD1CE), CipherConfig(
            steps="srnc", block_size=12))[0], CodecParams(quality=50))[0], 12)
        want = reference_ground_truth_from_plain(img, pz, sums=True)
        for pairs in (1, 5):
            monkeypatch.setattr(attack, "_GT_PAIRS", pairs)
            self._assert_same(ground_truth_from_plain(img, pz), want)


# Grids for the equivalence tests: one piece wide both ways, non-square, odd.
_GRIDS = [(1, 2), (2, 1), (1, 5), (4, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 5)]
_PIECE_KINDS = ["random", "natural", "duplicated", "uniform", "antisymmetric"]


def _pieces(kind, n, bs, c, seed):
    """``n`` pieces of ``kind``. Duplicated and uniform pieces make many
    compatibility scores tie exactly, so every tie-break rule is exercised.
    An antisymmetric piece turned by 180 degrees equals its negative, so the
    ground truth's orientation and negpos variants tie exactly. Extreme
    pieces have light left columns and top rows and dark right columns and
    bottom rows, so every seam row is near B*C * 255**2, and +-1 noise
    leaves them an integer or two apart."""
    rng = np.random.default_rng(seed)
    if kind == "extreme":
        light = np.zeros((n, bs, bs, c), bool)
        light[:, :, 0] = light[:, 0, :] = True
        noise = (rng.random(light.shape) < 0.02).astype(np.uint8)
        return np.where(light, 255 - noise, noise).astype(np.uint8)
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
    plain = merge_blocks(_pieces(kind, rows * cols, bs, c, seed), BlockGrid(bs, rows, cols))
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
        reps, kk = 4 if search else 1, 15 * len(orientations)
        table = _SideTable(pz.pieces, orientations)
        tables = reference_edge_tables(pz.pieces, orientations)
        want = reference_greedy_assemble(pz, orientation_search=search)
        for chunk in (1, 2 * kk * reps, 1 << 30):  # one piece, two pieces, all pieces
            monkeypatch.setattr(attack, "_SEED_CHUNK", chunk)
            for rel, ref in enumerate(tables):
                value, k1, k2, got = _seed(table, (rel,), orientations)
                assert (k1 * kk + k2, got) == (int(np.argmin(ref)), rel)
                assert value == ref.flat[k1 * kk + k2]
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
            assert value == tables[k1, k2, r]

    @pytest.mark.parametrize("c, bs, dtype", [(3, 43, np.float32), (1, 129, np.float32),
                                              (3, 44, np.float64)])
    @pytest.mark.parametrize("search", [False, True])
    def test_edge_dtype_bound_keeps_rows_and_seed_exact(self, c, bs, dtype, search):
        # B*C = 129 is the last width with 2 * B*C * 255**2 < 2**24, so rows
        # are float32 there and float64 at 132. An all-255 piece puts |a|^2 +
        # |b|^2 at 2 * B*C * 255**2, and 0/255 pieces push a.b to its ends
        rng = np.random.default_rng(bs * c)
        pieces = (rng.integers(0, 2, (6, bs, bs, c)) * 255).astype(np.uint8)
        pieces[0], pieces[1] = 255, 0
        orientations = list(range(8)) if search else [0]
        table = _SideTable(pieces, orientations)
        assert table.dtype == dtype
        tables = reference_edge_tables(pieces, orientations)
        piece = np.arange(6 * len(orientations)) // len(orientations)
        for (first, second), ref in zip(_SEAM_SIDES, tables):
            for k in range(len(ref)):
                other = piece != piece[k]
                assert np.array_equal(table.row(first, second, k)[other], ref[k, other])
                assert np.array_equal(table.row(second, first, k)[other], ref[other, k])
        both = np.stack(tables, axis=2)
        want = np.unravel_index(np.argmin(both), both.shape)
        for chunk in (1, 1 << 30):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(attack, "_SEED_CHUNK", chunk)
                value, *got = _seed(table, (0, 1), orientations)
            assert got == list(want)
            assert value == both[want]

    @pytest.mark.parametrize("c, bs, seed", [(1, 129, 22), (3, 43, 1)])
    def test_open_cell_sums_past_float32_stay_exact(self, c, bs, seed):
        # rows are float32 at B*C = 129, but light left columns and top rows
        # meet dark right columns and bottom rows at every seam, so three
        # rows pass 2**24. The +-1 noise leaves pieces an integer or two
        # apart, which a float32 sum would round into a tie
        pieces = _pieces("extreme", 16, bs, c, seed)
        assert _SideTable(pieces, [0]).dtype == np.float32
        assert 3 * min(t.min() for t in reference_edge_tables(pieces, [0])) > 2**24
        pz = Puzzle(pieces, BlockGrid(bs, 4, 4))
        asm = greedy_assemble(pz)
        assert np.array_equal(asm.piece_ids, reference_greedy_assemble(pz).piece_ids)

    @pytest.mark.parametrize("c, bs, dtype", [(1, 64, np.float32), (3, 22, np.float64)])
    @pytest.mark.parametrize("kind", ["natural", "uniform", "extreme"])
    @pytest.mark.parametrize("search", [False, True])
    def test_open_cell_sums_on_both_sides_of_the_float32_bound(self, c, bs, dtype, kind, search):
        # B*C = 64 is the last width with 4 * B*C * 255**2 < 2**24, so an open
        # cell's sum of up to 4 rows is float32 there and float64 at 66.
        # Extreme pieces put the centre cell's 4 rows near 2**24; uniform
        # pieces tie
        if kind == "extreme":
            pz = Puzzle(_pieces(kind, 9, bs, c, bs), BlockGrid(bs, 3, 3))
        else:
            _, pz = _cipher_case((3, 3), kind, c, bs, 0x5EED, 3)
        assert _SideTable(pz.pieces, [0]).sum_dtype == dtype
        asm = greedy_assemble(pz, orientation_search=search)
        ref = reference_greedy_assemble(pz, orientation_search=search)
        assert np.array_equal(asm.piece_ids, ref.piece_ids)
        assert np.array_equal(asm.orientations, ref.orientations)

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

    def test_exact_ties_survive_three_neighbors(self):
        # pieces 6 and 7 both score exactly 36125/4 in the cell below 0,
        # between 8 and 2, so the lower piece wins; rows divided by B*C one by
        # one and then summed gave 7 a value one ulp lower
        pieces = (np.random.default_rng(21).integers(0, 4, (9, 2, 2, 3)) * 85).astype(np.uint8)
        pz = Puzzle(pieces, BlockGrid(2, 3, 3))
        want = [[3, 5, 7], [4, 0, 1], [8, 6, 2]]
        assert greedy_assemble(pz).piece_ids.tolist() == want
        assert reference_greedy_assemble(pz).piece_ids.tolist() == want

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
        # distances are the library's divided by area**2, with equal ties.
        # Duplicated and uniform pieces share cheapest pieces: both refuse
        # then, naming the same count
        plain, pz = _cipher_case(grid, kind, c, bs, key, seed)
        got = _outcome(ground_truth_from_plain, plain, pz)
        assert got == _outcome(reference_ground_truth_from_plain, plain, pz)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(_GRIDS), st.sampled_from(_PIECE_KINDS), st.sampled_from([1, 3]),
           st.sampled_from([4, 6, 8, 12]), _KEYS, st.integers(0, 2**32 - 1))
    def test_ground_truth_matches_sum_reference(self, grid, kind, c, bs, key, seed):
        # block sizes 6 and 12 have 9-pixel cells, whose means no float holds
        # exactly; their sums are integers
        plain, pz = _cipher_case(grid, kind, c, bs, key, seed)
        got = _outcome(ground_truth_from_plain, plain, pz)
        assert got == _outcome(reference_ground_truth_from_plain, plain, pz, sums=True)

    @pytest.mark.parametrize("c", [1, 3])
    def test_ground_truth_ties_take_the_first_variant_at_block_6(self, c):
        # an antisymmetric piece turned by 180 degrees is its own negative, so
        # (orientation 0, negated) and (orientation 2, plain) undo both
        # ciphertexts exactly; orientation 0 comes first, in pose 8
        grid = BlockGrid(6, 2, 3)
        plain = _pieces("antisymmetric", 6, 6, c, 5)
        for ct in (255 - plain, apply_orientation(plain, 2)):
            pz = Puzzle(np.ascontiguousarray(ct), grid)
            gt = ground_truth_from_plain(merge_blocks(plain, grid), pz)
            assert gt.piece_ids.tolist() == [[0, 1, 2], [3, 4, 5]]
            assert gt.orientations.tolist() == [[0, 0, 0], [0, 0, 0]]
            assert gt.poses.tolist() == [[8, 8, 8], [8, 8, 8]]

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
            assert np.array_equal(got.poses, want.poses)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(_GRIDS), st.sampled_from([1, 3]), st.integers(0, 2**32 - 1))
    def test_render_matches_reference(self, grid, c, seed):
        rows, cols = grid
        rng = np.random.default_rng(seed)
        pz = Puzzle.from_image(_img(rows * 4, cols * 4, c, seed=seed % 997), 4)
        asm = Assembly(rng.permutation(rows * cols).reshape(grid), rng.integers(0, 96 if c == 3 else 16, grid))
        assert render_assembly(asm, pz) == reference_render_assembly(asm, pz)

    def test_render_refuses_channel_orders_on_one_channel_pieces(self):
        # poses 16 and up reorder channels, which one-channel pieces lack
        pz = Puzzle.from_image(_img(4, 8, 1), 4)
        asm = Assembly(np.array([[0, 1]]), np.array([[15, 16]]))
        with pytest.raises(ValueError, match="^pose 16 orders channels"):
            render_assembly(asm, pz)
        with pytest.raises(ValueError, match="^pose 16 orders channels"):
            apply_poses(pz.pieces, np.array([15, 16]))


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
    @given(_scored_cases())
    def test_matches_reference(self, case):
        asm, pz = case
        got = score_assembly(asm, pz)
        assert got == reference_score_assembly(asm, pz)
        assert all(type(v) is float for v in (got.dc, got.nc, got.lc))

    def test_one_cell_grid_matches_reference(self):
        for placed, true in itertools.product(range(8), repeat=2):
            pz = Puzzle(np.zeros((1, 1, 1, 1), np.uint8), BlockGrid(1, 1, 1),
                        GroundTruth(np.zeros((1, 1), np.int64), np.full((1, 1), true)))
            asm = Assembly(np.zeros((1, 1), np.int64), np.full((1, 1), placed))
            got = score_assembly(asm, pz)
            assert got == reference_score_assembly(asm, pz), (placed, true)


class TestLargestComponent:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.floats(0, 1), st.integers(0, 2**32 - 1))
    def test_matches_connected_components_on_seam_graphs(self, rows, cols, p, seed):
        rng = np.random.default_rng(seed)
        cell = np.arange(rows * cols).reshape(rows, cols)
        src = np.concatenate([cell[:, :-1].ravel(), cell[:-1].ravel()])
        dst = np.concatenate([cell[:, 1:].ravel(), cell[1:].ravel()])
        keep = rng.random(len(src)) < p
        self._check(rows * cols, src[keep], dst[keep])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 120), st.integers(0, 2**32 - 1))
    def test_matches_connected_components_on_random_graphs(self, n, m, seed):
        rng = np.random.default_rng(seed)
        self._check(n, rng.integers(0, n, m), rng.integers(0, n, m))

    @staticmethod
    def _check(n, src, dst):
        graph = coo_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
        _, labels = connected_components(graph, directed=False)
        assert attack._largest_component(n, src, dst) == np.bincount(labels).max()


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

    def test_greedy_holds_one_row_per_open_cell(self):
        # 768 gray-based pieces of 8x8 in 8 orientations: K = 6144. At B*C
        # = 8 the running sum per open cell is float32, a 24 KiB row, and the
        # solve peaks near 8 MiB; float64 sums peaked near 15 MiB, and up to
        # four cached rows per open cell took about 40 MiB
        img = synth_natural_image(128, 128, seed=7)
        cfg = CipherConfig(scheme=SCHEME_GRAYSCALE, steps="sr", block_size=8)
        pz = Puzzle.from_image(encrypt(img, MasterKey(1234), cfg)[0], 8)
        assert pz.grid.n_blocks == 768
        tracemalloc.start()
        try:
            greedy_assemble(pz, orientation_search=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 << 20

    def test_greedy_refuses_past_its_sums_budget(self, monkeypatch):
        # 16 RGB pieces of 16x16 in 8 orientations: K = 128 float32 keys, a
        # 512-byte row per open cell, and at most 11 cells open at once. A
        # budget of exactly that assembles as before; one byte less refuses.
        pz = Puzzle.from_image(_img(64, 64, seed=2), 16)
        want = greedy_assemble(pz, orientation_search=True)
        monkeypatch.setattr(attack, "_SUMS_BUDGET", 11 * 512)
        got = greedy_assemble(pz, orientation_search=True)
        assert (got.piece_ids == want.piece_ids).all() and (got.poses == want.poses).all()
        monkeypatch.setattr(attack, "_SUMS_BUDGET", 11 * 512 - 1)
        with pytest.raises(ValueError, match=r"n = 16 pieces \(K = 128 keys\) holds 5632 bytes of sums in 11 open"):
            greedy_assemble(pz, orientation_search=True)

    def test_ground_truth_stays_below_one_table(self):
        # 1024 pieces: one n x n float64 cost table is 8 MiB
        img = synth_natural_image(512, 512, seed=6)
        pz = Puzzle.from_image(encrypt(img, MasterKey(9), CipherConfig(steps="srnc", block_size=16))[0], 16)
        n = pz.grid.n_blocks
        tracemalloc.start()
        try:
            ground_truth_from_plain(img, pz)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    def test_ground_truth_refuses_16385_uniform_pieces_in_bounded_memory(self):
        # every piece is a candidate for every cell, and the refusal comes
        # within the budget's O(n) pairs: no n x n array (2 GiB here) is built
        n = 16385
        pieces = np.zeros((n, 1, 1, 1), np.uint8)
        pz = Puzzle(pieces, BlockGrid(1, 1, n))
        plain = ImageBuffer(pieces.reshape(1, n, 1))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="plaintext does not single out"):
                ground_truth_from_plain(plain, pz)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20

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
        assert merge_blocks(apply_scramble(blocks, np.asarray(perms[0])), grid) == ct

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

    def test_rejects_grids_that_differ(self):
        with pytest.raises(ValueError, match="plaintext and ciphertext grids differ"):
            brute_force_scramble(_img(16, 16), _img(16, 32), CipherConfig(steps="s", block_size=8))


def test_attack_report_row_format():
    row = attack_report_row("s", 16, 64, Metrics(0.5, 0.25, 1 / 3), 1.5)
    assert row == "s,16,64,0.500000,0.250000,0.333333,1.500"
    assert attack_report_row("", 8, 4, Metrics(0, 0, 0.25), 0.01).startswith("-,8,4,")
