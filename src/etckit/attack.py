"""Ciphertext-only jigsaw attack: greedy reassembly of encrypted blocks plus
the direct/neighbor/largest-component assembly scores and a toy brute-force
key search.

Blocks of a block-scrambled ciphertext keep the pixel statistics of the
original image, so they can be treated as puzzle pieces and reassembled from
pairwise border compatibility alone. The solver here is a deterministic
greedy best-first placer that searches piece positions and, optionally, the
8 orientations. It shows that scramble-only ciphertexts leak structure. It
does not search negative-positive inversion or channel order, so its low
scores on multi-step ciphertexts bound only this attacker: the same greedy
and MSD searching those poses as well reached Nc 0.90 on ``srnc``
ciphertexts of 256 pieces.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .cipher import (
    CHANNEL_PERMS,
    ORIENT_COMPOSE,
    ORIENT_INVERSE,
    POSE_INVERSE,
    SCRAMBLE,
    SEAM_TURNS,
    CipherConfig,
    apply_orientation,
    apply_poses,
    cell_poses,
    inverse_permutation,
    key_schedule,
    step_draws,  # noqa: F401  (a module attribute the benchmark's tracer wraps)
    steps_to_letters,
)
from .images import BlockGrid, ImageBuffer, merge_blocks, split_blocks
from .keystream import MasterKey

ATTACK_CSV_HEADER = "steps,block_size,n_pieces,dc,nc,lc,seconds"

_BRUTE_FORCE_LIMIT = 10

# Cells per block of the ground truth's bound scan, whose bounds are one
# (_GT_PIECES, n) array per block.
_GT_PIECES = 32
# Pairs per block of the ground truth's exact 96-variant distances.
_GT_PAIRS = 64
# Candidate pairs per cell, on average, past which the ground truth refuses:
# the plaintext does not single out the ciphertext's pieces. JPEG q50
# ciphertexts of 16-px pieces needed up to 17.2 on synth images.
_GT_BUDGET = 32
# Table entries per block of the solver's seed scan (a 2 MiB buffer in
# float32, 4 MiB in float64): of 2**17, 2**18 and 2**19, the largest scanned
# K = 8192 fastest in float64.
_SEED_CHUNK = 1 << 19
# Bytes of the solver's open-cell sums past which it refuses: each open cell
# holds one K-wide row, and badly solved puzzles open about 0.41 n cells.
_SUMS_BUDGET = 1 << 30


@dataclass(frozen=True)
class _Placement:
    """Per-cell (piece id, pose), each piece used once: the cell holds its
    piece in pose o + 8 * (neg + 2 * perm) (``cipher.apply_poses``)."""

    piece_ids: np.ndarray
    poses: np.ndarray

    _kind: ClassVar[str]  # names the type in error messages

    def __post_init__(self):
        ids = np.asarray(self.piece_ids)
        if sorted(ids.ravel().tolist()) != list(range(ids.size)):
            raise ValueError(f"{self._kind} must place every piece exactly once")
        poses, top = np.asarray(self.poses), len(POSE_INVERSE)
        if poses.shape != ids.shape or ((poses < 0) | (poses >= top)).any():
            raise ValueError(f"{self._kind} poses must match the grid and lie in [0, {top})")

    @property
    def orientations(self) -> np.ndarray:
        """Per-cell rotate/flip code in [0, 8), the low part of the pose."""
        return self.poses % 8


@dataclass(frozen=True)
class GroundTruth(_Placement):
    """Per-cell (piece id, pose) that reconstructs the plaintext."""

    _kind = "ground truth"


@dataclass(frozen=True)
class Assembly(_Placement):
    """A solver's answer: per-cell (piece id, pose), each piece used once."""

    _kind = "assembly"


@dataclass(frozen=True)
class Metrics:
    dc: float
    nc: float
    lc: float


@dataclass(frozen=True)
class Puzzle:
    pieces: np.ndarray  # (n, B, B, C) uint8
    grid: BlockGrid
    ground_truth: GroundTruth | None = None

    @classmethod
    def from_image(cls, img: ImageBuffer, block_size: int, ground_truth: GroundTruth | None = None) -> "Puzzle":
        return cls(*split_blocks(img, block_size), ground_truth)


def identity_assembly(grid: BlockGrid) -> Assembly:
    ids = np.arange(grid.n_blocks, dtype=np.int64).reshape(grid.rows, grid.cols)
    return Assembly(ids, np.zeros_like(ids))


def ground_truth_from_key(key: MasterKey, cfg: CipherConfig, grid: BlockGrid) -> GroundTruth:
    """Exact ground truth of a (key, cfg) ciphertext: what ``decrypt`` applies (``cipher.cell_poses``)."""
    ids, poses = cell_poses(*key_schedule(key, cfg, grid.n_blocks))
    return GroundTruth(ids.reshape(grid.rows, grid.cols), poses.reshape(grid.rows, grid.cols))


def _cell_sums(blocks: np.ndarray, f: int) -> np.ndarray:
    """Per-block features: pixel sums over an ``f`` x ``f`` grid of cells,
    shape (n, F, F, C) float64. Integers, so exact in any summation order."""
    n, b, _, c = blocks.shape
    cell = b // f
    # sums over each cell's rows first, in the narrowest integer that holds them
    rows = np.zeros((n, f, b, c), np.uint16 if 255 * cell < 1 << 16 else np.uint32)
    for dy in range(cell):
        rows += blocks[:, dy::cell]
    sums = np.zeros((n, f, f, c))
    for dx in range(cell):
        sums += rows[:, :, dx::cell]
    return sums


def _feature_grid(block_size: int) -> tuple[int, int]:
    """(F, full): the side of the largest power-of-two grid of cells (up to
    8x8) dividing the block size, and the sum of a cell of 255s, which
    negative-positive inversion maps a cell sum ``p`` to ``full - p`` from."""
    f = next(s for s in (8, 4, 2, 1) if block_size % s == 0)
    return f, 255 * (block_size // f) ** 2


class _Features:
    """Cell-sum features of a plaintext's blocks (the cells) and of a
    puzzle's pieces, with the norms that every feature distance needs.

    The distance of a (cell, piece) pair is the least squared distance from
    the cell's features to those of any of the piece's variants (96 in
    colour, 16 in gray). Each is an exact integer in float64 when ``2 *
    F**2 * C * full**2 < 2**53``: orientation and channel order permute a
    piece's features, and negation maps a cell sum ``p`` to ``full - p``, so
    all the distances come from the 8 x C x C channel products of each
    orientation.
    """

    def __init__(self, cell_blocks: np.ndarray, piece_blocks: np.ndarray):
        c = piece_blocks.shape[3]
        f, full = _feature_grid(piece_blocks.shape[1])
        self.perms = CHANNEL_PERMS if c == 3 else ((0,),)
        self.cells = _cell_sums(cell_blocks, f)
        self.pieces = _cell_sums(piece_blocks, f)
        self.piece_sq = (self.pieces * self.pieces).sum(axis=(1, 2, 3))
        self.neg_sq = ((full - self.pieces) ** 2).sum(axis=(1, 2, 3))
        self.cell_sq = (self.cells * self.cells).sum(axis=(1, 2, 3))
        # |c|^2 - 2 * full * sum(c): the cell's part of every negated distance
        self.cell_neg = self.cell_sq - 2 * full * self.cells.sum(axis=(1, 2, 3))
        # _turns[o, a, x]: the feature of an unturned block that orientation
        # o moves to channel a of cell x, so a block's features read at
        # _turns hold its channels in each orientation, shape (8, C, F*F)
        grid = np.arange(f * f * c).reshape(f, f, c)
        self._turns = np.stack([apply_orientation(grid, o).reshape(-1, c).T for o in range(8)])

    def _distance(self, most, least, cells, pieces) -> tuple[np.ndarray, np.ndarray]:
        """Pair distances from dots ``v . c`` of non-negated piece variants
        with cells: ``|c|^2 + |p|^2 - 2 most``, the plain distance of the
        variant whose dot is ``most``, and ``|c|^2 + |full - p|^2 - 2 full
        sum(c) + 2 least``, the negated distance of the one whose dot is
        ``least``. ``cells`` and ``pieces`` index the norms so that they
        broadcast against the dots. Works in place on both dots."""
        most *= -2
        most += self.piece_sq[pieces]
        most += self.cell_sq[cells]
        least *= 2
        least += self.neg_sq[pieces]
        least += self.cell_neg[cells]
        return most, least

    def pair_costs(self, cell_ids: np.ndarray, piece_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distance of each (cell, piece) pair, and the pose of the first
        variant reaching it in (orientation, negpos, channel order) order,
        from the exact distances of all its variants, ``_GT_PAIRS`` pairs at
        a time."""
        m, (n, f, _, c) = len(cell_ids), self.pieces.shape
        flat = self.pieces.reshape(n, -1)
        perms = np.asarray(self.perms)
        variant_pose = (np.arange(8)[:, None, None] + 8 * (np.arange(2)[:, None] + 2 * np.arange(len(perms)))).ravel()
        cost, pose = np.empty(m), np.empty(m, dtype=np.int64)
        for lo in range(0, m, _GT_PAIRS):
            at_c, at_p = cell_ids[lo : lo + _GT_PAIRS], piece_ids[lo : lo + _GT_PAIRS]
            k = len(at_c)
            mine = flat[at_p][:, self._turns].reshape(k, 8 * c, f * f)
            mates = self.cells[at_c].reshape(k, f * f, c)
            g = np.matmul(mine, mates).reshape(k, 8, c, c)  # g[:, o, a, b]: channel a . b
            dots = g[..., perms, np.arange(c)].sum(axis=-1)  # (k, 8, P)
            # dist[:, (o * 2 + neg) * P + j]: every variant, in variant order
            dist = np.stack(self._distance(dots, dots.copy(), at_c[:, None, None], at_p[:, None, None]), 2)
            dist = dist.reshape(k, -1)
            best = dist.argmin(axis=1)
            cost[lo : lo + k] = dist[np.arange(k), best]
            pose[lo : lo + k] = variant_pose[best]
        return cost, pose

    def distinct_cheapest(self) -> tuple[np.ndarray, np.ndarray]:
        """Each cell's lowest-index cheapest piece and its pose. Scans
        the sorted-feature bound of ``ground_truth_from_plain`` ``_GT_PIECES``
        cells at a time and scores each cell's candidates. Raises
        ``ValueError`` once the candidates pass ``_GT_BUDGET`` per cell, or
        if two cells share a piece."""
        n = len(self.cells)
        cells = self.cells.reshape(n, -1)
        sorted_pieces = np.sort(self.pieces.reshape(n, -1), axis=1).T  # (F*F*C, n)
        ids, poses = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        budget = _GT_BUDGET * n
        for lo in range(0, n, _GT_PIECES):
            part = np.sort(cells[lo : lo + _GT_PIECES], axis=1)
            at = np.arange(len(part))
            here = lo + at
            # |sc - sp|^2 and |sc - (full - reverse(sp))|^2 are distances of
            # the dots sc . sp and sc . reverse(sp) = reverse(sc) . sp
            neg = part[:, ::-1] @ sorted_pieces
            bound = np.minimum(*self._distance(part @ sorted_pieces, neg, here[:, None], slice(None)))
            del neg
            first = bound.argmin(axis=1)
            upper, poses[here] = self.pair_costs(here, first)
            hit = bound <= upper[:, None]
            hit[at, first] = False  # scored already
            rows, cols = hit.nonzero()
            budget -= len(at) + len(rows)
            if budget < 0:
                raise ValueError(
                    "the plaintext does not single out the ciphertext's pieces: more "
                    f"than {_GT_BUDGET} candidate pieces per cell, as for an unrelated "
                    "plaintext; score against the key (--key)"
                )
            # the exact distances of the candidates, inf elsewhere
            cost, pose = self.pair_costs(lo + rows, cols)
            bound.fill(np.inf)
            bound[at, first] = upper
            bound[rows, cols] = cost
            ids[here] = best = bound.argmin(axis=1)
            won = cols == best[rows]
            poses[lo + rows[won]] = pose[won]
        shared = int((np.bincount(ids, minlength=n)[ids] > 1).sum())
        if shared:
            raise ValueError(f"{shared} of {n} cells share their cheapest piece with another "
                             "cell; score against the key (--key)")
        return ids, poses


def ground_truth_from_plain(plain: ImageBuffer, puzzle: Puzzle) -> GroundTruth:
    """Appearance-based ground truth: match each piece to the plaintext cell it
    came from, searching orientation, inversion, and channel-order variants.

    Robust to JPEG noise via coarse block features. A block's features are
    its pixel sums over the largest power-of-two grid of cells (up to 8x8)
    that divides the block size. The cost of a (cell, piece) pair is the
    least squared distance from the cell's features to those of any of the
    piece's variants, and its pose is that of the first variant reaching it
    in (orientation, negpos, channel order) order. Past JPEG, a block whose
    channels nearly coincide can take another channel order than the key's
    (``synth``: 279 of 4 096 32-px cells at q50, 71 of 1 024 16-px cells at
    q75, 2 at q95); ids, orientations and negation matched the key's.

    Each cell takes its lowest-index cheapest piece. Where that does not
    single out one piece per cell, this raises ``ValueError`` instead of
    guessing, and only the key's ground truth can score the ciphertext:

    - Contested. Some cell's piece is also another cell's, as when plaintext
      blocks are near-duplicates under JPEG noise. The message counts the
      cells whose piece is shared.
    - No match. The candidates below pass ``_GT_BUDGET`` per cell, as for a
      plaintext unrelated to the ciphertext or a uniform one. This raises
      after the first block of cells that passes it.

    Every cost is an exact integer in float64 (see ``_Features``). Exactness
    needs ``2 * F**2 * C * (255 * area)**2 < 2**53``; every power-of-two
    block size up to 1024 and every size below 391 meet it. Raises
    ``ValueError``, before allocating anything, for a block size past it.

    The cheapest pieces are found without scoring every pair:

    - Bound. For cell features ``c`` and piece features ``p``, each sorted
      ascending, ``min(|sort(c) - sort(p)|^2, |sort(c) - (full -
      reverse(sort(p)))|^2)`` is at most the pair's cost. Orientation and
      channel order permute ``p``, and by the rearrangement inequality no
      permutation of ``p`` comes closer to ``c`` than ``sort(p)`` does to
      ``sort(c)``; negation is covered because ``sort(full - p) = full -
      reverse(sort(p))``. Its terms are those of the cost, so it is an
      exact integer too.
    - Candidates. A cell's cheapest pieces cost at most what its bound-argmin
      costs, so their bounds do too: only pieces whose bound is at most that
      cost get the 96 exact distances, and the lowest-index cheapest of them
      is the cell's.

    On a ciphertext of this plaintext, exact or JPEG-decoded, most cells
    have one candidate. The working set is O(``_GT_PIECES`` x n +
    ``_GT_BUDGET`` x n) whether it answers or refuses.
    """
    grid = puzzle.grid
    _, b, _, c = puzzle.pieces.shape
    f, full = _feature_grid(b)
    if 2 * f * f * c * full * full >= 2**53:
        raise ValueError(f"block size {b} with {c} channel(s) gives feature distances that may "
                         "reach 2**53, past float64's exact integers")
    plain_blocks, _ = split_blocks(plain, grid.block_size)
    if plain_blocks.shape != puzzle.pieces.shape:
        raise ValueError(f"plaintext geometry does not match the puzzle grid: plaintext "
                         f"blocks {plain_blocks.shape}, pieces {puzzle.pieces.shape}")

    ids, poses = _Features(plain_blocks, puzzle.pieces).distinct_cheapest()
    return GroundTruth(ids.reshape(grid.rows, grid.cols), poses.reshape(grid.rows, grid.cols))


# ---------------------------------------------------------------------------
# Pairwise compatibility


def _sides(blocks: np.ndarray) -> tuple[np.ndarray, ...]:
    """Left and right columns, top and bottom rows of a (..., B, B, C) stack,
    each read top to bottom or left to right."""
    return blocks[..., :, 0, :], blocks[..., :, -1, :], blocks[..., 0, :, :], blocks[..., -1, :, :]


def _edge_table() -> np.ndarray:
    """_EDGES[e, o] = (s, r): side e of a block in orientation o is side s of
    the unturned block, reversed iff r, read off apply_orientation on a 2x2
    block of distinct values."""
    block = np.arange(4).reshape(2, 2, 1)
    where = {side[::step].tobytes(): (s, step < 0)
             for s, side in enumerate(_sides(block)) for step in (1, -1)}
    posed = [_sides(apply_orientation(block, o)) for o in range(8)]
    return np.array([[where[side.tobytes()] for side in sides] for sides in posed]).swapaxes(0, 1)


_EDGES = _edge_table()
# relation (0 right, 1 below) -> (the first piece's side, the second's)
_SEAM_SIDES = ((1, 0), (3, 2))


class _SideTable:
    """Every oriented edge of a puzzle, read from one side table.

    One (4, n, B*C + 1) array of ``dtype`` holds side s (left, right, top,
    bottom) of piece p as B*C samples followed by their squared norm;
    ``sides`` and ``sq`` are views of it. The edge of a piece in any
    orientation is one of its sides, forward or reversed (``_EDGES``). Keys
    are ``piece * len(orientations) + index``.

    Each side also has a probe, a (B*C + 1, 2) array whose columns are
    [-2 side, 1] and [-2 side reversed, 1]. A table row times a probe is
    |b|^2 - 2 a.b for the side read both ways, so one matrix product per
    placed edge scores every side of every piece.

    Every integer buffer the solver keeps takes its dtype here: float32
    where a subset-sum bound keeps each value below 2**24, float64
    otherwise, so either is exact in any summation order.

    - ``dtype`` (the table, probes, ``edges``, the seed scan): float32 when
      ``2 * B*C * 255**2 < 2**24`` (B*C <= 129). Each product of two terms
      is an integer of magnitude at most 2 * 255**2 (a sample times -2
      samples, a norm times 1), and every partial sum that any order forms,
      with or without fused multiply-adds, is a subset sum of them.
    - ``sum_dtype`` (the greedy's K-wide sum per open cell, and ``used``):
      float32 when ``4 * B*C * 255**2 < 2**24`` (B*C <= 64). A row is an
      integer in [0, B*C * 255**2], and a cell sums at most 4 of them.
    """

    def __init__(self, pieces: np.ndarray, orientations: list[int]):
        n, b, _, c = pieces.shape
        d = b * c
        self.n, self.orientations, self.shape = n, orientations, (b, c)
        self.dtype, self.sum_dtype = (np.float32 if m * d * 255**2 < 1 << 24 else np.float64
                                      for m in (2, 4))
        table = np.empty((4, n, d + 1), self.dtype)
        self.sides, self.sq = table[..., :d], table[..., d]
        self.sides[...] = np.stack(_sides(pieces)).reshape(4, n, d)
        self.sq[...] = (self.sides * self.sides).sum(axis=2)
        self._probes = np.empty((4, n, d + 1, 2), self.dtype)
        self._probes[..., :d, 0] = self.sides
        self._probes[..., :d, 1] = self.sides.reshape(4, n, b, c)[:, :, ::-1].reshape(4, n, d)
        self._probes[..., :d, :] *= -2
        self._probes[..., d, :] = 1
        # per edge and orientation index: (side, reversed) as Python values
        self._fixed = _EDGES[:, orientations].tolist()
        # per edge of the candidates: the table rows its orientations read,
        # and the gathers from those rows times a probe into key order, for a
        # placed edge read forward and for one read reversed
        self._free = []
        flat, q = table.reshape(4 * n, d + 1), np.arange(n)[:, None]
        for s, r in _EDGES[:, orientations].transpose(0, 2, 1):
            lo, hi = s.min(), s.max() + 1
            at = ((s - lo) * n + q) * 2
            self._free.append((flat[lo * n : hi * n], ((at + r).ravel(), (at + 1 - r).ravel())))

    def edges(self, e: int, codes: list[int]) -> np.ndarray:
        """Edge ``e`` of every piece in each orientation of ``codes``, in key
        order, as the rows [edge, |edge|^2, 1] of an (n * len(codes), B*C + 2)
        array of ``dtype``."""
        b, c = self.shape
        d = b * c
        out = np.empty((self.n, len(codes), d + 2), self.dtype)
        for i, (s, r) in enumerate(_EDGES[e, codes].tolist()):
            side = self.sides[s]
            out[:, i, :d] = side.reshape(self.n, b, c)[:, ::-1].reshape(self.n, d) if r else side
        out[..., d] = self.sq[_EDGES[e, codes, 0]].T
        out[..., d + 1] = 1
        return out.reshape(-1, d + 2)

    def row(self, fixed: int, free: int, k: int) -> np.ndarray:
        """Squared difference |a|^2 + |b|^2 - 2 a.b of edge ``fixed`` of key
        ``k`` against edge ``free`` of every key: the candidates' table rows
        times the placed side's probe, gathered into key order, plus the
        placed edge's norm, in ``dtype``. Every entry is an exact integer in
        any summation order (see the class docstring); the caller divides by
        B*C."""
        p, i = divmod(k, len(self.orientations))
        s, r = self._fixed[fixed][i]
        rows, take = self._free[free]
        out = (rows @ self._probes[s, p]).ravel().take(take[r])
        out += self.sq[s, p]
        return out


def _seed(table: _SideTable, relations: tuple[int, ...], poses: list[int]) -> tuple:
    """(numerator, k1, k2, relation) of the first minimum, in (k1, k2,
    relation) order, of the K x K tables of the given relations (0 right, 1
    below) whose entry [k1, k2] scores k2 right of (below) k1, self-pairs
    excluded.

    ``poses`` is the group of global poses the orientations admit. Pose g
    turns every key by g and the pair's offset with it, and the pair still
    joins the same two edges, so a pose orbit shares one integer numerator
    and one entry per orbit is scanned: a relation that a pose maps onto a
    scanned one is skipped, the first key takes one orientation per coset of
    the poses that keep the offset, and when a pose reverses the offset the
    second piece has the higher id. With all 8 poses that is K**2 / 4 pairs
    instead of 2 K**2, and with the masked corners of its blocks the scan
    computes fewer than K**2 / 2 entries. The ties of the minimum are mapped
    back through the poses, so the result is the full scan's. Rows are
    scanned in blocks of whole first pieces, one matrix product per block:
    the first keys' edges as rows [-2 a, |a|^2, 1] times the second keys' as
    [b, 1, |b|^2] give |a|^2 + |b|^2 - 2 a.b with no pass after it: the
    integer numerators of ``_SideTable.row``, whose order and ties are those
    of the mean. The rows and the block buffer are in the table's exact
    ``dtype``.
    """
    n, codes = table.n, table.orientations
    no = len(codes)
    kk = n * no
    index = np.zeros(8, dtype=np.int64)
    index[codes] = np.arange(no)
    poses = np.asarray(poses)
    found, scanned = [], []
    for rel in relations:
        delta = SEAM_TURNS[rel, 0]
        if any((abs(SEAM_TURNS[s, poses]) == delta).all(axis=1).any() for s in scanned):
            continue
        scanned.append(rel)
        moved = SEAM_TURNS[rel, poses]
        keep = poses[(moved == delta).all(axis=1)]
        reps = [o for o in codes if o == ORIENT_COMPOSE[o, keep].min()]
        later = int((moved == -delta).all(axis=1).any())  # the second piece has the higher id
        # per pose that lands the pair in a given relation: that relation,
        # whether the pieces swap, and the two keys' new orientation indices
        images = []
        for g, (dr, dc) in zip(poses, moved):
            if int(dr != 0) in relations:
                images.append((int(dr != 0), dr + dc < 0,
                               index[ORIENT_COMPOSE[reps, g]], index[ORIENT_COMPOSE[codes, g]]))
        first, second = _SEAM_SIDES[rel]
        # rows [-2 a, |a|^2, 1] times rows [b, 1, |b|^2] give |a|^2 + |b|^2 - 2 a.b
        fe = table.edges(first, reps)
        fe[:, :-2] *= -2
        ce = table.edges(second, codes)
        ce[:, [-2, -1]] = ce[:, [-1, -2]]
        nr = len(reps)
        step = max(1, _SEED_CHUNK // (nr * kk))
        buf = np.empty(min(step, n) * nr * kk, table.dtype)  # one block buffer, reused
        best = (np.inf, -1)
        for lo in range(0, n - later, step):
            hi = min(lo + step, n - later)
            c0 = (lo + 1) * later  # first piece of the columns
            blk = np.matmul(fe[lo * nr : hi * nr], ce[c0 * no :].T,
                            out=buf[: (hi - lo) * nr * (kk - c0 * no)].reshape((hi - lo) * nr, -1))
            blk = blk.reshape(hi - lo, nr, n - c0, no)
            if later:  # drop (p1, p2) with p2 <= p1; column j holds piece lo + 1 + j
                i, j = np.tril_indices(hi - lo, -1)
            else:  # a piece cannot neighbor itself
                i = np.arange(hi - lo)
                j = lo + i
            blk[i, :, j, :] = np.inf
            low = int(np.argmin(blk))
            value = blk.flat[low]
            if value >= best[0]:
                continue
            i = low // blk[0].size  # the block's first piece to reach its minimum
            # a tie's image under the identity starts with its own first
            # piece and one that swaps the pair with a later piece, so only
            # the ties of the block's lowest first piece can come first
            a, j, b = np.nonzero(blk[i] == value)
            k1, k2 = (lo + i) * no, (c0 + j) * no
            flat = []
            for to, swap, t1, t2 in images:
                u, v = k1 + t1[a], k2 + t2[b]
                if swap:
                    u, v = v, u
                flat.append(((u * kk + v) * 2 + to).min())
            best = (float(value), int(min(flat)))
        found.append(best)
    value, code = min(found)
    return (value, *divmod(code // 2, kk), code % 2)


def greedy_assemble(puzzle: Puzzle, orientation_search: bool = False) -> Assembly:
    """Deterministic greedy growth on a shifting virtual canvas.

    Seeds with the globally most compatible pair, then repeatedly commits the
    (piece, open cell, orientation) with minimum mean dissimilarity against
    all placed neighbors of that cell. Open cells are empty cells adjacent to
    a placed piece whose occupation keeps the bounding box within the target
    grid. Ties break by (piece id, cell row-major order, orientation code);
    the seed pair breaks ties by (piece, orientation, piece, orientation,
    relation), and on a one-piece-wide grid it uses the one relation that
    fits. The final canvas is shifted so the bounding box is the grid.

    Scores stay exact integers until one division. Each open cell holds one
    record: the sum of its placed neighbors' integer rows, their count and
    its heap entry. Placing a piece adds the integer row of its side facing
    each open neighbor (``_SideTable.row``) to that neighbor's sum and
    rescores it: the best key is the first minimum of sum plus inf on the
    keys of placed pieces, scored sum / (B*C * count). The division keeps
    the order and ties of integers below 2**51, so only the chosen entry is
    divided. Integer sums are exact in any order, so values and ties are
    those of a full rescan. Entries sit in one heap ordered by (value,
    piece, cell). One that surfaces counts only if it is still its cell's,
    and if its piece was placed since, the cell is rescored then. The
    placements are those of rescoring at once: the entry's key was the
    first minimum, so every lower key scored strictly more, and with its
    piece's keys at inf the new first minimum has a higher value, or the
    same value and a higher piece, so it sorts after the old entry. The
    working set is one K-wide sum per open cell and one K-wide ``used``, in
    the sums' dtype (float32 when B*C <= 64), and O(rescores) heap entries;
    past ``_SUMS_BUDGET`` bytes of sums it raises ``ValueError``.

    Every row comes from one side table, each piece's 4 sides as samples and
    squared norm, in dtypes that keep every row and sum exact
    (``_SideTable``). An oriented edge is one of them, forward or reversed,
    so a placed piece's row toward an open cell is one matrix product: the
    table rows of the sides the candidates' orientations read (with no
    orientation search, the relation's own side) times the placed side's
    two-column probe, which scores its edge and the edge reversed, gathered
    into key order (K = pieces x orientations keys). No K x K table is
    built, and no (K, B*C) array outlives the seed.

    The seed scan is exact but reduced by symmetry (``_seed``): a global
    pose turns every piece and the pair's offset together and joins the
    same two edges, so with orientation search it scans only right pairs
    whose first key takes 4 of the 8 orientations and whose second piece
    has the higher id, K**2 / 4 pairs instead of 2 K**2. The tie rule is
    unchanged: numerators are integers, so a pose orbit shares one value,
    and the ties of the minimum are mapped back through the poses to the
    lowest (piece, orientation, piece, orientation, relation) of both
    relations' full tables.
    """
    grid = puzzle.grid
    n = grid.n_blocks
    orientations = list(range(8)) if orientation_search else [0]
    no = len(orientations)
    if n == 1:
        return identity_assembly(grid)
    kk = n * no
    d = puzzle.pieces.shape[1] * puzzle.pieces.shape[3]
    table = _SideTable(puzzle.pieces, orientations)
    # seed: global best pair over the relations that fit the grid
    fitting = tuple(rel for rel, size in enumerate((grid.cols, grid.rows)) if size > 1)
    _, k1, k2, rel = _seed(table, fitting, orientations)
    second = ((0, 1), (1, 0))[rel]
    placed: dict[tuple[int, int], int] = {(0, 0): k1, second: k2}
    used = np.zeros(kk, table.sum_dtype)  # inf on the keys of placed pieces, added to every score
    rmin, rmax, cmin, cmax = 0, second[0], 0, second[1]

    def fits(cell: tuple[int, int]) -> bool:
        """Whether placing at ``cell`` keeps the bounding box within the grid."""
        r, c = cell
        return rmax - grid.rows < r < rmin + grid.rows and cmax - grid.cols < c < cmin + grid.cols

    def around(cell: tuple[int, int]) -> tuple[tuple[int, int], ...]:
        r, c = cell
        return (r, c - 1), (r, c + 1), (r - 1, c), (r + 1, c)

    # open cell -> [sum of its placed neighbors' integer rows, their count,
    # its heap entry (value, piece, cell, key)]
    cells: dict[tuple[int, int], list] = {}
    heap: list[tuple[float, int, tuple[int, int], int]] = []

    def fill(cell: tuple[int, int]) -> None:
        """Mark the piece at ``cell`` used and add its rows to open neighbors' sums."""
        key = placed[cell]
        used[key // no * no : key // no * no + no] = np.inf
        for s, o in enumerate(around(cell)):
            if o not in placed and fits(o):
                # side s of the placed key faces o; the candidates' opposite side meets it
                rec = cells.setdefault(o, [0, 0, None])
                rec[0] = np.add(table.row(s, s ^ 1, key), rec[0], dtype=table.sum_dtype)
                rec[1] += 1
        if (live := len(cells) * used.nbytes) > _SUMS_BUDGET:  # one used-sized sum per open cell
            raise ValueError(f"greedy_assemble of n = {n} pieces (K = {kk} keys) holds {live} bytes of "
                             f"sums in {len(cells)} open cells, past its budget of {_SUMS_BUDGET} bytes")

    def rescore(cell: tuple[int, int]) -> None:
        """Store and push the cell's entry: its first least key and mean."""
        rec = cells[cell]
        score = rec[0] + used
        k = int(np.argmin(score))
        rec[2] = (float(score[k]) / (d * rec[1]), k // no, cell, k)
        heapq.heappush(heap, rec[2])

    for cell in (0, 0), second:
        fill(cell)
    for cell in cells:
        rescore(cell)
    while len(placed) < n:
        entry = heapq.heappop(heap)
        cell, key = entry[2:]
        if cell not in cells or cells[cell][2] is not entry:
            continue  # its cell was rescored, placed or dropped since
        if used[key]:
            rescore(cell)  # its piece was placed since
            continue
        placed[cell] = key
        del cells[cell]
        r, c = cell
        if not (rmin <= r <= rmax and cmin <= c <= cmax):
            rmin, rmax, cmin, cmax = min(rmin, r), max(rmax, r), min(cmin, c), max(cmax, c)
            for o in [o for o in cells if not fits(o)]:
                del cells[o]
        fill(cell)
        for o in around(cell):
            if o in cells:
                rescore(o)

    keys = np.empty((grid.rows, grid.cols), dtype=np.int64)
    for (r, c), k in placed.items():
        keys[r - rmin, c - cmin] = k
    return Assembly(keys // no, np.asarray(orientations)[keys % no])


def render_assembly(assembly: Assembly, puzzle: Puzzle) -> ImageBuffer:
    """Paint the assembled image (pieces drawn in their assigned poses)."""
    out = apply_poses(puzzle.pieces[assembly.piece_ids.ravel()], assembly.poses.ravel())
    return merge_blocks(out, puzzle.grid, out.shape[-1])


# ---------------------------------------------------------------------------
# Scoring


def score_assembly(
    assembly: Assembly, puzzle: Puzzle, allow_global_pose: bool = True
) -> Metrics:
    """Direct, neighbor, and largest-component scores against the ground truth.

    Dc is the share of cells holding their true piece in its true orientation,
    maximized, when ``allow_global_pose``, over the global poses that keep
    the grid's shape: the identity, the half turn and both mirrors, and on a
    square grid also the quarter turns and both diagonal flips. Border
    compatibility cannot tell an assembly from any of its poses. Nc is the
    share of right and below seams that are correct, and Lc the share of
    cells in the largest 4-connected region joined by correct seams. All
    three read orientations only, so a cell's negation or channel order never
    counts against them: past JPEG the appearance truth's channel order is
    not the key's (``ground_truth_from_plain``).

    A seam between pieces placed at offset ``delta`` in orientations (ou, ov)
    is correct when one global pose maps both placements onto the ground
    truth: the per-piece correction ``rho = ou^-1 then true orientation`` is
    the same code in [0, 8) for both pieces, and ``delta`` carried by
    ``rho`` is the pieces' true relative offset.
    """
    gt = puzzle.ground_truth
    if gt is None:
        raise ValueError("puzzle has no ground truth to score against")
    ids, ors = assembly.piece_ids, assembly.orientations
    if ids.shape != gt.piece_ids.shape:
        raise ValueError(f"assembly grid {ids.shape} differs from the ground truth's "
                         f"{gt.piece_ids.shape}")
    rows, cols = ids.shape
    n = rows * cols

    r, c = np.indices(ids.shape)
    direct = 0
    for g in range(8) if allow_global_pose else (0,):
        # pose g moves cell (r, c) to r * g(1, 0) + c * g(0, 1), then shifts
        (ar, ac), (br, bc) = SEAM_TURNS[:, g]
        to_r, to_c = r * br + c * ar, r * bc + c * ac
        to_r, to_c = to_r - to_r.min(), to_c - to_c.min()
        if to_r.max() == rows - 1 and to_c.max() == cols - 1:  # g keeps the shape
            hit = ((gt.piece_ids[to_r, to_c] == ids)
                   & (gt.orientations[to_r, to_c] == ORIENT_COMPOSE[ors, g]))
            direct = max(direct, int(hit.sum()))

    true_cell = inverse_permutation(gt.piece_ids.ravel())[ids]  # of each placed piece
    true_r, true_c = np.divmod(true_cell, cols)
    rho = ORIENT_COMPOSE[ORIENT_INVERSE[ors], gt.orientations.ravel()[true_cell]]
    cell = np.arange(n).reshape(rows, cols)
    src, dst = [], []
    for seam, a, b in ((0, np.s_[:, :-1], np.s_[:, 1:]), (1, np.s_[:-1], np.s_[1:])):
        want = SEAM_TURNS[seam, rho[a]]
        good = (
            (rho[a] == rho[b])
            & (true_r[b] - true_r[a] == want[..., 0])
            & (true_c[b] - true_c[a] == want[..., 1])
        )
        src.append(cell[a][good])
        dst.append(cell[b][good])
    src, dst = np.concatenate(src), np.concatenate(dst)

    total_pairs = rows * (cols - 1) + cols * (rows - 1)
    nc = len(src) / total_pairs if total_pairs else 1.0
    return Metrics(direct / n, nc, _largest_component(n, src, dst) / n)


def _largest_component(n: int, src: np.ndarray, dst: np.ndarray) -> int:
    """Node count of the largest connected component of the undirected
    graph on ``n`` nodes with edges ``(src[i], dst[i])``.

    Every node points at a lower or equal label, and every label is a root
    (a node pointing at itself) between rounds. A round hooks the higher
    root of each edge that joins two trees onto the lower one, then pointer
    jumping makes every node point at its root again. It ends when no edge
    joins two trees, with one label per component.
    """
    label = np.arange(n)
    while True:
        a, b = label[src], label[dst]
        cross = a != b
        if not cross.any():
            return int(np.bincount(label).max())
        a, b = a[cross], b[cross]
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


# ---------------------------------------------------------------------------
# Toy brute force


def brute_force_scramble(
    plaintext: ImageBuffer, ciphertext: ImageBuffer, cfg: CipherConfig
) -> list[tuple[int, ...]]:
    """Enumerate all block permutations mapping plaintext onto ciphertext.

    Only meaningful for scramble-only configurations, and guarded to at most
    10 blocks (10! candidates). Images whose blocks are all distinct yield
    exactly one permutation; fully uniform images yield all n! of them.
    """
    if cfg.steps != frozenset({SCRAMBLE}):
        raise ValueError("brute force supports scramble-only configurations")
    plain_blocks, grid = split_blocks(plaintext, cfg.block_size)
    cipher_blocks, cgrid = split_blocks(ciphertext, cfg.block_size)
    if (cgrid.rows, cgrid.cols) != (grid.rows, grid.cols):
        raise ValueError("plaintext and ciphertext grids differ")
    n = grid.n_blocks
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"{n} blocks exceeds the brute-force guard of {_BRUTE_FORCE_LIMIT}")

    plain_bytes = [plain_blocks[i].tobytes() for i in range(n)]
    cipher_bytes = [cipher_blocks[i].tobytes() for i in range(n)]
    matches = []
    for perm in itertools.permutations(range(n)):
        if all(cipher_bytes[i] == plain_bytes[perm[i]] for i in range(n)):
            matches.append(perm)
    return matches


def attack_report_row(
    steps, block_size: int, n_pieces: int, metrics: Metrics, seconds: float
) -> str:
    letters = steps_to_letters(steps) or "-"
    return (
        f"{letters},{block_size},{n_pieces},"
        f"{metrics.dc:.6f},{metrics.nc:.6f},{metrics.lc:.6f},{seconds:.3f}"
    )
