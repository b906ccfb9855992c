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
    ROTATE_FLIP,
    SCRAMBLE,
    CipherConfig,
    _rotate_flip,
    apply_orientation,
    inverse_permutation,
    step_draws,
    steps_to_letters,
)
from .images import BlockGrid, ImageBuffer, merge_blocks, split_blocks
from .keystream import MasterKey

ATTACK_CSV_HEADER = "steps,block_size,n_pieces,dc,nc,lc,seconds"

_BRUTE_FORCE_LIMIT = 10

# Largest n x n cost table the appearance ground truth may allocate, in bytes.
MAX_TABLE_BYTES = 2 << 30
# Pieces per block of the ground truth's pieces x cells products, and cells
# per block of its bound scan. Counted in pieces, each block is this many
# rows tall at any puzzle size.
_GT_PIECES = 32
# Pairs per block of the ground truth's exact 96-variant distances.
_GT_PAIRS = 64
# Candidate pairs per cell, on average, that the ground truth scores before
# it builds the whole cost table instead.
_GT_BUDGET = 4
# Table entries per block of the solver's seed scan (a 4 MiB buffer): of
# 2**17, 2**18 and 2**19, the largest scanned K = 8192 fastest.
_SEED_CHUNK = 1 << 19


@dataclass(frozen=True)
class _Placement:
    """Per-cell (piece id, orientation), each piece used once."""

    piece_ids: np.ndarray
    orientations: np.ndarray

    _kind: ClassVar[str]  # names the type in error messages

    def __post_init__(self):
        ids = np.asarray(self.piece_ids)
        if sorted(ids.ravel().tolist()) != list(range(ids.size)):
            raise ValueError(f"{self._kind} must place every piece exactly once")
        ors = np.asarray(self.orientations)
        if ors.shape != ids.shape or ((ors < 0) | (ors > 7)).any():
            raise ValueError(f"{self._kind} orientations must match the grid and lie in [0, 8)")


@dataclass(frozen=True)
class GroundTruth(_Placement):
    """Per-cell (piece id, orientation) that reconstructs the plaintext."""

    _kind = "ground truth"


@dataclass(frozen=True)
class Assembly(_Placement):
    """A solver's answer: per-cell (piece id, orientation), each piece used once."""

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
    def from_image(
        cls, img: ImageBuffer, block_size: int, ground_truth: GroundTruth | None = None
    ) -> "Puzzle":
        pieces, grid = split_blocks(img, block_size)
        return cls(pieces, grid, ground_truth)


def identity_assembly(grid: BlockGrid) -> Assembly:
    ids = np.arange(grid.n_blocks, dtype=np.int64).reshape(grid.rows, grid.cols)
    return Assembly(ids, np.zeros_like(ids))


def ground_truth_from_key(key: MasterKey, cfg: CipherConfig, grid: BlockGrid) -> GroundTruth:
    """Exact ground truth for a ciphertext produced with (key, cfg)."""
    draws = step_draws(key, cfg, grid.n_blocks)
    n = grid.n_blocks
    if SCRAMBLE in draws:
        # ciphertext block i holds plaintext block perm[i]
        cell_piece = inverse_permutation(draws[SCRAMBLE])
    else:
        cell_piece = np.arange(n, dtype=np.int64)
    if ROTATE_FLIP in draws:
        cell_orient = np.take(ORIENT_INVERSE, draws[ROTATE_FLIP])[cell_piece]
    else:
        cell_orient = np.zeros(n, dtype=np.int64)
    shape = (grid.rows, grid.cols)
    return GroundTruth(cell_piece.reshape(shape), cell_orient.reshape(shape))


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


def _assign(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a least-cost assignment of a square cost matrix.

    A numpy port of Crouse's shortest augmenting path ("On implementing 2D
    rectangular assignment algorithms", IEEE TAES 2016) in the operation
    order of the common C++ implementation, ``rectangular_lsap.cpp``, so
    both give the same assignment on every finite cost matrix whose reduced
    costs do not overflow. Rows are added in order; each adds one Dijkstra
    search over the columns. A search visits the columns in ``remaining``
    order, which starts reversed and drops a column by moving the last one
    into its place. The reduced cost is ``min_val + cost - u[i] - v[j]``,
    evaluated left to right. Of the columns tied at the minimum, the last
    unassigned one in ``remaining`` order is taken, else the first. The
    search keeps each column's path cost but not the row it came from: the
    rows of the augmenting path are recomputed once it is found.

    While ``v`` is all zero, a row whose lowest-index minimum column is
    still free takes that column directly: that is exactly what the search's
    first step would do, and it leaves ``v`` zero.
    """
    n = len(cost)
    u, v = np.zeros(n), np.zeros(n)
    col4row = np.full(n, -1, dtype=np.int64)
    row4col = np.full(n, -1, dtype=np.int64)
    spc = np.empty(n)  # shortest path cost to each column, inf once the column is reached
    vv = np.empty(n)  # v, but -inf on reached columns: their reduced cost is inf
    r = np.empty(n)
    tied = np.empty(n, dtype=bool)
    order = np.arange(n)
    rows = list(cost)
    cheapest = cost.argmin(axis=1).tolist()
    v_zero = True
    for cur in range(n):
        j = cheapest[cur]
        if v_zero and row4col[j] < 0:
            u[cur] += cost[cur, j]
            row4col[j], col4row[cur] = cur, j
            continue
        remaining = list(range(n - 1, -1, -1))
        pos = remaining[:]  # each column's index in remaining: its own inverse
        # the tie-break as one key to maximise: an unassigned column beats an
        # assigned one, the later one in remaining among unassigned columns,
        # the earlier one among assigned columns
        rank = np.where(row4col < 0, 2 * n - 1 - order, order)
        spc.fill(np.inf)
        np.copyto(vv, v)
        # per step: the row scanned, the path cost it started from, and the
        # column it reached
        visited, starts, reached = [], [], []
        i, sink = cur, -1
        min_val = 0.0
        while sink < 0:
            visited.append(i)
            starts.append(min_val)
            np.add(rows[i], min_val, out=r)
            r -= u[i]
            r -= vv
            np.minimum(spc, r, out=spc)  # may keep -0.0 for 0.0; no comparison differs
            min_val = np.minimum.reduce(spc)
            np.equal(spc, min_val, out=tied)
            cols = tied.nonzero()[0]
            j = int(cols[rank[cols].argmax()] if len(cols) > 1 else cols[0])
            last = remaining.pop()
            if last != j:
                at = pos[j]
                remaining[at] = last
                pos[last] = at
                rank[last] = n + at if row4col[last] < 0 else n - 1 - at
            spc[j], vv[j] = np.inf, -np.inf
            reached.append(j)
            i = int(row4col[j])
            if i < 0:
                sink = j
        visited, starts = np.array(visited), np.array(starts)
        lengths = np.append(starts[1:], min_val)  # each reached column's path cost
        # augment along the path. A column's path row is the first scanned row
        # whose reduced cost to it equals its path cost (the search replaced
        # a cost only by a strictly lower one), recomputed in the search's
        # operation order
        j = sink
        while True:
            k = reached.index(j) + 1
            again = starts[:k] + cost[visited[:k], j]
            again -= u[visited[:k]]
            again -= v[j]
            i = int(visited[(again == lengths[k - 1]).argmax()])
            row4col[j] = i
            col4row[i], j = j, int(col4row[i])
            if i == cur:
                break
        # update the duals: the rows reached through the non-sink columns,
        # then every reached column
        u[cur] += min_val
        u[visited[1:]] += min_val - lengths[:-1]
        v[reached] -= min_val - lengths
        v_zero = v_zero and not v.any()
    return col4row


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
        # _turns hold its channels in each orientation
        grid = np.arange(f * f * c).reshape(f, f, c)
        self._turns = np.stack([apply_orientation(grid, o).reshape(-1, c).T for o in range(8)]).ravel()

    def pair_costs(self, cell_ids: np.ndarray, piece_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distance of each (cell, piece) pair, and the orientation of the
        first variant reaching it in (orientation, negpos, channel order)
        order, from the exact distances of all its variants, ``_GT_PAIRS``
        pairs at a time."""
        m, (n, f, _, c) = len(cell_ids), self.pieces.shape
        flat = self.pieces.reshape(n, -1)
        perms, two_p = np.asarray(self.perms), 2 * len(self.perms)
        cost, orient = np.empty(m), np.empty(m, dtype=np.int64)
        for lo in range(0, m, _GT_PAIRS):
            at_c, at_p = cell_ids[lo : lo + _GT_PAIRS], piece_ids[lo : lo + _GT_PAIRS]
            k = len(at_c)
            mine = flat[at_p][:, self._turns].reshape(k, 8 * c, f * f)
            mates = self.cells[at_c].reshape(k, f * f, c)
            g = np.matmul(mine, mates).reshape(k, 8, c, c)  # g[:, o, a, b]: channel a . b
            dots = g[..., perms, np.arange(c)].sum(axis=-1)  # (k, 8, P)
            plain_dist = (self.piece_sq[at_p] + self.cell_sq[at_c])[:, None, None] - 2 * dots
            neg_dist = (self.neg_sq[at_p] + self.cell_neg[at_c])[:, None, None] + 2 * dots
            dist = np.stack([plain_dist, neg_dist], axis=2).reshape(k, -1)  # (k, 8 * 2 * P)
            best = dist.argmin(axis=1)
            cost[lo : lo + k] = dist[np.arange(k), best]
            orient[lo : lo + k] = best // two_p
        return cost, orient

    def table(self) -> np.ndarray:
        """The n x n table of pair distances, cells by pieces, from
        ``_GT_PIECES`` pieces' channel products with every cell at a time."""
        n, f, _, c = self.pieces.shape
        cols = np.ascontiguousarray(self.cells.reshape(n, f * f, c).transpose(2, 1, 0))  # (C, F*F, n)
        cost = np.empty((n, n))
        buf = np.empty((min(_GT_PIECES, n), n))  # one channel order's dots, reused
        for lo in range(0, n, _GT_PIECES):
            hi = lo + _GT_PIECES
            part = self.pieces[lo:hi]
            # extreme dots with the cells over the non-negated variants of part
            most = np.full((len(part), n), -np.inf)
            least = np.full((len(part), n), np.inf)
            dot = buf[: len(part)]
            for o in range(8):
                # rows[a, i]: channel a of piece lo + i in orientation o
                rows = apply_orientation(part, o).reshape(len(part), f * f, c).transpose(2, 0, 1)
                g = np.matmul(np.ascontiguousarray(rows)[:, None], cols)  # g[a, b]: channel a . b
                for perm in self.perms:
                    np.copyto(dot, g[perm[0], 0])
                    for ch, a in enumerate(perm[1:], 1):
                        dot += g[a, ch]
                    np.maximum(most, dot, out=most)
                    np.minimum(least, dot, out=least)
            # |v - c|^2 = |c|^2 + |p|^2 - 2 v.c, or for a negated variant
            # |c|^2 + |full - p|^2 - 2 full sum(c) + 2 v.c
            most *= -2
            most += self.piece_sq[lo:hi, None]
            most += self.cell_sq
            least *= 2
            least += self.neg_sq[lo:hi, None]
            least += self.cell_neg
            cost[:, lo:hi] = np.minimum(most, least).T
        return cost

    def distinct_cheapest(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Each cell's lowest-index cheapest piece and its orientation, or
        None if two cells share a piece or the candidates pass ``_GT_BUDGET``
        per cell. Scans the sorted-feature bound of ``ground_truth_from_plain``
        ``_GT_PIECES`` cells at a time and scores each cell's candidates."""
        n = len(self.cells)
        cells = self.cells.reshape(n, -1)
        sorted_pieces = np.sort(self.pieces.reshape(n, -1), axis=1).T  # (F*F*C, n)
        ids, ors = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        budget = _GT_BUDGET * n
        for lo in range(0, n, _GT_PIECES):
            part = np.sort(cells[lo : lo + _GT_PIECES], axis=1)
            at = np.arange(len(part))
            here = lo + at
            # |sc - sp|^2 and |sc - (full - reverse(sp))|^2 expanded as in
            # table(), with sc . reverse(sp) = reverse(sc) . sp
            bound = part @ sorted_pieces
            bound *= -2
            bound += self.piece_sq
            bound += self.cell_sq[here, None]
            neg = part[:, ::-1] @ sorted_pieces
            neg *= 2
            neg += self.neg_sq
            neg += self.cell_neg[here, None]
            np.minimum(bound, neg, out=bound)
            del neg
            first = bound.argmin(axis=1)
            upper, ors[here] = self.pair_costs(here, first)
            hit = bound <= upper[:, None]
            hit[at, first] = False  # scored already
            rows, cols = hit.nonzero()
            budget -= len(at) + len(rows)
            if budget < 0:
                return None
            # the exact distances of the candidates, inf elsewhere
            cost, orient = self.pair_costs(lo + rows, cols)
            bound.fill(np.inf)
            bound[at, first] = upper
            bound[rows, cols] = cost
            ids[here] = best = bound.argmin(axis=1)
            won = cols == best[rows]
            ors[lo + rows[won]] = orient[won]
        return (ids, ors) if np.bincount(ids, minlength=n).max() == 1 else None


def ground_truth_from_plain(plain: ImageBuffer, puzzle: Puzzle) -> GroundTruth:
    """Appearance-based ground truth: match each piece to the plaintext cell it
    came from, searching orientation, inversion, and channel-order variants.

    Robust to JPEG noise via coarse block features and optimal assignment. A
    block's features are its pixel sums over the largest power-of-two grid of
    cells (up to 8x8) that divides the block size. The cost of a (cell,
    piece) pair is the least squared distance from the cell's features to
    those of any of the piece's variants, and its orientation is that of the
    first variant reaching it in (orientation, negpos, channel order) order.

    Every cost is an exact integer in float64 (see ``_Features``). Exactness
    needs ``2 * F**2 * C * (255 * area)**2 < 2**53``; every power-of-two
    block size up to 1024 and every size below 391 meet it. Raises
    ``ValueError``, before allocating anything, for a block size past it or
    when the n x n float64 cost table would exceed ``MAX_TABLE_BYTES``.

    Of several least-cost assignments, the one returned is the first that
    the augmenting-path search of ``_assign`` reaches. Cells are assigned in
    order, and a search step tied between pieces takes an unassigned one,
    the last in its visiting order, else the first. So when the cells'
    lowest-index cheapest pieces are all distinct, each cell takes its own
    and no search runs, and those pieces are found without the table:

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
    have one candidate, and the working set is O(``_GT_PIECES`` x n +
    candidates). When two cells share a cheapest piece, or the candidates
    pass ``_GT_BUDGET`` per cell (a plaintext unrelated to the ciphertext),
    the whole table is built and ``_assign`` solves it: one Dijkstra search
    over every piece for most cells on random-like costs, O(n**3) at worst.
    """
    grid = puzzle.grid
    n, b, _, c = puzzle.pieces.shape
    f, full = _feature_grid(b)
    if 2 * f * f * c * full * full >= 2**53:
        raise ValueError(
            f"block size {b} with {c} channel(s) gives feature distances that may "
            "reach 2**53, past float64's exact integers"
        )
    nbytes = n * n * 8
    if nbytes > MAX_TABLE_BYTES:
        raise ValueError(
            f"ground truth of {n} pieces needs a {n}x{n} cost table of {nbytes} "
            f"bytes, more than the limit of {MAX_TABLE_BYTES} bytes"
        )
    plain_blocks, _ = split_blocks(plain, grid.block_size)
    if plain_blocks.shape != puzzle.pieces.shape:
        raise ValueError("plaintext geometry does not match the puzzle grid")

    feats = _Features(plain_blocks, puzzle.pieces)
    found = feats.distinct_cheapest()
    if found is None:
        ids = _assign(feats.table())  # cell i came from piece ids[i]
        _, ors = feats.pair_costs(np.arange(n), ids)
    else:
        ids, ors = found
    shape = (grid.rows, grid.cols)
    return GroundTruth(ids.reshape(shape), ors.reshape(shape))


# ---------------------------------------------------------------------------
# Pairwise compatibility


def _sides(blocks: np.ndarray) -> tuple[np.ndarray, ...]:
    """Left and right columns, top and bottom rows of a (..., B, B, C) stack,
    each read top to bottom or left to right."""
    return blocks[..., :, 0, :], blocks[..., :, -1, :], blocks[..., 0, :, :], blocks[..., -1, :, :]


def _pose_tables() -> tuple[np.ndarray, np.ndarray]:
    """_EDGES[e, o] = (s, r): side e of a block in orientation o is side s of
    the unturned block, reversed iff r. _SEAM_TURNS[seam, g]: where global
    pose g sends the offset of the right (seam 0) or below (seam 1)
    neighbour. Both are read off apply_orientation on a 3x3 block."""
    block = np.arange(9).reshape(3, 3, 1)
    posed = [apply_orientation(block, o) for o in range(8)]
    where = {side[::step].tobytes(): (s, step < 0)
             for s, side in enumerate(_sides(block)) for step in (1, -1)}
    edges = np.array([[where[side.tobytes()] for side in _sides(p)] for p in posed])
    # cells 5 and 7 sit right of and below cell 4, the centre
    turns = np.array([[np.argwhere(p[..., 0] == cell)[0] - 1 for p in posed] for cell in (5, 7)])
    return edges.swapaxes(0, 1), turns


_EDGES, _SEAM_TURNS = _pose_tables()
# relation (0 right, 1 below) -> (the first piece's side, the second's)
_SEAM_SIDES = ((1, 0), (3, 2))


class _SideTable:
    """Every oriented edge of a puzzle, read from one side table.

    One (4, n, B*C + 1) float64 array holds side s (left, right, top,
    bottom) of piece p as B*C samples followed by their squared norm;
    ``sides`` and ``sq`` are views of it. The edge of a piece in any orientation is one of its sides,
    forward or reversed (``_EDGES``). Keys are ``piece * len(orientations) +
    index``.

    Each side also has a probe, a (B*C + 1, 2) array whose columns are
    [-2 side, 1] and [-2 side reversed, 1]. A table row times a probe is
    |b|^2 - 2 a.b for the side read both ways, so one matrix product per
    placed edge scores every side of every piece.
    """

    def __init__(self, pieces: np.ndarray, orientations: list[int]):
        n, b, _, c = pieces.shape
        d = b * c
        self.n, self.orientations, self.shape = n, orientations, (b, c)
        table = np.empty((4, n, d + 1))
        self.sides, self.sq = table[..., :d], table[..., d]
        self.sides[...] = np.stack(_sides(pieces)).reshape(4, n, d)
        self.sq[...] = (self.sides * self.sides).sum(axis=2)
        self._probes = np.empty((4, n, d + 1, 2))
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
        array."""
        b, c = self.shape
        d = b * c
        out = np.empty((self.n, len(codes), d + 2))
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
        placed edge's norm. Samples are integers, so every entry is an exact
        integer in any summation order; the caller divides by B*C."""
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
    of the mean.
    """
    n, codes = table.n, table.orientations
    no = len(codes)
    kk = n * no
    index = np.zeros(8, dtype=np.int64)
    index[codes] = np.arange(no)
    poses = np.asarray(poses)
    found, scanned = [], []
    for rel in relations:
        delta = _SEAM_TURNS[rel, 0]
        if any((abs(_SEAM_TURNS[s, poses]) == delta).all(axis=1).any() for s in scanned):
            continue
        scanned.append(rel)
        moved = _SEAM_TURNS[rel, poses]
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
        buf = np.empty(min(step, n) * nr * kk)  # one block buffer, reused
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
    running (sum, count): placing a piece adds the integer row of its side
    facing each open neighbor (``_SideTable.row``) to that neighbor's sum,
    and the cell scores sum / (B*C * count) plus inf on the keys of placed
    pieces. Integer sums are exact in any order, so values and ties are those
    of a full rescan. Each open cell caches its best (value, key) and is
    rescored only when a neighbor is placed or its cached piece is used. The
    cells' entries sit in a heap ordered by (value, piece, cell); an entry
    its cell has since replaced or dropped is skipped when it surfaces. An
    index from each piece to the cells whose entry held it finds the cells to
    rescore when that piece is used.

    Every row comes from one side table: each piece's 4 sides as a (4, n,
    B*C + 1) float64 array of samples and squared norm. An oriented edge is
    one of them, forward or reversed, so a placed piece's row toward an open
    cell is one matrix product: the table rows of the sides the candidates'
    orientations read (with no orientation search, the relation's own side)
    times the placed side's two-column probe, which scores its edge and the
    edge reversed, gathered into key order (K = pieces x orientations keys).
    The solver holds one K-wide sum per open cell; no K x K table is built,
    and no (K, B*C) array outlives the seed.

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
    used = np.zeros(kk)  # inf on the keys of placed pieces, added to every score
    rmin, rmax, cmin, cmax = 0, second[0], 0, second[1]

    def fit_ranges() -> tuple[range, range]:
        """The rows and columns a cell may take with the box kept in the grid."""
        return (range(rmax - grid.rows + 1, rmin + grid.rows),
                range(cmax - grid.cols + 1, cmin + grid.cols))

    rfit, cfit = fit_ranges()

    def fits(cell: tuple[int, int]) -> bool:
        return cell[0] in rfit and cell[1] in cfit

    def around(cell: tuple[int, int]) -> tuple[tuple[int, int], ...]:
        r, c = cell
        return (r, c - 1), (r, c + 1), (r - 1, c), (r + 1, c)

    # open cell -> (sum of its placed neighbors' integer rows, their count)
    sums: dict[tuple[int, int], tuple[np.ndarray, int]] = {}

    def fill(cell: tuple[int, int]) -> None:
        """Mark the piece at ``cell`` used and add its rows to open neighbors' sums."""
        key = placed[cell]
        used[key // no * no : key // no * no + no] = np.inf
        for s, o in enumerate(around(cell)):
            if o not in placed and fits(o):
                # side s of the placed key faces o; the candidates' opposite side meets it
                total, count = sums.get(o, (0, 0))
                sums[o] = (table.row(s, s ^ 1, key) + total, count + 1)

    def best_for(cell: tuple[int, int]) -> tuple[float, int, tuple[int, int], int]:
        total, count = sums[cell]
        score = total / (d * count) + used
        k = int(np.argmin(score))
        return float(score[k]), k // no, cell, k

    for cell in (0, 0), second:
        fill(cell)
    # open cell -> (value, piece, cell, key). The heap orders entries by
    # value, piece, cell, and an entry counts only while it is its cell's.
    frontier: dict[tuple[int, int], tuple[float, int, tuple[int, int], int]] = {}
    heap: list[tuple[float, int, tuple[int, int], int]] = []
    holders: dict[int, set] = {}  # piece -> open cells whose entry has held it
    stale = set(sums)
    while True:
        for cell in stale:
            if cell in sums:
                best = frontier[cell] = best_for(cell)
                heapq.heappush(heap, best)
                holders.setdefault(best[1], set()).add(cell)
        if len(placed) == n:
            break
        while frontier.get(heap[0][2]) != heap[0]:
            heapq.heappop(heap)
        _, piece, cell, key = heapq.heappop(heap)
        placed[cell] = key
        del frontier[cell], sums[cell]
        r, c = cell
        if not (rmin <= r <= rmax and cmin <= c <= cmax):
            rmin, rmax, cmin, cmax = min(rmin, r), max(rmax, r), min(cmin, c), max(cmax, c)
            rfit, cfit = fit_ranges()
            for o in [o for o in frontier if not fits(o)]:
                del frontier[o], sums[o]
        fill(cell)
        # dropping other pieces' keys cannot move a cached first minimum
        stale = {o for o in holders.pop(piece, ()) if o in frontier and frontier[o][1] == piece}
        stale.update(around(cell))

    ids = np.empty((grid.rows, grid.cols), dtype=np.int64)
    ors = np.empty((grid.rows, grid.cols), dtype=np.int64)
    for (r, c), k in placed.items():
        ids[r - rmin, c - cmin] = k // no
        ors[r - rmin, c - cmin] = orientations[k % no]
    return Assembly(ids, ors)


def render_assembly(assembly: Assembly, puzzle: Puzzle) -> ImageBuffer:
    """Paint the assembled image (pieces drawn in their assigned orientations)."""
    out = _rotate_flip(puzzle.pieces[assembly.piece_ids.ravel()], assembly.orientations.ravel())
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
    cells in the largest 4-connected region joined by correct seams.

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
        (ar, ac), (br, bc) = _SEAM_TURNS[:, g]
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
        want = _SEAM_TURNS[seam, rho[a]]
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
