"""Ciphertext-only jigsaw attack: greedy reassembly of encrypted blocks plus
the direct/neighbor/largest-component assembly scores and a toy brute-force
key search.

Blocks of a block-scrambled ciphertext keep the pixel statistics of the
original image, so they can be treated as puzzle pieces and reassembled from
pairwise border compatibility alone. The solver here is a deterministic
greedy best-first placer: strong enough to demonstrate that scramble-only
ciphertexts leak structure while multi-step ciphertexts do not, which is the
property the evaluation harness measures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cipher import (
    CHANNEL_PERMS,
    ORIENT_INVERSE,
    ROTATE_FLIP,
    SCRAMBLE,
    CipherConfig,
    apply_orientation,
    compose_orientations,
    inverse_permutation,
    invert_orientation,
    step_draws,
    steps_to_letters,
)
from .images import BlockGrid, ImageBuffer, merge_blocks, split_blocks
from .keystream import MasterKey

RIGHT = "right"
BELOW = "below"

ATTACK_CSV_HEADER = "steps,block_size,n_pieces,dc,nc,lc,seconds"

_BRUTE_FORCE_LIMIT = 10

# Largest O(n^2) table set an attack may allocate, in bytes. The greedy solver
# at 1024 pieces with orientation search (K = 8192) needs 1.5 GiB.
MAX_TABLE_BYTES = 2 << 30
# Distance entries per ground-truth chunk: 512 KiB buffers stay in cache.
_GT_CHUNK = 1 << 16


@dataclass(frozen=True)
class GroundTruth:
    """Per-cell (piece id, orientation) that reconstructs the plaintext."""

    piece_ids: np.ndarray
    orientations: np.ndarray


@dataclass(frozen=True)
class Assembly:
    """A solver's answer: per-cell (piece id, orientation), each piece used once."""

    piece_ids: np.ndarray
    orientations: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.piece_ids)
        if sorted(ids.ravel().tolist()) != list(range(ids.size)):
            raise ValueError("assembly must place every piece exactly once")
        ors = np.asarray(self.orientations)
        if ors.shape != ids.shape or ((ors < 0) | (ors > 7)).any():
            raise ValueError("orientations must match the grid and lie in [0, 8)")


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


def _check_table_bytes(what: str, n: int, orientations: int, nbytes: int) -> None:
    if nbytes > MAX_TABLE_BYTES:
        raise ValueError(
            f"{what} of {n} pieces in {orientations} orientation(s) needs {nbytes} bytes "
            f"of tables, more than the limit of {MAX_TABLE_BYTES} bytes"
        )


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


def _block_features(pieces: np.ndarray) -> np.ndarray:
    """Coarse per-block features: cell means on the largest power-of-two grid
    (up to 8x8) dividing the block size. Shape (n, F, F, C) float64."""
    n, b, _, c = pieces.shape
    f = next(s for s in (8, 4, 2, 1) if b % s == 0)
    cell = b // f
    arr = pieces.astype(np.float64).reshape(n, f, cell, f, cell, c)
    return arr.mean(axis=(2, 4))


def ground_truth_from_plain(plain: ImageBuffer, puzzle: Puzzle) -> GroundTruth:
    """Appearance-based ground truth: match each piece to the plaintext cell it
    came from, searching orientation, inversion, and channel-order variants.

    Robust to JPEG noise via coarse block features and optimal assignment.
    Raises ``ValueError`` when the n x n assignment tables would exceed
    ``MAX_TABLE_BYTES``.
    """
    from scipy.optimize import linear_sum_assignment

    grid = puzzle.grid
    plain_blocks, pgrid = split_blocks(plain, grid.block_size)
    if (pgrid.rows, pgrid.cols) != (grid.rows, grid.cols):
        raise ValueError("plaintext geometry does not match the puzzle grid")
    n = grid.n_blocks
    # cost (float64) and orientation choice (int8) per (cell, piece)
    _check_table_bytes("ground truth", n, 8, n * n * 9)

    cell_feat = _block_features(plain_blocks)  # (n, F, F, C)
    piece_feat = _block_features(puzzle.pieces)
    _, f, _, c = piece_feat.shape
    # variants of a piece in (orientation, negpos, channel perm) order
    perms = np.asarray(CHANNEL_PERMS if c == 3 else ((0,),))
    n_variants = 8 * 2 * len(perms)
    oriented = np.stack([apply_orientation(piece_feat, o) for o in range(8)], axis=1)

    flat_cells = cell_feat.reshape(n, -1)
    cell_sq = (flat_cells * flat_cells).sum(axis=1)
    cost = np.empty((n, n))
    orient_choice = np.empty((n, n), dtype=np.int8)
    step = max(1, _GT_CHUNK // (n_variants * n))
    for lo in range(0, n, step):
        o = oriented[lo : lo + step]  # (m, 8, F, F, C)
        v = np.stack([o, 255.0 - o], axis=2)[..., perms]  # (m, 8, 2, F, F, P, C)
        vfeats = np.moveaxis(v, -2, 3).reshape(-1, f * f * c)
        # squared distance of every variant to every cell
        d = (vfeats * vfeats).sum(axis=1)[:, None] + cell_sq[None, :]
        d -= 2.0 * vfeats @ flat_cells.T
        d = d.reshape(len(o), n_variants, n)
        best_v = d.argmin(axis=1)  # (m, n): first minimum, as a per-piece scan
        cost[:, lo : lo + len(o)] = np.take_along_axis(d, best_v[:, None], axis=1)[:, 0].T
        orient_choice[:, lo : lo + len(o)] = (best_v // (n_variants // 8)).T

    cell_idx, piece_idx = linear_sum_assignment(cost)
    ids = np.empty(n, dtype=np.int64)
    ors = np.empty(n, dtype=np.int64)
    ids[cell_idx] = piece_idx
    ors[cell_idx] = orient_choice[cell_idx, piece_idx]
    shape = (grid.rows, grid.cols)
    return GroundTruth(ids.reshape(shape), ors.reshape(shape))


# ---------------------------------------------------------------------------
# Pairwise compatibility


def boundary_dissimilarity(a: np.ndarray, b: np.ndarray, relation: str) -> float:
    """Mean squared difference over the shared border when ``b`` sits right of
    (or below) ``a``."""
    if a.shape != b.shape:
        raise ValueError(f"piece shapes differ: {a.shape} vs {b.shape}")
    if relation == RIGHT:
        ea, eb = a[:, -1], b[:, 0]
    elif relation == BELOW:
        ea, eb = a[-1, :], b[0, :]
    else:
        raise ValueError(f"relation must be {RIGHT!r} or {BELOW!r}")
    diff = ea.astype(np.int64) - eb.astype(np.int64)
    return float((diff * diff).sum()) / diff.size


def _edge_tables(
    pieces: np.ndarray, orientations: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Dissimilarity tables over oriented pieces, key = piece * n_orients + oi.

    right_table[k1, k2]: k2 placed directly right of k1.
    below_table[k1, k2]: k2 placed directly below k1.
    """
    n, b, _, c = pieces.shape
    no = len(orientations)
    edges = np.empty((4, n, no, b * c))  # left, right, top, bottom
    for oi, code in enumerate(orientations):
        o = apply_orientation(pieces, code)
        for e, side in enumerate((o[:, :, 0], o[:, :, -1], o[:, 0], o[:, -1])):
            edges[e, :, oi] = side.reshape(n, b * c)
    left, right, top, bottom = edges.reshape(4, n * no, b * c)

    def msd(ea, eb):
        # (|a|^2 + |b|^2 - 2 a.b) / d in two K x K buffers; doubling is exact,
        # so this equals the one-expression form bit for bit
        s = (ea * ea).sum(axis=1)[:, None] + (eb * eb).sum(axis=1)[None, :]
        g = ea @ eb.T
        g *= 2
        np.subtract(s, g, out=s)
        s /= ea.shape[1]
        return s

    right_table = msd(right, left)
    below_table = msd(bottom, top)
    # a piece cannot neighbor itself
    own = np.arange(n)
    for table in (right_table, below_table):
        table.reshape(n, no, n, no)[own, :, own, :] = np.inf
    return right_table, below_table


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

    Scores are kept between placements: each open cell caches its best
    (value, key) and is rescored only when a neighbor is placed or when its
    cached piece is used. A rescore sums the placed neighbors' table rows in
    the fixed order left, right, above, below and divides by their count, so
    values and ties are those of a full rescan.

    Raises ``ValueError`` when the two K x K tables (K = pieces x
    orientations) and one build buffer would exceed ``MAX_TABLE_BYTES``.
    """
    grid = puzzle.grid
    n = grid.n_blocks
    orientations = list(range(8)) if orientation_search else [0]
    no = len(orientations)
    if n == 1:
        return identity_assembly(grid)
    kk = n * no
    _check_table_bytes("greedy assembly", n, no, 3 * kk * kk * 8)

    right_table, below_table = _edge_tables(puzzle.pieces, orientations)

    # seed: global best pair over both relations; on equal values the lower
    # (k1, k2) wins, then the right relation
    i_r = int(np.argmin(right_table))
    i_b = int(np.argmin(below_table))
    pick_right = grid.rows == 1 or (
        grid.cols > 1 and (right_table.flat[i_r], i_r) <= (below_table.flat[i_b], i_b)
    )
    k1, k2 = divmod(i_r if pick_right else i_b, kk)
    second = (0, 1) if pick_right else (1, 0)
    placed: dict[tuple[int, int], int] = {(0, 0): k1, second: k2}

    unplaced = np.ones(kk, dtype=bool)
    unplaced[k1 // no * no : k1 // no * no + no] = False
    unplaced[k2 // no * no : k2 // no * no + no] = False
    inf_row = np.full(kk, np.inf)
    rmin, rmax, cmin, cmax = 0, second[0], 0, second[1]

    def fits(cell: tuple[int, int]) -> bool:
        r, c = cell
        return (
            max(rmax, r) - min(rmin, r) < grid.rows
            and max(cmax, c) - min(cmin, c) < grid.cols
        )

    def best_for(cell: tuple[int, int]) -> tuple[float, int, tuple[int, int], int]:
        r, c = cell
        score = np.zeros(kk)
        cnt = 0
        nk = placed.get((r, c - 1))
        if nk is not None:
            score += right_table[nk]
            cnt += 1
        nk = placed.get((r, c + 1))
        if nk is not None:
            score += right_table[:, nk]
            cnt += 1
        nk = placed.get((r - 1, c))
        if nk is not None:
            score += below_table[nk]
            cnt += 1
        nk = placed.get((r + 1, c))
        if nk is not None:
            score += below_table[:, nk]
            cnt += 1
        score = np.where(unplaced, score / cnt, inf_row)
        k = int(np.argmin(score))
        return float(score[k]), k // no, cell, k

    def neighbors(cell: tuple[int, int]) -> list[tuple[int, int]]:
        r, c = cell
        return [(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)]

    # open cell -> (value, piece, cell, key); min() orders by value, piece, cell
    frontier: dict[tuple[int, int], tuple[float, int, tuple[int, int], int]] = {}
    stale = set(neighbors((0, 0)) + neighbors(second))
    while True:
        for cell in stale:
            if cell not in placed and fits(cell):
                frontier[cell] = best_for(cell)
        if len(placed) == n:
            break
        _, piece, cell, key = min(frontier.values())
        placed[cell] = key
        del frontier[cell]
        unplaced[piece * no : (piece + 1) * no] = False
        r, c = cell
        box = (min(rmin, r), max(rmax, r), min(cmin, c), max(cmax, c))
        if box != (rmin, rmax, cmin, cmax):
            rmin, rmax, cmin, cmax = box
            frontier = {o: best for o, best in frontier.items() if fits(o)}
        # dropping other pieces' keys cannot move a cached first minimum
        stale = {o for o, best in frontier.items() if best[1] == piece}
        stale.update(neighbors(cell))

    ids = np.empty((grid.rows, grid.cols), dtype=np.int64)
    ors = np.empty((grid.rows, grid.cols), dtype=np.int64)
    for (r, c), k in placed.items():
        ids[r - rmin, c - cmin] = k // no
        ors[r - rmin, c - cmin] = orientations[k % no]
    return Assembly(ids, ors)


def render_assembly(assembly: Assembly, puzzle: Puzzle) -> ImageBuffer:
    """Paint the assembled image (pieces drawn in their assigned orientations)."""
    out = puzzle.pieces[assembly.piece_ids.ravel()]
    flat_ors = assembly.orientations.ravel()
    for code in np.unique(flat_ors[flat_ors != 0]):
        cells = flat_ors == code
        out[cells] = apply_orientation(out[cells], int(code))
    return merge_blocks(out, puzzle.grid, out.shape[-1])


# ---------------------------------------------------------------------------
# Scoring


def _rotate_direction(k: int, delta: tuple[int, int]) -> tuple[int, int]:
    dr, dc = delta
    for _ in range(k % 4):
        dr, dc = -dc, dr
    return dr, dc


def _rotate_codes(codes: np.ndarray, k: int) -> np.ndarray:
    r = codes % 4
    flipped = codes >= 4
    rn = np.where(flipped, (r - k) % 4, (r + k) % 4)
    return np.where(flipped, rn + 4, rn)


def _correct_pairs(assembly: Assembly, gt: GroundTruth) -> list[tuple[int, int, int, int]]:
    """Adjacent cell pairs realizing a true seam, as (r1, c1, r2, c2).

    A pair placed with relative offset ``delta`` and orientations (ou, ov) is
    correct when one global rotation maps both placements onto the ground
    truth: the per-piece correction ``gt_orient o ou^-1`` must be the same
    pure rotation for both pieces and must map ``delta`` onto the pieces'
    true relative offset.
    """
    rows, cols = assembly.piece_ids.shape
    n = rows * cols
    t_cell = np.empty((n, 2), dtype=np.int64)
    t_orient = np.empty(n, dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            p = int(gt.piece_ids[r, c])
            t_cell[p] = (r, c)
            t_orient[p] = gt.orientations[r, c]

    good = []
    for r in range(rows):
        for c in range(cols):
            for delta in ((0, 1), (1, 0)):
                r2, c2 = r + delta[0], c + delta[1]
                if r2 >= rows or c2 >= cols:
                    continue
                u = int(assembly.piece_ids[r, c])
                v = int(assembly.piece_ids[r2, c2])
                ou = int(assembly.orientations[r, c])
                ov = int(assembly.orientations[r2, c2])
                rho_u = compose_orientations(invert_orientation(ou), int(t_orient[u]))
                rho_v = compose_orientations(invert_orientation(ov), int(t_orient[v]))
                if rho_u != rho_v or rho_u >= 4:
                    continue
                want = _rotate_direction(rho_u, delta)
                have = (
                    int(t_cell[v][0] - t_cell[u][0]),
                    int(t_cell[v][1] - t_cell[u][1]),
                )
                if have == want:
                    good.append((r, c, r2, c2))
    return good


def score_assembly(
    assembly: Assembly, puzzle: Puzzle, allow_global_rotation: bool = True
) -> Metrics:
    """Direct, neighbor, and largest-component scores against the ground truth."""
    gt = puzzle.ground_truth
    if gt is None:
        raise ValueError("puzzle has no ground truth to score against")
    rows, cols = gt.piece_ids.shape
    n = rows * cols

    # direct comparison, maximized over whole-assembly rotations
    best_direct = 0
    rotations = (0, 1, 2, 3) if allow_global_rotation else (0,)
    for k in rotations:
        if k % 2 and rows != cols:
            continue
        ids_r = np.rot90(assembly.piece_ids, k)
        ors_r = _rotate_codes(np.rot90(assembly.orientations, k), k)
        match = (ids_r == gt.piece_ids) & (ors_r == gt.orientations)
        best_direct = max(best_direct, int(match.sum()))
    dc = best_direct / n

    pairs = _correct_pairs(assembly, gt)
    total_pairs = rows * (cols - 1) + cols * (rows - 1)
    nc = len(pairs) / total_pairs if total_pairs else 1.0

    # largest 4-connected region whose internal seams are all correct
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r1, c1, r2, c2 in pairs:
        a, b = find(r1 * cols + c1), find(r2 * cols + c2)
        if a != b:
            parent[a] = b
    sizes: dict[int, int] = {}
    for cell in range(n):
        root = find(cell)
        sizes[root] = sizes.get(root, 0) + 1
    lc = max(sizes.values()) / n

    return Metrics(dc, nc, lc)


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
