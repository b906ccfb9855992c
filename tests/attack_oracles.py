"""Reference implementations of the jigsaw attack's hot paths.

These are the straightforward versions the library started from: the greedy
solver rescans every open cell after every placement, and the ground truth
and the renderer work one piece at a time. The library's vectorised and
incremental versions must return exactly what these return, so tests compare
the two.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

from etckit.attack import Assembly, GroundTruth, Puzzle, _block_features, identity_assembly
from etckit.cipher import CHANNEL_PERMS, apply_orientation
from etckit.images import ImageBuffer, merge_blocks, split_blocks


def reference_ground_truth_from_plain(plain: ImageBuffer, puzzle: Puzzle) -> GroundTruth:
    """Appearance-based ground truth: match each piece to the plaintext cell it
    came from, searching orientation, inversion, and channel-order variants.

    Robust to JPEG noise via coarse block features and optimal assignment.
    """
    grid = puzzle.grid
    plain_blocks, pgrid = split_blocks(plain, grid.block_size)
    if (pgrid.rows, pgrid.cols) != (grid.rows, grid.cols):
        raise ValueError("plaintext geometry does not match the puzzle grid")

    cell_feat = _block_features(plain_blocks)  # (n, F, F, C)
    piece_feat = _block_features(puzzle.pieces)
    n, f, _, c = piece_feat.shape

    variants = []  # (orientation, negpos, channel perm index or None)
    for orient in range(8):
        for neg in (0, 1):
            if c == 3:
                variants.extend((orient, neg, p3) for p3 in range(6))
            else:
                variants.append((orient, neg, None))

    flat_cells = cell_feat.reshape(n, -1)
    cost = np.empty((n, n))
    orient_choice = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        vfeats = np.empty((len(variants), f * f * c))
        for vi, (orient, neg, p3) in enumerate(variants):
            feat = apply_orientation(piece_feat[i], orient)
            if neg:
                feat = 255.0 - feat
            if p3 is not None:
                feat = feat[..., CHANNEL_PERMS[p3]]
            vfeats[vi] = feat.ravel()
        # squared distance of every variant to every cell
        d = (
            (vfeats * vfeats).sum(axis=1)[:, None]
            + (flat_cells * flat_cells).sum(axis=1)[None, :]
            - 2.0 * vfeats @ flat_cells.T
        )
        best_v = d.argmin(axis=0)
        cost[:, i] = d[best_v, np.arange(n)]
        orient_choice[:, i] = [variants[v][0] for v in best_v]

    cell_idx, piece_idx = linear_sum_assignment(cost)
    ids = np.empty(n, dtype=np.int64)
    ors = np.empty(n, dtype=np.int64)
    ids[cell_idx] = piece_idx
    ors[cell_idx] = orient_choice[cell_idx, piece_idx]
    shape = (grid.rows, grid.cols)
    return GroundTruth(ids.reshape(shape), ors.reshape(shape))


def reference_edge_tables(
    pieces: np.ndarray, orientations: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Dissimilarity tables over oriented pieces, key = piece * n_orients + oi.

    right_table[k1, k2]: k2 placed directly right of k1.
    below_table[k1, k2]: k2 placed directly below k1.
    """
    n, b, _, c = pieces.shape
    no = len(orientations)
    k = n * no
    left = np.empty((k, b * c))
    right = np.empty((k, b * c))
    top = np.empty((k, b * c))
    bottom = np.empty((k, b * c))
    for p in range(n):
        for oi, code in enumerate(orientations):
            block = apply_orientation(pieces[p], code).astype(np.float64)
            idx = p * no + oi
            left[idx] = block[:, 0].ravel()
            right[idx] = block[:, -1].ravel()
            top[idx] = block[0, :].ravel()
            bottom[idx] = block[-1, :].ravel()

    def msd(ea, eb):
        sq_a = (ea * ea).sum(axis=1)
        sq_b = (eb * eb).sum(axis=1)
        return (sq_a[:, None] + sq_b[None, :] - 2.0 * ea @ eb.T) / ea.shape[1]

    right_table = msd(right, left)
    below_table = msd(bottom, top)
    # a piece cannot neighbor itself
    for p in range(n):
        s = slice(p * no, (p + 1) * no)
        right_table[s, s] = np.inf
        below_table[s, s] = np.inf
    return right_table, below_table


def reference_greedy_assemble(puzzle: Puzzle, orientation_search: bool = False) -> Assembly:
    """Deterministic greedy growth on a shifting virtual canvas.

    Seeds with the globally most compatible pair, then repeatedly commits the
    (piece, open cell, orientation) with minimum mean dissimilarity against
    all placed neighbors of that cell. Open cells are empty cells adjacent to
    a placed piece whose occupation keeps the bounding box within the target
    grid. Ties break by (piece id, cell row-major order, orientation code);
    the seed pair breaks ties by (piece, orientation, piece, orientation,
    relation). The final canvas is shifted so the bounding box is the grid.
    """
    grid = puzzle.grid
    n = grid.n_blocks
    orientations = list(range(8)) if orientation_search else [0]
    no = len(orientations)
    if n == 1:
        return identity_assembly(grid)

    right_table, below_table = reference_edge_tables(puzzle.pieces, orientations)

    # seed: global best pair over both relations, relation as the last tie key
    stacked = np.stack([right_table, below_table], axis=2)  # (K, K, 2)
    k1, k2, rel = np.unravel_index(np.argmin(stacked), stacked.shape)
    placed: dict[tuple[int, int], int] = {(0, 0): int(k1)}
    second = (0, 1) if rel == 0 else (1, 0)
    placed[second] = int(k2)

    unplaced = np.ones(n * no, dtype=bool)
    unplaced[int(k1) // no * no : int(k1) // no * no + no] = False
    unplaced[int(k2) // no * no : int(k2) // no * no + no] = False

    inf_row = np.full(n * no, np.inf)

    while len(placed) < n:
        rmin = min(r for r, _ in placed)
        rmax = max(r for r, _ in placed)
        cmin = min(c for _, c in placed)
        cmax = max(c for _, c in placed)

        open_cells: set[tuple[int, int]] = set()
        for (r, c) in placed:
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nb in placed or nb in open_cells:
                    continue
                h = max(rmax, nb[0]) - min(rmin, nb[0]) + 1
                w = max(cmax, nb[1]) - min(cmin, nb[1]) + 1
                if h <= grid.rows and w <= grid.cols:
                    open_cells.add(nb)

        best = None  # (value, piece, cell_rm_index, orient, cell, key)
        for rm_idx, cell in enumerate(sorted(open_cells)):
            r, c = cell
            score = np.zeros(n * no)
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
            cand = (float(score[k]), k // no, rm_idx, k % no, cell, k)
            if best is None or cand[:4] < best[:4]:
                best = cand

        _, piece, _, _, cell, key = best
        placed[cell] = key
        unplaced[piece * no : (piece + 1) * no] = False

    rmin = min(r for r, _ in placed)
    cmin = min(c for _, c in placed)
    ids = np.empty((grid.rows, grid.cols), dtype=np.int64)
    ors = np.empty((grid.rows, grid.cols), dtype=np.int64)
    for (r, c), k in placed.items():
        ids[r - rmin, c - cmin] = k // no
        ors[r - rmin, c - cmin] = orientations[k % no]
    return Assembly(ids, ors)


def reference_render_assembly(assembly: Assembly, puzzle: Puzzle) -> ImageBuffer:
    """Paint the assembled image (pieces drawn in their assigned orientations)."""
    grid = puzzle.grid
    n, b, _, c = puzzle.pieces.shape
    out = np.empty((n, b, b, c), dtype=np.uint8)
    flat_ids = assembly.piece_ids.ravel()
    flat_ors = assembly.orientations.ravel()
    for cell in range(n):
        out[cell] = apply_orientation(puzzle.pieces[flat_ids[cell]], int(flat_ors[cell]))
    return merge_blocks(out, grid, c)
