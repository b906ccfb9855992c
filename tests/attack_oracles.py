"""Reference implementations of the jigsaw attack's hot paths.

These are the straightforward versions the library started from: the greedy
solver rescans every open cell after every placement, the ground truth fills
the full cells x pieces cost table one piece variant at a time, the renderer
works one piece at a time, and the scorer checks one seam at a time with its
own hand-written orientation algebra. The library's vectorised and
incremental versions must return exactly what these return, so tests compare
the two.
"""

import numpy as np

from etckit.attack import (
    Assembly,
    GroundTruth,
    Metrics,
    Puzzle,
    identity_assembly,
)
from etckit.cipher import CHANNEL_PERMS, apply_orientation
from etckit.images import ImageBuffer, merge_blocks, split_blocks

from step_oracles import apply_color_shuffle, apply_negpos, orient_block


def _block_features(pieces: np.ndarray, sums: bool = False) -> np.ndarray:
    """Coarse per-block features: cell means (or, with ``sums``, cell sums) on
    the largest power-of-two grid (up to 8x8) dividing the block size. Shape
    (n, F, F, C) float64."""
    n, b, _, c = pieces.shape
    f = next(s for s in (8, 4, 2, 1) if b % s == 0)
    cell = b // f
    arr = pieces.astype(np.float64).reshape(n, f, cell, f, cell, c)
    return arr.sum(axis=(2, 4)) if sums else arr.mean(axis=(2, 4))


def reference_ground_truth_from_plain(
    plain: ImageBuffer, puzzle: Puzzle, sums: bool = False
) -> GroundTruth:
    """Appearance-based ground truth: match each piece to the plaintext cell it
    came from, searching orientation, inversion, and channel-order variants.

    Robust to JPEG noise via coarse block features. Each cell takes the
    first piece of least cost in its row of the full cells x pieces cost
    table; when cells share their piece this raises ``ValueError`` naming
    how many do. With ``sums`` the features are integer cell sums, which a
    cell of ``area`` pixels negates to ``255 * area - sum``, so every
    distance is exact; cell means are exact only when the area is a power
    of two.
    """
    grid = puzzle.grid
    plain_blocks, pgrid = split_blocks(plain, grid.block_size)
    if (pgrid.rows, pgrid.cols) != (grid.rows, grid.cols):
        raise ValueError("plaintext geometry does not match the puzzle grid")

    cell_feat = _block_features(plain_blocks, sums)  # (n, F, F, C)
    piece_feat = _block_features(puzzle.pieces, sums)
    n, f, _, c = piece_feat.shape
    white = 255.0 * (grid.block_size // f) ** 2 if sums else 255.0

    flat_cells = cell_feat.reshape(n, -1)
    cell_sq = (flat_cells * flat_cells).sum(axis=1)
    # cost[cell, piece]: the least distance over the piece's variants, and
    # pose_choice the pose o + 8 * (neg + 2 * perm) of the first variant
    # reaching it in (orientation, negpos, channel order) order. Each variant
    # of all pieces at once is one matrix product against every cell, and
    # only a strictly lower distance replaces the one kept.
    cost = np.full((n, n), np.inf)
    pose_choice = np.zeros((n, n), dtype=np.int64)
    for orient in range(8):
        turned = apply_orientation(piece_feat, orient)
        for neg in (0, 1):
            feat = white - turned if neg else turned
            for p, perm in enumerate(CHANNEL_PERMS if c == 3 else [(0,)]):
                vfeats = feat[..., perm].reshape(n, -1)
                d = -2.0 * flat_cells @ vfeats.T
                d += cell_sq[:, None]
                d += (vfeats * vfeats).sum(axis=1)
                lower = d < cost
                np.copyto(cost, d, where=lower)
                np.copyto(pose_choice, orient + 8 * (neg + 2 * p), where=lower)

    ids = cost.argmin(axis=1)
    poses = pose_choice[np.arange(n), ids]
    taken = ids.tolist()
    shared = sum(taken.count(piece) > 1 for piece in taken)  # cells whose piece another takes
    if shared:
        raise ValueError(f"{shared} of {n} cells share their cheapest piece with another "
                         "cell; score against the key (--key)")
    shape = (grid.rows, grid.cols)
    return GroundTruth(ids.reshape(shape), poses.reshape(shape))


def reference_edge_tables(
    pieces: np.ndarray, orientations: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Dissimilarity tables over oriented pieces, key = piece * n_orients + oi,
    as the integer numerators of the mean squared difference (divide by B*C).

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
        return sq_a[:, None] + sq_b[None, :] - 2.0 * ea @ eb.T

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

    d = puzzle.pieces.shape[1] * puzzle.pieces.shape[3]  # B*C samples per edge
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
            # the integer sum divided once: the exact mean, correctly rounded
            score = np.where(unplaced, score / (cnt * d), inf_row)
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
    """Paint the assembled image: each piece turned, then negated, then its
    channels reordered, by the parts of its pose o + 8 * (neg + 2 * perm)."""
    grid = puzzle.grid
    n, b, _, c = puzzle.pieces.shape
    out = np.empty((n, b, b, c), dtype=np.uint8)
    flat_ids = assembly.piece_ids.ravel()
    flat_poses = assembly.poses.ravel()
    for cell in range(n):
        perm, rest = divmod(int(flat_poses[cell]), 16)
        block = apply_negpos(orient_block(puzzle.pieces[flat_ids[cell]], rest % 8), rest // 8)
        out[cell] = apply_color_shuffle(block, perm) if c == 3 else block
    return merge_blocks(out, grid)


# ---------------------------------------------------------------------------
# Scoring: orientation algebra written out by hand, one seam at a time

# Dihedral-group inverse of each orientation code (reflections are involutions).
REFERENCE_ORIENT_INVERSE = (0, 3, 2, 1, 4, 5, 6, 7)


def reference_invert_orientation(code: int) -> int:
    if not 0 <= code < 8:
        raise ValueError(f"orientation code must be in [0, 8), got {code}")
    return REFERENCE_ORIENT_INVERSE[code]


def reference_compose_orientations(first: int, then: int) -> int:
    """Code of applying ``first`` and afterwards ``then`` (both in [0, 8))."""
    f1, r1 = first >= 4, first % 4
    f2, r2 = then >= 4, then % 4
    # then o first: flip parts xor; the later rotation acts mirrored when it
    # lands on an already-flipped block.
    r = (r1 + r2 * (-1 if f1 else 1)) % 4
    return (4 if f1 != f2 else 0) + r


def reference_pose_direction(g: int, delta: tuple[int, int]) -> tuple[int, int]:
    """Offset ``delta`` carried by pose ``g``: turned 90 degrees
    counter-clockwise ``g % 4`` times, then mirrored left to right iff
    ``g >= 4``."""
    dr, dc = delta
    for _ in range(g % 4):
        dr, dc = -dc, dr
    return (dr, -dc) if g >= 4 else (dr, dc)


def reference_pose_grid(cells: np.ndarray, g: int) -> np.ndarray:
    """A rows x cols array of cells laid out as pose ``g`` moves them."""
    turned = np.rot90(cells, g % 4)
    return turned[:, ::-1] if g >= 4 else turned


def reference_pose_codes(codes: np.ndarray, g: int) -> np.ndarray:
    """Each orientation code followed by pose ``g``."""
    return np.vectorize(lambda code: reference_compose_orientations(int(code), g))(codes)


def reference_correct_pairs(
    assembly: Assembly, gt: GroundTruth
) -> list[tuple[int, int, int, int]]:
    """Adjacent cell pairs realizing a true seam, as (r1, c1, r2, c2).

    A pair placed with relative offset ``delta`` and orientations (ou, ov) is
    correct when one global pose maps both placements onto the ground truth:
    the per-piece correction ``gt_orient o ou^-1`` must be the same code for
    both pieces and must carry ``delta`` onto the pieces' true relative
    offset.
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
                rho_u = reference_compose_orientations(
                    reference_invert_orientation(ou), int(t_orient[u])
                )
                rho_v = reference_compose_orientations(
                    reference_invert_orientation(ov), int(t_orient[v])
                )
                if rho_u != rho_v:
                    continue
                want = reference_pose_direction(rho_u, delta)
                have = (
                    int(t_cell[v][0] - t_cell[u][0]),
                    int(t_cell[v][1] - t_cell[u][1]),
                )
                if have == want:
                    good.append((r, c, r2, c2))
    return good


def reference_score_assembly(assembly: Assembly, puzzle: Puzzle) -> Metrics:
    """Direct, neighbor, and largest-component scores against the ground truth."""
    gt = puzzle.ground_truth
    if gt is None:
        raise ValueError("puzzle has no ground truth to score against")
    rows, cols = gt.piece_ids.shape
    n = rows * cols

    # direct comparison, maximized over whole-assembly poses that keep the shape
    best_direct = 0
    for g in range(8):
        ids_g = reference_pose_grid(assembly.piece_ids, g)
        if ids_g.shape != (rows, cols):
            continue
        ors_g = reference_pose_grid(reference_pose_codes(assembly.orientations, g), g)
        match = (ids_g == gt.piece_ids) & (ors_g == gt.orientations)
        best_direct = max(best_direct, int(match.sum()))
    dc = best_direct / n

    pairs = reference_correct_pairs(assembly, gt)
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
