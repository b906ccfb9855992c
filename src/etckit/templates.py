"""Keyed isometric template protection and nearest-centroid classification.

A client extracts a feature vector (template) from each sample, multiplies it
by a secret orthogonal matrix derived from their key, and ships only the
protected vectors. Orthogonal maps preserve Euclidean geometry, so a server
holding no keys can still run distance-based learning on the protected
vectors and reach exactly the decisions it would have reached in the clear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .images import ImageBuffer, read_int
from .keystream import TAG_TEMPLATE, MasterKey, derive_step_seed, draws

_LUMA = (0.299, 0.587, 0.114)
_RANK_TOL = 1e-12
# Largest orthogonal-matrix build, in bytes: the draws, the QR workspace and
# the result peak at about 4.5 d x d float64 arrays.
MAX_MATRIX_BYTES = 2 << 30


@dataclass(frozen=True)
class _Vector:
    values: np.ndarray
    client_id: int
    label: int | None = None

    _kind: ClassVar[str]  # names the type in error messages

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError(f"{self._kind} values must form a non-empty 1-d vector")
        if not np.isfinite(vals).all():
            raise ValueError(f"{self._kind} values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.values.size


# Two sibling types, so a protected vector is never taken for a plain one.
@dataclass(frozen=True)
class Template(_Vector):
    _kind = "template"


@dataclass(frozen=True)
class ProtectedTemplate(_Vector):
    _kind = "protected"


@dataclass(frozen=True)
class CentroidModel:
    class_ids: tuple[int, ...]
    centroids: np.ndarray  # (n_classes, d)


def _grid_shape(d: int, height: int, width: int) -> tuple[int, int]:
    """Most nearly square (rows, cols) with rows*cols = d that fits the image."""
    feasible = [
        (a, d // a) for a in range(1, d + 1) if d % a == 0 and a <= height and d // a <= width
    ]
    if not feasible:
        raise ValueError(f"cannot partition a {height}x{width} image into {d} cells")
    def rank(pair):
        a, b = pair
        skew = abs(a - b)
        # prefer more rows on tall images, more cols on wide ones
        return (skew, -a if height >= width else a)
    return min(feasible, key=rank)


def extract_template(sample: ImageBuffer, d: int, client_id: int = 0,
                     label: int | None = None) -> Template:
    """Baseline extractor: mean intensity of each cell in a near-square grid
    of d cells over the grayscale image, scaled to [0, 1]."""
    if d < 1:
        raise ValueError("dimension must be positive")
    h, w = sample.height, sample.width
    if d > h * w:
        raise ValueError(f"dimension {d} exceeds pixel count {h * w}")
    data = sample.data.astype(np.float64)
    if sample.channels == 3:
        gray = data @ np.asarray(_LUMA)
    else:
        gray = data[:, :, 0]
    rows, cols = _grid_shape(d, h, w)
    row_bounds = [h * i // rows for i in range(rows + 1)]
    col_bounds = [w * j // cols for j in range(cols + 1)]
    values = np.empty(d)
    for i in range(rows):
        for j in range(cols):
            cell = gray[row_bounds[i]:row_bounds[i + 1], col_bounds[j]:col_bounds[j + 1]]
            values[i * cols + j] = cell.mean() / 255.0
    return Template(values, client_id, label)


def _gaussian_draws(seed: int, count: int) -> np.ndarray:
    """Standard normals via Box-Muller on ``count`` (rounded up to even) draws
    from ``seed``'s stream, each draw mapped to (0, 1] as (draw + 1) / 2**64."""
    raw = draws(seed, count + count % 2)
    raw += np.uint64(1)
    u = raw.astype(np.float64)
    u[raw == 0] = 2.0**64  # draw + 1 wrapped at 2**64
    u *= 2.0**-64
    r = np.sqrt(-2.0 * np.log(u[0::2]))
    theta = (2.0 * math.pi) * u[1::2]
    out = np.empty_like(u)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:count]


# Every caller protects a batch under one key, so one matrix is all the
# traffic reuses; a larger cache would only pin matrices of past keys, each up
# to MAX_MATRIX_BYTES / 4.5.
@lru_cache(maxsize=1)
def _cached_orthogonal(key: MasterKey, d: int) -> np.ndarray:
    if d < 1:
        raise ValueError("dimension must be positive")
    nbytes = 36 * d * d
    if nbytes > MAX_MATRIX_BYTES:
        raise ValueError(
            f"a {d} x {d} orthogonal matrix needs about {nbytes} bytes to build, "
            f"more than the limit of {MAX_MATRIX_BYTES} bytes"
        )
    tag = TAG_TEMPLATE
    while True:
        m = _gaussian_draws(derive_step_seed(key, tag), d * d).reshape(d, d)
        q, r = np.linalg.qr(m)
        if np.abs(np.diag(r)).min() >= _RANK_TOL:
            q *= np.where(np.diag(q) < 0, -1.0, 1.0)
            q.setflags(write=False)
            return q
        tag += 1


def orthogonal_matrix(key: MasterKey, d: int) -> np.ndarray:
    """Deterministic keyed orthogonal d x d matrix.

    Fills a matrix with keyed Gaussian draws row-major and takes the Q of its
    QR decomposition, flipping each column so its diagonal entry is
    non-negative. Up to rounding, this is the matrix that Gram-Schmidt on the
    columns, left to right, would give. A draw with some ``|R[j, j]|`` below
    the rank tolerance retries with the next derivation tag. The last matrix
    built is cached, for the (key, dimension) it was built for.
    """
    return _cached_orthogonal(key, d).copy()


def protect_template(t: Template, key: MasterKey) -> ProtectedTemplate:
    q = _cached_orthogonal(key, t.dim)
    return ProtectedTemplate(q @ t.values, t.client_id, t.label)


def enroll(templates: list[ProtectedTemplate]) -> CentroidModel:
    if not templates:
        raise ValueError("cannot enroll an empty template set")
    d = templates[0].dim
    groups: dict[int, list[np.ndarray]] = {}
    for t in templates:
        if t.label is None:
            raise ValueError("enrollment requires labeled templates")
        if t.dim != d:
            raise ValueError("all templates must share one dimension")
        groups.setdefault(t.label, []).append(t.values)
    if len(groups) < 2:
        raise ValueError("enrollment requires at least two classes")
    class_ids = tuple(sorted(groups))
    centroids = np.stack([np.mean(groups[cid], axis=0) for cid in class_ids])
    return CentroidModel(class_ids, centroids)


def classify(query: ProtectedTemplate, model: CentroidModel) -> tuple[int, float]:
    """Nearest centroid by Euclidean distance; ties go to the lowest class id."""
    if not model.class_ids:
        raise ValueError("model has no classes")
    if query.dim != model.centroids.shape[1]:
        raise ValueError("query dimension does not match the model")
    dists = np.linalg.norm(model.centroids - query.values[None, :], axis=1)
    idx = int(np.argmin(dists))  # first minimum = lowest class id (ids sorted)
    return model.class_ids[idx], float(dists[idx])


# ---------------------------------------------------------------------------
# CSV interchange


def format_template_csv(templates) -> str:
    """Serialize templates (plain or protected) with round-trip fidelity."""
    if not templates:
        raise ValueError("nothing to serialize")
    d = templates[0].dim
    header = "client_id,label," + ",".join(f"v{i}" for i in range(d))
    row = ",".join(["%.17g"] * d)  # one format over Python floats, not d numpy scalars
    lines = [header]
    for t in templates:
        if t.dim != d:
            raise ValueError("all templates must share one dimension")
        label = "" if t.label is None else str(t.label)
        lines.append(f"{t.client_id},{label}," + row % tuple(t.values.tolist()))
    return "\n".join(lines) + "\n"


def _read_values(rows: list[str]) -> np.ndarray | None:
    """The rows' comma-separated values as an (n, d) float64 array, read by
    numpy's C text reader, or None if it refuses any row.

    Each value reads to the same bits as ``float()`` would give; the reader
    refuses digit-group underscores and non-ASCII digits. ``comments=None``
    keeps ``#`` a plain character. The reader would skip an empty row and take
    ``\x1f`` around a value as whitespace, both of which ``float()`` refuses,
    so such rows are refused here and the row count is checked.
    """
    if "" in rows or any("\x1f" in r for r in rows):
        return None
    try:
        values = np.loadtxt(rows, delimiter=",", dtype=np.float64, ndmin=2, comments=None)
    except ValueError:
        return None
    return values if values.shape[0] == len(rows) else None


def _row_values(row: str) -> np.ndarray:
    """One row's values, or ValueError naming the first value the reader refuses."""
    values = _read_values([row])
    if values is None:
        field = next((f for f in row.split(",") if _read_values([f]) is None), row)
        raise ValueError(f"could not convert string to float: {field!r}")
    return values[0]


def parse_template_csv(text: str, protected: bool = False):
    """Parse the template CSV format; returns Template or ProtectedTemplate rows.
    A malformed row raises ``ValueError`` naming its 1-based line; of several,
    the first line wins."""
    lines = [(at, ln) for at, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("empty template CSV")
    header = lines[0][1].split(",")
    if header[:2] != ["client_id", "label"] or len(header) < 3:
        raise ValueError("template CSV must start with client_id,label,v0,...")
    d = len(header) - 2
    cls = ProtectedTemplate if protected else Template
    heads, tails = [], []
    refused = None  # the first row whose identity fields are malformed
    for at, ln in lines[1:]:
        fields = ln.split(",", 2)
        try:
            if ln.count(",") != d + 1:
                raise ValueError(f"row has {ln.count(',') + 1} fields, expected {d + 2}")
            heads.append((at, read_int(fields[0], "client_id"), read_int(fields[1], "label") if fields[1] else None))
        except ValueError as exc:
            refused = exc, at
            break
        tails.append(fields[2])
    # all value fields in one call; a refused batch is read again row by row
    # to name the first line at fault
    values = _read_values(tails) if tails else None
    out = []
    for i, (at, client_id, label) in enumerate(heads):
        try:
            row = values[i] if values is not None else _row_values(tails[i])
            out.append(cls(row, client_id, label))
        except ValueError as exc:
            raise ValueError(f"line {at}: {exc}") from exc
    if refused is not None:
        exc, at = refused
        raise ValueError(f"line {at}: {exc}") from exc
    return out
