"""Per-layer tracing for the traced benchmark run.

Spans come from wrapping etckit functions at the module attributes through
which the package and the benchmark call them (for example
``etckit.cipher.step_draws``, which ``encrypt`` and ``decrypt`` look up at
call time). Nothing under ``src/`` changes. Wrappers are installed only
around traced ops and removed after them.

A span is (name, start, end, parent, op, tag, attrs). ``tag`` is the puzzle
label the attack workload is solving; ``attrs`` holds counts computed from
the arguments and results (draws, bytes, candidates). Spans stay in memory
and are written out when the run ends. A layer is the first part of a span
name; its self time is the span's duration minus its child spans.
"""

from __future__ import annotations

import statistics
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

import etckit.attack
import etckit.cipher
import etckit.images
import etckit.templates

LAYERS = ("keystream", "images", "cipher", "attack", "templates")
MIB = 1 << 20


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, tag, attrs]
        self.calls: Counter = Counter()  # (op, name) -> calls, for untimed counters
        self.errors: Counter = Counter()  # layer -> exceptions raised through its spans
        self.op = None
        self.tag = None
        self.memory = False  # take tracemalloc peaks (memory-probe op only)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def span(self, name, fn, attrs=None, pre=None):
        """Wrap ``fn`` in a span. ``pre()`` runs before the call and its value,
        the call's arguments and its result (None on error) go to ``attrs``,
        which returns a dict stored on the span."""
        layer = name.split(".")[0]

        def wrapper(*args, **kwargs):
            state = pre() if pre else None
            idx = len(self.spans)
            rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else None,
                   self.op, self.tag, None]
            self.spans.append(rec)
            self._stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
                if attrs:
                    rec[6] = attrs(state, args, kwargs, result)

        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` to count calls per op, without a span (it is called
        thousands of times per op)."""

        def wrapper(*args, **kwargs):
            self.calls[(self.op, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module, attr, make in _PATCHES:
            orig = getattr(module, attr)
            self._patched.append((module, attr, orig))
            setattr(module, attr, make(self, orig))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def dump(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p, "op": op, "tag": tag,
             "attrs": a}
            for n, s, e, p, op, tag, a in self.spans
        ]


# ---------------------------------------------------------------------------
# What is wrapped


def _draws_perm(_, args, kwargs, result):
    return {"draws": max(args[1] - 1, 0)}


def _draws_symbols(_, args, kwargs, result):
    return {"draws": args[1]}


def _draws_gaussian(_, args, kwargs, result):
    return {"draws": args[1] + args[1] % 2}


def _bytes_split(_, args, kwargs, result):
    return {"bytes": args[0].data.nbytes + (result[0].nbytes if result is not None else 0)}


def _bytes_merge(_, args, kwargs, result):
    return {"bytes": args[0].nbytes + (result.data.nbytes if result is not None else 0)}


def _bytes_load(_, args, kwargs, result):
    return {"bytes": len(args[0]) + (result.data.nbytes if result is not None else 0)}


def _bytes_save(_, args, kwargs, result):
    return {"bytes": args[0].data.nbytes + (len(result) if result is not None else 0)}


def _greedy(tracer, fn):
    # tracemalloc slows the solver several times over, so the peak is taken
    # only in the memory-probe op, whose times are not used.
    def pre():
        if tracer.memory:
            tracemalloc.start()

    def attrs(_, args, kwargs, result):
        search = kwargs.get("orientation_search", args[1] if len(args) > 1 else False)
        out = {"candidates": args[0].grid.n_blocks * (8 if search else 1)}
        if tracer.memory:
            out["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return out

    return tracer.span("attack.greedy_assemble", fn, attrs, pre)


def _orthogonal_misses():
    return etckit.templates._cached_orthogonal.cache_info().misses


def _protect_attrs(misses_before, args, kwargs, result):
    return {"miss": _orthogonal_misses() > misses_before}


def _span(name, attrs=None, pre=None):
    return lambda tracer, fn: tracer.span(name, fn, attrs, pre)


_C, _A, _I, _T = etckit.cipher, etckit.attack, etckit.images, etckit.templates
_PATCHES = [
    (_C, "gen_permutation", _span("keystream.gen_permutation", _draws_perm)),
    (_C, "gen_symbols", _span("keystream.gen_symbols", _draws_symbols)),
    (_T, "_gaussian_draws", _span("keystream.gaussian_draws", _draws_gaussian)),
    (_C, "encrypt", _span("cipher.encrypt")),
    (_C, "decrypt", _span("cipher.decrypt")),
    (_C, "step_draws", _span("cipher.step_draws")),
    (_A, "step_draws", _span("cipher.step_draws")),
    (_C, "stack_planes", _span("cipher.stack_planes")),
    (_C, "unstack_planes", _span("cipher.unstack_planes")),
    (_C, "split_blocks", _span("images.split_blocks", _bytes_split)),
    (_A, "split_blocks", _span("images.split_blocks", _bytes_split)),
    (_C, "merge_blocks", _span("images.merge_blocks", _bytes_merge)),
    (_I, "load_ppm", _span("images.load_ppm", _bytes_load)),
    (_I, "save_ppm", _span("images.save_ppm", _bytes_save)),
    (_A, "ground_truth_from_plain", _span("attack.ground_truth_from_plain")),
    (_A, "greedy_assemble", _greedy),
    (_A, "score_assembly", _span("attack.score_assembly")),
    (_A, "apply_orientation", lambda tracer, fn: tracer.counter("attack.apply_orientation", fn)),
    (_T, "parse_template_csv", _span("templates.parse_template_csv")),
    (_T, "format_template_csv", _span("templates.format_template_csv")),
    (_T, "protect_template", _span("templates.protect_template", _protect_attrs, _orthogonal_misses)),
    (_T, "enroll", _span("templates.enroll")),
    (_T, "classify", _span("templates.classify")),
]


# ---------------------------------------------------------------------------
# Per-layer metrics

# name -> unit; the order is the order of BENCHMARK.json's per_layer list.
PER_LAYER_UNITS = {
    "keystream.perm_ms": "ms",
    "keystream.symbols_ms": "ms",
    "keystream.gaussian_ms": "ms",
    "keystream.draws": "count",
    "keystream.ns_per_draw": "ns",
    "cipher.step_draws_ms": "ms",
    "cipher.stack_planes_ms": "ms",
    "cipher.unstack_planes_ms": "ms",
    "cipher.encrypt_self_ms": "ms",
    "cipher.decrypt_self_ms": "ms",
    "images.split_ms": "ms",
    "images.merge_ms": "ms",
    "images.load_ppm_ms": "ms",
    "images.save_ppm_ms": "ms",
    "images.bytes_moved": "bytes",
    "attack.ground_truth_plain_ms.s": "ms",
    "attack.ground_truth_plain_ms.srnc": "ms",
    "attack.greedy_ms.s": "ms",
    "attack.greedy_ms.srnc": "ms",
    "attack.score_ms": "ms",
    "attack.apply_orientation_calls": "count",
    "attack.candidates": "count",
    "attack.edge_table_mb": "MiB",
    "attack.peak_mb": "MiB",
    "templates.orthogonal_miss_ms": "ms",
    "templates.protect_hit_us": "us",
    "templates.cache_hit_ratio": "ratio",
    "templates.protect_calls": "count",
    "templates.csv_parse_ms": "ms",
    "templates.csv_format_ms": "ms",
    "templates.enroll_ms": "ms",
    "templates.classify_us": "us",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_pct": "%",
}


def _median(values) -> float:
    # 0.0 when the workload never enters the layer
    return float(statistics.median(values)) if values else 0.0


def per_layer_metrics(tracer: Tracer, traced_ops: list[int], overhead_pct: float) -> dict:
    """Per-call medians of span times and per-op medians of counts over
    ``traced_ops``; ``attack.peak_mb`` comes from the memory-probe op."""
    child_s = defaultdict(float)
    for _, start, end, parent, *_ in tracer.spans:
        if parent is not None:
            child_s[parent] += end - start
    timed = set(traced_ops)
    dur = defaultdict(list)  # (name, tag) -> [ms]; tag None holds every span of the name
    self_ms = defaultdict(list)  # name -> [ms]
    per_op = defaultdict(Counter)  # op -> summed span attributes, call counts, keystream seconds
    peaks = []
    for idx, (name, start, end, _, op, tag, attrs) in enumerate(tracer.spans):
        if attrs and "peak_bytes" in attrs:
            peaks.append(attrs["peak_bytes"] / MIB)
        if op not in timed:
            continue
        for key in {(name, None), (name, tag)}:
            dur[key].append((end - start) * 1e3)
        self_ms[name].append((end - start - child_s[idx]) * 1e3)
        for k, v in (attrs or {}).items():
            per_op[op][f"{name}.{k}"] += v
        if name.startswith("keystream.gen_"):
            per_op[op]["keystream.draw_s"] += end - start
    for (op, name), n in tracer.calls.items():
        per_op[op][name] += n
    ops = [per_op[op] for op in traced_ops]

    def ms(name, tag=None):
        return _median(dur[(name, tag)])

    def per_op_median(*keys):
        return _median([sum(c[k] for k in keys) for c in ops])

    draw_keys = ("keystream.gen_permutation.draws", "keystream.gen_symbols.draws")
    draws = sum(c[k] for c in ops for k in draw_keys)
    draw_s = sum(c["keystream.draw_s"] for c in ops)
    byte_keys = [f"images.{f}.bytes" for f in ("split_blocks", "merge_blocks", "load_ppm", "save_ppm")]
    # K of the op's larger puzzle: spans record K, and the two puzzles differ
    largest_k = [
        max((a["candidates"] for n, _, _, _, op, _, a in tracer.spans
             if n == "attack.greedy_assemble" and op == j), default=0)
        for j in traced_ops
    ]
    protect = [(e - s, a["miss"]) for n, s, e, _, op, _, a in tracer.spans
               if n == "templates.protect_template" and op in timed]
    miss = [d * 1e3 for d, m in protect if m]
    hit = [d * 1e6 for d, m in protect if not m]

    out = {
        "keystream.perm_ms": ms("keystream.gen_permutation"),
        "keystream.symbols_ms": ms("keystream.gen_symbols"),
        "keystream.gaussian_ms": ms("keystream.gaussian_draws"),
        "keystream.draws": per_op_median(*draw_keys),
        "keystream.ns_per_draw": draw_s / draws * 1e9 if draws else 0.0,
        "cipher.step_draws_ms": ms("cipher.step_draws"),
        "cipher.stack_planes_ms": ms("cipher.stack_planes"),
        "cipher.unstack_planes_ms": ms("cipher.unstack_planes"),
        "cipher.encrypt_self_ms": _median(self_ms["cipher.encrypt"]),
        "cipher.decrypt_self_ms": _median(self_ms["cipher.decrypt"]),
        "images.split_ms": ms("images.split_blocks"),
        "images.merge_ms": ms("images.merge_blocks"),
        "images.load_ppm_ms": ms("images.load_ppm"),
        "images.save_ppm_ms": ms("images.save_ppm"),
        "images.bytes_moved": per_op_median(*byte_keys),
        "attack.ground_truth_plain_ms.s": ms("attack.ground_truth_from_plain", "s"),
        "attack.ground_truth_plain_ms.srnc": ms("attack.ground_truth_from_plain", "srnc"),
        "attack.greedy_ms.s": ms("attack.greedy_assemble", "s"),
        "attack.greedy_ms.srnc": ms("attack.greedy_assemble", "srnc"),
        "attack.score_ms": ms("attack.score_assembly"),
        "attack.apply_orientation_calls": per_op_median("attack.apply_orientation"),
        "attack.candidates": _median(largest_k),
        "attack.edge_table_mb": _median([2 * k * k * 8 / MIB for k in largest_k]),
        "attack.peak_mb": max(peaks, default=0.0),
        "templates.orthogonal_miss_ms": _median(miss),
        "templates.protect_hit_us": _median(hit),
        "templates.cache_hit_ratio": len(hit) / len(protect) if protect else 0.0,
        "templates.protect_calls": len(protect) / len(traced_ops) if traced_ops else 0.0,
        "templates.csv_parse_ms": ms("templates.parse_template_csv"),
        "templates.csv_format_ms": ms("templates.format_template_csv"),
        "templates.enroll_ms": ms("templates.enroll"),
        "templates.classify_us": ms("templates.classify") * 1e3,
        **{f"{layer}.errors": tracer.errors[layer] for layer in LAYERS},
        "trace.overhead_pct": overhead_pct,
    }
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
