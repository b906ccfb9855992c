#!/usr/bin/env python3
"""etckit benchmark: closed-loop workloads timed end to end or per layer.

Run from the repository root:

    python3 perfbench/run.py --workload cipher-gray-2048 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client, one thread: each op starts when the previous one returns. The
run sets up its workload three times (``setup_s`` is the median), runs one
untimed warm-up op, then measures ops for ``--seconds``. Every op uses a
fresh key and its outputs are checked; a wrong output counts as a failed op.

``--trace 0`` reports the end-to-end metrics, with op times in units of a
reference kernel timed alongside the ops (``speed.py``); ``--trace 1``
alternates untraced and traced ops and reports the per-layer metrics of the
traced ones (spans are written to ``.perfbench_out/``). The next-to-last stdout line is
a report with machine facts, sample counts and the workload's own figures;
the last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--workload all`` runs every workload in its own process.
"""

import os

# Single-threaded by design: pin BLAS/OpenMP pools before numpy is imported.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 3
INPUTS_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 900


def _import_etckit():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "etckit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no etckit sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import etckit

    if not Path(etckit.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported etckit from {etckit.__file__}, not from {SRC}")


_import_etckit()

import numpy as np  # noqa: E402

import layers  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, CheckFailed, check_canaries, cli_smoke  # noqa: E402


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    import importlib.util

    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pillow": importlib.util.find_spec("PIL") is not None,
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ[v] for v in _THREAD_VARS},
    }


def _percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value, unit, ops=None):
    out = {"value": value, "unit": unit}
    if ops is not None:
        out["ops"] = ops
    return out


def _make_inputs(workload, seed: int, workdir: Path) -> dict:
    """Draw the workload's inputs in a helper process and load them here."""
    path = workdir / "inputs.npz"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--make-inputs", str(path),
           "--workload", workload.name, "--seed", str(seed)]
    subprocess.run(cmd, check=True, timeout=INPUTS_TIMEOUT_S)
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def set_up(workload, seed: int):
    """Set up ``SETUP_RUNS`` times; return the last state and every duration."""
    OUT.mkdir(exist_ok=True)
    state, times = None, []
    for _ in range(SETUP_RUNS):
        state = None  # drop the previous set-up before timing the next
        t0 = perf_counter()
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            check_canaries()
            cli_smoke(Path(tmp))
            state = workload.setup(_make_inputs(workload, seed, Path(tmp)), seed)
        times.append(perf_counter() - t0)
    return state, times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    facts = machine_facts()
    try:
        state, setup_times = set_up(workload, seed)
    except (CheckFailed, subprocess.SubprocessError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1

    tracer = layers.Tracer()
    probe = SpeedProbe()
    records = {}  # op index -> stage timings and wall window, for ops whose checks passed
    traced_ops = []
    attempted = failed = 0

    def one_op(i: int, traced: bool, probe_memory: bool = False) -> None:
        nonlocal attempted, failed
        attempted += 1
        if traced:
            tracer.op = i
            tracer.install()
        try:
            w0 = perf_counter()
            timings, verify = workload.op(state, i, tracer)
            timings["window"] = (w0, perf_counter())
        except Exception:  # a failing op is counted and the loop goes on
            failed += 1
            traceback.print_exc()
            return
        finally:
            tracer.uninstall()
        try:
            verify()
        except CheckFailed as exc:
            failed += 1
            print(f"perfbench: op {i}: {exc}", file=sys.stderr)
            return
        if probe_memory:
            return
        records[i] = timings
        if traced:
            traced_ops.append(i)

    one_op(0, False)  # warm-up: lazy imports and first-call costs, never timed
    records.clear()
    if not trace:
        probe.start()
    i = 1
    deadline = perf_counter() + seconds
    try:
        while True:
            one_op(i, trace and i % 2 == 0)
            i += 1
            if perf_counter() >= deadline:
                break
    finally:
        probe.stop()

    if trace and getattr(workload, "memory_probe", False):
        tracer.memory = True  # one more op for tracemalloc peaks; its times are not used
        one_op(i, True, probe_memory=True)

    if not records:
        print("perfbench: every op failed", file=sys.stderr)
        return 1

    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": facts,
        "setup_runs_s": setup_times,
        "warmup_ops": 1,
        "error_rate": _metric(failed / attempted, "failed/attempted", attempted),
    }
    if trace:
        traced = [records[j]["op_ms"] for j in traced_ops]
        untraced = [r["op_ms"] for j, r in records.items() if j not in traced_ops]
        overhead = (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0 \
            if traced and untraced else 0.0
        metrics = layers.per_layer_metrics(tracer, traced_ops, overhead)
        report["traced_ops"] = len(traced_ops)
        report["untraced_ops"] = len(untraced)
        spans_path = OUT / f"spans-{name}-seed{seed}.json"
        spans_path.write_text(json.dumps(tracer.dump()))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        measured = list(records.values())
        n = len(measured)
        op_ms, op_ref = [], []
        for r in measured:
            kernel_s, inside_s = probe.window(*r["window"])
            op_ms.append(r["op_ms"] - inside_s * 1e3)  # without the probe's own time
            op_ref.append(op_ms[-1] / (kernel_s * 1e3))
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "ops_per_kref": _metric(n / (sum(op_ref) / 1e3), "ops/kref"),
            "op_ref_p50": _metric(statistics.median(op_ref), "ref"),
            "op_ref_p90": _metric(_percentile(op_ref, 90), "ref"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        figures = {k: dict(v, ops=n) for k, v in metrics.items() if k != "setup_s"}
        figures["setup_s"] = dict(metrics["setup_s"], runs=len(setup_times))
        figures["ops_per_s"] = _metric(n / (sum(op_ms) / 1e3), "ops/s", n)
        figures["op_ms_p50"] = _metric(statistics.median(op_ms), "ms", n)
        figures["op_ms_p90"] = _metric(_percentile(op_ms, 90), "ms", n)
        figures["op_ms_min"] = _metric(min(op_ms), "ms", n)
        figures["op_ms_max"] = _metric(max(op_ms), "ms", n)
        for stage in ("encrypt_ms", "decrypt_ms"):
            if stage in measured[0]:
                figures[f"{stage}_p50"] = _metric(statistics.median(r[stage] for r in measured), "ms", n)
        if "nc_s" in measured[0]:
            figures["attack_nc_scramble"] = _metric(statistics.fmean(r["nc_s"] for r in measured), "Nc", n)
            figures["attack_nc_srnc"] = _metric(statistics.fmean(r["nc_srnc"] for r in measured), "Nc", n)
        report["figures"] = figures
        report["ref_kernel_ms"] = _metric(statistics.median(probe.durations) * 1e3, "ms",
                                          len(probe.durations))

    _check_declared(metrics, "per_layer" if trace else "end_to_end")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}}))
    return 0


def _check_declared(metrics: dict, section: str) -> None:
    """The metrics must be exactly those BENCHMARK.json declares, with its units."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in metrics.items()}
    if want != got:
        raise SystemExit(f"perfbench: {section} metrics {got} differ from BENCHMARK.json {want}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKLOAD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-inputs", metavar="NPZ", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    if args.make_inputs:
        np.savez(args.make_inputs, **WORKLOADS[args.workload].make_inputs(args.seed))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
