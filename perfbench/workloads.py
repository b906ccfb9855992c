"""The benchmark's four closed-loop workloads: inputs, set-up, one op, checks.

Each workload has three parts:

* ``make_inputs(seed)`` draws every random input from the seed through
  ``etckit.synth`` and numpy. It runs in a helper process, so the memory it
  takes never shows in the workload process's peak RSS.
* ``setup(inputs, seed)`` turns the inputs into the state the ops use
  (PPM bytes, ciphertexts, template CSV text).
* ``op(state, i, tracer)`` runs one operation with a fresh key and returns its
  stage timings in ms and a ``verify`` callable. The runner calls ``verify``
  after the op, outside the timed region and with tracing off; it raises
  :class:`CheckFailed` when an output is wrong.

Ops call etckit through module attributes (``cipher.encrypt(...)``), so the
traced run can wrap them without any change to the package.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from etckit import attack, cipher, cli, images, synth, templates
from etckit.keystream import MasterKey

# Salts that keep the streams drawn from one workload seed independent.
_SALT_IMAGE = 1
_SALT_KEY = 2
_SALT_TEMPLATES = 3


class CheckFailed(Exception):
    """An output of the program is wrong."""


def derive(seed: int, *salt: int) -> int:
    """A 64-bit value that depends only on ``seed`` and ``salt``."""
    return int(np.random.SeedSequence([seed, *salt]).generate_state(1, np.uint64)[0])


def op_key(seed: int, i: int) -> MasterKey:
    """The fresh key of op ``i`` (one key per image, as the README recommends)."""
    return MasterKey(derive(seed, _SALT_KEY, i))


def _ms(t0: float, t1: float) -> float:
    return (t1 - t0) * 1e3


# ---------------------------------------------------------------------------
# Set-up gates shared by every workload


CANARY_KEY = MasterKey(0x0123456789ABCDEF)
# scheme -> (steps, SHA-256 of save_ppm(ciphertext)) for canary_image() under
# CANARY_KEY. The digests pin ciphertexts bit for bit, independent of the
# workload seed, so a keystream rewrite that still round-trips but changes
# ciphertexts fails set-up.
CANARIES = {
    cipher.SCHEME_COLOR: (
        "srnc",
        "a99c5eaf04b1a97909b1c30fe37afe150c3a6a94694cddc79b294bda2f8cf22d",
    ),
    cipher.SCHEME_GRAYSCALE: (
        "srn",
        "16527f9c4ff79e9565cb834d307b3d626d031c330f3ca92ac7d1c1691462e4cb",
    ),
}


def canary_image() -> images.ImageBuffer:
    """128x96 RGB test pattern from integer arithmetic alone (no RNG, no FFT)."""
    y, x, c = np.ogrid[:96, :128, :3]
    return images.ImageBuffer(((x * 7 + y * 13 + c * 101 + (x * y) % 251) % 256).astype(np.uint8))


def check_canaries() -> None:
    img = canary_image()
    for scheme, (steps, digest) in CANARIES.items():
        ct, _ = cipher.encrypt(img, CANARY_KEY, cipher.CipherConfig(scheme=scheme, steps=steps))
        got = hashlib.sha256(images.save_ppm(ct)).hexdigest()
        if got != digest:
            raise CheckFailed(f"{scheme} canary ciphertext changed: sha256 {got}, expected {digest}")


def cli_smoke(workdir: Path) -> None:
    """One ``etckit encrypt``/``decrypt`` run per scheme through files in ``workdir``."""
    plain = workdir / "plain.ppm"
    plain.write_bytes(images.save_ppm(canary_image()))
    key = CANARY_KEY.to_hex()
    for scheme in ("color", "gray"):
        ct = workdir / f"{scheme}.ppm"
        back = workdir / f"{scheme}-back.ppm"
        for argv in (
            ["encrypt", str(plain), "--out", str(ct), "--key", key, "--scheme", scheme],
            ["decrypt", str(ct), "--out", str(back), "--key", key],
        ):
            code = cli.main(argv)
            if code != 0:
                raise CheckFailed(f"etckit {argv[0]} ({scheme} scheme) exited {code}")
        if back.read_bytes() != plain.read_bytes():
            raise CheckFailed(f"etckit encrypt/decrypt ({scheme} scheme) did not reproduce the input")


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class _CipherState:
    seed: int
    plain: images.ImageBuffer
    plain_ppm: bytes
    layout: np.ndarray  # the plaintext in the ciphertext's layout (plane-stacked for gray)


class CipherRoundTrip:
    """load_ppm -> encrypt -> save_ppm -> sidecar text -> load_ppm -> decrypt."""

    def __init__(self, name: str, size: int, scheme: str, steps: str):
        self.name = name
        self.size = size
        self.cfg = cipher.CipherConfig(scheme=scheme, steps=steps)

    def make_inputs(self, seed: int) -> dict:
        img = synth.synth_natural_image(self.size, self.size, derive(seed, _SALT_IMAGE))
        return {"plain": img.data}

    def setup(self, inputs: dict, seed: int) -> _CipherState:
        img = images.ImageBuffer(inputs["plain"])
        layout = cipher.stack_planes(img) if self.cfg.scheme == cipher.SCHEME_GRAYSCALE else img
        return _CipherState(seed, img, images.save_ppm(img), layout.data)

    def op(self, st: _CipherState, i: int, tracer):
        key = op_key(st.seed, i)
        t0 = perf_counter()
        ct, sidecar = cipher.encrypt(images.load_ppm(st.plain_ppm), key, self.cfg)
        ct_ppm = images.save_ppm(ct)
        meta = sidecar.to_text()
        t1 = perf_counter()
        back = cipher.decrypt(images.load_ppm(ct_ppm), key, cipher.CipherSidecar.from_text(meta))
        t2 = perf_counter()

        def verify():
            if back != st.plain:
                raise CheckFailed("decrypt(encrypt(x)) is not bit-exact")
            if ct.data.shape == st.layout.shape and np.array_equal(ct.data, st.layout):
                raise CheckFailed("ciphertext equals the plaintext")

        return {"op_ms": _ms(t0, t2), "encrypt_ms": _ms(t0, t1), "decrypt_ms": _ms(t1, t2)}, verify


@dataclass
class _AttackCase:
    plain: images.ImageBuffer
    key: MasterKey
    ciphertexts: dict  # label -> ImageBuffer


class AttackPair:
    """Two 256-piece jigsaw attacks per op: steps ``s`` without orientation
    search and steps ``srnc`` with it, each scored against appearance-based
    ground truth."""

    name = "attack-256"
    size = 512
    block = 32
    pool = 8  # ciphertexts made in set-up; op i attacks case i % pool
    memory_probe = True  # the traced run adds one op that takes tracemalloc peaks
    configs = (
        ("s", cipher.CipherConfig(steps="s", block_size=32), False),
        ("srnc", cipher.CipherConfig(steps="srnc", block_size=32), True),
    )

    def make_inputs(self, seed: int) -> dict:
        plains = [
            synth.synth_natural_image(self.size, self.size, derive(seed, _SALT_IMAGE, j)).data
            for j in range(self.pool)
        ]
        return {"plains": np.stack(plains)}

    def setup(self, inputs: dict, seed: int) -> list[_AttackCase]:
        cases = []
        for j, arr in enumerate(inputs["plains"]):
            plain = images.ImageBuffer(arr)
            key = op_key(seed, j)
            cts = {label: cipher.encrypt(plain, key, cfg)[0] for label, cfg, _ in self.configs}
            cases.append(_AttackCase(plain, key, cts))
        return cases

    def op(self, cases: list[_AttackCase], i: int, tracer):
        case = cases[i % len(cases)]
        solved = {}
        t0 = perf_counter()
        for label, _, search in self.configs:
            tracer.tag = label
            puzzle = attack.Puzzle.from_image(case.ciphertexts[label], self.block)
            gt = attack.ground_truth_from_plain(case.plain, puzzle)
            puzzle = attack.Puzzle(puzzle.pieces, puzzle.grid, gt)
            assembly = attack.greedy_assemble(puzzle, orientation_search=search)
            solved[label] = (puzzle.grid, gt, attack.score_assembly(assembly, puzzle))
        tracer.tag = None
        t1 = perf_counter()

        def verify():
            for label, cfg, _ in self.configs:
                grid, gt, _ = solved[label]
                want = attack.ground_truth_from_key(case.key, cfg, grid)
                if not (
                    np.array_equal(gt.piece_ids, want.piece_ids)
                    and np.array_equal(gt.orientations, want.orientations)
                ):
                    raise CheckFailed(f"{label}: ground_truth_from_plain differs from ground_truth_from_key")

        return {
            "op_ms": _ms(t0, t1),
            "nc_s": solved["s"][2].nc,
            "nc_srnc": solved["srnc"][2].nc,
        }, verify


@dataclass
class _TemplateSet:
    csv: str
    plain: list  # the parsed plain templates
    expected: list[int]  # plain-domain decisions for the queries


class ProtectClients:
    """One client per op: parse 32 templates (d=128), protect them with a fresh
    key, serialise, parse back as protected, enroll 24 and classify 8."""

    name = "protect-128"
    dim = 128
    count = 32
    enrolled = 24
    classes = 4
    pool = 16  # template sets made in set-up; op i uses set i % pool

    def make_inputs(self, seed: int) -> dict:
        # Gaussian clusters as in scripts/run_template_experiment.py
        rng = np.random.default_rng(derive(seed, _SALT_TEMPLATES))
        centers = rng.standard_normal((self.pool, self.classes, self.dim)) * 5.0
        labels = np.arange(self.count) % self.classes
        noise = rng.standard_normal((self.pool, self.count, self.dim))
        return {"values": centers[:, labels] + noise}

    def setup(self, inputs: dict, seed: int) -> dict:
        labels = np.arange(self.count) % self.classes
        sets = []
        for values in inputs["values"]:
            plain = [
                templates.Template(v, client_id=k, label=int(labels[k])) for k, v in enumerate(values)
            ]
            model = templates.enroll(plain[: self.enrolled])
            expected = [templates.classify(t, model)[0] for t in plain[self.enrolled :]]
            sets.append(_TemplateSet(templates.format_template_csv(plain), plain, expected))
        return {"seed": seed, "sets": sets}

    def op(self, st: dict, i: int, tracer):
        tset = st["sets"][i % len(st["sets"])]
        key = op_key(st["seed"], i)
        t0 = perf_counter()
        parsed = templates.parse_template_csv(tset.csv)
        protected = [templates.protect_template(t, key) for t in parsed]
        text = templates.format_template_csv(protected)
        back = templates.parse_template_csv(text, protected=True)
        model = templates.enroll(back[: self.enrolled])
        decisions = [templates.classify(q, model)[0] for q in back[self.enrolled :]]
        t1 = perf_counter()

        def verify():
            q = templates.orthogonal_matrix(key, self.dim)
            err = float(np.linalg.norm(q.T @ q - np.eye(self.dim)))
            if not err < 1e-9:
                raise CheckFailed(f"||Q^T Q - I|| = {err:.3e}, expected < 1e-9")
            for t, p, b in zip(tset.plain, protected, back):
                n_plain = float(np.linalg.norm(t.values))
                if abs(float(np.linalg.norm(p.values)) - n_plain) > 1e-9 * max(1.0, n_plain):
                    raise CheckFailed(f"client {t.client_id}: protection changed the template norm")
                if not np.array_equal(p.values, b.values):
                    raise CheckFailed(f"client {t.client_id}: protected CSV did not round-trip")
            if decisions != tset.expected:
                raise CheckFailed(f"protected decisions {decisions} != plain decisions {tset.expected}")

        return {"op_ms": _ms(t0, t1)}, verify


WORKLOADS = {
    w.name: w
    for w in (
        CipherRoundTrip("cipher-gray-2048", 2048, cipher.SCHEME_GRAYSCALE, "srn"),
        CipherRoundTrip("cipher-color-512", 512, cipher.SCHEME_COLOR, "srnc"),
        AttackPair(),
        ProtectClients(),
    )
}
