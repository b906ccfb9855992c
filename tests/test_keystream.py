"""Keystream tests against an independent straight-line oracle.

The golden vectors were produced once by a separate minimal implementation
(no shared code with the package) and are frozen here as literals.
"""

import ast
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etckit import cipher, keystream
from etckit.attack import Puzzle, ground_truth_from_key
from etckit.cipher import STEP_ORDER, keyspace_bits
from etckit.keystream import (
    MASK64,
    TAG_NEGPOS,
    TAG_ROTATE_FLIP,
    TAG_SCRAMBLE,
    MasterKey,
    derive_step_seed,
    draws,
    format_key_file,
    gen_permutation,
    gen_symbols,
    parse_key_file,
    resolve_swaps,
    splitmix_next,
)
from etckit.synth import synth_natural_image

# first four outputs for seeds 0, 1, 2**64-1 (independent oracle, frozen)
GOLDEN = {
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC],
    1: [0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E, 0x71C18690EE42C90B],
    MASK64: [0xE4D971771B652C20, 0xE99FF867DBF682C9, 0x382FF84CB27281E9, 0x6D1DB36CCBA982D2],
}


def _reference_stream(seed, count):
    """Straight-line re-statement of the generator, kept deliberately separate
    from the implementation under test."""
    outs = []
    state = seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        outs.append(z ^ (z >> 31))
    return outs


def _scalar_draws(seed, n):
    state, outs = seed, []
    for _ in range(n):
        state, out = splitmix_next(state)
        outs.append(out)
    return outs


def test_golden_vectors():
    for seed, want in GOLDEN.items():
        state, outs = seed, []
        for _ in range(4):
            state, out = splitmix_next(state)
            outs.append(out)
        assert outs == want


def test_golden_vectors_match_reference():
    for seed in (0, 1, MASK64, 42, 0xDEADBEEF):
        state, outs = seed, []
        for _ in range(8):
            state, out = splitmix_next(state)
            outs.append(out)
        assert outs == _reference_stream(seed, 8)


def test_outputs_are_64_bit():
    state = 0x123
    for _ in range(100):
        state, out = splitmix_next(state)
        assert 0 <= out <= MASK64
        assert 0 <= state <= MASK64


def test_step_stream_matches_splitmix():
    assert draws(9, 5).tolist() == _scalar_draws(9, 5)


def test_derive_step_seed_tags_differ():
    key = MasterKey(1234)
    seeds = {derive_step_seed(key, t) for t in (TAG_SCRAMBLE, TAG_ROTATE_FLIP, TAG_NEGPOS)}
    assert len(seeds) == 3
    assert derive_step_seed(key, TAG_SCRAMBLE) == derive_step_seed(key, TAG_SCRAMBLE)


def test_gen_permutation_hand_executed():
    # Fisher-Yates, seed 42, n=4, worked by hand from the frozen draws:
    # draws mod (i+1) for i = 3, 2, 1 give j = 1, 1, 0 -> [2, 0, 3, 1]
    assert gen_permutation(42, 4).tolist() == [2, 0, 3, 1]


def test_gen_permutation_is_permutation():
    for seed in range(20):
        perm = gen_permutation(seed, 12).tolist()
        assert sorted(perm) == list(range(12))


def test_gen_permutation_trivial_sizes():
    assert gen_permutation(5, 1).tolist() == [0]
    assert gen_permutation(5, 0).tolist() == []


def test_gen_symbols_frozen():
    assert gen_symbols(42, 8, 8).tolist() == [5, 3, 2, 4, 2, 6, 5, 4]
    assert gen_symbols(42, 4, 6).tolist() == [1, 1, 0, 0]


def test_gen_symbols_range():
    for sym in gen_symbols(3, 500, 6):
        assert 0 <= sym < 6


@given(st.integers(min_value=0, max_value=MASK64))
def test_streams_deterministic(seed):
    assert draws(seed, 3).tolist() == _scalar_draws(seed, 3)


def test_master_key_validation():
    with pytest.raises(ValueError):
        MasterKey(-1)
    with pytest.raises(ValueError):
        MasterKey(1 << 64)
    assert MasterKey(MASK64).seed == MASK64


def test_key_hex_round_trip():
    key = MasterKey(0x0123456789ABCDEF)
    assert key.to_hex() == "0123456789abcdef"
    assert MasterKey.from_hex(key.to_hex()) == key
    with pytest.raises(ValueError):
        MasterKey.from_hex("0123")
    with pytest.raises(ValueError):
        MasterKey.from_hex("0123456789ABCDEF")  # uppercase rejected


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=4), st.binary(max_size=20), st.booleans())
def test_fuzzed_key_file_parses_or_raises_value_error(head, tail, keyed):
    raw = head + (b"00000000000000ab" if keyed else b"") + tail
    try:
        key = parse_key_file(raw)
    except ValueError:
        return
    assert parse_key_file(format_key_file(key)) == key


def test_key_file_round_trip():
    key = MasterKey(77)
    assert parse_key_file(format_key_file(key)) == key


def test_keyspace_bits_scramble_factorial():
    assert keyspace_bits(4, "s") == pytest.approx(math.log2(24), abs=1e-12)
    assert keyspace_bits(1, "s") == 0.0


def test_keyspace_bits_all_steps():
    # 4 blocks, all steps: 4! * 8^4 * 2^4 * 6^4 = 2,038,431,744
    assert keyspace_bits(4, "srnc") == pytest.approx(math.log2(2_038_431_744), abs=1e-9)


def test_keyspace_bits_additivity():
    total = keyspace_bits(16, "srnc")
    parts = (
        keyspace_bits(16, "s")
        + keyspace_bits(16, "r")
        + keyspace_bits(16, "n")
        + keyspace_bits(16, "c")
    )
    assert total == pytest.approx(parts, rel=1e-12)


def test_keyspace_color_shuffle_needs_color_scheme():
    with pytest.raises(ValueError):
        keyspace_bits(4, "c", scheme="grayscale_based")
    for scheme in ("gray", "bogus"):  # not a scheme at all
        with pytest.raises(ValueError):
            keyspace_bits(4, "s", scheme=scheme)


# ---------------------------------------------------------------------------
# Vectorised draws against the scalar loops they replace

_GAMMA = 0x9E3779B97F4A7C15
# 0 and MASK64 are the extremes; 2**64 - gamma wraps the state to 0 on the first draw
EDGE_SEEDS = (0, MASK64, (1 << 64) - _GAMMA)
ALPHABETS = (1, 2, 6, 8, 1 << 32)


def _oracle_permutation(seed, n):
    state, perm = seed, list(range(n))
    for i in range(n - 1, 0, -1):
        state, draw = splitmix_next(state)
        j = draw % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _oracle_symbols(seed, n, alphabet):
    state, out = seed, []
    for _ in range(n):
        state, draw = splitmix_next(state)
        out.append(draw % alphabet)
    return out


_seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(min_value=0, max_value=MASK64))
_sizes = st.integers(min_value=0, max_value=5000)


@settings(max_examples=40, deadline=None)
@given(_seeds, _sizes)
def test_gen_permutation_matches_scalar_oracle(seed, n):
    assert gen_permutation(seed, n).tolist() == _oracle_permutation(seed, n)


@settings(max_examples=40, deadline=None)
@given(_seeds, _sizes, st.one_of(st.sampled_from(ALPHABETS),
                                 st.integers(min_value=1, max_value=1 << 32)))
def test_gen_symbols_matches_scalar_oracle(seed, n, alphabet):
    assert gen_symbols(seed, n, alphabet).tolist() == _oracle_symbols(seed, n, alphabet)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_edge_seeds_match_oracle(seed):
    # a size well above the hypothesis range, at each edge seed
    n = 20000
    assert gen_permutation(seed, n).tolist() == _oracle_permutation(seed, n)
    for alphabet in ALPHABETS:
        assert gen_symbols(seed, n, alphabet).tolist() == _oracle_symbols(seed, n, alphabet)


@pytest.mark.parametrize("seed", EDGE_SEEDS + (42,))
@pytest.mark.parametrize("n", [0, 1, 7])
def test_next_u64_array_matches_scalar_draws(seed, n):
    got = draws(seed, n)
    assert got.dtype == np.uint64
    assert got.tolist() == _scalar_draws(seed, n)
    assert draws(seed, n + 1)[:n].tolist() == got.tolist()  # a longer run extends it


def test_next_u64_array_rejects_negative():
    with pytest.raises(ValueError):
        draws(1, -1)


@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("alphabet", [0, -2, (1 << 32) + 1])
def test_gen_symbols_rejects_bad_alphabet_for_any_n(n, alphabet):
    with pytest.raises(ValueError):
        gen_symbols(1, n, alphabet)


def test_keystream_holds_no_step_vocabulary():
    # the dependency runs one way: cipher.STEPS names the steps and takes their
    # stream tags from keystream, which imports nothing from the package
    tree = ast.parse(Path(keystream.__file__).read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert not [n for n in imports if isinstance(n, ast.ImportFrom) and n.level]
    modules = [a.name for n in imports if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module for n in imports if isinstance(n, ast.ImportFrom)]
    assert not [m for m in modules if m.split(".")[0] == "etckit"]
    assigned = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    assert not assigned & {"SCRAMBLE", "ROTATE_FLIP", "NEGPOS", "COLOR_SHUFFLE", "STEP_ORDER"}
    assert [(name, letter) for name, letter, *_ in cipher.STEPS] == list(zip(STEP_ORDER, "srnc"))
    # a stream is a seed and a count: no stateful generator class beside the key
    assert [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)] == ["MasterKey"]


# ---------------------------------------------------------------------------
# The loop-free Fisher-Yates against a literal swap loop


def _swap_loop(targets):
    perm = list(range(len(targets)))
    for t in range(len(targets) - 1, 0, -1):
        j = targets[t]
        perm[t], perm[j] = perm[j], perm[t]
    return perm


# target sequences that hashed draws practically never produce: every step
# swaps in place, every step hits position 0, and j_t = t-1, which chains
# each step's carry through all later ones (depth n)
TARGETS = {
    "in-place": lambda n: np.arange(n),
    "all-zero": lambda n: np.zeros(n, dtype=np.int64),
    "chain": lambda n: np.maximum(np.arange(n) - 1, 0),
    "random": lambda n: np.random.default_rng(n).integers(0, np.arange(1, n + 1)),
}


@pytest.mark.parametrize("kind", sorted(TARGETS))
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64, 1000])
def test_resolve_swaps_matches_swap_loop(kind, n):
    targets = TARGETS[kind](n).astype(np.int64)
    got = resolve_swaps(targets)
    assert got.dtype == np.int64
    assert got.tolist() == _swap_loop(targets.tolist())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1 << 20), max_size=300), st.integers(0, 3))
def test_resolve_swaps_matches_swap_loop_on_mixed_targets(raw, cap):
    # j_t = raw[t] mod (t+1), capped at `cap` for odd raw[t]: many steps then
    # share a few small targets, which makes long carry chains
    targets = [r % (t + 1) for t, r in enumerate(raw)]
    targets = [min(j, cap) if r & 1 else j for j, r in zip(targets, raw)]
    got = resolve_swaps(np.asarray(targets, dtype=np.int64))
    assert got.tolist() == _swap_loop(targets)


@pytest.mark.parametrize("n", [0, 1, 2, 196608])
def test_permutation_array_matches_scalar_oracle(n):
    got = gen_permutation(0xC0FFEE, n)
    assert got.dtype == np.int64
    assert got.tolist() == _oracle_permutation(0xC0FFEE, n)


# math.isqrt(2**63 - 1) == 3037000499: the packed sort keys j*n + t fit in int64
@pytest.mark.parametrize("n", [3_037_000_500, 1 << 32, 1 << 40])
def test_permutation_array_rejects_sizes_whose_keys_overflow(n):
    # the guard runs before any draw or array is made
    with pytest.raises(ValueError, match="n must be below"):
        gen_permutation(1, n)


@pytest.mark.parametrize("n", [0, 1, 37])
def test_step_draws_are_int64_arrays_equal_to_the_list_api(n):
    key = MasterKey(0xABCDEF)
    cfg = cipher.CipherConfig(steps="srnc")
    draws = cipher.step_draws(key, cfg, n)
    assert set(draws) == set(STEP_ORDER)
    for name, _, tag, alphabet in cipher.STEPS:
        seed = derive_step_seed(key, tag)
        want = gen_permutation(seed, n) if alphabet is None else gen_symbols(seed, n, alphabet)
        assert draws[name].dtype == np.int64
        assert draws[name].tolist() == want.tolist()


def test_library_draws_through_the_cipher_module_names(monkeypatch):
    # the benchmark's tracer times the keystream by wrapping
    # cipher.gen_permutation and cipher.gen_symbols and reads the draw count
    # from the second positional argument, so every draw must go through them.
    # One encrypt and decrypt under a key draws its schedule once, and the
    # ground truth of that ciphertext reuses it; the cache starts empty.
    cipher.key_schedule.cache_clear()
    calls = []
    for name in ("gen_permutation", "gen_symbols"):
        def counted(*args, _real=getattr(cipher, name), _name=name, **kwargs):
            calls.append((_name, args[1], kwargs))
            return _real(*args, **kwargs)
        monkeypatch.setattr(cipher, name, counted)
    img = synth_natural_image(64, 64, 3)
    key, cfg = MasterKey(7), cipher.CipherConfig(steps="srnc")
    ct, sidecar = cipher.encrypt(img, key, cfg)
    assert np.array_equal(cipher.decrypt(ct, key, sidecar).data, img.data)
    assert Counter(name for name, _, _ in calls) == {"gen_permutation": 1, "gen_symbols": 3}
    assert {(n, kw == {}) for _, n, kw in calls} == {(16, True)}
    calls.clear()
    grid = Puzzle.from_image(ct, cfg.block_size).grid
    ground_truth_from_key(key, cfg, grid)
    assert calls == []
    ground_truth_from_key(MasterKey(8), cfg, grid)
    assert Counter(name for name, _, _ in calls) == {"gen_permutation": 1, "gen_symbols": 3}
    assert {(n, kw == {}) for _, n, kw in calls} == {(16, True)}
