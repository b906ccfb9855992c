"""The built-in codec against the system libjpeg, through ``libjpeg_harness.c``.

Both encoders use the Annex K quantisation tables scaled by the IJG quality
formula, the Annex K Huffman tables and no Huffman optimisation. Both decoders
replicate chroma (libjpeg without fancy upsampling). What still differs is
arithmetic: libjpeg's fixed-point colour transform, integer DCTs and 4:2:0
downsampling filter against the built-in float transforms and box average. So
a stream decodes to rasters within 2 levels of each other (1 on greyscale),
and at 256x256, q85, the two encoders' streams are within 1% in size.

The harness is compiled once per module into a temporary directory. The tests
skip only when there is no C compiler, or no libjpeg headers or library.
"""

import re
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from etckit import _jpeg
from etckit.synth import synth_natural_image

MODES = ("gray", "420", "444")
CASES = [
    (mode, size, quality)
    for mode in MODES
    for size, quality in [(s, q) for s in ((1, 1), (17, 9), (50, 37)) for q in (10, 50, 85, 100)]
    + [((256, 256), 85), ((513, 301), 100)]
]
# libjpeg's streams: one interleaved scan, and for colour one scan per component
LIBJPEG_STREAMS = [(*case, False) for case in CASES] + [(*case, True) for case in CASES if case[0] != "gray"]


def case_id(value):
    return f"{value[0]}x{value[1]}" if isinstance(value, tuple) else None


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler")
    exe = tmp_path_factory.mktemp("libjpeg") / "harness"
    source = Path(__file__).with_name("libjpeg_harness.c")
    done = subprocess.run([cc, "-O2", "-o", str(exe), str(source), "-ljpeg"], capture_output=True, text=True)
    if done.returncode and re.search(r"jpeglib\.h: No such file|cannot find -ljpeg|not found for -ljpeg", done.stderr):
        pytest.skip(f"no libjpeg: {done.stderr.strip()}")
    assert done.returncode == 0, done.stderr
    return exe


def image(mode, size, quality) -> np.ndarray:
    width, height = size
    return synth_natural_image(width, height, channels=1 if mode == "gray" else 3, seed=width + quality).data


def libjpeg_encode(harness, pixels, quality, mode, per_component=False) -> bytes:
    height, width, channels = pixels.shape
    argv = [harness, "enc", width, height, channels, quality, "420" if mode == "gray" else mode, int(per_component)]
    return subprocess.run(list(map(str, argv)), input=pixels.tobytes(), capture_output=True, check=True).stdout


def libjpeg_decode(harness, data, shape) -> tuple[np.ndarray, int]:
    """libjpeg's raster of a stream and the number of warnings it gave."""
    done = subprocess.run([str(harness), "dec"], input=data, capture_output=True, check=True)
    return np.frombuffer(done.stdout, np.uint8).reshape(shape), int(done.stderr)


def max_gap(a, b) -> int:
    return int(np.abs(a.astype(np.int16) - b).max())


@pytest.mark.parametrize("mode, size, quality", CASES, ids=case_id)
def test_libjpeg_reads_our_stream(harness, mode, size, quality):
    pixels = image(mode, size, quality)
    data = _jpeg.encode(pixels, quality, "420" if mode == "gray" else mode)
    theirs, warnings = libjpeg_decode(harness, data, pixels.shape)
    assert warnings == 0
    assert max_gap(theirs, _jpeg.decode(data)) <= (1 if mode == "gray" else 2)


@pytest.mark.parametrize("mode, size, quality, per_component", LIBJPEG_STREAMS, ids=case_id)
def test_we_read_libjpeg_stream(harness, mode, size, quality, per_component):
    pixels = image(mode, size, quality)
    data = libjpeg_encode(harness, pixels, quality, mode, per_component)
    assert data.count(b"\xff\xda") == (pixels.shape[2] if per_component else 1)
    theirs, _ = libjpeg_decode(harness, data, pixels.shape)
    assert max_gap(theirs, _jpeg.decode(data)) <= (1 if mode == "gray" else 2)


@pytest.mark.parametrize("mode", MODES)
def test_stream_size_matches_libjpeg(harness, mode):
    # small images pay more for rounding (up to +7% at 50x37, 4:2:0), and q100
    # for the float transforms (down to -18%), so only this case is bounded
    pixels = image(mode, (256, 256), 85)
    ours = _jpeg.encode(pixels, 85, "420" if mode == "gray" else mode)
    theirs = libjpeg_encode(harness, pixels, 85, mode)
    assert abs(len(ours) / len(theirs) - 1) <= 0.01
