"""Deterministic synthetic test images with natural-image statistics.

Benchmark content for the rate-distortion and solver experiments: a textured
luminance field with a power-law (roughly 1/f) amplitude spectrum plus a
large-scale illumination ramp and mild sensor-like noise, and smooth
low-amplitude chroma. That chroma profile matters: photographs carry most of
their detail in luminance, and chroma subsampling is only near-lossless for
block ciphers when block borders do not jump in chroma.

Working set: a colour image peaks at about 4.5 height x width float64 planes
(luminance, the first chroma field, half a plane of spectral gain and two
planes inside the second chroma field's inverse FFT), a gray one at about 3.
"""

from __future__ import annotations

import numpy as np

from .images import ImageBuffer


def _spectral_field(rng: np.random.Generator, gain: np.ndarray, width: int) -> np.ndarray:
    """Real zero-mean unit-variance field ``width`` pixels wide whose amplitude
    spectrum is ``gain``, given on the ``(height, width // 2 + 1)`` rfft grid."""
    spectrum = np.empty(gain.shape, np.complex128)
    # numpy's complex / real multiplies by the reciprocal, so this is bit-exact; / f**alpha is not
    draw = rng.standard_normal(gain.shape)
    np.multiply(draw, gain, out=spectrum.real)
    np.multiply(rng.standard_normal(out=draw), gain, out=spectrum.imag)
    del draw
    # irfft2 as its two passes, dropping each pass's input, so two planes are live at most
    spectrum = np.fft.ifft(spectrum, axis=0)
    field = np.fft.irfft(spectrum, n=width, axis=1)
    del spectrum
    field -= field.mean()
    std = field.std()
    if std > 1e-12:
        field /= std
    return field


def synth_natural_image(
    width: int, height: int, seed: int, channels: int = 3
) -> ImageBuffer:
    """Generate one pseudo-natural test image, reproducible from ``seed``."""
    if channels not in (1, 3):
        raise ValueError(f"channels must be 1 or 3, got {channels}")
    for name, value in (("width", width), ("height", height)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    rng = np.random.default_rng(seed)
    f = np.hypot(np.fft.fftfreq(height)[:, None], np.fft.rfftfreq(width)[None, :])
    f += 1.0 / max(height, width)

    lum = _spectral_field(rng, 1.0 / f**1.5, width) * 45.0

    # large-scale illumination ramp with a random direction
    yy = np.linspace(0.0, 1.0, height)[:, None]
    xx = np.linspace(0.0, 1.0, width)[None, :]
    ga, gb = rng.uniform(-25.0, 25.0, size=2)
    lum += ga * yy + gb * xx + 128.0
    lum += rng.standard_normal((height, width)) * 2.0

    if channels == 1:
        return ImageBuffer(np.clip(lum, 0, 255, out=lum).astype(np.uint8))

    gain = 1.0 / f**2.5  # both chroma fields share alpha = 2.5
    del f
    c1 = _spectral_field(rng, gain, width) * 6.0
    c2 = _spectral_field(rng, gain, width) * 6.0
    del gain
    out = np.empty((height, width, 3), np.uint8)
    plane = lum + c1  # r = lum + 1.0 * c1
    out[..., 0] = np.clip(plane, 0, 255, out=plane)
    np.subtract(lum, np.multiply(c1, 0.4, out=plane), out=plane)  # g = lum - 0.4 * c1 + 0.6 * c2
    plane += np.multiply(c2, 0.6, out=c1)
    out[..., 1] = np.clip(plane, 0, 255, out=plane)
    np.subtract(lum, np.multiply(c2, 0.9, out=c2), out=c2)  # b = lum - 0.9 * c2
    out[..., 2] = np.clip(c2, 0, 255, out=c2)
    return ImageBuffer(out)


# seed of the first reference image; the rest follow it
REFERENCE_FIRST_SEED = 7


def reference_images(count: int = 3, size: int = 512) -> list[ImageBuffer]:
    """The fixed benchmark set used by the bundled experiments: ``count``
    images seeded from ``REFERENCE_FIRST_SEED`` on."""
    if count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")
    return [
        synth_natural_image(size, size, seed)
        for seed in range(REFERENCE_FIRST_SEED, REFERENCE_FIRST_SEED + count)
    ]
