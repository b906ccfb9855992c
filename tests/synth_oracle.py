"""The synthetic-image generator in its plain form, kept verbatim.

``etckit.synth`` builds the same images with fewer full-size temporaries:
the spectrum is scaled by a precomputed reciprocal gain, the inverse FFT runs
as its two passes and every later step works in place. These copies allocate
freely and read as plainly as the maths, so tests can check the library
against them bit for bit.
"""

import numpy as np

from etckit.images import ImageBuffer


def _spectral_field(
    rng: np.random.Generator, height: int, width: int, alpha: float
) -> np.ndarray:
    """Real zero-mean unit-variance field with amplitude spectrum ~ 1/f**alpha."""
    shape = (height, width // 2 + 1)
    spectrum = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.rfftfreq(width)[None, :]
    f = np.hypot(fy, fx)
    f0 = 1.0 / max(height, width)
    spectrum /= (f + f0) ** alpha
    field = np.fft.irfft2(spectrum, s=(height, width))
    field -= field.mean()
    std = field.std()
    return field / std if std > 1e-12 else field


def synth_natural_image(
    width: int, height: int, seed: int, channels: int = 3
) -> ImageBuffer:
    """Generate one pseudo-natural test image, reproducible from ``seed``."""
    if channels not in (1, 3):
        raise ValueError(f"channels must be 1 or 3, got {channels}")
    rng = np.random.default_rng(seed)

    lum = _spectral_field(rng, height, width, alpha=1.5) * 45.0

    # large-scale illumination ramp with a random direction
    yy = np.linspace(0.0, 1.0, height)[:, None]
    xx = np.linspace(0.0, 1.0, width)[None, :]
    ga, gb = rng.uniform(-25.0, 25.0, size=2)
    lum += ga * yy + gb * xx + 128.0
    lum += rng.standard_normal((height, width)) * 2.0

    if channels == 1:
        return ImageBuffer(np.clip(lum, 0, 255).astype(np.uint8))

    c1 = _spectral_field(rng, height, width, alpha=2.5) * 6.0
    c2 = _spectral_field(rng, height, width, alpha=2.5) * 6.0
    r = lum + 1.0 * c1
    g = lum - 0.4 * c1 + 0.6 * c2
    b = lum - 0.9 * c2
    stack = np.stack([r, g, b], axis=2)
    return ImageBuffer(np.clip(stack, 0, 255).astype(np.uint8))
