"""JPEG round-trip experiments: rate-distortion curves and provider recompression.

The codec is the built-in one in ``etckit._jpeg``, on every machine, so the
same inputs give the same bytes and the same RD rows: baseline JPEG with the
ITU-T T.81 Annex K tables, where 4:2:0 chroma is a 2x2 box average and is
replicated back up on decode, so each 16x16 MCU is self-contained. The decoder
also reads other encoders' baseline streams, interleaved or non-interleaved. ``jpeg_roundtrip`` rebuilds the raster from the
quantised coefficients the encoder holds; it equals ``jpeg_decode`` of
``jpeg_encode``'s stream without decoding it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _jpeg
from .cipher import CipherConfig, CipherSidecar, MasterKey, decrypt, encrypt
from .images import ImageBuffer, psnr

SUBSAMPLING_420 = "420"
SUBSAMPLING_444 = "444"

RD_CSV_HEADER = "path,quality,bpp,psnr_db"


class CodecError(RuntimeError):
    """The JPEG codec failed on the given input."""


@dataclass(frozen=True)
class CodecParams:
    quality: int = 85
    subsampling: str = SUBSAMPLING_420

    def __post_init__(self):
        if not 1 <= self.quality <= 100:
            raise ValueError(f"quality must be in 1..100, got {self.quality}")
        if self.subsampling not in _jpeg._SAMPLING:
            raise ValueError(f"subsampling must be 420 or 444, got {self.subsampling}")


@dataclass(frozen=True)
class RDPoint:
    quality: int
    bits_per_pixel: float
    psnr_db: float


@dataclass(frozen=True)
class ProviderProfile:
    """Quality-only recompression model of an image-hosting provider."""

    name: str
    recompress_quality: int
    forced_subsampling: str | None = None

    def __post_init__(self):
        if not 1 <= self.recompress_quality <= 100:
            raise ValueError(f"quality must be in 1..100, got {self.recompress_quality}")
        if self.forced_subsampling not in (None, *_jpeg._SAMPLING):
            raise ValueError(
                f"provider {self.name!r}: forced_subsampling must be 420, 444 or None, "
                f"got {self.forced_subsampling!r}"
            )


def jpeg_encode(img: ImageBuffer, params: CodecParams) -> bytes:
    """Encode to baseline JFIF bytes."""
    try:
        return _jpeg.encode(img.data, params.quality, params.subsampling)
    except _jpeg.JpegError as exc:
        raise CodecError(f"JPEG encode failed: {exc}") from exc


def jpeg_decode(data: bytes) -> ImageBuffer:
    """Decode JPEG bytes back to a raster."""
    try:
        return ImageBuffer(_jpeg.decode(data))
    except _jpeg.JpegError as exc:
        raise CodecError(f"JPEG decode failed: {exc}") from exc


def jpeg_roundtrip(img: ImageBuffer, params: CodecParams) -> tuple[ImageBuffer, int]:
    """Encode then decode; returns the decoded raster and the compressed byte count."""
    try:
        pixels, size = _jpeg.roundtrip(img.data, params.quality, params.subsampling)
    except _jpeg.JpegError as exc:
        raise CodecError(f"JPEG encode failed: {exc}") from exc
    return ImageBuffer(pixels), size


def rd_curve(
    img: ImageBuffer,
    key: MasterKey,
    cfg: CipherConfig,
    qualities: list[int],
    params: CodecParams = CodecParams(),
) -> tuple[list[RDPoint], list[RDPoint]]:
    """Rate-distortion sweep of the plain path and the encrypt-compress-decrypt path.

    Plain: jpeg(img) -> decode -> PSNR vs img.
    Encrypted: encrypt -> jpeg -> decode -> decrypt -> PSNR vs img.
    bpp is compressed bits over the original pixel count for both paths.
    """
    if not qualities:
        raise ValueError("qualities must be non-empty")
    n_pixels = img.width * img.height
    cipher_img, sidecar = encrypt(img, key, cfg)

    plain, encrypted = [], []
    for q in qualities:
        p = replace(params, quality=q)

        decoded, size = jpeg_roundtrip(img, p)
        plain.append(RDPoint(q, size * 8.0 / n_pixels, psnr(img, decoded)))

        decoded_c, size_c = jpeg_roundtrip(cipher_img, p)
        restored = decrypt(decoded_c, key, sidecar)
        encrypted.append(RDPoint(q, size_c * 8.0 / n_pixels, psnr(img, restored)))
    return plain, encrypted


def rd_csv(plain: list[RDPoint], encrypted: list[RDPoint]) -> str:
    """CSV with header ``path,quality,bpp,psnr_db`` and 6-decimal fixed formatting."""
    lines = [RD_CSV_HEADER]
    for label, points in (("plain", plain), ("encrypted", encrypted)):
        for pt in points:
            lines.append(
                f"{label},{pt.quality},{pt.bits_per_pixel:.6f},{pt.psnr_db:.6f}"
            )
    return "\n".join(lines) + "\n"


def provider_recompress(jpeg_bytes: bytes, profile: ProviderProfile) -> bytes:
    """Decode and re-encode at the provider's settings; repeatable for
    multi-generation recompression."""
    decoded = jpeg_decode(jpeg_bytes)
    params = CodecParams(
        quality=profile.recompress_quality,
        subsampling=profile.forced_subsampling or SUBSAMPLING_420,
    )
    return jpeg_encode(decoded, params)


def mean_psnr_gap(plain: list[RDPoint], encrypted: list[RDPoint]) -> float:
    """Mean PSNR drop of the encrypted path relative to the plain path, in dB."""
    return float(
        np.mean([p.psnr_db - e.psnr_db for p, e in zip(plain, encrypted, strict=True)])
    )


def mean_bpp_inflation(plain: list[RDPoint], encrypted: list[RDPoint]) -> float:
    """Mean relative bitrate increase of the encrypted path (0.1 = +10%)."""
    return float(
        np.mean(
            [
                (e.bits_per_pixel - p.bits_per_pixel) / p.bits_per_pixel
                for p, e in zip(plain, encrypted, strict=True)
            ]
        )
    )
