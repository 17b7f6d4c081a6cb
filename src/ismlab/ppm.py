"""Binary portable-pixmap output: P5 for single-channel, P6 for three-channel."""

from __future__ import annotations

import re

import numpy as np

# magic, width, height, maxval, then exactly one whitespace byte before the body
_HEADER = re.compile(rb"(P[56])\s+(\d+)\s+(\d+)\s+(\d+)\s")


def write_ppm(path, image: np.ndarray) -> None:
    """Write an (H, W, C) or (H, W) float image with values in [0, 1] as an
    8-bit binary pixmap. C must be 1 (P5) or 3 (P6)."""
    img = np.asarray(image, dtype=float)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3 or img.shape[2] not in (1, 3):
        raise ValueError(f"expected (H, W, 1|3) image, got shape {img.shape}")
    h, w, c = img.shape
    data = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    magic = b"P5" if c == 1 else b"P6"
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(data.tobytes())


def read_ppm(path) -> np.ndarray:
    """Read back a P5/P6 pixmap written by write_ppm as (H, W, C) floats."""
    with open(path, "rb") as fh:
        raw = fh.read()
    header = _HEADER.match(raw)
    if header is None:
        raise ValueError(f"unsupported pixmap header {raw[:16]!r}")
    magic = header.group(1)
    w, h, maxval = (int(v) for v in header.group(2, 3, 4))
    c = 1 if magic == b"P5" else 3
    data = np.frombuffer(raw[header.end():header.end() + w * h * c], dtype=np.uint8)
    return data.reshape(h, w, c).astype(float) / maxval
