"""Binary portable-pixmap output: P5 for single-channel, P6 for three-channel."""

from __future__ import annotations

import numpy as np


def write_ppm(path, image: np.ndarray) -> None:
    """Write an (H, W, C) float image with values in [0, 1] as an 8-bit
    binary pixmap. C must be 1 (P5) or 3 (P6)."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 3 or img.shape[2] not in (1, 3):
        raise ValueError(f"expected (H, W, 1|3) image, got shape {img.shape}")
    h, w, c = img.shape
    data = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P%d\n%d %d\n255\n" % (5 if c == 1 else 6, w, h))
        fh.write(data.tobytes())
