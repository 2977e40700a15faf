"""Minimal binary PPM (P6) writer for reconstruction dumps."""

from __future__ import annotations

import numpy as np

from .errors import FormatError


def write_ppm(path, image: np.ndarray):
    """Write an H x W x 3 image; float inputs are treated as [0, 1]."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3:
        raise FormatError(f"write_ppm expects HxWx3, got {img.shape}")
    if img.dtype != np.uint8:
        img = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    h, w = img.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())

