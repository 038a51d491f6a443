"""Binary netpbm readers/writers: P6 color and P5 grayscale (8- or 16-bit).

16-bit PGM samples are big-endian per the format; depth maps use maxval 65535.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DataError
from .tensor import atomic_write


def _read_header(fh, magic: bytes, path):
    if fh.read(2) != magic:
        raise DataError(f"{path}: expected {magic.decode()} netpbm file")
    fields = []
    while len(fields) < 3:
        token = b""
        ch = fh.read(1)
        while ch.isspace():
            ch = fh.read(1)
        if ch == b"#":
            fh.readline()
            continue
        while ch and not ch.isspace():
            token += ch
            ch = fh.read(1)
        if not token:
            raise DataError(f"{path}: truncated netpbm header")
        if not token.isdigit() or len(token) > 18:  # 18 digits exceed any file; int() refuses 4,300+
            raise DataError(f"{path}: bad netpbm header token {token[:24]!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1 or maxval not in (255, 65535):
        raise DataError(f"{path}: unsupported netpbm geometry {width}x{height} maxval {maxval}")
    if magic == b"P6" and maxval != 255:
        raise DataError(f"{path}: only 8-bit P6 supported")
    return width, height, maxval


def _read(path, magic: bytes, channels: int):
    """(height, width, maxval, pixel bytes) of a binary netpbm file.

    The pixel data is checked against what is left of the file before it is read. An OSError
    opening or reading the file is a DataError naming it.
    """
    try:
        with open(path, "rb") as fh:
            width, height, maxval = _read_header(fh, magic, path)
            nbytes = width * height * channels * (1 if maxval == 255 else 2)
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if nbytes > left:
                raise DataError(f"{path}: truncated {magic.decode()} pixel data: header needs {nbytes} bytes, {left} left")
            return height, width, maxval, fh.read(nbytes)
    except OSError as exc:
        raise DataError(f"cannot read image {path}: {exc.strerror or exc}") from exc


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 image as uint8 [H x W x 3]."""
    height, width, _, raw = _read(path, b"P6", 3)
    return np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3).copy()


def write_ppm(path, image: np.ndarray) -> None:
    image = np.asarray(image)
    if image.dtype != np.uint8 or image.ndim != 3 or image.shape[2] != 3:
        raise DataError(f"P6 writer needs uint8 [H x W x 3], got {image.dtype} {image.shape}")
    with atomic_write(path, "wb") as fh:
        fh.write(f"P6\n{image.shape[1]} {image.shape[0]}\n255\n".encode())
        fh.write(image.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 image: uint8 [H x W] for maxval 255, uint16 for 65535."""
    height, width, maxval, raw = _read(path, b"P5", 1)
    img = np.frombuffer(raw, dtype=np.uint8 if maxval == 255 else ">u2").reshape(height, width)
    return img.astype(np.uint16) if maxval == 65535 else img.copy()


def write_pgm(path, image: np.ndarray) -> None:
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype not in (np.uint8, np.uint16):
        raise DataError(f"P5 writer needs uint8 or uint16 [H x W], got {image.dtype} {image.shape}")
    maxval = 255 if image.dtype == np.uint8 else 65535
    with atomic_write(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n{maxval}\n".encode())
        if image.dtype == np.uint8:
            fh.write(image.tobytes())
        else:
            fh.write(image.astype(">u2").tobytes())
