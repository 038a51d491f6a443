"""Depth clipping oracle, crop/resize arithmetic, augmentation properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgbdfuse import netpbm
from rgbdfuse import preprocess as P
from rgbdfuse.errors import ConfigError, DataError


def brute_force_clip_normalize(samples):
    """Independent reimplementation: pure-python percentile, per-pixel mapping."""
    nonzero = sorted(int(v) for v in samples.reshape(-1) if v > 0)
    n = len(nonzero)
    p25 = nonzero[max(1, math.ceil(0.25 * n)) - 1]
    p90 = nonzero[max(1, math.ceil(0.90 * n)) - 1]
    out = np.zeros(samples.shape, dtype=np.uint8)
    if p25 == p90:
        return out
    for idx in np.ndindex(samples.shape):
        v = int(samples[idx])
        if v == 0:
            continue
        v = min(max(v, p25), p90)
        out[idx] = int(math.floor(255.0 * (v - p25) / (p90 - p25) + 0.5))
    return out


# -- depth clipping -----------------------------------------------------------


def test_constant_nonzero_depth_maps_to_zero():
    d = P.DepthImage(np.full((4, 4), 1234, dtype=np.uint16))
    assert not P.depth_clip_normalize(d).any()


def test_percentiles_one_to_hundred():
    samples = np.arange(1, 101, dtype=np.uint16).reshape(10, 10)
    assert P.nearest_rank_percentile(samples, 25) == 25
    assert P.nearest_rank_percentile(samples, 90) == 90
    out = P.depth_clip_normalize(P.DepthImage(samples))
    assert out[samples == 25] == 0
    assert out[samples == 90] == 255
    assert out[samples == 57] == round(255 * 32 / 65)


def test_clamp_saturation():
    samples = np.arange(1, 101, dtype=np.uint16)
    img = np.concatenate([samples, [450, 12]]).astype(np.uint16).reshape(6, 17)
    out = P.depth_clip_normalize(P.DepthImage(img))
    assert out.reshape(-1)[100] == 255  # 5x the p90 clamps high
    assert out.reshape(-1)[101] == 0  # p25/2 clamps low


def test_all_zero_depth_is_data_error():
    with pytest.raises(DataError):
        P.depth_clip_normalize(P.DepthImage(np.zeros((3, 3), dtype=np.uint16)))


def test_zero_samples_stay_zero_and_excluded():
    samples = np.zeros((1, 12), dtype=np.uint16)
    samples[0, :10] = np.arange(10, 110, 10, dtype=np.uint16)
    out = P.depth_clip_normalize(P.DepthImage(samples))
    assert out[0, 10] == 0 and out[0, 11] == 0
    assert P.nearest_rank_percentile(samples[samples > 0], 25) == 30


@given(
    st.integers(10, 400),
    st.integers(0, 2**31 - 1),
    st.integers(1, 200),
)
@settings(max_examples=60, deadline=None)
def test_clip_normalize_matches_brute_force(n, seed, high):
    rng = np.random.default_rng(seed)
    samples = rng.integers(0, high + 1, size=n, dtype=np.uint16).reshape(1, n)
    if not samples.any():
        samples[0, 0] = 1
    got = P.depth_clip_normalize(P.DepthImage(samples))
    assert np.array_equal(got, brute_force_clip_normalize(samples))
    assert got.min() >= 0 and got.max() <= 255


def test_clip_normalize_monotone_within_image():
    rng = np.random.default_rng(3)
    samples = rng.integers(0, 5000, size=(20, 20), dtype=np.uint16)
    samples[0, 0] = 1
    out = P.depth_clip_normalize(P.DepthImage(samples)).astype(int)
    flat_in = samples.reshape(-1)
    flat_out = out.reshape(-1)
    nz = flat_in > 0
    order = np.argsort(flat_in[nz], kind="stable")
    assert np.all(np.diff(flat_out[nz][order]) >= 0)


# -- crop / resize --------------------------------------------------------------


def test_crop_ratio_one_is_pure_resize():
    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
    out = P.crop_resize(img, 8, crop_ratio=1.0)
    assert np.array_equal(out, img)


def test_target_equals_crop_size_exact_copy():
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(10, 10), dtype=np.uint8)
    out = P.crop_resize(img, 8, crop_ratio=0.8)
    assert np.array_equal(out, img[1:9, 1:9])


def test_bilinear_checkerboard_center():
    img = np.array([[0.0, 100.0], [100.0, 0.0]])
    out = P.resize_bilinear(img, 3)
    assert out[1, 1] == pytest.approx(50.0)
    assert out[0, 0] == 0.0 and out[2, 2] == 0.0


def reference_bilinear(img, sy, sx):
    """Per-pixel, per-channel bilinear lookup in plain Python; a tap outside the source reads 0."""
    h, w = img.shape[:2]
    channels = img.shape[2] if img.ndim == 3 else 1
    out = np.zeros(sy.shape + img.shape[2:])
    for idx in np.ndindex(sy.shape):
        y, x = float(sy[idx]), float(sx[idx])
        y0, x0 = math.floor(y), math.floor(x)
        wy, wx = y - y0, x - x0
        for c in range(channels):
            total = 0.0
            for dy, dx, weight in ((0, 0, (1 - wy) * (1 - wx)), (0, 1, (1 - wy) * wx), (1, 0, wy * (1 - wx)), (1, 1, wy * wx)):
                yy, xx = y0 + dy, x0 + dx
                inside = 0 <= yy < h and 0 <= xx < w
                total += (float(img[yy, xx, c] if img.ndim == 3 else img[yy, xx]) if inside else 0.0) * weight
            out[idx + ((c,) if img.ndim == 3 else ())] = total
    return out


def inverse_affine_coords(h, w, matrix):
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    dy, dx = yy - cy, xx - cx
    return matrix[0, 0] * dy + matrix[0, 1] * dx + cy, matrix[1, 0] * dy + matrix[1, 1] * dx + cx


def _affine_coords(matrix):
    return lambda h, w: inverse_affine_coords(h, w, matrix)


def _resize_grid(target):
    # what resize_bilinear passes: an align-corners column for y and row for x
    def coords(h, w):
        sy = np.arange(target) * ((h - 1) / (target - 1))
        sx = np.arange(target) * ((w - 1) / (target - 1))
        return sy[:, None], sx[None, :]

    return coords


def _edge_coords(h, w):
    # exactly on the clamp limits, on the last source pixels and far beyond each edge
    def along(n):
        below = [-1e6, -40.0, -1.75, -1.5, -1.25, -1.0, -0.5, 0.0, 3.3]
        return np.array(below + [n - 1.0, n - 0.5, n, n + 0.25, n + 0.5, n + 0.75, n + 40.0, 1e6])

    return np.meshgrid(along(h), along(w), indexing="ij")


_a30 = math.radians(30.0)
SAMPLE_COORDS = {
    "rotation30": _affine_coords(np.array([[math.cos(_a30), -math.sin(_a30)], [math.sin(_a30), math.cos(_a30)]])),
    "perspective0.5": _affine_coords(np.array([[2.0, 0.0], [0.0, 2.0]])),  # inverse map of a 0.5 perspective scale
    "shear16": _affine_coords(np.array([[1.0, 0.0], [-math.tan(math.radians(16.0)), 1.0]])),
    "resize_down": _resize_grid(11),
    "resize_up": _resize_grid(23),
    "edges": _edge_coords,
}
SOURCES = {
    "rgb": ((15, 15, 3), np.uint8),
    "gray": ((15, 15), np.uint8),
    "gray16": ((15, 13), np.uint16),
}


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("transform", SAMPLE_COORDS)
def test_sample_bilinear_matches_per_pixel_reference_far_outside_every_edge(source, transform):
    # taps more than one pixel outside the source must read 0, not a clamped edge pixel
    shape, dtype = SOURCES[source]
    img = np.random.default_rng(21).integers(0, np.iinfo(dtype).max, size=shape, dtype=dtype, endpoint=True)
    img.flat[::7] = np.iinfo(dtype).max
    h, w = shape[:2]
    sy, sx = SAMPLE_COORDS[transform](h, w)
    if transform in ("rotation30", "perspective0.5", "edges"):
        assert sy.min() < -1 and sy.max() > h and sx.min() < -1 and sx.max() > w
    got = P._sample_bilinear(img, sy, sx)
    assert np.array_equal(got, reference_bilinear(img, *np.broadcast_arrays(sy, sx)))


def test_crop_too_small_is_data_error():
    with pytest.raises(DataError):
        P.crop_resize(np.zeros((1, 5), dtype=np.uint8), 4)


@pytest.mark.parametrize("target", [0, -3])
def test_resize_target_below_one_pixel_is_config_error(target):
    img = np.zeros((6, 6, 3), dtype=np.uint8)
    with pytest.raises(ConfigError, match="at least 1 pixel"):
        P.resize_bilinear(img, target)
    with pytest.raises(ConfigError, match="at least 1 pixel"):
        P.crop_resize(img, target)


def test_pair_crop_alignment():
    rng = np.random.default_rng(6)
    rgb = rng.integers(0, 256, size=(12, 16, 3), dtype=np.uint8)
    marker = np.zeros((12, 16), dtype=np.uint8)
    marker[5, 7] = 255
    a = P.crop_resize(marker, 8)
    b = P.crop_resize(rgb[..., 0], 8)
    assert a.shape == b.shape == (8, 8)


# -- augmentation ------------------------------------------------------------------


@pytest.mark.parametrize("kind", P.AUGMENT_KINDS)
def test_identity_parameters_zero_delta(kind):
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, size=(9, 9, 3), dtype=np.uint8)
    out = P.augment(img, P.identity_params(kind))
    assert np.array_equal(out, img)


def test_flip_is_involution_bit_exact():
    rng = np.random.default_rng(8)
    img = rng.integers(0, 256, size=(7, 5), dtype=np.uint8)
    params = P.AugmentParams(kind="flip", flip=True)
    assert np.array_equal(P.augment(P.augment(img, params), params), img)


def test_rotation_lands_at_analytic_coordinate():
    size = 41
    r, c = 8, 30
    img = np.zeros((size, size), dtype=np.uint8)
    img[r, c] = 255
    angle = 30.0
    out = P.augment(img, P.AugmentParams(kind="rotation", rotation_deg=angle))

    a = math.radians(angle)
    cy = cx = (size - 1) / 2.0
    dy, dx = r - cy, c - cx
    exp_r = math.sin(a) * dx + math.cos(a) * dy + cy
    exp_c = math.cos(a) * dx - math.sin(a) * dy + cx
    got_r, got_c = np.unravel_index(out.argmax(), out.shape)
    assert math.hypot(got_r - exp_r, got_c - exp_c) <= 1.0


def test_rotation_round_trip_tolerance():
    # centered blob so the corner loss of the double warp stays negligible
    yy, xx = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
    blob = 255.0 * np.exp(-(((yy - 15.5) ** 2) + ((xx - 15.5) ** 2)) / 40.0)
    img = blob.astype(np.uint8)
    fwd = P.augment(img, P.AugmentParams(kind="rotation", rotation_deg=25.0))
    back = P.augment(fwd, P.AugmentParams(kind="rotation", rotation_deg=-25.0))
    assert np.abs(back.astype(float) - img.astype(float)).mean() < 2.0


def test_perspective_scale_down_shrinks_content():
    img = np.zeros((21, 21), dtype=np.uint8)
    img[2, 10] = 200  # 8 rows above center
    out = P.augment(img, P.AugmentParams(kind="perspective", perspective_scale=0.5))
    got_r, got_c = np.unravel_index(out.argmax(), out.shape)
    assert abs(got_r - 6) <= 1 and abs(got_c - 10) <= 1  # offset halves to 4


def test_param_range_validation():
    with pytest.raises(ConfigError):
        P.AugmentParams(kind="rotation", rotation_deg=31.0)
    with pytest.raises(ConfigError):
        P.AugmentParams(kind="shear", shear_deg=-17.0)
    with pytest.raises(ConfigError):
        P.AugmentParams(kind="perspective", perspective_scale=1.6)
    with pytest.raises(ConfigError):
        P.AugmentParams(kind="vortex")


# -- expansion ----------------------------------------------------------------------


def make_pairs(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (
            rng.integers(0, 256, size=(12, 12, 3), dtype=np.uint8),
            rng.integers(0, 256, size=(12, 12), dtype=np.uint8),
            i % 3,
        )
        for i in range(n)
    ]


def test_expand_quadruples_and_keeps_labels():
    pairs = make_pairs(10)
    out = P.augment_expand(pairs, seed=1)
    assert len(out) == 40
    for i, record in enumerate(out):
        assert record.label == pairs[i // 4][2]


def test_expand_deterministic():
    pairs = make_pairs(4)
    a = P.augment_expand(pairs, seed=9)
    b = P.augment_expand(pairs, seed=9)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.rgb, rb.rgb)
        assert np.array_equal(ra.depth, rb.depth)
        assert ra.params == rb.params


def test_expand_pair_alignment_via_param_log():
    # the logged params re-applied to the matching source reproduce both
    # members of the record, so rgb and depth shared one draw
    pairs = make_pairs(6)
    out = P.augment_expand(pairs, seed=2)
    for i, src in enumerate(pairs):
        for record in out[i * 4 + 1 : i * 4 + 4]:
            assert np.array_equal(record.rgb, P.augment(src[0], record.params))
            assert np.array_equal(record.depth, P.augment(src[1], record.params))


def test_expand_kinds_drawn_without_replacement():
    pairs = make_pairs(8)
    out = P.augment_expand(pairs, seed=3)
    for i in range(len(pairs)):
        kinds = [r.params.kind for r in out[i * 4 + 1 : i * 4 + 4]]
        assert len(set(kinds)) == 3


def test_expand_flag_for_four_copies():
    pairs = make_pairs(2)
    out = P.augment_expand(pairs, seed=4, copies=4)
    assert len(out) == 10
    kinds = {r.params.kind for r in out[1:5]}
    assert kinds == set(P.AUGMENT_KINDS)


# -- netpbm round trips ----------------------------------------------------------------


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    netpbm.write_ppm(tmp_path / "x.ppm", img)
    assert np.array_equal(netpbm.read_ppm(tmp_path / "x.ppm"), img)


def test_pgm_round_trips_8_and_16_bit(tmp_path):
    rng = np.random.default_rng(11)
    img8 = rng.integers(0, 256, size=(4, 6), dtype=np.uint8)
    netpbm.write_pgm(tmp_path / "a.pgm", img8)
    assert np.array_equal(netpbm.read_pgm(tmp_path / "a.pgm"), img8)

    img16 = rng.integers(0, 65536, size=(4, 6), dtype=np.uint16)
    netpbm.write_pgm(tmp_path / "b.pgm", img16)
    back = netpbm.read_pgm(tmp_path / "b.pgm")
    assert back.dtype == np.uint16
    assert np.array_equal(back, img16)


def test_pgm_16bit_is_big_endian(tmp_path):
    img = np.array([[0x0102]], dtype=np.uint16)
    netpbm.write_pgm(tmp_path / "c.pgm", img)
    raw = (tmp_path / "c.pgm").read_bytes()
    assert raw.endswith(b"\x01\x02")


def test_netpbm_errors(tmp_path):
    (tmp_path / "bad.ppm").write_bytes(b"P6\n2 2\n255\nxy")
    with pytest.raises(DataError):
        netpbm.read_ppm(tmp_path / "bad.ppm")
    with pytest.raises(DataError):
        netpbm.read_pgm(tmp_path / "bad.ppm")
    for path in (tmp_path, tmp_path / "missing.pnm"):  # a directory, and no file at all
        for read in (netpbm.read_ppm, netpbm.read_pgm):
            with pytest.raises(DataError, match=f"cannot read image {path}"):
                read(path)


@pytest.mark.parametrize(
    "header",
    [
        b"P6 99999999 99999999 255\n",  # 3e16 bytes of pixels: the read alone would exhaust memory
        b"P5 99999999999 99999999999 65535\n",  # a byte count past what one read can take
        b"P5 " + b"9" * 5000 + b" 2 255\n",  # a token past the digits int() converts
    ],
    ids=["p6-memory", "p5-16bit-overflow", "5000-digit-token"],
)
def test_netpbm_oversized_header_is_data_error(tmp_path, header):
    path = tmp_path / "big.pnm"
    path.write_bytes(header + b"\x00" * 16)
    with pytest.raises(DataError, match="truncated|token"):
        (netpbm.read_ppm if header.startswith(b"P6") else netpbm.read_pgm)(path)
