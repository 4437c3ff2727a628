import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from depthpad import features, supervision
from depthpad.features import (
    SOBEL_GAIN,
    OffBlockWeights,
    conv2d,
    motion_stacks,
    off_sequence,
    off_vector_residual,
    spatial_gradient,
    temporal_gradient,
)

SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T


def reference_conv2d(x, kernel, padding="replicate"):
    # Independent path: numpy's pad, then every kH x kW window of the padded
    # input contracted with the kernel over (row tap, column tap, channel).
    kh, kw = kernel.shape[:2]
    mode = "edge" if padding == "replicate" else "constant"
    p = np.pad(x, ((kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)), mode=mode)
    windows = sliding_window_view(p, (kh, kw), axis=(0, 1))  # (H, W, Cin, kH, kW)
    return np.tensordot(windows, kernel, axes=([3, 4, 2], [0, 1, 2]))


def depthwise_kernel(stencil, channels):
    k = np.zeros((3, 3, channels, channels))
    for c in range(channels):
        k[:, :, c, c] = stencil
    return k


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 7, 3))
        identity = np.zeros((1, 1, 3, 3))
        for c in range(3):
            identity[0, 0, c, c] = 1.0
        assert np.array_equal(conv2d(x, identity), x)

    def test_zero_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 5, 2))
        out = conv2d(x, np.zeros((3, 3, 2, 4)))
        assert out.shape == (5, 5, 4)
        assert not out.any()

    def test_averaging_kernel_on_constant(self):
        x = np.full((6, 6, 1), 3.7)
        k = np.full((3, 3, 1, 1), 1.0 / 9.0)
        out = conv2d(x, k)
        assert np.allclose(out, 3.7, atol=1e-12)  # borders included

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 8, 3))
        y = rng.standard_normal((8, 8, 3))
        k = rng.standard_normal((3, 3, 3, 2))
        a, b = 1.7, -0.4
        lhs = conv2d(a * x + b * y, k)
        rhs = a * conv2d(x, k) + b * conv2d(y, k)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_matches_reference_loops(self):
        rng = np.random.default_rng(3)
        for shape in ((5, 6, 2), (7, 4, 3), (3, 9, 1)):
            for kh, kw in ((1, 1), (3, 3), (5, 5), (1, 3), (5, 3)):
                x = rng.standard_normal(shape)
                k = rng.standard_normal((kh, kw, shape[2], 3))
                assert np.allclose(conv2d(x, k), reference_conv2d(x, k),
                                   atol=1e-12)

    def test_shape_and_parity_errors(self):
        x = np.zeros((5, 5, 2))
        with pytest.raises(ValueError):
            conv2d(x, np.zeros((3, 3, 3, 1)))  # channel mismatch
        with pytest.raises(ValueError):
            conv2d(x, np.zeros((2, 3, 2, 1)))  # even kernel dim


class TestSpatialGradient:
    def test_constant_input_exactly_zero(self):
        x = np.full((9, 9, 4), 2.7182818)
        gx, gy = spatial_gradient(x)
        assert not gx.any()
        assert not gy.any()

    def test_unit_ramp_gain(self):
        j = np.arange(10, dtype=float)
        x = np.broadcast_to(j, (8, 10))[:, :, None].copy()
        gx, gy = spatial_gradient(x)
        assert np.array_equal(gx[:, 1:-1], np.full((8, 8, 1), SOBEL_GAIN))
        assert not gy.any()

    def test_transpose_swaps_axes(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((7, 7, 2))
        gx, gy = spatial_gradient(x)
        gxt, gyt = spatial_gradient(np.transpose(x, (1, 0, 2)))
        assert np.allclose(gxt, np.transpose(gy, (1, 0, 2)), atol=1e-12)
        assert np.allclose(gyt, np.transpose(gx, (1, 0, 2)), atol=1e-12)

    def test_matches_explicit_stencil_convolution(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((10, 11, 3))
        gx, gy = spatial_gradient(x)
        assert np.allclose(gx, conv2d(x, depthwise_kernel(SOBEL_X, 3)), atol=1e-12)
        assert np.allclose(gy, conv2d(x, depthwise_kernel(SOBEL_Y, 3)), atol=1e-12)

    def test_too_small_input_rejected(self):
        with pytest.raises(ValueError):
            spatial_gradient(np.zeros((2, 5, 1)))


class TestTemporalGradient:
    def test_identical_frames(self):
        x = np.random.default_rng(6).standard_normal((5, 5, 2))
        assert not temporal_gradient(x, x).any()

    def test_unit_step(self):
        x = np.random.default_rng(7).standard_normal((5, 5, 2))
        assert np.allclose(temporal_gradient(x, x + 1.0), 1.0, atol=1e-12)

    def test_antisymmetry(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 5, 2))
        b = rng.standard_normal((5, 5, 2))
        assert np.array_equal(temporal_gradient(a, b), -temporal_gradient(b, a))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            temporal_gradient(np.zeros((4, 4, 1)), np.zeros((4, 5, 1)))


def sinusoid_pair(omega, shift=1, size=48):
    idx = np.arange(size, dtype=float)
    jj, ii = np.meshgrid(idx, idx)
    frame = lambda s: (np.sin(omega * (jj - s)) + np.cos(omega * ii))[:, :, None]
    return frame(0), frame(shift)


class TestOffVectorResidual:
    def test_static_scene(self):
        x = np.random.default_rng(9).standard_normal((6, 6, 2))
        assert not off_vector_residual(x, x, (0.0, 0.0)).any()

    def test_translated_sinusoid_small_interior_residual(self):
        omega = 2 * np.pi / 16
        x_t, x_t1 = sinusoid_pair(omega)
        res = off_vector_residual(x_t, x_t1, (1.0 / SOBEL_GAIN, 0.0))
        interior = np.abs(res[2:-2, 2:-2]).max()
        # Second-order discretization bound: leading Taylor term is omega^2/2.
        assert interior < 0.6 * omega ** 2

    def test_residual_shrinks_quadratically(self):
        omega = 2 * np.pi / 16
        maxes = []
        for w in (omega, omega / 2):
            x_t, x_t1 = sinusoid_pair(w)
            res = off_vector_residual(x_t, x_t1, (1.0 / SOBEL_GAIN, 0.0))
            maxes.append(np.abs(res[2:-2, 2:-2]).max())
        assert maxes[0] / maxes[1] >= 3.5

    def test_linearity_in_inputs(self):
        rng = np.random.default_rng(10)
        x_t = rng.standard_normal((7, 7, 2))
        x_t1 = rng.standard_normal((7, 7, 2))
        v = (0.3, -0.2)
        doubled = off_vector_residual(2 * x_t, 2 * x_t1, v)
        assert np.array_equal(doubled, 2 * off_vector_residual(x_t, x_t1, v))


def manual_block(f_t, f_t1, w):
    # Independent assembly of one motion block from the reference conv loops.
    cr = w.reduce_1x1.shape[3]
    r_t = reference_conv2d(f_t, w.reduce_1x1)
    r_t1 = reference_conv2d(f_t1, w.reduce_1x1)
    branches = [r_t]
    for r in (r_t, r_t1):
        branches += [reference_conv2d(r, depthwise_kernel(SOBEL_X, cr)),
                     reference_conv2d(r, depthwise_kernel(SOBEL_Y, cr))]
    branches.append(r_t1 - r_t)
    return reference_conv2d(np.concatenate(branches, axis=2), w.fuse_3x3)


def stacked_blocks(stacks, w):
    """off_sequence's blocks, read in order, as one (T - 1, H, W, Cout) array."""
    return np.stack(list(off_sequence(stacks, w)))


def off_pair(f_t, f_t1, w):
    """One motion block: a two-frame sequence."""
    blocks = stacked_blocks(motion_stacks([f_t, f_t1]), w)
    assert len(blocks) == 1
    return blocks[0]


class TestOffBlock:
    def _weights(self, cin=3, cr=2, cout=4, seed=0):
        return OffBlockWeights.seeded(cin, reduce_channels=cr, out_channels=cout,
                                      seed=seed)

    def test_zero_weights_zero_output(self):
        w = OffBlockWeights(np.zeros((1, 1, 3, 2)), np.zeros((3, 3, 12, 4)))
        rng = np.random.default_rng(11)
        out = off_pair(rng.standard_normal((6, 6, 3)),
                       rng.standard_normal((6, 6, 3)), w)
        assert out.shape == (6, 6, 4)
        assert not out.any()

    def test_matches_manual_assembly(self):
        rng = np.random.default_rng(12)
        w = self._weights(seed=3)
        f_t = rng.standard_normal((8, 8, 3))
        f_t1 = rng.standard_normal((8, 8, 3))
        got = off_pair(f_t, f_t1, w)
        assert np.allclose(got, manual_block(f_t, f_t1, w), atol=1e-10)

    def test_identical_frames_zero_temporal_branch(self):
        rng = np.random.default_rng(13)
        w = self._weights()
        f = rng.standard_normal((6, 6, 3))
        got = off_pair(f, f, w)
        r = conv2d(f, w.reduce_1x1)
        gx, gy = spatial_gradient(r)
        cat = np.concatenate([r, gx, gy, gx, gy, np.zeros_like(r)], axis=2)
        assert np.allclose(got, conv2d(cat, w.fuse_3x3), atol=1e-12)

    def test_shape_contract(self):
        rng = np.random.default_rng(14)
        w = self._weights(cin=5, cr=3, cout=7)
        out = off_pair(rng.standard_normal((9, 10, 5)),
                       rng.standard_normal((9, 10, 5)), w)
        assert out.shape == (9, 10, 7)

    def test_channel_arithmetic_errors(self):
        # The fuse kernel reads exactly the 6 * Cr branch channels, so a
        # kernel of any other width fails when it is built.
        reduce = np.zeros((1, 1, 3, 2))
        for width in (11, 13, 14):
            with pytest.raises(ValueError, match=f"consumes {width} channels "
                               "but the branches produce 12"):
                OffBlockWeights(reduce, np.zeros((3, 3, width, 4)))
        rng = np.random.default_rng(15)
        f = rng.standard_normal((6, 6, 3))
        with pytest.raises(ValueError):
            off_pair(f, rng.standard_normal((6, 5, 3)), self._weights())
        with pytest.raises(ValueError, match="expects 12 input channels, "
                           "tensor has 18"):
            off_pair(f, f, self._weights(cin=2))

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        w = self._weights(seed=9)
        f_t = rng.standard_normal((6, 6, 3))
        f_t1 = rng.standard_normal((6, 6, 3))
        assert np.array_equal(off_pair(f_t, f_t1, w), off_pair(f_t, f_t1, w))


class TestOffSequence:
    def test_every_block_matches_manual_assembly(self):
        rng = np.random.default_rng(18)
        for n_frames, shape in ((3, (6, 6, 3)), (4, (5, 7, 3))):
            w = OffBlockWeights.seeded(3, reduce_channels=3, out_channels=4,
                                       seed=n_frames)
            frames = [rng.standard_normal(shape) for _ in range(n_frames)]
            got = stacked_blocks(motion_stacks(frames), w)
            assert len(got) == n_frames - 1
            for t, block in enumerate(got):
                want = manual_block(frames[t], frames[t + 1], w)
                assert block.shape == want.shape
                assert np.allclose(block, want, rtol=0, atol=1e-12)

    def test_one_conv_per_pair(self, monkeypatch):
        calls = []
        correlate = features._correlate

        def counted(padded, kernel):
            calls.append(kernel.shape)
            return correlate(padded, kernel)

        rng = np.random.default_rng(19)
        w = OffBlockWeights.seeded(3, reduce_channels=4, out_channels=5, seed=0)
        for n_frames in (2, 3, 5):
            frames = [rng.standard_normal((6, 6, 3)) for _ in range(n_frames)]
            stacks = motion_stacks(frames)
            with monkeypatch.context() as patch:
                patch.setattr(features, "_correlate", counted)
                calls.clear()
                blocks = off_sequence(stacks, w)
                assert calls == []  # a block is computed when it is read
                assert len(list(blocks)) == n_frames - 1
            assert calls == [(3, 3, 6 * 3, 5)] * (n_frames - 1)

    def test_sequence_errors(self):
        rng = np.random.default_rng(20)
        w = OffBlockWeights.seeded(3, reduce_channels=2, out_channels=4, seed=0)
        f = rng.standard_normal((6, 6, 3))
        # The checks run when off_sequence is called, before any block is
        # read, so each raises block holds the call alone.
        single, pair = motion_stacks([f]), motion_stacks([f, f])
        nan_stacks = np.full((2, 8, 8, 9), np.nan)
        narrow = OffBlockWeights.seeded(2, reduce_channels=2, out_channels=4,
                                        seed=0)
        with pytest.raises(ValueError, match="at least 2 frames, got 1"):
            off_sequence(single, w)  # no pair
        with pytest.raises(ValueError):
            motion_stacks([f, f, rng.standard_normal((6, 5, 3))])
        with pytest.raises(ValueError, match=r"frames must be \(T, H, W, C\)"):
            motion_stacks(f)
        with pytest.raises(ValueError, match=r"stacks must be \(T, H, W, C\)"):
            off_sequence(pair[0], w)
        with pytest.raises(ValueError, match="stacks contains non-finite"):
            off_sequence(nan_stacks, w)
        with pytest.raises(ValueError, match="expects 12 input channels"):
            off_sequence(pair, narrow)


@st.composite
def motion_cases(draw):
    """Seeded weights and a frame sequence of drawn sizes."""
    seed = draw(st.integers(0, 2**32 - 1))
    h, w = draw(st.integers(3, 10)), draw(st.integers(3, 10))
    n_frames = draw(st.integers(2, 4))
    cin = draw(st.integers(1, 3))
    weights = OffBlockWeights.seeded(cin, reduce_channels=draw(st.integers(1, 4)),
                                     out_channels=draw(st.integers(1, 3)),
                                     seed=seed)
    rng = np.random.default_rng(seed)
    frames = [rng.standard_normal((h, w, cin)) for _ in range(n_frames)]
    return weights, frames, rng


def motion(frames, w):
    return stacked_blocks(motion_stacks(frames), w)


class TestOffSequenceProperties:
    """Invariants the folded (reduce-into-fuse) evaluation relies on."""

    @settings(max_examples=40, deadline=None)
    @given(motion_cases(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_linear_in_the_frames(self, case, a, b):
        w, xs, rng = case
        ys = [rng.standard_normal(x.shape) for x in xs]
        mixed = motion([a * x + b * y for x, y in zip(xs, ys)], w)
        for got, bx, by in zip(mixed, motion(xs, w), motion(ys, w)):
            assert np.allclose(got, a * bx + b * by, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(motion_cases())
    def test_identical_frames_give_identical_blocks(self, case):
        w, xs, _ = case
        blocks = motion([xs[0]] * len(xs), w)
        for block in blocks[1:]:
            assert np.allclose(block, blocks[0], rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(motion_cases())
    def test_constant_frames_see_only_the_reduced_branch(self, case):
        # Spatial and temporal gradients of identical constant frames vanish.
        w, xs, _ = case
        frame = np.broadcast_to(xs[0][:1, :1], xs[0].shape)
        cr = w.reduce_1x1.shape[3]
        want = conv2d(conv2d(frame, w.reduce_1x1), w.fuse_3x3[:, :, :cr])
        for block in motion([frame] * len(xs), w):
            assert np.allclose(block, want, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(motion_cases(), st.integers(1, 9))
    def test_interior_equivariant_under_vertical_roll(self, case, k):
        # Sobel then the 3x3 fuse reach 2 rows, so a row at least 2 rows from
        # the edges, before and after the roll, sees no padding and no seam.
        w, xs, _ = case
        h = xs[0].shape[0]
        rows = [(i + k) % h for i in range(2, h - 2) if 2 <= (i + k) % h < h - 2]
        assume(rows)
        rolled = motion([np.roll(x, k, axis=0) for x in xs], w)
        for got, block in zip(rolled, motion(xs, w)):
            want = np.roll(block, k, axis=0)
            assert np.allclose(got[rows], want[rows], rtol=0, atol=1e-12)



NP_PAD_MODES = {"replicate": "edge", "zero": "constant"}


def np_pad_hwc(x, ph, pw, padding):
    return np.pad(x, ((ph, ph), (pw, pw), (0, 0)), mode=NP_PAD_MODES[padding])


def tap_sum_conv2d(x, kernel, padding):
    # The conv as numpy's pad followed by the per-tap matmul sum, in the tap
    # order conv2d sums them; the one-buffer padding must not move a bit.
    kh, kw = kernel.shape[:2]
    h, w, _ = x.shape
    p = np_pad_hwc(x, kh // 2, kw // 2, padding)
    out = p[:h, :w] @ kernel[0, 0]
    for a in range(kh):
        for b in range(kw):
            if a or b:
                out += p[a:a + h, b:b + w] @ kernel[a, b]
    return out


def np_pad_sobel(x):
    p = np_pad_hwc(x, 1, 1, "replicate")
    dx = p[:, 2:, :] - p[:, :-2, :]
    dy = p[2:, :, :] - p[:-2, :, :]
    return (dx[:-2] + 2.0 * dx[1:-1] + dx[2:],
            dy[:, :-2] + 2.0 * dy[:, 1:-1] + dy[:, 2:])


odd_kernel_dims = st.sampled_from([1, 3, 5, 7])


@st.composite
def hwc_tensors(draw, min_side=1):
    shape = (draw(st.integers(min_side, 9)), draw(st.integers(min_side, 9)),
             draw(st.integers(1, 4)))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(shape)


class TestOneBufferPadding:
    """The slice-assigned replicate padding equals numpy's edge pad bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(hwc_tensors(), odd_kernel_dims, odd_kernel_dims)
    def test_pad_matches_numpy_pad(self, x, kh, kw):
        got = features._pad(x, kh // 2, kw // 2)
        assert np.array_equal(got, np_pad_hwc(x, kh // 2, kw // 2, "replicate"))

    @settings(max_examples=60, deadline=None)
    @given(hwc_tensors(), st.integers(0, 12), st.integers(0, 12))
    def test_pad_wider_than_the_input(self, x, ph, pw):
        assert np.array_equal(features._pad(x, ph, pw),
                              np_pad_hwc(x, ph, pw, "replicate"))

    def test_zero_widths_return_the_input(self):
        x = np.random.default_rng(22).standard_normal((4, 5, 2))
        assert features._pad(x, 0, 0) is x

    @settings(max_examples=120, deadline=None)
    @given(hwc_tensors(), odd_kernel_dims, odd_kernel_dims,
           st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_conv2d_matches_numpy_pad_tap_sum(self, x, kh, kw, cout, seed):
        kernel = np.random.default_rng(seed).standard_normal((kh, kw, x.shape[2], cout))
        assert np.array_equal(conv2d(x, kernel),
                              tap_sum_conv2d(x, kernel, "replicate"))

    @settings(max_examples=80, deadline=None)
    @given(hwc_tensors(min_side=3))
    def test_spatial_gradient_matches_numpy_pad(self, x):
        for got, want in zip(spatial_gradient(x), np_pad_sobel(x)):
            assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), hwc_tensors(min_side=3))
    def test_motion_stacks_match_numpy_pad(self, n_frames, x):
        # Each frame's [x, Sx x, Sy x] padded as conv2d pads a 3x3 input, so a
        # pair side by side is the padded pair conv2d would have built.
        frames = np.stack([x * (t + 1) for t in range(n_frames)])
        for got, frame in zip(motion_stacks(frames), frames):
            branches = np.concatenate([frame, *np_pad_sobel(frame)], axis=2)
            assert np.array_equal(got, np_pad_hwc(branches, 1, 1, "replicate"))

    def test_shift_responses_match_numpy_pad(self):
        grids = np.random.default_rng(23).standard_normal((3, 7, 5))
        p = np.pad(grids, ((0, 0), (1, 1), (1, 1)))
        got = supervision._shift_responses(grids)
        assert len(got) == len(supervision.CONTRAST_OFFSETS)
        for (di, dj), response in zip(supervision.CONTRAST_OFFSETS, got):
            want = p[:, 1 + di:8 + di, 1 + dj:6 + dj] - grids
            assert np.array_equal(response, want)
