import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthpad.supervision import (
    CONTRAST_OFFSETS,
    HEAD_HIDDEN,
    BinaryHead,
    binary_loss,
    contrastive_depth_loss,
    contrastive_loss_gradient,
    depth_loss_gradient,
    euclidean_depth_loss,
    euclidean_loss_gradient,
    multi_frame_loss,
    multi_frame_report,
)

from conftest import contrastive_kernels


def reference_kernel_response(grid, kernel):
    # Brute-force zero-padded same correlation, kept independent of the
    # shifted-slice path inside the module.
    h, w = grid.shape
    p = np.pad(grid, 1)
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for a in range(3):
                for b in range(3):
                    acc += kernel[a, b] * p[i + a, j + b]
            out[i, j] = acc
    return out


def reference_contrastive_loss(pred, label):
    total = 0.0
    for k in contrastive_kernels():
        diff = reference_kernel_response(pred, k) - reference_kernel_response(label, k)
        total += (diff ** 2).sum()
    return total


from fdcheck import fd_gradient


class TestContrastiveKernels:
    def test_shape_and_structure(self):
        kernels = contrastive_kernels()
        assert kernels.shape == (8, 3, 3)
        plus_positions = set()
        for k in kernels:
            assert k.sum() == 0.0
            assert np.count_nonzero(k) == 2
            assert k[1, 1] == -1.0
            pos = tuple(np.argwhere(k == 1.0)[0])
            plus_positions.add(pos)
        assert len(plus_positions) == 8
        assert (1, 1) not in plus_positions

    def test_offsets_match_kernels(self):
        kernels = contrastive_kernels()
        for k, (di, dj) in zip(kernels, CONTRAST_OFFSETS):
            assert k[1 + di, 1 + dj] == 1.0


class TestEuclideanLoss:
    def test_identical_maps(self):
        grid = np.random.default_rng(0).random((32, 32))
        assert euclidean_depth_loss(grid, grid) == 0.0

    def test_uniform_offset(self):
        label = np.random.default_rng(1).random((32, 32))
        assert euclidean_depth_loss(label + 0.1, label) == pytest.approx(10.24)

    def test_single_cell(self):
        label = np.zeros((32, 32))
        pred = label.copy()
        pred[5, 7] = 0.5
        assert euclidean_depth_loss(pred, label) == pytest.approx(0.25)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(2)
        batch = rng.random((5, 16, 16))
        label = rng.random((16, 16))
        vec = euclidean_depth_loss(batch, label)
        assert vec.shape == (5,)
        for b, v in zip(batch, vec):
            assert euclidean_depth_loss(b, label) == pytest.approx(v, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            euclidean_depth_loss(np.zeros((32, 32)), np.zeros((32, 31)))


class TestContrastiveLoss:
    def test_identical_maps(self):
        grid = np.random.default_rng(3).random((32, 32))
        assert contrastive_depth_loss(grid, grid) == 0.0

    def test_constant_offset_interior_free(self):
        rng = np.random.default_rng(4)
        label = rng.random((16, 16))
        pred = label + 0.25
        for k in contrastive_kernels():
            diff = (reference_kernel_response(pred, k)
                    - reference_kernel_response(label, k))
            assert np.allclose(diff[1:-1, 1:-1], 0.0, atol=1e-12)
        # Only the zero-padded border contributes, and the module agrees with
        # the brute-force evaluation of that border term.
        got = contrastive_depth_loss(pred, label)
        assert got > 0.0
        assert got == pytest.approx(reference_contrastive_loss(pred, label),
                                    rel=1e-12)

    def test_hand_instance_three_by_three(self):
        delta = 0.7
        pred = np.zeros((3, 3))
        pred[1, 1] = delta
        label = np.zeros((3, 3))
        # Each kernel response holds one +delta and one -delta cell, so the
        # loss is 8 * 2 * delta^2.
        assert contrastive_depth_loss(pred, label) == pytest.approx(16 * delta ** 2)
        assert contrastive_depth_loss(pred, label) == pytest.approx(7.84)
        assert reference_contrastive_loss(pred, label) == pytest.approx(7.84)

    def test_matches_reference_on_random_maps(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            pred = rng.random((12, 12))
            label = rng.random((12, 12))
            assert contrastive_depth_loss(pred, label) == pytest.approx(
                reference_contrastive_loss(pred, label), rel=1e-12)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(6)
        batch = rng.random((4, 10, 10))
        label = rng.random((10, 10))
        vec = contrastive_depth_loss(batch, label)
        assert vec.shape == (4,)
        for b, v in zip(batch, vec):
            assert contrastive_depth_loss(b, label) == pytest.approx(v, rel=1e-12)


class TestDepthLossGradient:
    def test_zero_at_optimum(self):
        grid = np.random.default_rng(7).random((32, 32))
        assert not depth_loss_gradient(grid, grid).any()

    def test_euclidean_term_single_cell(self):
        label = np.zeros((32, 32))
        pred = label.copy()
        pred[4, 9] = 0.3
        grad = euclidean_loss_gradient(pred, label)
        assert grad[4, 9] == pytest.approx(0.6)
        assert np.count_nonzero(grad) == 1

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            pred = rng.random((32, 32))
            label = rng.random((32, 32))
            analytic = depth_loss_gradient(pred, label)
            numeric = fd_gradient(pred, label)
            rel = np.abs(numeric - analytic).max() / max(np.abs(analytic).max(),
                                                         1e-12)
            assert rel < 1e-5

    def test_contrastive_gradient_alone_matches_fd(self):
        rng = np.random.default_rng(9)
        pred = rng.random((12, 12))
        label = rng.random((12, 12))
        step = 1e-4
        n = pred.size
        basis = np.eye(n).reshape((n,) + pred.shape)
        plus = contrastive_depth_loss(pred[None] + step * basis, label)
        minus = contrastive_depth_loss(pred[None] - step * basis, label)
        numeric = ((plus - minus) / (2 * step)).reshape(pred.shape)
        analytic = contrastive_loss_gradient(pred, label)
        assert np.allclose(numeric, analytic, atol=1e-7)


def depth_report(preds, labels):
    """multi_frame_report without a head, for its depth terms."""
    report, _ = multi_frame_report(preds, labels, None, binary_label=1, beta=0.9)
    return report


def zero_head(input_dim):
    """The all-zero head, built by hand."""
    return BinaryHead(np.zeros((input_dim, HEAD_HIDDEN)), np.zeros(HEAD_HIDDEN),
                      np.zeros((HEAD_HIDDEN, 2)), np.zeros(2))


class TestSingleFrameLoss:
    def test_identity(self):
        grid = np.random.default_rng(10).random((32, 32))
        assert euclidean_depth_loss(grid, grid) == 0.0
        assert contrastive_depth_loss(grid, grid) == 0.0
        report = depth_report([grid], [grid])
        assert report.absolute == 0.0
        assert report.contrastive == 0.0
        assert report.depth_total == 0.0
        assert report.binary == pytest.approx(math.log(2.0), rel=1e-12)

    def test_constant_offset_euclidean_dominated_interior(self):
        label = np.random.default_rng(11).random((32, 32))
        assert euclidean_depth_loss(label + 0.1, label) == pytest.approx(10.24)
        report = depth_report([label + 0.1], [label])
        assert report.absolute == pytest.approx(10.24)
        assert report.depth_total == pytest.approx(
            report.absolute + report.contrastive)

    def test_sum_of_parts(self):
        rng = np.random.default_rng(12)
        pred, label = rng.random((32, 32)), rng.random((32, 32))
        report = depth_report([pred], [label])
        # One frame: each summed term is that frame's loss, bit for bit.
        assert report.absolute == euclidean_depth_loss(pred, label)
        assert report.contrastive == contrastive_depth_loss(pred, label)
        assert report.depth_total == pytest.approx(
            euclidean_depth_loss(pred, label)
            + contrastive_depth_loss(pred, label), rel=1e-12)


def frame_depth_loss(pred, label):
    return euclidean_depth_loss(pred, label) + contrastive_depth_loss(pred, label)


class TestMultiFrameDepthLoss:
    def test_all_matching(self):
        rng = np.random.default_rng(13)
        grids = [rng.random((32, 32)) for _ in range(4)]
        assert depth_report(grids, grids).depth_total == 0.0

    def test_single_bad_frame(self):
        rng = np.random.default_rng(14)
        labels = [rng.random((32, 32)) for _ in range(3)]
        preds = [labels[0], labels[1] + 0.05, labels[2]]
        expected = frame_depth_loss(preds[1], labels[1])
        assert depth_report(preds, labels).depth_total == pytest.approx(expected)

    def test_two_frames_sum(self):
        rng = np.random.default_rng(15)
        preds = [rng.random((32, 32)) for _ in range(2)]
        labels = [rng.random((32, 32)) for _ in range(2)]
        expected = sum(frame_depth_loss(p, l) for p, l in zip(preds, labels))
        assert depth_report(preds, labels).depth_total == pytest.approx(expected)

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            depth_report([np.zeros((4, 4))], [])

    @pytest.mark.parametrize("which", ["preds", "labels"])
    def test_frame_shapes_must_agree(self, which):
        # A ragged list is no stack; a stack of another length is no pair.
        frames = {"preds": [np.zeros((4, 4))] * 2, "labels": [np.zeros((4, 4))] * 2}
        frames[which] = [np.zeros((4, 4)), np.zeros((4, 5))]
        with pytest.raises(ValueError):
            depth_report(frames["preds"], frames["labels"])
        frames[which] = np.zeros((3, 4, 4))
        with pytest.raises(ValueError, match=r"\(T, H, W\) stacks of one shape"):
            depth_report(frames["preds"], frames["labels"])

    @pytest.mark.parametrize("shape", [(0, 4, 4), (4, 4), (1, 2, 4, 4)])
    def test_needs_a_nonempty_stack(self, shape):
        grids = np.zeros(shape)
        with pytest.raises(ValueError, match=r"\(T, H, W\) stacks"):
            depth_report(grids, grids)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 12),
           st.integers(1, 12), st.booleans())
    def test_batched_terms_equal_per_frame_sums(self, seed, n, h, w, matching):
        rng = np.random.default_rng(seed)
        labels = [rng.standard_normal((h, w)) for _ in range(n)]
        preds = labels if matching else [rng.standard_normal((h, w))
                                         for _ in range(n)]
        report = depth_report(preds, labels)
        absolute = sum(euclidean_depth_loss(p, l) for p, l in zip(preds, labels))
        contrast = sum(contrastive_depth_loss(p, l) for p, l in zip(preds, labels))
        if matching:
            assert report.absolute == absolute == 0.0
            assert report.contrastive == contrast == 0.0
        else:
            assert report.absolute == pytest.approx(absolute, rel=1e-12, abs=0.0)
            assert report.contrastive == pytest.approx(contrast, rel=1e-12, abs=0.0)


class TestBinaryLoss:
    def test_zero_head_gives_log_two(self):
        head = zero_head(4 * 1024)
        fused = [np.random.default_rng(16).random((32, 32)) for _ in range(4)]
        loss, b_hat = binary_loss(head, fused, label=1)
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)
        assert b_hat == 0.5

    def test_softmax_normalization(self):
        head = BinaryHead.seeded(input_dim=2 * 1024, seed=3)
        rng = np.random.default_rng(17)
        fused = [rng.random((32, 32)) for _ in range(2)]
        loss0, _ = binary_loss(head, fused, label=0)
        loss1, b_hat = binary_loss(head, fused, label=1)
        assert math.exp(-loss0) + math.exp(-loss1) == pytest.approx(1.0, abs=1e-12)
        assert b_hat == pytest.approx(math.exp(-loss1), rel=1e-9)

    def test_confident_head_drives_loss_to_zero(self):
        hidden = 16
        head = BinaryHead(np.zeros((1024, hidden)), np.ones(hidden),
                          np.column_stack([np.zeros(hidden), np.ones(hidden)]),
                          np.zeros(2))
        loss, b_hat = binary_loss(head, [np.zeros((32, 32))], label=1)
        assert loss < 1e-6
        assert b_hat > 1 - 1e-6

    def test_dimension_mismatch(self):
        head = zero_head(1024)
        with pytest.raises(ValueError):
            binary_loss(head, [np.zeros((32, 32))] * 2, label=1)

    def test_bad_label(self):
        head = zero_head(1024)
        with pytest.raises(ValueError):
            binary_loss(head, [np.zeros((32, 32))], label=2)


class TestMultiFrameLoss:
    def test_beta_zero_keeps_depth(self):
        assert multi_frame_loss(2.0, 1.0, 0.0) == 2.0

    def test_beta_one_keeps_binary(self):
        assert multi_frame_loss(2.0, 1.0, 1.0) == 1.0

    def test_recommended_beta(self):
        assert multi_frame_loss(2.0, 1.0, 0.9) == pytest.approx(1.1)

    def test_beta_range(self):
        with pytest.raises(ValueError):
            multi_frame_loss(1.0, 1.0, 1.5)


class TestMultiFrameReport:
    def test_aggregation_identities(self):
        rng = np.random.default_rng(18)
        preds = [rng.random((32, 32)) for _ in range(4)]
        labels = [rng.random((32, 32)) for _ in range(4)]
        head = BinaryHead.seeded(input_dim=4 * 1024, seed=1)
        report, b_hat = multi_frame_report(preds, labels, head,
                                           binary_label=1, beta=0.9)
        assert report.depth_total == pytest.approx(
            report.absolute + report.contrastive, rel=1e-12)
        assert report.depth_total == pytest.approx(
            sum(frame_depth_loss(p, l) for p, l in zip(preds, labels)), rel=1e-12)
        assert report.multi_total == pytest.approx(
            0.9 * report.binary + 0.1 * report.depth_total, rel=1e-12)
        assert 0.0 < b_hat < 1.0

    @pytest.mark.parametrize("label", [0, 1])
    def test_no_head_equals_zero_head(self, label):
        rng = np.random.default_rng(19)
        preds = [rng.random((32, 32)) for _ in range(3)]
        labels = [rng.random((32, 32)) for _ in range(3)]
        report, b_hat = multi_frame_report(preds, labels, None,
                                           binary_label=label, beta=0.9)
        zero_loss, zero_b_hat = binary_loss(zero_head(3 * 1024), preds, label)
        assert report.binary == zero_loss == math.log(2.0)
        assert b_hat == zero_b_hat == 0.5
        assert report == multi_frame_report(preds, labels, zero_head(3 * 1024),
                                            binary_label=label, beta=0.9)[0]

    @pytest.mark.parametrize("head_seed", [None, 4])
    def test_stack_equals_list(self, head_seed):
        # A (T, H, W) stack and the same frames as a list give one result.
        rng = np.random.default_rng(20)
        preds = [rng.random((8, 8)) for _ in range(3)]
        labels = [rng.random((8, 8)) for _ in range(3)]
        head = (None if head_seed is None
                else BinaryHead.seeded(input_dim=3 * 64, seed=head_seed))
        want = multi_frame_report(preds, labels, head, binary_label=1, beta=0.9)
        got = multi_frame_report(np.stack(preds), np.stack(labels), head,
                                 binary_label=1, beta=0.9)
        assert got == want

    def test_no_head_rejects_bad_label(self):
        grids = [np.zeros((32, 32))]
        with pytest.raises(ValueError, match="label must be 0 or 1, got 2"):
            multi_frame_report(grids, grids, None, binary_label=2, beta=0.9)
