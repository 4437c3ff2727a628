import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthpad.features import off_sequence
from depthpad.recurrent import (
    ConvGruCell,
    convgru_run,
    convgru_step,
    fuse_depth,
    sigmoid,
)

from test_features import flow_weights, reference_conv2d, tap_sum_conv2d


def zero_cell(input_channels=1, hidden_channels=1):
    shape = (3, 3, hidden_channels + input_channels, hidden_channels)
    return ConvGruCell(np.zeros(shape), np.zeros(shape), np.zeros(shape))


class TestConvGruStep:
    def test_zero_kernels_halve_state(self):
        cell = zero_cell()
        h0 = np.random.default_rng(0).uniform(-1, 1, (8, 8, 1))
        x = np.ones((8, 8, 1))
        h1, (r, u) = convgru_step(cell, h0, x)
        assert np.array_equal(u, np.full((8, 8, 1), 0.5))
        assert np.array_equal(r, np.full((8, 8, 1), 0.5))
        assert np.array_equal(h1, 0.5 * h0)

    def test_zero_state_stays_zero(self):
        cell = zero_cell()
        h1, _ = convgru_step(cell, np.zeros((6, 6, 1)), np.ones((6, 6, 1)))
        assert not h1.any()

    def test_gates_strictly_inside_unit_interval(self):
        # Kernel scale keeps pre-activations below the float64 sigmoid
        # saturation point (~37), where the open interval is representable.
        rng = np.random.default_rng(1)
        cell = ConvGruCell.seeded(input_channels=3, hidden_channels=2,
                                  scale=0.8, seed=4)
        h = rng.uniform(-1, 1, (10, 10, 2))
        x = rng.standard_normal((10, 10, 3))
        _, (r, u) = convgru_step(cell, h, x)
        for gate in (r, u):
            assert (gate > 0).all()
            assert (gate < 1).all()

    def test_matches_gate_by_gate_equations(self):
        # The module docstring's equations, one convolution per kernel.
        rng = np.random.default_rng(2)
        for hidden in (1, 3):
            cell = ConvGruCell.seeded(input_channels=4, hidden_channels=hidden,
                                      scale=0.5, seed=hidden)
            h = rng.uniform(-1, 1, (7, 9, hidden))
            x = rng.standard_normal((7, 9, 4))
            hx = np.concatenate([h, x], axis=2)
            r = 1.0 / (1.0 + np.exp(-reference_conv2d(hx, cell.k_r, "zero")))
            u = 1.0 / (1.0 + np.exp(-reference_conv2d(hx, cell.k_u, "zero")))
            c = np.tanh(reference_conv2d(np.concatenate([r * h, x], axis=2),
                                         cell.k_h, "zero"))
            h_new, (r_got, u_got) = convgru_step(cell, h, x)
            assert np.allclose(r_got, r, rtol=0, atol=1e-12)
            assert np.allclose(u_got, u, rtol=0, atol=1e-12)
            assert np.allclose(h_new, (1.0 - u) * h + u * c, rtol=0, atol=1e-12)

    def test_matches_concatenate_and_conv2d_bit_for_bit(self):
        # The shared buffer's r * h overwrite must leave the x channels and
        # the zero border exactly as a fresh concatenate-and-pad would; the
        # reference is numpy's zero pad plus conv2d's tap sum.
        rng = np.random.default_rng(24)
        for hidden in (1, 3):
            cell = ConvGruCell.seeded(input_channels=4, hidden_channels=hidden,
                                      scale=0.5, seed=10 + hidden)
            h = rng.uniform(-1, 1, (7, 9, hidden))
            x = rng.standard_normal((7, 9, 4))
            gates = sigmoid(tap_sum_conv2d(
                np.concatenate([h, x], axis=2),
                np.concatenate([cell.k_r, cell.k_u], axis=3), "zero"))
            r, u = gates[:, :, :hidden], gates[:, :, hidden:]
            c = np.tanh(tap_sum_conv2d(np.concatenate([r * h, x], axis=2),
                                       cell.k_h, "zero"))
            h_new, (r_got, u_got) = convgru_step(cell, h, x)
            assert np.array_equal(r_got, r)
            assert np.array_equal(u_got, u)
            assert np.array_equal(h_new, (1.0 - u) * h + u * c)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_or_input_rejected(self, bad):
        cell = zero_cell(input_channels=2, hidden_channels=1)
        h, x = np.zeros((6, 6, 1)), np.zeros((6, 6, 2))
        h_bad, x_bad = h.copy(), x.copy()
        h_bad[2, 3, 0] = bad
        x_bad[4, 1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            convgru_step(cell, h_bad, x)
        with pytest.raises(ValueError, match="non-finite"):
            convgru_step(cell, h, x_bad)

    def test_shape_mismatches_rejected(self):
        cell = zero_cell(input_channels=2, hidden_channels=1)
        with pytest.raises(ValueError):
            convgru_step(cell, np.zeros((6, 6, 1)), np.zeros((5, 6, 2)))
        with pytest.raises(ValueError):
            convgru_step(cell, np.zeros((6, 6, 2)), np.zeros((6, 6, 2)))
        with pytest.raises(ValueError):
            convgru_step(cell, np.zeros((6, 6, 1)), np.zeros((6, 6, 3)))

    def test_kernel_validation(self):
        good = np.zeros((3, 3, 2, 1))
        with pytest.raises(ValueError):
            ConvGruCell(good, good, np.zeros((3, 3, 3, 1)))  # disagreeing shapes
        with pytest.raises(ValueError):
            ConvGruCell(*(np.zeros((5, 5, 2, 1)),) * 3)  # not 3x3
        with pytest.raises(ValueError):
            ConvGruCell(*(np.zeros((3, 3, 1, 1)),) * 3)  # no room for input


def two_branch_sigmoid(x):
    # The masked form: exp never sees a positive argument.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    EXTREMES = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf,
                5e-324, -5e-324]

    def test_matches_two_branch_form_bit_for_bit(self):
        x = np.concatenate([50.0 * np.random.default_rng(25).standard_normal(4000),
                            self.EXTREMES])
        with np.errstate(over="raise"):
            got = sigmoid(x)
        assert np.array_equal(got, two_branch_sigmoid(x))
        assert np.array_equal(sigmoid(x.reshape(10, 401)),
                              two_branch_sigmoid(x).reshape(10, 401))

    def test_extremes_saturate_exactly(self):
        got = sigmoid(np.array([np.inf, -np.inf, 1e308, -1e308, 0.0, -0.0]))
        assert np.array_equal(got, [1.0, 0.0, 1.0, 0.0, 0.5, 0.5])

    def test_nan_stays_nan(self):
        with np.errstate(over="raise"):
            got = sigmoid(np.array([np.nan, -np.nan, 1.0]))
        assert np.isnan(got[:2]).all()
        assert got[2] == two_branch_sigmoid(np.array([1.0]))[0]


class TestConvGruRun:
    def test_geometric_halving(self):
        cell = zero_cell()
        h0 = np.ones((8, 8, 1))
        xs = [np.ones((8, 8, 1))] * 3
        states = convgru_run(cell, h0, xs)
        for state, expected in zip(states, (0.5, 0.25, 0.125)):
            assert np.abs(state - expected).max() <= 1e-12

    def test_single_step_equals_step(self):
        cell = ConvGruCell.seeded(input_channels=2, hidden_channels=1,
                                  scale=0.1, seed=2)
        rng = np.random.default_rng(3)
        h0 = rng.uniform(-1, 1, (6, 6, 1))
        x = rng.standard_normal((6, 6, 2))
        run_state = convgru_run(cell, h0, [x])[0]
        step_state, _ = convgru_step(cell, h0, x)
        assert np.array_equal(run_state, step_state)

    def test_deterministic(self):
        cell = ConvGruCell.seeded(input_channels=2, hidden_channels=1,
                                  scale=0.1, seed=5)
        rng = np.random.default_rng(6)
        h0 = rng.uniform(-1, 1, (6, 6, 1))
        xs = [rng.standard_normal((6, 6, 2)) for _ in range(4)]
        a = convgru_run(cell, h0, xs)
        b = convgru_run(cell, h0, xs)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_hidden_state_stays_bounded(self):
        rng = np.random.default_rng(7)
        cell = ConvGruCell.seeded(input_channels=2, hidden_channels=2,
                                  scale=1.5, seed=8)
        h0 = rng.uniform(-1, 1, (8, 8, 2))
        xs = [3.0 * rng.standard_normal((8, 8, 2)) for _ in range(50)]
        for state in convgru_run(cell, h0, xs):
            assert state.min() >= -1.0
            assert state.max() <= 1.0

    def test_suppressed_update_gate_freezes_state(self):
        # All-negative update kernel on an all-ones input drives the gate
        # pre-activation far below zero everywhere, so h barely moves.
        shape = (3, 3, 2, 1)
        k_u = np.zeros(shape)
        k_u[:, :, 1, 0] = -10.0  # input channel taps only
        cell = ConvGruCell(np.zeros(shape), k_u, np.zeros(shape))
        rng = np.random.default_rng(9)
        h0 = rng.uniform(-1, 1, (8, 8, 1))
        xs = [np.ones((8, 8, 1))] * 20
        final = convgru_run(cell, h0, xs)[-1]
        assert np.abs(final - h0).max() < 1e-6

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            convgru_run(zero_cell(), np.zeros((4, 4, 1)), [])
        with pytest.raises(ValueError, match="at least one input"):
            convgru_run(zero_cell(), np.zeros((4, 4, 1)), np.zeros((0, 4, 4, 1)))

    def test_folds_any_iterable_once(self):
        # A generator is read once, one input per step, as the model feeds
        # off_sequence's blocks; a bad input raises at its own step.
        cell = ConvGruCell.seeded(input_channels=2, hidden_channels=1,
                                  scale=0.1, seed=13)
        rng = np.random.default_rng(14)
        h0 = rng.uniform(-1, 1, (5, 5, 1))
        xs = rng.standard_normal((3, 5, 5, 2))
        read = []

        def inputs():
            for x in xs:
                read.append(x)
                yield x

        assert np.array_equal(convgru_run(cell, h0, inputs()),
                              convgru_run(cell, h0, xs))
        assert len(read) == len(xs)
        bad = [xs[0], np.full((5, 5, 2), np.nan)]
        with pytest.raises(ValueError, match="input contains non-finite"):
            convgru_run(cell, h0, iter(bad))
        with pytest.raises(ValueError, match="input has 3 channels"):
            convgru_run(cell, h0, iter([np.zeros((5, 5, 3))]))

    def test_returns_the_stack_of_step_states(self):
        cell = ConvGruCell.seeded(input_channels=3, hidden_channels=2,
                                  scale=0.1, seed=11)
        rng = np.random.default_rng(12)
        h = rng.uniform(-1, 1, (5, 6, 2))
        xs = rng.standard_normal((4, 5, 6, 3))
        states = convgru_run(cell, h, xs)
        assert states.shape == (4, 5, 6, 2)
        for x, state in zip(xs, states):
            h, _ = convgru_step(cell, h, x)
            assert np.array_equal(state, h)

    def test_open_gates_average_the_flow_residual(self):
        # Zero gate kernels hold r = u = 1/2, and a k_h that reads the
        # input at its centre tap makes the candidate tanh(x), so each state
        # is (h + tanh(x)) / 2: a running average of the motion block's flow
        # residual, short-term motion folded into the long-term state.
        k_h = np.zeros((3, 3, 2, 1))
        k_h[1, 1, 1, 0] = 1.0
        cell = ConvGruCell(np.zeros_like(k_h), np.zeros_like(k_h), k_h)
        rng = np.random.default_rng(15)
        frames = rng.standard_normal((5, 6, 7, 3))
        h = rng.uniform(-1, 1, (6, 7, 1))
        blocks = list(off_sequence(frames, flow_weights(3, (0.25, -0.5))))
        for block, state in zip(blocks, convgru_run(cell, h, blocks)):
            h = (h + np.tanh(block)) / 2
            assert np.array_equal(state, h)


class TestFuseDepth:
    def test_alpha_one_keeps_single(self):
        rng = np.random.default_rng(10)
        single = rng.random((32, 32))
        multi = rng.random((32, 32))
        assert np.array_equal(fuse_depth(single, multi, 1.0), single)

    def test_alpha_zero_keeps_multi(self):
        rng = np.random.default_rng(11)
        single = rng.random((32, 32))
        multi = rng.random((32, 32))
        assert np.array_equal(fuse_depth(single, multi, 0.0), multi)

    def test_recommended_alpha(self):
        fused = fuse_depth(np.ones((32, 32)), np.zeros((32, 32)), 0.8)
        assert np.allclose(fused, 0.8, atol=1e-15)

    def test_identical_inputs_fixed_point(self):
        rng = np.random.default_rng(12)
        d = rng.random((16, 16))
        assert np.allclose(fuse_depth(d, d, 0.37), d, atol=1e-15)

    def test_out_of_range_alpha(self):
        d = np.zeros((4, 4))
        with pytest.raises(ValueError):
            fuse_depth(d, d, 1.2)
        with pytest.raises(ValueError):
            fuse_depth(d, d, -0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fuse_depth(np.zeros((4, 4)), np.zeros((4, 5)), 0.5)



class TestInvariantProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0),
           st.integers(1, 2), st.integers(1, 3))
    def test_hidden_state_bounded_for_large_kernels(self, seed, scale, ch, cin):
        # h' is a convex combination of h and a tanh, whatever the kernels.
        cell = ConvGruCell.seeded(input_channels=cin, hidden_channels=ch,
                                  scale=scale, seed=seed)
        rng = np.random.default_rng(seed)
        h0 = rng.uniform(-1, 1, (5, 5, ch))
        xs = [scale * rng.standard_normal((5, 5, cin)) for _ in range(32)]
        for state in convgru_run(cell, h0, xs):
            assert np.abs(state).max() <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.booleans())
    def test_fused_depth_lies_between_inputs(self, seed, alpha, tie):
        rng = np.random.default_rng(seed)
        single = rng.uniform(-1, 1, (6, 6))
        multi = single.copy() if tie else rng.uniform(-1, 1, (6, 6))
        fused = fuse_depth(single, multi, alpha)
        # Rounding can put alpha * s + (1 - alpha) * m just outside [lo, hi]
        # (above s when s == m), so the bound allows 2 eps of the larger input.
        ulp = 2 * np.finfo(float).eps * np.maximum(abs(single), abs(multi))
        assert (fused >= np.minimum(single, multi) - ulp).all()
        assert (fused <= np.maximum(single, multi) + ulp).all()
