"""Scan-path generation: bijectivity, derived tables, round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvmhunet.scan import SCAN_MODES, flatten_spatial, scan_orders, unflatten_spatial
from cvmhunet.tensor import Tensor

# Hand-derived 3x3 traversals (flat row-major indices in visit order).
EXPECTED_3X3 = {
    "horizontal": [0, 1, 2, 3, 4, 5, 6, 7, 8],
    "horizontal_reversed": [8, 7, 6, 5, 4, 3, 2, 1, 0],
    "vertical": [0, 3, 6, 1, 4, 7, 2, 5, 8],
    "vertical_reversed": [8, 5, 2, 7, 4, 1, 6, 3, 0],
    "diagonal": [0, 1, 3, 2, 4, 6, 5, 7, 8],
    "anti_diagonal": [2, 1, 5, 0, 4, 8, 3, 7, 6],
}


class TestDerivedTables:
    def test_ss2d_3x3(self):
        for order in scan_orders(3, 3, "ss2d"):
            np.testing.assert_array_equal(order.perm, EXPECTED_3X3[order.name], err_msg=order.name)

    def test_cs2d_3x3(self):
        for order in scan_orders(3, 3, "cs2d"):
            np.testing.assert_array_equal(order.perm, EXPECTED_3X3[order.name], err_msg=order.name)

    def test_cs2d_2x4_diagonal_band_structure(self):
        # bands r+c: [(0,0)], [(0,1),(1,0)], [(0,2),(1,1)], [(0,3),(1,2)], [(1,3)]
        (order,) = [o for o in scan_orders(2, 4, "cs2d") if o.name == "diagonal"]
        np.testing.assert_array_equal(order.perm, [0, 1, 4, 2, 5, 3, 6, 7])

    def test_cs2d_2x4_anti_diagonal_band_structure(self):
        # bands r+(W-1-c) from top-right: [(0,3)], [(0,2),(1,3)], [(0,1),(1,2)], ...
        (order,) = [o for o in scan_orders(2, 4, "cs2d") if o.name == "anti_diagonal"]
        np.testing.assert_array_equal(order.perm, [3, 2, 7, 1, 6, 0, 5, 4])


class TestBijections:
    @pytest.mark.parametrize("mode", SCAN_MODES)
    def test_exhaustive_small_grids(self, mode):
        for h in range(1, 17):
            for w in range(1, 17):
                for order in scan_orders(h, w, mode):
                    assert order.perm.shape == (h * w,)
                    np.testing.assert_array_equal(np.sort(order.perm), np.arange(h * w))
                    np.testing.assert_array_equal(order.perm[order.inv], np.arange(h * w))
                    np.testing.assert_array_equal(order.inv[order.perm], np.arange(h * w))

    @pytest.mark.parametrize("mode", SCAN_MODES)
    def test_direction_count_and_names_unique(self, mode):
        orders = scan_orders(5, 7, mode)
        assert len(orders) == 4
        assert len({o.name for o in orders}) == 4


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        h=st.integers(1, 12),
        w=st.integers(1, 12),
        mode=st.sampled_from(SCAN_MODES),
        seed=st.integers(0, 2**16),
    )
    def test_flatten_unflatten_identity(self, h, w, mode, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 3, h, w)))
        for order in scan_orders(h, w, mode):
            back = unflatten_spatial(flatten_spatial(x, order), order)
            np.testing.assert_array_equal(back.data, x.data)

    def test_flatten_gradient_is_inverse_gather(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 2, 3, 3)).astype(np.float64), requires_grad=True)
        (order,) = [o for o in scan_orders(3, 3, "cs2d") if o.name == "diagonal"]
        seq = flatten_spatial(x, order)
        w = np.arange(seq.size, dtype=np.float64).reshape(seq.shape)
        (seq * Tensor(w)).sum().backward()
        flat_grad = x.grad.reshape(1, 2, 9)
        # position perm[t] must receive weight of time step t
        for t, flat in enumerate(order.perm):
            np.testing.assert_allclose(flat_grad[0, 0, flat], w[0, 0, t])

    def test_flatten_follows_visit_order(self):
        x = Tensor(np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3))
        for order in scan_orders(3, 3, "cs2d"):
            seq = flatten_spatial(x, order)
            np.testing.assert_array_equal(seq.data.reshape(-1), EXPECTED_3X3[order.name])


class TestValidationAndDump:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="scan mode"):
            scan_orders(3, 3, "zigzag")

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError, match="1x1"):
            scan_orders(0, 3, "ss2d")

    def test_shape_mismatch_rejected(self):
        (order,) = [o for o in scan_orders(4, 4, "ss2d") if o.name == "horizontal"]
        with pytest.raises(ValueError, match="4x4"):
            flatten_spatial(Tensor(np.zeros((1, 1, 3, 3))), order)

    def test_cache_returns_same_object(self):
        assert scan_orders(6, 6, "cs2d") is scan_orders(6, 6, "cs2d")
