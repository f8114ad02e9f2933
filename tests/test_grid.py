"""Voxel grid bookkeeping: index math, flattening, bin partitioning."""

import numpy as np
import pytest

from gridpose import (
    ConfigError,
    GridSpec,
    Tensor,
    flat_index,
    flatten_volume,
    merge_bins,
    partition_bins,
    unflatten_volume,
)
from gridpose.grid import row_blocks


class TestGridSpec:
    def test_voxel_center_example(self):
        grid = GridSpec(center=(0, 0, 0), extent=(2000, 2000, 2000), resolution=(32, 32, 32))
        np.testing.assert_allclose(grid.voxel_edge, [62.5, 62.5, 62.5])
        np.testing.assert_allclose(grid.voxel_center((0, 0, 0)), [-968.75, -968.75, -968.75])
        np.testing.assert_allclose(grid.voxel_center((31, 31, 31)), [968.75, 968.75, 968.75])

    def test_single_voxel_center_is_grid_center(self):
        grid = GridSpec(center=(10.0, -5.0, 3.0), extent=777.0, resolution=(1, 1, 1))
        np.testing.assert_allclose(grid.voxel_center((0, 0, 0)), [10.0, -5.0, 3.0])

    def test_scalar_extent_and_resolution_broadcast(self):
        grid = GridSpec(center=0.0, extent=100.0, resolution=4)
        assert grid.resolution == (4, 4, 4)
        np.testing.assert_allclose(grid.extent, [100.0, 100.0, 100.0])

    def test_voxel_centers_match_scalar_formula(self):
        grids = [
            (GridSpec(center=(1.0, 2.0, 3.0), extent=(40, 60, 80), resolution=(2, 3, 4)), 24),
            # non-cubic and larger than one aggregation block of 8192 voxels
            (GridSpec(center=(-350.0, 120.0, 900.0), extent=(2300.0, 1900.0, 2100.0),
                      resolution=(23, 19, 21)), 9177),
        ]
        for grid, n_voxels in grids:
            centers = grid.voxel_centers()
            assert centers.shape == (n_voxels, 3)
            for x, y, z in np.ndindex(*grid.resolution):
                i = flat_index(grid.resolution, x, y, z)
                np.testing.assert_array_equal(centers[i], grid.voxel_center((x, y, z)))

    def test_out_of_range_index_rejected(self):
        grid = GridSpec(center=0.0, extent=10.0, resolution=2)
        with pytest.raises(IndexError):
            grid.voxel_center((2, 0, 0))
        with pytest.raises(IndexError):
            grid.voxel_center((0, -1, 0))

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            GridSpec(center=0.0, extent=-5.0, resolution=4)
        with pytest.raises(ConfigError):
            GridSpec(center=0.0, extent=10.0, resolution=0)
        with pytest.raises(ConfigError):
            GridSpec(center=(np.inf, 0, 0), extent=10.0, resolution=2)

    def test_translated_shifts_all_centers(self):
        grid = GridSpec(center=0.0, extent=64.0, resolution=4)
        delta = np.array([100.0, -50.0, 25.0])
        shifted = GridSpec(grid.center + delta, grid.extent, grid.resolution)
        np.testing.assert_allclose(
            shifted.voxel_centers(), grid.voxel_centers() + delta, atol=1e-12
        )


class TestFlatten:
    def test_flat_index_examples(self):
        assert flat_index((4, 5, 6), 0, 0, 0) == 0
        # x + X*y + X*Y*z = 1 + 4*2 + 20*3
        assert flat_index((4, 5, 6), 1, 2, 3) == 69

    def test_flatten_order_matches_flat_index(self):
        dims = (4, 5, 6)
        vol = np.zeros((1, *dims))
        for x in range(4):
            for y in range(5):
                for z in range(6):
                    vol[0, x, y, z] = flat_index(dims, x, y, z)
        seq = flatten_volume(vol)
        np.testing.assert_array_equal(seq[:, 0], np.arange(120))

    def test_round_trip_random_volume(self):
        rng = np.random.default_rng(0)
        vol = rng.normal(size=(2, 3, 4, 5))
        np.testing.assert_array_equal(unflatten_volume(flatten_volume(vol), (3, 4, 5)), vol)

    def test_unflatten_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            unflatten_volume(np.zeros((7, 1)), (2, 2, 2))

    def test_unflatten_l8_valid(self):
        vol = unflatten_volume(np.arange(8.0).reshape(8, 1), (2, 2, 2))
        assert vol.shape == (1, 2, 2, 2)
        # index (1, 1, 1) is the last sequence row
        assert vol[0, 1, 1, 1] == 7.0

    def test_flatten_works_on_tensors(self):
        rng = np.random.default_rng(1)
        vol = Tensor(rng.normal(size=(2, 2, 3, 2)), requires_grad=True)
        seq = flatten_volume(vol)
        assert isinstance(seq, Tensor)
        (seq * Tensor(rng.normal(size=seq.shape))).sum().backward()
        assert vol.grad is not None and vol.grad.shape == vol.data.shape


class TestBins:
    def test_full_scale_bin_count(self):
        seq = np.zeros((32768, 1))
        bins = partition_bins(seq, 128)
        assert bins.shape == (256, 128, 1)

    def test_single_bin_equals_sequence(self):
        rng = np.random.default_rng(2)
        seq = rng.normal(size=(8, 3))
        bins = partition_bins(seq, 8)
        assert bins.shape == (1, 8, 3)
        np.testing.assert_array_equal(bins[0], seq)

    def test_indivisible_length_rejected(self):
        with pytest.raises(ConfigError):
            partition_bins(np.zeros((10, 2)), 4)

    def test_merge_inverts_partition(self):
        rng = np.random.default_rng(3)
        seq = rng.normal(size=(12, 5))
        np.testing.assert_array_equal(merge_bins(partition_bins(seq, 3)), seq)

    def test_partition_preserves_contiguous_blocks(self):
        seq = np.arange(12.0).reshape(12, 1)
        bins = partition_bins(seq, 4)
        np.testing.assert_array_equal(bins[1, :, 0], [4.0, 5.0, 6.0, 7.0])

    def test_bins_differentiable(self):
        rng = np.random.default_rng(4)
        seq = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        out = merge_bins(partition_bins(seq, 2))
        (out * Tensor(rng.normal(size=(6, 2)))).sum().backward()
        assert seq.grad is not None


class TestRowBlocks:
    @pytest.mark.parametrize("size", range(1, 10))
    def test_blocks_cover_rows_in_order_and_none_has_one_row(self, size):
        for n in range(61):
            blocks = row_blocks(n, size)
            # each block ends where the next starts, from row 0 to row n
            assert [0, *(hi for _, hi in blocks)] == [*(lo for lo, _ in blocks), n], (n, size)
            lengths = [hi - lo for lo, hi in blocks]
            assert all(length >= (1 if n == 1 else 2) for length in lengths), (n, size)
            # a size of 1 counts as 2: no 3 rows split into blocks of 2 rows
            # at most and none of 1
            assert all(length <= max(size, 2) + 1 for length in lengths), (n, size)
            assert all(length == max(size, 2) for length in lengths[:-1]), (n, size)
