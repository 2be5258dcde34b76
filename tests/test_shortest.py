"""The vectorized float cells of ``herdlearn._shortest`` against ``repr``,
one value at a time (``oracles.csv_cell``), alone and through the CSV
writer on both sides of the size at which the writer switches to them."""

from unittest import mock

import numpy as np
import pytest

from herdlearn import _shortest, cli

import oracles


def _want(values: np.ndarray) -> list:
    return [oracles.csv_cell(v) for v in values]


def _with_neighbours(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


_POWERS_OF_TWO = _with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
# float("1e-324") is 0.0; its neighbours are the least subnormals.
_POWERS_OF_TEN = _with_neighbours(np.array([float(f"1e{k}") for k in range(-324, 309)]))
# Where repr switches between positional and exponent form.
_FORM_SWITCHES = _with_neighbours(np.array([1e-4, 1e-5, 1e16, 1e17]))
_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324])


class TestShortestKernel:
    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20201).integers(0, 2**64, 200_000, dtype=np.uint64)
        x = bits.view(np.float64)
        exponent = (bits >> 52) & 0x7FF
        # NaN payloads of both signs and subnormals are among them.
        assert np.count_nonzero(np.isnan(x)) > 50
        assert np.count_nonzero((exponent == 0) & (bits << 12 != 0)) > 50
        assert _shortest.cells(x) == _want(x)

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param(np.concatenate([_POWERS_OF_TWO, -_POWERS_OF_TWO]), id="powers-of-two"),
            pytest.param(_POWERS_OF_TEN, id="powers-of-ten"),
            pytest.param(np.concatenate([_FORM_SWITCHES, -_FORM_SWITCHES]), id="form-switches"),
            pytest.param(_SPECIALS, id="specials"),
        ],
    )
    def test_edges(self, values):
        assert _shortest.cells(values) == _want(values)

    def test_least_subnormal_has_one_digit(self):
        assert _shortest.cells(np.array([5e-324, 1e-323, 1.5e-323])) == [
            "5e-324", "1e-323", "1.5e-323"
        ]

    def test_float32_column(self):
        x = np.random.default_rng(7).standard_normal(3000).astype(np.float32)
        x[:4] = [np.float32(0.1), np.float32(1e-40), np.inf, np.nan]
        assert _shortest.cells(x) == _want(x)
        assert _shortest.cells(x) == _want(x.astype(np.float64))

    def test_empty(self):
        assert _shortest.cells(np.array([])) == []

    @pytest.mark.parametrize(
        "n, columns",
        [
            (cli.FLOAT_KERNEL_CUTOVER - 1, 1),
            (cli.FLOAT_KERNEL_CUTOVER, 1),
            # Two columns of a block together reach the cutover.
            (cli.FLOAT_KERNEL_CUTOVER // 2, 2),
            (cli.FLOAT_KERNEL_CUTOVER // 2 - 1, 2),
            (2 * cli.CSV_BLOCK_ROWS + 3, 3),
        ],
    )
    def test_through_the_writer(self, n, columns):
        rng = np.random.default_rng(n)
        edges = np.concatenate([_SPECIALS, _FORM_SWITCHES, _POWERS_OF_TEN])
        data = [
            np.resize(rng.permutation(edges), n) if i == 0
            else rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
            for i in range(columns)
        ]
        header = ["t"] + [f"x{i}" for i in range(columns)]
        table = [cli._steps(n), *data]
        with mock.patch.object(_shortest, "cells", wraps=_shortest.cells) as kernel:
            got = cli._csv_lines(header, table)
        assert kernel.called == (n * columns >= cli.FLOAT_KERNEL_CUTOVER)
        assert got == oracles.csv_lines(header, zip(*table))
