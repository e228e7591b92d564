"""Tests for the benchmark's own oracles, on small inputs.

These sit outside the package's test suite; run them with

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import math
import os

import numpy as np
import pytest

from mrquant import (
    BiasAlphaCdf,
    QuantizerSpec,
    RelayChainConfig,
    RenewalConfig,
    StepCdf,
    average_chain_error,
    capacity_to_step,
    count_levels,
    levy_distance,
    quantize_many,
    renewal_oracle_cdf,
)

import layers
import run
import workloads
from oracles import (
    applied_steps,
    collapsed_chain_error,
    decrement_vectors,
    first_crossing_law,
    walk_cells,
    walk_count,
)

SPECS = {
    "uniform": QuantizerSpec.uniform(),
    "bmrq": QuantizerSpec.bmrq(),
    "dbmrq": QuantizerSpec.dbmrq(),
    "bbmrq": QuantizerSpec.bbmrq(0.6),
}


class TestWalkCells:
    def test_uniform_by_hand(self):
        cells = list(walk_cells(SPECS["uniform"], 1.0, 0.5, 3.5))
        assert [(c.lo, c.hi) for c in cells] == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)]

    @pytest.mark.parametrize("name", list(SPECS))
    @pytest.mark.parametrize("s, x0, x1", [
        (0.1, 0.0, 3.0),
        (0.37, 1.3, 9.1),
        (0.3, -2.9, 4.4),
        (0.25, -6.1, -0.7),
        (1.7, -40.0, 0.0),
    ])
    def test_matches_count_levels(self, name, s, x0, x1):
        assert walk_count(SPECS[name], s, x0, x1) == count_levels(SPECS[name], s, x0, x1)

    @pytest.mark.parametrize("name", list(SPECS))
    def test_cells_tile_the_window(self, name):
        cells = list(walk_cells(SPECS[name], 0.3, 0.05, 7.0))
        assert cells[0].lo <= 0.05 < cells[0].hi
        assert cells[-1].lo < 7.0 <= cells[-1].hi
        assert all(a.hi == b.lo for a, b in zip(cells, cells[1:]))


def _brute_force_crossing(alpha, horizon):
    """Sum over every step sequence up to its first crossing, path by path.
    The position is spelled i * la + j * lb, as in the oracle, so equal
    states give bitwise equal overshoots."""
    la, lb = -math.log2(alpha), -math.log2(1.0 - alpha)
    atoms = {}

    def walk(i, j, prob):
        here = i * la + j * lb
        for step, di, p in ((la, 1, alpha), (lb, 0, 1.0 - alpha)):
            if here + step >= horizon:
                size = 2.0 ** -(here + step - horizon)
                atoms[size] = atoms.get(size, 0.0) + prob * p
            else:
                walk(i + di, j + 1 - di, prob * p)

    walk(0, 0, 1.0)
    return atoms


class TestFirstCrossingLaw:
    def test_is_a_probability(self):
        sizes, masses = first_crossing_law(0.6, 12.0)
        assert math.fsum(masses.tolist()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(sizes) > 0.0) and sizes[0] > 0.0 and sizes[-1] <= 1.0

    def test_lattice_walk_lands_on_the_horizon(self):
        sizes, masses = first_crossing_law(0.5, 5.0)
        assert sizes.tolist() == [1.0] and masses.tolist() == pytest.approx([1.0])

    def test_matches_path_enumeration(self):
        sizes, masses = first_crossing_law(0.6, 3.0)
        brute = _brute_force_crossing(0.6, 3.0)
        keys = sorted(brute)
        assert len(keys) == sizes.size
        assert np.allclose(keys, sizes, rtol=1e-12)
        assert np.allclose([brute[k] for k in keys], masses, rtol=1e-12)

    def test_monte_carlo_oracle_lands_within_its_sampling_error(self):
        n = 20_000
        sizes, masses = first_crossing_law(0.6, 12.0)
        exact = StepCdf(sizes, masses / math.fsum(masses.tolist()))
        sim = renewal_oracle_cdf(RenewalConfig(alpha=0.6, horizon_t=12.0, samples=n, seed=7))
        dkw = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))
        assert levy_distance(exact, sim) <= dkw

    def test_horizon_30_distance_from_the_stationary_law(self):
        # The README of the package quotes 0.0397 for this distance.
        sizes, masses = first_crossing_law(0.6, 30.0)
        exact = StepCdf(sizes, masses / math.fsum(masses.tolist()))
        assert levy_distance(exact, BiasAlphaCdf(0.6)) == pytest.approx(0.0397, abs=5e-4)


class TestCollapsedChainError:
    @pytest.mark.parametrize("name", ["bmrq", "dbmrq", "bbmrq", "uniform"])
    @pytest.mark.parametrize("s, domain", [(0.13, (0.0, 1.0)), (0.3, (0.41, 1.77)), (0.05, (2.0, 2.6))])
    def test_matches_the_grid_mean(self, name, s, domain):
        n = 1000
        xs = domain[0] + (np.arange(n) + 0.5) * ((domain[1] - domain[0]) / n)
        brute = float(np.mean(np.abs(quantize_many(SPECS[name], s, xs) - xs)))
        assert collapsed_chain_error(SPECS[name], s, domain, n) == pytest.approx(brute, rel=1e-12)

    def test_dyadic_plateau_by_hand(self):
        # 1024 points, 256 per cell of length 1/4: mean distance s/4.
        assert collapsed_chain_error(SPECS["bmrq"], 0.25, (0.0, 1.0), 1024) == 0.0625

    @pytest.mark.parametrize("name", ["bmrq", "dbmrq", "bbmrq"])
    def test_matches_a_collapsed_chain(self, name):
        cfg = RelayChainConfig((16, 8, 5), SPECS[name], domain=(0.3, 1.4))
        coarsest = max(capacity_to_step(cfg.spec, k, cfg.domain) for k in cfg.capacities)
        assert collapsed_chain_error(cfg.spec, coarsest, cfg.domain, 4096) == pytest.approx(
            average_chain_error(cfg, 1.0, grid_size=4096), rel=1e-9)


class TestAdversaryHelpers:
    def test_decrement_vectors(self):
        assert len(decrement_vectors((32, 16, 8), 2)) == 9
        assert decrement_vectors((2, 3), 2) == [(0, 1)]
        assert all(0 < sum(d) <= 2 for d in decrement_vectors((5, 5, 5, 5), 2))

    def test_applied_steps(self):
        assert applied_steps([0.5, 0.25, 1.0, 1.0]) == (0.5, None, 1.0, None)


def test_benchmark_file_matches_the_code():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(workloads.ROUNDS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(layers.PER_LAYER)
