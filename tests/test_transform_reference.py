"""The pointwise transform reference against the exact enumeration, and the
golden sweeps' Monte Carlo cells against the reference."""

import pytest

from perccode.analytic import ModelParams
from perccode.oracle import MAX_ENUM_DEPTH, exact_enumeration

from test_golden import golden_rows
from transform_reference import transform_means


@pytest.mark.parametrize("depth", range(MAX_ENUM_DEPTH + 1))
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.6, 0.9, 1.0])
def test_transform_means_are_the_enumerations(p, depth):
    exact = exact_enumeration(ModelParams(p), depth)
    means = transform_means(p, depth)
    for name in ("mean_normalization", "leafless_probability", "mean_avg_length"):
        assert means[name] == pytest.approx(getattr(exact, name), rel=1e-12, abs=0), name
    # the entropy's error is rounding over the grid, absolute
    assert means["mean_entropy_bits"] == pytest.approx(exact.mean_entropy_bits, rel=0, abs=1e-11)


@pytest.mark.parametrize("depth", [1, 3, 18])
def test_transform_means_at_p_zero_and_one(depth):
    # p = 0: the root is the one leaf, of weight 1; p = 1: the full tree, with no leaf
    assert transform_means(0.0, depth) == {
        "mean_normalization": 1.0, "leafless_probability": 0.0,
        "mean_avg_length": 0.0, "mean_entropy_bits": 0.0,
    }
    assert transform_means(1.0, depth) == {
        "mean_normalization": 0.0, "leafless_probability": 1.0,
        "mean_avg_length": 0.0, "mean_entropy_bits": 0.0,
    }


@pytest.mark.parametrize("name", ["sweep.csv", "sweep-block.csv"])
def test_golden_sweep_cells_lie_within_three_se_of_the_exact_means(name):
    cells = [row for row in golden_rows(name) if 0.0 < float(row["p"]) < 1.0]
    assert cells
    for row in cells:
        exact = transform_means(float(row["p"]), int(row["depth"]))
        for mean, se, key in [("mean_L", "se_L", "mean_avg_length"),
                              ("mean_H_bits", "se_H_bits", "mean_entropy_bits")]:
            # depth 1 has only root leaves: every mean and SE is an exact 0
            miss = abs(float(row[mean]) - exact[key])
            assert miss <= 3 * float(row[se]), (row["p"], row["depth"], mean, miss)
