"""Percolation clusters on perfect binary trees as prefix codes.

Closed forms (:mod:`~perccode.analytic`), cluster sampling
(:mod:`~perccode.percolate`), code extraction and bitstreams
(:mod:`~perccode.codec`), per-cluster information measures
(:mod:`~perccode.infomeasure`), exact oracles (:mod:`~perccode.oracle`),
Monte Carlo ensembles (:mod:`~perccode.ensemble`), and a CLI
(:mod:`~perccode.cli`).
"""

from .analytic import (
    DomainError,
    LeafMoments,
    ModelParams,
    MomentPair,
    expected_code_length,
    expected_entropy,
    extinction_probability,
    lambda_mean,
    lambda_var,
    lambda_var_exact,
    leaf_moments,
    leaf_pgf_eval,
    node_moments,
    pgf_eval,
    pgf_iterate,
)
from .codec import (
    CodeBook,
    DecodeError,
    decode,
    encode,
    extract_codebook,
    is_prefix_free,
    kraft_sum,
)
from .ensemble import EnsembleConfig, EnsembleStats, run_ensemble, sweep
from .infomeasure import ConfigMeasures, measures
from .oracle import (
    ExactStats,
    SizeError,
    exact_enumeration,
    joint_leaf_distribution,
    node_distribution,
)
from .percolate import (
    RNG_VERSION,
    Cluster,
    GenerationTally,
    cluster_stream,
    grid_tallies,
    sample_cluster,
    sample_tally,
    tally,
)

__version__ = "0.1.0"
