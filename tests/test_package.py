"""The package surface: ``partita`` re-exports each submodule's
``__all__``, so every public name is declared once, in its module."""

import partita
from partita import core, lists, oracle, series

# The 44 public names of version 0.1.0.
PUBLIC = [
    "ALG1", "ALG2", "CLOSED_FORM", "COLUMN_POWER", "COLUMN_SCALE",
    "CacheFormatError", "DEFAULT_CROSSOVER", "DistinctSeries", "FAST_PATH",
    "INDEX_CEILING", "ORACLE_LIMIT", "OracleLimitError", "PartitionSeries",
    "StepEstimate", "__version__", "alg1_steps", "alg2_steps",
    "analytic_crossover", "analytic_crossover_floor", "causal_convolution",
    "count_partitions", "count_with_greatest_part", "dispatch_plan",
    "distinct_length_counts", "expansion_depth", "is_generalized_pentagonal",
    "iter_partitions", "load_series", "p_column", "p_parts", "p_parts_alg1",
    "p_parts_alg2", "p_parts_closed", "p_row", "partition_length_counts",
    "practical_crossover", "q_column", "q_parts", "q_row", "save_series",
    "serialize_series", "series_checksum", "shared_p_series", "shared_q_series",
]


def test_surface_is_the_union_of_module_lists():
    names = partita.__all__
    assert len(names) == len(set(names))
    modules = (core, lists, oracle, series)
    declared = {"__version__"}.union(*(module.__all__ for module in modules))
    assert set(names) == declared
    assert sorted(names) == PUBLIC
    for module in modules:
        for name in module.__all__:
            assert getattr(partita, name) is getattr(module, name), name
