"""The package surface: ``partita`` re-exports each submodule's
``__all__``, so every public name is declared once, in its module."""

import os
import subprocess
import sys

import partita
from partita import core, lists, oracle, series

# The 42 public names of version 0.1.0.
PUBLIC = [
    "ALG1", "ALG2", "CLOSED_FORM",
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


def test_cli_import_skips_heavy_stdlib_modules():
    # -I -S: no site, no user paths, no PYTHONPATH, so the snippet sees
    # only the interpreter's own start-up modules plus what partita loads
    src = os.path.dirname(os.path.dirname(partita.__file__))
    snippet = (
        f"import sys; sys.path.insert(0, {src!r}); import partita.cli; "
        "print(sorted({'dataclasses', 'inspect', 'statistics', 'pathlib'}"
        " & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", snippet], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"
