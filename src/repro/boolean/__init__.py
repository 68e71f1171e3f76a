"""Boolean-function substrate: truth tables, partitions, decompositions.

This subpackage is self-contained (it does not import from the
optimisation or hardware layers) and provides the data model on which
the paper's algorithms are defined.
"""

from .analysis import (
    PartitionProfile,
    column_multiplicity,
    decomposability_report,
    minimum_flip_distance,
    profile_output_bit,
)
from .function import BooleanFunction
from .partition import Partition, all_partitions, partition_count, random_partition
from .truth_table import TwoDimensionalTable, component_matrix, from_matrix, to_matrix
from .decomposition import (
    BoundOnlyDecomposition,
    MultiSharedDecomposition,
    Decomposition,
    DisjointDecomposition,
    NonDisjointDecomposition,
    RowType,
    apply_types,
    enumerate_exact_decompositions,
    find_exact_decomposition,
)
from .synthesis import (
    describe_decomposition,
    free_expression,
    lut_image_bits,
    lut_image_hex,
    phi_expression,
    sop_expression,
)

__all__ = [
    "PartitionProfile",
    "column_multiplicity",
    "decomposability_report",
    "minimum_flip_distance",
    "profile_output_bit",
    "BooleanFunction",
    "Partition",
    "all_partitions",
    "partition_count",
    "random_partition",
    "TwoDimensionalTable",
    "component_matrix",
    "from_matrix",
    "to_matrix",
    "BoundOnlyDecomposition",
    "MultiSharedDecomposition",
    "Decomposition",
    "DisjointDecomposition",
    "NonDisjointDecomposition",
    "RowType",
    "apply_types",
    "enumerate_exact_decompositions",
    "find_exact_decomposition",
    "describe_decomposition",
    "free_expression",
    "lut_image_bits",
    "lut_image_hex",
    "phi_expression",
    "sop_expression",
]
