"""Reverse compression of classical and quantum channels.

Partitions channel inputs whose output distributions are within a fidelity
tolerance of each other, reports how much of the input alphabet that
removes, and extends the same question to multiple channel uses and to
quantum channels via vectorial kernels.
"""

from .asymptotic import (
    AsymptoticSweep,
    ConjectureRow,
    GammaKResult,
    closed_form_letter_partition,
    conjecture_report,
    delta_estimate,
    gamma_k,
    generalized_erasure_bound_partition,
    generalized_erasure_gamma_bound,
    min_s_bounded_partition_size,
    product_fidelity_matrix,
    s_bound_partition,
)
from .channels import (
    Alphabet,
    ClassicalChannel,
    Distribution,
    compose,
    erasure_epsilon_threshold,
    erasure_max_mergeable_differences,
    erasure_sequence_fidelity,
    fidelity,
    make_constant,
    make_erasure,
    make_generalized_erasure,
    make_identity,
    product_reverse_fidelity,
    reverse_fidelity,
    reverse_fidelity_matrix,
)
from .errors import (
    DimensionMismatchError,
    ExactSolverCapError,
    ReportMismatchError,
    UnknownLabelError,
    ValidationError,
)
from .partition import (
    CompressionReport,
    IndistinguishabilityGraph,
    Partition,
    compress,
    compressibility,
    decompression_channel,
    default_exact_cap,
    graph_from_fidelity_matrix,
    partition_is_clique_cover,
    solve_exact,
    solve_greedy,
)
from .quantum import (
    CoarseGraining,
    CompressorRejection,
    DensityMatrix,
    ErasureVerdict,
    KrausChannel,
    ProbeResult,
    channel_indistinguishability,
    compose_channels,
    embed_density,
    erasure_compressor_suite,
    erasure_output_fidelity,
    make_coarse_graining,
    make_quantum_erasure,
    partial_trace_coarse_graining,
    probe_states,
    quantum_compressibility,
    quantum_fidelity,
    vector_kernel,
    verify_erasure_theorem,
)

__version__ = "0.1.0"
