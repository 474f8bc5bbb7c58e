"""Multi-state swap-test circuits.

Build the recursive swap network that tests all pairwise overlaps among n
pure states concurrently, simulate it exactly, sample shots, decode ancilla
outcomes into register permutations, and estimate every |<phi_i|phi_j>|**2.
"""

from .builder import (
    LayoutPlan,
    PermutationTable,
    build_network,
    build_u4,
    build_un,
    decode,
    derive_permutation_table,
    initial_state,
    input_factors,
    pad_inputs,
    pair_coverage_map,
)
from .circuits import CircuitIR, Gate, ResourceProfile, count_resources
from .estimation import (
    CountsTable,
    PairEstimates,
    ReplayReport,
    estimate_all_overlaps,
    oracle_distribution,
    oracle_sample,
    replay,
    tally,
)
from .san import build_san_u4, build_san_un, san_pair_coverage
from .sim import measure_probabilities, run_statevector, sample_shots
from .states import (
    PureState,
    StateEnsemble,
    basis_state,
    exact_overlap,
    normalize,
    tensor_product,
)
from .swaptest import (
    build_swap_test,
    destructive_decode,
    estimated_overlap,
    overlap_from_prob,
)

__version__ = "0.1.0"
