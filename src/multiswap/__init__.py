"""Multi-state swap-test circuits.

Build the recursive swap network that tests all pairwise overlaps among n
pure states concurrently, simulate it exactly, sample shots, decode ancilla
outcomes into register permutations, and estimate every |<phi_i|phi_j>|**2.
"""

from .builder import (
    LayoutPlan,
    assemble,
    decode,
    decode_all,
    input_factors,
    layout_plan,
    pad_inputs,
    pair_coverage,
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
from .sim import measured_distribution, run_statevector, sample_from_distribution
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
    overlap_from_prob,
)

__version__ = "0.1.0"
