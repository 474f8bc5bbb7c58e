"""Multi-state swap-test circuits.

Build the recursive swap network that tests all pairwise overlaps among n
pure states concurrently, simulate it exactly, sample shots, decode ancilla
outcomes into register permutations, and estimate every |<phi_i|phi_j>|**2.

Every name is imported from its module (``multiswap.builder``,
``multiswap.estimation``, ...); importing the package itself loads none of
them, nor numpy.
"""

__version__ = "0.1.0"
