"""Gate-level circuit representation and resource counting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# kind -> arity (controls come first in the qubit tuple)
GATE_ARITY = {
    "H": 1,
    "X": 1,
    "Z": 1,
    "CNOT": 2,
    "SWAP": 2,
    "CCZ": 3,
    "CSWAP": 3,
}

ROLES = ("ancilla", "data", "result")

_SQRT2 = np.sqrt(2.0)

_MATRICES = {
    "H": np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQRT2,
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
    ),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
    ),
    "CCZ": np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(np.complex128),
}

# CSWAP: control is the most significant index; |101> <-> |110>
_cswap = np.eye(8, dtype=np.complex128)
_cswap[[5, 6], :] = _cswap[[6, 5], :]
_MATRICES["CSWAP"] = _cswap
del _cswap


@dataclass(frozen=True)
class Gate:
    """One gate application; qubit order is (controls..., targets...)."""

    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        qubits = tuple(int(q) for q in self.qubits)
        if len(qubits) != GATE_ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} takes {GATE_ARITY[self.kind]} qubits, got {len(qubits)}"
            )
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"{self.kind} qubits must be distinct, got {qubits}")
        if any(q < 0 for q in qubits):
            raise ValueError("qubit indices must be non-negative")
        object.__setattr__(self, "qubits", qubits)

    @property
    def matrix(self) -> np.ndarray:
        return _MATRICES[self.kind]


@dataclass(frozen=True)
class CircuitIR:
    """An ordered gate list over qubits with roles and terminal measurements.

    ``measured`` holds (qubit, classical label) pairs; label order defines the
    bit order of outcome strings, leftmost first. Immutable after build.
    """

    qubit_count: int
    roles: tuple[str, ...]
    gates: tuple[Gate, ...]
    measured: tuple[tuple[int, str], ...] = field(default_factory=tuple)

    def __post_init__(self):
        roles = tuple(self.roles)
        if len(roles) != self.qubit_count:
            raise ValueError("roles must cover every qubit")
        if any(r not in ROLES for r in roles):
            raise ValueError(f"roles must be among {ROLES}")
        gates = tuple(self.gates)
        for g in gates:
            if max(g.qubits) >= self.qubit_count:
                raise ValueError(f"gate {g} exceeds qubit count {self.qubit_count}")
        measured = tuple((int(q), str(lbl)) for q, lbl in self.measured)
        seen_q = set()
        seen_l = set()
        for q, lbl in measured:
            if q >= self.qubit_count:
                raise ValueError(f"measured qubit {q} out of range")
            if q in seen_q or lbl in seen_l:
                raise ValueError(f"duplicate measurement of qubit {q} / label {lbl!r}")
            seen_q.add(q)
            seen_l.add(lbl)
        object.__setattr__(self, "roles", roles)
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "measured", measured)

    @property
    def measured_qubits(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.measured)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for _, lbl in self.measured)


@dataclass(frozen=True)
class ResourceProfile:
    cswap_count: int
    ancilla_count: int
    gate_count_total: int
    qubit_count: int

    def __post_init__(self):
        if min(self.cswap_count, self.ancilla_count, self.gate_count_total, self.qubit_count) < 0:
            raise ValueError("counts must be non-negative")
        if self.cswap_count > self.gate_count_total:
            raise ValueError("cswap_count cannot exceed total gate count")


def count_resources(circuit: CircuitIR) -> ResourceProfile:
    """Tally gates by traversal; ancilla count comes from the role map."""
    cswaps = sum(1 for g in circuit.gates if g.kind == "CSWAP")
    ancillas = sum(1 for r in circuit.roles if r == "ancilla")
    return ResourceProfile(
        cswap_count=cswaps,
        ancilla_count=ancillas,
        gate_count_total=len(circuit.gates),
        qubit_count=circuit.qubit_count,
    )

