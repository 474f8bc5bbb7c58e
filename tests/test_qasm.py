import re

import pytest

from multiswap.builder import assemble, layout_plan
from multiswap.qasm import to_qasm
from multiswap.swaptest import build_swap_test

# gates defined by the standard qelib1.inc header
QELIB_GATES = {
    "u3": 1, "u2": 1, "u1": 1, "cx": 2, "id": 1, "x": 1, "y": 1, "z": 1,
    "h": 1, "s": 1, "sdg": 1, "t": 1, "tdg": 1, "rx": 1, "ry": 1, "rz": 1,
    "cz": 2, "cy": 2, "ch": 2, "ccx": 3, "crz": 2, "cu1": 2, "cu3": 2,
    "swap": 2, "cswap": 3,
}

_QREG = re.compile(r"^qreg q\[(\d+)\];$")
_CREG = re.compile(r"^creg c\[(\d+)\];$")
_GATE = re.compile(r"^([a-z0-9]+) ((?:q\[\d+\])(?:,q\[\d+\])*);$")
_MEASURE = re.compile(r"^measure q\[(\d+)\] -> c\[(\d+)\];$")


def check_qasm(text: str) -> dict:
    """Minimal OpenQASM 2.0 structural check; returns declaration sizes."""
    lines = text.strip().splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    m = _QREG.match(lines[2])
    assert m, lines[2]
    qubits = int(m.group(1))
    body = lines[3:]
    cbits = 0
    if body and _CREG.match(body[0]):
        cbits = int(_CREG.match(body[0]).group(1))
        body = body[1:]
    gate_count = 0
    measured = set()
    for line in body:
        gate = _GATE.match(line)
        if gate:
            name, operands = gate.group(1), gate.group(2).split(",")
            assert name in QELIB_GATES, f"gate {name} not in qelib1"
            assert len(operands) == QELIB_GATES[name], line
            indices = [int(q[2:-1]) for q in operands]
            assert all(i < qubits for i in indices)
            assert len(set(indices)) == len(indices)
            gate_count += 1
            continue
        measure = _MEASURE.match(line)
        assert measure, f"unparsable line: {line!r}"
        q, c = int(measure.group(1)), int(measure.group(2))
        assert q < qubits and c < cbits
        assert c not in measured
        measured.add(c)
    assert len(measured) == cbits
    return {"qubits": qubits, "cbits": cbits, "gates": gate_count}


def test_export_header_and_structure():
    circuit = assemble(layout_plan("new", 8, 1, "standard"))
    text = to_qasm(circuit)
    assert text.startswith("OPENQASM 2.0;")
    info = check_qasm(text)
    assert info["qubits"] == 16
    assert info["cbits"] == 8
    assert "cswap q[" in text


def test_decompose_flag_removes_cswap():
    circuit = assemble(layout_plan("new", 4, 1, "standard"))
    text = to_qasm(circuit, decompose_cswap=True)
    assert "cswap" not in text
    assert "ccx" in text
    check_qasm(text)


def test_gate_counts_match_ir():
    circuit = assemble(layout_plan("san", 8, 1, "standard"))
    info = check_qasm(to_qasm(circuit))
    assert info["gates"] == len(circuit.gates)


def test_ccz_always_expands():
    circuit = build_swap_test("ccz", 2)
    text = to_qasm(circuit)
    assert "ccz" not in text
    check_qasm(text)


@pytest.mark.parametrize("variant", ["standard", "ccz", "deferred", "destructive"])
def test_all_variants_export(variant):
    check_qasm(to_qasm(build_swap_test(variant, 2)))
