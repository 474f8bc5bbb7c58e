"""The four-input building block: two ancillas route all six pairs.

Two controlled swap fans act on the register groups: rule 1 exchanges the
2nd and 3rd groups, rule 2 the 2nd and 4th. Conditioning on the two ancilla
bits leaves the registers holding a known permutation of the inputs, so the
two final swap-test slots (q1,q2) and (q3,q4) reach every pair.
"""

from itertools import combinations

from multiswap.builder import assemble, decode_all, input_factors, layout_plan
from multiswap.fixtures import load_ensemble
from multiswap.qasm import to_qasm
from multiswap.sim import project_qubits, run_statevector
from multiswap.states import StateEnsemble, exact_overlap, tensor_product

ensemble = StateEnsemble(load_ensemble(0).amplitudes[:4])

plan = layout_plan("new", 4)
circuit = assemble(plan)
# column r of the decoder table is ancilla outcome r, s1 most significant
rows = decode_all(plan).T.tolist()
outcomes = [format(r, f"0{plan.ancilla_count}b") for r in range(len(rows))]
slot_pairs = [tuple((row[a - 1], row[b - 1]) for a, b in plan.slots) for row in rows]

print("outcome  registers      slot pairs")
for outcome, row, pairs in zip(outcomes, rows, slot_pairs):
    print(f"  {outcome}     {''.join(map(str, row))}          {pairs}")

print("\npair coverage over (outcome, slot):")
for pair in combinations(range(1, plan.n + 1), 2):
    entries = [
        (outcome, slot)
        for outcome, pairs in zip(outcomes, slot_pairs)
        for slot, (a, b) in enumerate(pairs)
        if (min(a, b), max(a, b)) == pair
    ]
    print(f"  {pair}: {entries}")

print("\nstatevector check: conditioning on each outcome yields the permuted inputs")
output = run_statevector(circuit, input_factors(ensemble, plan))
for outcome, row in zip(outcomes, rows):
    prob, conditioned = project_qubits(output, range(plan.ancilla_count), outcome)
    expected = tensor_product([ensemble.state(i) for i in row])
    fidelity = exact_overlap(conditioned, expected)
    print(f"  outcome {outcome}: probability {prob:.4f}, fidelity to expectation {fidelity:.12f}")

full = assemble(layout_plan("new", 4, 1, "standard"))
print("\nfull 4-state circuit as OpenQASM 2.0:\n")
print(to_qasm(full))
