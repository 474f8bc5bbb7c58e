"""Golden outputs: CLI runs on the bundled inputs must stay byte-identical.

Each digest is the SHA-256 of one output file, recorded with multiswap
0.1.0 before shots moved to bit arrays. A change that alters any of them
changes what users get for a fixed seed; if that is intended, re-record the
digests and say why in the change log.
"""

import hashlib
import json

import numpy as np
import pytest

from multiswap.cli import main
from multiswap.fixtures import reference_estimates

RUNS = {
    "estimate_new": ["estimate", "bundled", "--engine", "statevector"],
    "estimate_san": ["estimate", "bundled", "--scheme", "san", "--engine", "statevector"],
    "estimate_destructive": [
        "estimate", "bundled", "--final", "destructive", "--engine", "statevector",
    ],
    "estimate_oracle": ["estimate", "bundled", "--engine", "oracle"],
    "replay_bundled": ["replay", "bundled", "bundled", "--reference", "bundled"],
    "export_table_n8": ["export-table", "--n", "8"],
    # the san n=4 table differs from its bundled reference in row 010, so its
    # reference_mismatches list is non-empty; n=16 has no reference at all
    "export_table_san_n4": ["export-table", "--n", "4", "--scheme", "san"],
    "export_table_n16": ["export-table", "--n", "16"],
}

DIGESTS = {
    ("estimate_new", "counts.txt"): "4d0ec2478a4d206a634aa78d92f6fbed584dcae3a861ef5eb401410210d05ad1",
    ("estimate_new", "estimates.csv"): "06ba342fc514afa7c7a7dc482c71d63488a402c9ca051a0eb589f86dc2621bdc",
    ("estimate_new", "scatter.csv"): "b9b5fcfb714689e59c0f9e0a86d84f13ae5f981bc3016c19b5e44e05ca4d3144",
    ("estimate_san", "counts.txt"): "4bda3dd82ae9277b71621dfda5aebaa417a48168cfd0bc36c51937e2c2a46d7e",
    ("estimate_san", "estimates.csv"): "b0f97a7c1f73c93012a7dee273abbaea06271ce2cd51b545751759c483601a9d",
    ("estimate_san", "scatter.csv"): "ca68990ce7b4e5c64b17da8ace2a1820a778765d16abf76b77aebb41fe339359",
    ("estimate_destructive", "counts.txt"): "a4a4404991688b3192b9406d11611b1f89580c67ad44d142320a08141b21c418",
    ("estimate_destructive", "estimates.csv"): "67a437d50659402cec35c1b463adc7e42bed16515c2e0bf90c61fcf698cfdab2",
    ("estimate_destructive", "scatter.csv"): "341040200763e04fb0053160d2a2b6a28ddf9700c9a16b59010512fdf641a166",
    ("estimate_oracle", "counts.txt"): "0a14dbbb2c94a47ee76596b179cd1ddfbdfe0ef949cb7002f654972382f35f5a",
    ("estimate_oracle", "estimates.csv"): "0848279e719b3029dc16be501e6c0ca447fc598067299f2c16b2f90d5298a80a",
    ("estimate_oracle", "scatter.csv"): "7acde1bae1322eae5fdd9bb295859460aa97986acf224761bd73b95dce33c68e",
    ("replay_bundled", "replay.csv"): "c97ba0997df39beb7cabf417fb3efa4a70bdac3aadf3b9d0409ae22473bbf793",
    ("export_table_n8", "table.json"): "71909173008d53e56b80680bac35761080d6c2d884a6f63cb673e2a27752738c",
    ("export_table_san_n4", "table.json"): "0a58bc06ecbfec6b5b3a1ed5b4c5eae4e043a588123aa271b2339c1bfaa77836",
    ("export_table_n16", "table.json"): "c54aa2613c2d0a1859d57497c0e0be0ffc2f49ab2c2be7771538a0b57f4e2852",
}


#: a one-shot oracle run samples 4 of the 28 pairs; the other 24 rows carry
#: empty estimate and stderr cells, and their replay flags them "unsampled"
SPARSE_DIGESTS = {
    "counts.txt": "db092c2f87385745052c86e2437fb789fc0b800993903c93b9b274833db80e42",
    "estimates.csv": "e82ce819009623f9c01fe4810b81a457901d2c0dc47fd34ff9205bdebbe7c586",
    "scatter.csv": "2420bda259f133cadeaa0c5201e3954935179ac5dec85160a93e57c569c31ac3",
    "replay.csv": "ee6b59fcfa4b52f2aa7c38989e1d0fd1dfe2792ab59a977b872f8261438882d0",
    "replay stdout": "8530c2fccb147113791b61a43ae63ff1c3307b6a7ded96cc130df4a10faa2fec",
}
#: replay of the bundled counts against a reference lacking pair (3, 5),
#: whose reference and abs_diff cells are therefore empty
PARTIAL_REFERENCE_DIGEST = "e758884e93952afd9f6e80ee7cf3984723690884ddbf2f7a39b5d82308602ff5"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("run", sorted(RUNS))
def test_cli_outputs_match_golden_digests(run, tmp_path, capsys):
    argv = RUNS[run]
    if argv[0] == "export-table":
        argv = argv + ["-o", str(tmp_path / "table.json")]
    else:
        argv = argv + ["--out-dir", str(tmp_path)]
    assert main(argv) == 0
    produced = {(run, path.name): _sha(path.read_bytes()) for path in tmp_path.iterdir()}
    assert produced == {key: digest for key, digest in DIGESTS.items() if key[0] == run}


def test_unsampled_pairs_match_golden_digests(tmp_path, capsys):
    est, rep = tmp_path / "estimate", tmp_path / "replay"
    argv = ["estimate", "bundled", "--engine", "oracle", "--shots", "1", "--seed", "0"]
    assert main(argv + ["--out-dir", str(est)]) == 0
    counts = str(est / "counts.txt")
    replay_argv = ["replay", counts, "bundled", "--reference", "bundled"]
    assert main(replay_argv + ["--out-dir", str(rep)]) == 0
    capsys.readouterr()
    assert main(replay_argv) == 0
    produced = {path.name: _sha(path.read_bytes()) for path in (*est.iterdir(), *rep.iterdir())}
    produced["replay stdout"] = _sha(capsys.readouterr().out.encode())
    assert produced == SPARSE_DIGESTS


def test_partial_reference_matches_golden_digest(tmp_path):
    reference = reference_estimates()
    del reference[(3, 5)]
    path = tmp_path / "reference.csv"
    path.write_text("pair_i,pair_j,estimate\n" + "".join(
        f"{i},{j},{value!r}\n" for (i, j), value in sorted(reference.items())
    ))
    out = tmp_path / "out"
    assert main(["replay", "bundled", "bundled", "--reference", str(path),
                 "--out-dir", str(out)]) == 0
    assert _sha((out / "replay.csv").read_bytes()) == PARTIAL_REFERENCE_DIGEST


#: an oracle run at n=128: 12 ancilla bits and 64 verdict bits make 76-bit
#: counts rows, so outcome keys span two 64-bit words; recorded before the
#: shot path moved to packed-word sorting, bulk counts parsing and the
#: column-batched CSV writer
WIDE_DIGESTS = {
    "counts.txt": "1b7798a1676792cdd88d8023f3931583eae2f1ec89b7ef2d0fa64c3bb52f8e92",
    "estimates.csv": "eab6c0382b02b36252e3074500b0ffaecc1b3e14a2a73bfdc49d7562405fcfef",
    "scatter.csv": "3ce6684c07fd07d2f506917195cb3ff8beacb79348c1a495a806250ea3734d52",
    "replay.csv": "145fc27dbe7bf3b0cd551c6096cae5fdd7c7b9cb8d745f8f314c74ff0abb9d67",
    "replay stdout": "ec33d7ee0e5729f401e9152b2240252af83d460b5c3c7f059c459389d65340f8",
}


def _wide_states(path):
    rng = np.random.default_rng(128)
    v = rng.normal(size=(128, 2)) + 1j * rng.normal(size=(128, 2))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    path.write_text(json.dumps({
        "width": 1,
        "states": [[[float(a.real), float(a.imag)] for a in row] for row in v],
    }) + "\n")


def test_wide_oracle_outputs_match_golden_digests(tmp_path, capsys):
    states, est, rep = tmp_path / "states.json", tmp_path / "estimate", tmp_path / "replay"
    _wide_states(states)
    argv = ["estimate", str(states), "--engine", "oracle", "--shots", "3000", "--seed", "11"]
    assert main(argv + ["--out-dir", str(est)]) == 0
    replay_argv = ["replay", str(est / "counts.txt"), str(states)]
    assert main(replay_argv + ["--out-dir", str(rep)]) == 0
    capsys.readouterr()
    assert main(replay_argv) == 0
    produced = {path.name: _sha(path.read_bytes()) for path in (*est.iterdir(), *rep.iterdir())}
    produced["replay stdout"] = _sha(capsys.readouterr().out.encode())
    assert produced == WIDE_DIGESTS
