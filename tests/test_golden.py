"""Golden outputs: CLI runs on the bundled inputs must stay byte-identical.

Each digest is the SHA-256 of one output file, recorded with multiswap
0.1.0 before shots moved to bit arrays; the oracle digests were re-recorded
when the oracle's draws became functions of (seed, shot index) alone. The
padded, renormalized runs were recorded before an ensemble became one
amplitude matrix. A change that alters any of them changes what users get
for a fixed seed; if that is intended, re-record the digests and say why in
the change log.
"""

import hashlib
import json

import numpy as np
import pytest

from multiswap.builder import assemble, layout_plan
from multiswap.cli import main
from multiswap.fixtures import reference_estimates
from multiswap.qasm import to_qasm

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
    ("estimate_oracle", "counts.txt"): "b599088202ffe118196cd1f4755321cbbe19671d6dce4fba6ae07ad88070b855",
    ("estimate_oracle", "estimates.csv"): "e8a00c4b64ff8d66f52af302287ef3fa91e3ed815b7b0960e3b4f0c95a3a8cb1",
    ("estimate_oracle", "scatter.csv"): "6984bd6fe48ea1adc925941ba7c165bea6389aa3fe40cb9dfa7f6bc5aae05a6f",
    ("replay_bundled", "replay.csv"): "c97ba0997df39beb7cabf417fb3efa4a70bdac3aadf3b9d0409ae22473bbf793",
    ("export_table_n8", "table.json"): "71909173008d53e56b80680bac35761080d6c2d884a6f63cb673e2a27752738c",
    ("export_table_san_n4", "table.json"): "0a58bc06ecbfec6b5b3a1ed5b4c5eae4e043a588123aa271b2339c1bfaa77836",
    ("export_table_n16", "table.json"): "c54aa2613c2d0a1859d57497c0e0be0ffc2f49ab2c2be7771538a0b57f4e2852",
}


#: a one-shot oracle run samples 4 of the 28 pairs; the other 24 rows carry
#: empty estimate and stderr cells, and their replay flags them "unsampled"
SPARSE_DIGESTS = {
    "counts.txt": "35c59878850e481b611c7b6abcdb750e397487890380a2fb76ce15d72f285861",
    "estimates.csv": "65ce8af47f81360e35fd2cff56883b2b79fe817e198b34672a35c808fa0d0bd0",
    "scatter.csv": "fe64c361707d3853bb6725a2886b565745b4cc3e78c5a3514c3956af226123b4",
    "replay.csv": "d8f1cd035e2af6f429184297044b0bbae92ad780acf7e8fe7d5c1cd8b9cad48e",
    "replay stdout": "d37e4e5f98aae145d4db0477ea99a7dce5a6497aa769d387506d5bb7f0a6149c",
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
#: counts rows, so outcome keys span two 64-bit words
WIDE_DIGESTS = {
    "counts.txt": "f4c69583f8d1302571192d0d15dde0cec8a426690326b02a813cd86d0575965a",
    "estimates.csv": "b623afc805e20a989ccfe3a031488eee62a48bde5cd95d0efab3c8d410541af3",
    "scatter.csv": "ea6db9bdaaf236d65dd4dc67678e9a52a8f4add0de9b7e2883710ead61ad8ae1",
    "replay.csv": "7f0fa7082d4921e4b4a386ea55f7b61e2af27220e055a275627f5e3199bc415a",
    "replay stdout": "6ce937d4babf7e7ed1e66a60e768db92545474112acbe1c68a71ad9c55603899",
}


def _wide_states(path, n=128):
    rng = np.random.default_rng(n)
    v = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
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


#: an oracle run at n=512: 130,816 pairs, so its pair ranks are uint32
UINT32_RANK_DIGESTS = {
    "counts.txt": "85065973342cc07b7932b3e0c90b93a704ec1c7822cb736de30ec494883b8852",
    "estimates.csv": "018ad35226bb3989ed88eb9c3143d65b164c36eaacc48ba754d4b96c2950d638",
    "scatter.csv": "7ccca9a2962a6f2b2cc16fdf18a0c84027a3f2f5ae4024f3f300ab542e6dc9e8",
    "replay.csv": "691d81015c132fb33df47c7d5a77f90691b79550c417392d55fcd70074d33640",
    "replay stdout": "9087933403e21943a3999e46de32ccb31681dd88a056e5f96401be7be68a36cc",
}


def test_uint32_rank_oracle_outputs_match_golden_digests(tmp_path, capsys):
    states, est, rep = tmp_path / "states.json", tmp_path / "estimate", tmp_path / "replay"
    _wide_states(states, 512)
    argv = ["estimate", str(states), "--engine", "oracle", "--shots", "2000", "--seed", "13"]
    assert main(argv + ["--out-dir", str(est)]) == 0
    replay_argv = ["replay", str(est / "counts.txt"), str(states)]
    assert main(replay_argv + ["--out-dir", str(rep)]) == 0
    capsys.readouterr()
    assert main(replay_argv) == 0
    produced = {path.name: _sha(path.read_bytes()) for path in (*est.iterdir(), *rep.iterdir())}
    produced["replay stdout"] = _sha(capsys.readouterr().out.encode())
    assert produced == UINT32_RANK_DIGESTS


#: a destructive run's replay against a reference CSV holding a self-pair
#: (3, 3), the pair (2, 8) that shares its rank at n=8, a reversed pair (5, 4)
#: and a label past the input count; only (2, 8) and (4, 5) get a reference
SELF_PAIR_REFERENCE_DIGESTS = {
    "replay.csv": "9bf2c7148dd635cac44276241482630f29189b4e0b6e652b243415e84c6ab011",
    "replay stdout": "d3069822c82ba581ddf9e7a71d2675bb70f1b4a8cd59664c46514b103e088b14",
}


def test_self_pair_reference_matches_golden_digests(tmp_path, capsys):
    reference, run, rep = tmp_path / "reference.csv", tmp_path / "run", tmp_path / "replay"
    reference.write_text("pair_i,pair_j,estimate\n3,3,0.1\n2,8,0.25\n5,4,0.7\n2,9,0.3\n")
    assert main(["estimate", "bundled", "--final", "destructive", "--engine", "statevector",
                 "--out-dir", str(run)]) == 0
    argv = ["replay", str(run / "counts.txt"), "bundled", "--reference", str(reference)]
    assert main(argv + ["--out-dir", str(rep)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert {"replay.csv": _sha((rep / "replay.csv").read_bytes()),
            "replay stdout": _sha(out.encode())} == SELF_PAIR_REFERENCE_DIGESTS
    rows = [row.split(",") for row in (rep / "replay.csv").read_text().splitlines()[1:]]
    assert {(i, j): ref for i, j, *_, ref, _, _ in rows if ref} == {
        ("2", "8"): "0.25", ("4", "5"): "0.7"}


def _off_norm_states(path, n, width, scale):
    """n random states of ``width`` qubits, state i scaled by 1 + scale * s_i
    with s_i in [-1, 1], written as [re, im] pairs."""
    rng = np.random.default_rng([n, width])
    v = rng.normal(size=(n, 2**width)) + 1j * rng.normal(size=(n, 2**width))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v *= 1.0 + scale * rng.uniform(-1.0, 1.0, size=(n, 1))
    path.write_text(json.dumps({
        "width": width,
        "states": [[[float(a.real), float(a.imag)] for a in row] for row in v],
    }) + "\n")


#: five width-2 states with norms off by up to 1e-3, run with --normalize:
#: padded to eight registers with three |00> states, and renormalized
NORMALIZED_DIGESTS = {
    ("statevector", "counts.txt"): "76f964218eba07a58d3a7daa1887882f02b9b27c27e08a3766e8aa0fe9733a21",
    ("statevector", "estimates.csv"): "179fb846c6327897474c711df180c34311784508b5c989e3fa7cddd823fcabec",
    ("statevector", "scatter.csv"): "04243177b2f7476f2c661f64728b7d9cac7c99d5411d199f2cc4389ca65839f1",
    ("oracle", "counts.txt"): "dbd2cc6f0d8a7790dceed084dffbd8e71da1d7273276d3f724b2b779708916dc",
    ("oracle", "estimates.csv"): "fba7c1911337ee47d630718e0e13c508f5463cebb27b1f90195575a89e227e2b",
    ("oracle", "scatter.csv"): "49e7e6315eddbbaab55163b88c478f538a360922d907f4ce5fe48ba9e2f85268",
    ("replay", "replay.csv"): "4eb1f4c40cd2c39ef9bc7719cf74f317bdd0fbf592a4ea43ab6feaba89cb131d",
    ("replay", "stdout"): "a64818b8611c83ef0f3db72d1ca7173274909919843ea022794b238eb2c3d2d5",
}


def test_padded_normalized_outputs_match_golden_digests(tmp_path, capsys):
    states = tmp_path / "states.json"
    _off_norm_states(states, 5, 2, 1e-3)
    produced = {}
    for engine in ("statevector", "oracle"):
        out = tmp_path / engine
        argv = ["estimate", str(states), "--normalize", "--engine", engine,
                "--shots", "2000", "--seed", "5", "--out-dir", str(out)]
        assert main(argv) == 0
        produced.update({(engine, path.name): _sha(path.read_bytes()) for path in out.iterdir()})
    rep = tmp_path / "replay"
    replay_argv = ["replay", str(tmp_path / "oracle" / "counts.txt"), str(states), "--normalize"]
    assert main(replay_argv + ["--out-dir", str(rep)]) == 0
    produced[("replay", "replay.csv")] = _sha((rep / "replay.csv").read_bytes())
    capsys.readouterr()
    assert main(replay_argv) == 0
    produced[("replay", "stdout")] = _sha(capsys.readouterr().out.encode())
    assert produced == NORMALIZED_DIGESTS


#: six width-1 states with norms off by up to 5e-5, inside the input
#: tolerance, so they load without --normalize and are renormalized
TOLERATED_DIGESTS = {
    "counts.txt": "a11d2943c7d185eeac67a53d8161934a59504319106870c4cee84979d2c247b3",
    "estimates.csv": "19b98a3cff20a35934cc00e42ec0a02dd1cd970efafad7b2e7b1b9b499bb2ac8",
    "scatter.csv": "4108f0be8d5856cf7491c133ceb644a8a569e3b2e22773e1a15448f039ea226e",
}


def test_tolerated_norm_outputs_match_golden_digests(tmp_path, capsys):
    states, out = tmp_path / "states.json", tmp_path / "out"
    _off_norm_states(states, 6, 1, 5e-5)
    argv = ["estimate", str(states), "--shots", "2000", "--seed", "9", "--out-dir", str(out)]
    assert main(argv) == 0
    assert {path.name: _sha(path.read_bytes()) for path in out.iterdir()} == TOLERATED_DIGESTS


#: built circuits, keyed (scheme, final variant, width, n): the SHA-256 of
#: the repr of (OpenQASM text, qubit roles, measured (qubit, label) pairs),
#: so gate order, roles and the measured layout are all pinned
CIRCUIT_DIGESTS = {
    ('new', None, 1, 4): "646dee9fc82b9d20d4efcb67e71fc9170cb98968ada27fa7137f91586c4cbffc",
    ('new', None, 1, 8): "45078744c7d76f2c5be8bf67a856d631a37e993b8b4f447adfaf4ff1618847dc",
    ('new', None, 2, 4): "dda2c03aaff1af6a629d011e1848dd38eb992869c89c6af8dc654ca46e89d5ba",
    ('new', None, 2, 8): "b932b07da471c322fb452a8a266efc546c6d944038ecb9d73cdba8488302fc6b",
    ('new', 'standard', 1, 4): "5181ae1fc78c5ffe69550c9c19c3776be27c277ecb38ca1e0f3186f69269dc65",
    ('new', 'standard', 1, 8): "28ea062551a0a5ed64c1f67e73d94b71cf5f77ae91cbef44fa0d795f32416bcb",
    ('new', 'standard', 2, 4): "dc3b8749de1f9984869f64f7b0c7094de0f0c30d10d410fc130a097accf52e39",
    ('new', 'standard', 2, 8): "86ae6b61da90b4d208a2e4373b5d1925a09665187887fe6677a880f2783ad3a4",
    ('new', 'destructive', 1, 4): "47dfae90f1367cbf47806ebe4341ddba8e904090e52948a7b4e8153033302724",
    ('new', 'destructive', 1, 8): "89605e78a7f2f152fcd138fe585718d9951a14e20fa430ef4cdedc70e44e5f5a",
    ('new', 'destructive', 2, 4): "5bcdb032771b086c722ac9a4d942e4e4dc6f4238354f69d954387cd5dd45e17b",
    ('new', 'destructive', 2, 8): "fb9bbd64077469f3325b8c2775ac423f0692615aec2893a9875299e9b5fe46c1",
    ('san', None, 1, 4): "d685a244d6afb9fc470e35196221a8581670e7cf2cd55999ad61ba620635dfcb",
    ('san', None, 1, 8): "7a0d274507d228fb4497aeb428a170f4a1a333dbb1dccb948622a832990adcb3",
    ('san', None, 2, 4): "0efe4fd80bbcbcd1e11acabd8071f934cd2b2e56bbf318900ff2012f17ff1fa1",
    ('san', None, 2, 8): "3a65c3f17937811a0f8cbfd1713f5a3f9881b5a324c6ef7eee1778cac9fca725",
    ('san', 'standard', 1, 4): "9471b5db1fc41b3768f1977bd4a098b02e09e24ae2a4b3188e652e26f76fe82c",
    ('san', 'standard', 1, 8): "388fb82db5b63c67b0b24fe6732486d2c1d7f536f7bf8381a036d6d905b18de4",
    ('san', 'standard', 2, 4): "2d7da5da289980465de54e1f79a74726e0a079e562483ed1ca0c7ba5fbebb4e3",
    ('san', 'standard', 2, 8): "f56792baed2bb01656123bd87c0d7dac4736f48e17230766b77fe41ecc1ca53e",
    ('san', 'destructive', 1, 4): "5cfbc08244330323204f8b9937eca195b4f8e26fa0548d531f8fcc956bc44ce2",
    ('san', 'destructive', 1, 8): "b69ffb87752cd2d31a9612bf525682643535f34dbe65d9d1f9a4805b7ba6b3b5",
    ('san', 'destructive', 2, 4): "b4927000acda813826757b2928fbb5186960ee9789cf3a247decd8bb9036249e",
    ('san', 'destructive', 2, 8): "6806cbfe3e554964d5aecf9915fb6f8f45aa21804e9d77dc7b7f8c33a0a68c10",
}


@pytest.mark.parametrize(
    "key", sorted(CIRCUIT_DIGESTS, key=repr),
    ids=lambda key: f"{key[0]}-{key[1] or 'bare'}-w{key[2]}-n{key[3]}",
)
def test_built_circuits_match_golden_digests(key):
    scheme, variant, width, n = key
    circuit = assemble(layout_plan(scheme, n, width, variant))
    produced = repr((to_qasm(circuit), circuit.roles, circuit.measured)).encode()
    assert _sha(produced) == CIRCUIT_DIGESTS[key]
