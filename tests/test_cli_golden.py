"""Golden bytes: SHA-256 of the CSV or JSON output of fixed commands,
timestamp removed.  The verify and dist digests were recorded before the
exact suites and the dist grids were rewritten to work a table at a time,
the simulate digests before the stepper kept an incremental list of domain
walls, the `-d1`, `-d2` and `-json` dist digests before dist tables were
streamed row by row, the other `numeric-` digests and
`dist-window-particles-q0.9` before the float sums shared one series kernel
and one summation rule, `numeric-q0.99-long-sums` before the ratio sums
stopped on the shared eps, `dist-N-q0.99` after the N law took its
exponents relative to the center (117 of its 121 probabilities moved; the
worst is 7.7 ulp from a 60-digit reference, against 15.0 before),
`simulate-max-contamination` before the contamination verdict moved from
the ensemble runner to the CLI, `simulate-many-replicas` and
`simulate-many-replicas-json` before the report kept one row per replica
in place of running sums, `numeric-euler-z0` before `pochhammer_infinite`
dropped its shortcut for a = 0, `simulate-dense-d2` and
`simulate-dense-edge` before a replica counted its probes at the change
points in place of one snapshot per holding interval; any change to a
printed byte (a float's last digit, a row's order, a verdict) or to how a
seeded run consumes its random stream fails here.
"""

import hashlib
import re

import pytest

from aseplab.cli import main

TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')

GOLDEN = {
    "exact-defaults": (
        ["verify", "--identity", "all", "--exact"],
        "ea7f486c9fda9260a4deda55e7a36a813ec7df4f586a698776779ca02bf6a787",
    ),
    "exact-N12-K9": (
        ["verify", "--identity", "all", "--exact", "--N", "12", "--K", "9"],
        "7f777d9f9cbad1d4878c66ad48c48ffe3f4c9598302aebfb44e961999e6a378c",
    ),
    "numeric-q0.9": (
        ["verify", "--identity", "all", "--q", "0.9"],
        "5c5cd6bc1a305c711964c2313668dab106988df94c2d0bfaee6bc287920a8bae",
    ),
    # Euler's ratio is negative here, so its stop test reads |ratio|
    "numeric-q0.3-negative-z": (
        ["verify", "--identity", "all", "--q", "0.3", "--z", "-0.8",
         "--n-offset", "-2"],
        "efdad99181029c79feb7d283fa610c81fb14ade504f7d2edff61565aab497b3d",
    ),
    # the first terms grow (Euler's first ratio is 1.7 / 0.03) before the
    # geometric tail bound applies
    "numeric-q0.97-growing-terms": (
        ["verify", "--identity", "all", "--q", "0.97", "--z", "1.7",
         "--n-offset", "3"],
        "27df90a8d63de82bce70a67b0834ef91c2f4a806d8bbf17f37bdb95d51537286",
    ),
    # long ratio sums: the rectangle and Euler terms fall slowly at q = 0.99
    "numeric-q0.99-long-sums": (
        ["verify", "--identity", "all", "--q", "0.99", "--z", "3",
         "--n-offset", "-1"],
        "951b18393251b493f127185781799459ea003674a204fffc7383abf3c6e564c7",
    ),
    # z = 0: Euler's product is (-0.0; q)_infty, exactly 1 with bound 0
    "numeric-euler-z0": (
        ["verify", "--identity", "euler", "--q", "0.5", "--z", "0"],
        "bcf2bd596e4ca5823b3be857cda4d5717e15a639f03a9f43bcf4ab69ab10db33",
    ),
    "dist-N": (
        ["dist", "--law", "N", "--q", "0.5", "--c", "0.37", "--n=-12:12"],
        "3100de5a6d817a8429ac9ca9e5726264f3f0e2a1c394b3784eedb84a68f5c1a2",
    ),
    # a long N normalizer: its terms fall slowly at q = 0.99
    "dist-N-q0.99": (
        ["dist", "--law", "N", "--q", "0.99", "--c", "-3.3", "--n=-60:60"],
        "8a9ab1eab85cd5ec4adaa96b4365035c1376bb8c814dc481b739a5c8d48f0f45",
    ),
    "dist-left-particles": (
        ["dist", "--law", "left-particles", "--q", "0.7", "--c", "-1.7",
         "--m=1", "--k=0:30"],
        "d454dcbb20adb8785958c1e3786e4a59d087ac7806de4232136d9a92a19b2614",
    ),
    "dist-window-particles": (
        ["dist", "--law", "window-particles", "--q", "0.5", "--c", "0.37",
         "--m1=-7", "--m2=6"],
        "02c5bb93701dd831552bb97752ac8d9e5980a5330fd3d7291cac0643e9e3e59a",
    ),
    "dist-window-particles-q0.9": (
        ["dist", "--law", "window-particles", "--q", "0.9", "--c", "-1.7",
         "--m1=-20", "--m2=15"],
        "5b92e328e572abd8ff6b9b3e1e9713d9bc1925c54928d74b36c885c1d41e96ba",
    ),
    "dist-right-holes": (
        ["dist", "--law", "right-holes", "--q", "0.3", "--c", "0.37",
         "--m=-1", "--n=0:20"],
        "c54e671502a8dff8c0a64ffb7ae679436f1e69a5a0825aadff3b939f0a1e0f30",
    ),
    "dist-second-class": (
        ["dist", "--law", "second-class", "--q", "0.9", "--c", "-1.7",
         "--d", "2", "--m=-60:60"],
        "989fa2a32dca3c7e60eb22156610ca0375e80318e941df0efadb85558c73b20a",
    ),
    "dist-positions": (
        ["dist", "--law", "positions", "--q", "0.2", "--c", "0.37",
         "--d", "3", "--m=-12:14"],
        "d97d9325b42342e09334e260d5661acbe4467beb0f0f59fdbe9044e5322a5e25",
    ),
    "dist-pi": (
        ["dist", "--law", "pi", "--q", "0.5", "--d", "3", "--cap", "30"],
        "c4f548a228ec9ce87e205c38be81b1173838acdea5c0d7d428c77ab80cf15908",
    ),
    # d = 1 positions keys carry no comma, so they are written unquoted
    "dist-positions-d1": (
        ["dist", "--law", "positions", "--q", "0.7", "--c", "-1.7", "--d", "1",
         "--m=-40:40"],
        "66448b93a54b89f2d3910d50fc273936fd3f2373697e4be019e050fbc410c14b",
    ),
    "dist-positions-d2": (
        ["dist", "--law", "positions", "--q", "0.5", "--c", "0.37", "--d", "2",
         "--m=-30:31"],
        "b4cc7375964e9d7537f6c33fdb83e7fd14892a0110ee14d22121315ab12ffc70",
    ),
    "dist-pi-d1": (
        ["dist", "--law", "pi", "--q", "0.3", "--d", "1", "--cap", "40"],
        "72ae2ad556aae0fc8a3f7f9212c490a8e345f8c1e0b9b66778b0f2fc56629f3a",
    ),
    "dist-N-json": (
        ["dist", "--law", "N", "--q", "0.5", "--c", "0.37", "--n=-12:12",
         "--format", "json"],
        "d2c1f72504395b01914f6e8052acf64112f62bd83b3b0a13b6e930d4508cc46d",
    ),
    "dist-positions-json": (
        ["dist", "--law", "positions", "--q", "0.2", "--c", "0.37",
         "--d", "3", "--m=-12:14", "--format", "json"],
        "ccd2bcd10c6b6b8eaa7f9290dc46ab8c4d4fb4210a7a237634ceef3aaf5cd1cf",
    ),
    "dist-pi-json": (
        ["dist", "--law", "pi", "--q", "0.5", "--d", "3", "--cap", "30",
         "--format", "json"],
        "de1646687c9c99d1e51a6f7cbea8451f4a65113c17c246919970e3864f0e9be0",
    ),
    # dense probing: 501 records per replica, several per holding interval
    "simulate-dense": (
        ["simulate", "--q", "0.5", "--window=-25:25", "--d", "1", "--T", "50",
         "--probes", "500", "--replicas", "4", "--seed", "11"],
        "5663162a63df55bbbeb6ec79e2fbe00f6bb90ca6e7a9ab3798aa78f02f4960dc",
    ),
    # the benchmark's dense d = 2 geometry: the label and position counts
    # of two labels, flushed at the change points only
    "simulate-dense-d2": (
        ["simulate", "--q", "0.5", "--c", "0", "--window=-25:25", "--d", "2",
         "--T", "50", "--probes", "500", "--replicas", "4", "--seed", "16"],
        "a493377665a3c66d9e6e8d085078816b7656175b9f6f45ad01e53ae016ce414b",
    ),
    # dense probing of a narrow window: 328 of 1204 probes contaminated, so
    # the contamination count moves at the change points too
    "simulate-dense-edge": (
        ["simulate", "--q", "0.3", "--window=-12:12", "--d", "2", "--T", "100",
         "--probes", "300", "--replicas", "4", "--margin", "9", "--seed", "18"],
        "21bca24eb426ce8efc341a5e07c68c09408d3ef71a6bb2844263ad629dae3401",
    ),
    # wide window at q = 0.9: about 20 domain walls per event
    "simulate-wide": (
        ["simulate", "--q", "0.9", "--window=-160:160", "--d", "3", "--T", "20",
         "--replicas", "2", "--seed", "12"],
        "81292180200a3e72d8e5ee3691d94305940508e8b49e46d7e75b021fc29e044a",
    ),
    # a passing --max-contamination: the verdict leaves the table as it is
    "simulate-max-contamination": (
        ["simulate", "--q", "0.5", "--window=-25:25", "--d", "2", "--T", "10",
         "--replicas", "3", "--seed", "14", "--max-contamination", "0.5"],
        "be1e1456b4cd1fa800f6b0f9ff26b261312a8ddafd068256a4bf622abe707575",
    ),
    "simulate-d0": (
        ["simulate", "--q", "0.5", "--c", "0.4", "--window=-25:25", "--d", "0",
         "--T", "30", "--replicas", "6", "--seed", "13"],
        "78401840859333d470e0da8630bdb1e0df7668135403c73b8beedb71a870882d",
    ),
    # many replicas: each mean and sem folds 200 rows, so a sum in another
    # order (numpy's pairwise sum, the compensated builtin sum) shows here
    "simulate-many-replicas": (
        ["simulate", "--q", "0.5", "--window=-25:25", "--d", "2", "--T", "10",
         "--replicas", "200", "--seed", "15"],
        "61233a24ee1db0e4ed73006947f32b858f2e94163c125bb4254978e144f29728",
    ),
    "simulate-many-replicas-json": (
        ["simulate", "--q", "0.5", "--window=-25:25", "--d", "1", "--T", "10",
         "--replicas", "200", "--seed", "15", "--format", "json"],
        "4be8d7841d0276caf3602d27520b09c0b2a2f8ce9db6d72e26dd45619dc727b2",
    ),
}


def stripped_digest(argv, tmp_path):
    path = tmp_path / "out.csv"
    code = main(argv + ["--out", str(path)])
    text = TIMESTAMP.sub('"timestamp": ""', path.read_text())
    return code, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(name, tmp_path):
    argv, digest = GOLDEN[name]
    code, got = stripped_digest(argv, tmp_path)
    assert code == 0
    assert got == digest
