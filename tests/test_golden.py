"""Golden hashes of the CLI artifacts of the bundled instances.

``toppkit solve`` at n = 1001, then ``toppkit retime`` of its profile at
dt = T / 1001, must reproduce these files byte for byte: any change to
a writer's layout or to a float it writes shows here. So must
``toppkit oracle`` at n = 201 and ``toppkit sweep`` at 11, 21 and 41
points against the finest reference. The hashes were recorded with the
row-by-row writers that the block writers replaced, and the oracle and
sweep hashes with the streaming JSON writer that ``json.dumps``
replaced, on x86-64 Linux with numpy 2.4. They pin the floats of the
platform's libm and numpy build too, so a platform whose last bits
differ has to record its own.

The capped_arc and wave_table oracle hashes were re-recorded when the
oracle's bisection stop became relative (1e-13 |bad| instead of 1e-13
max(1, |bad|)), which refines ceilings below 1 further and so moves the
last bits of their oracle profiles and agreement errors; every other
hash was kept. The line, capped_line, capped_arc and wave_table ``trajectory.csv`` hashes
were re-recorded when a sample's position became the trapezoid integral
s0 + tau (sqrt(h0) + v) / 2 of its speed instead of the inversion
s0 + (h - h0) / m, which cancelled on nearly flat segments (capped_arc's
positions moved by up to 4.3e-7 m); the speed and time columns kept
their bytes, and circle's constant profile kept its hash.

``GOLDEN_1E5`` holds the CSV hashes of capped_arc (solve and retime) and
wave_table (solve) at n = 100 001: files of more than 8 blocks, whose
formatting is split between two processes. They were recorded with the
one-process writer.
"""

import hashlib
import json

import pytest

from toppkit import bundled_instances
from toppkit.cli import main

N = 1001
FILES = ("profile.csv", "summary.json", "trajectory.csv")
GOLDEN = {
    "capped_arc": {
        "profile.csv":
            "3fb5627d0ce21031346fb999040a679767f77d2401df3ba0c419dc022a99acf0",
        "summary.json":
            "79ef1d3548469668d3b7999a3b5cd0c45d8c0ef46f465c77944a45fd77414fc1",
        "trajectory.csv":
            "474a0dbb3fd6cd8a6903c56391ae485ccc5b483d360acdffbd5b741e3a4ff0f3",
        "stdout":
            "353a31bdaf89bcdc2516c21aee1a374f90dcf53ced3c614dc1fc5316f50b8d1a",
    },
    "capped_line": {
        "profile.csv":
            "5b26ddead9f42023a8a2fd10063aa25d45dde171361c0f5a8382e80a9ae4e5bc",
        "summary.json":
            "46bb4c2bf0469f6c6586657ec459c7126562f6a1bd408ddaa5f4c69a741ce065",
        "trajectory.csv":
            "7fe4aa6f2d0d9e61069fc1641cc07bdac459bc91d841de82a84d1d5cfd4b5904",
        "stdout":
            "5e07ad6f749d53d9ff0b89a823ca531471e8581ede2546dda4eb39ad465c778f",
    },
    "circle": {
        "profile.csv":
            "c33c3e548042d362a91ca48bd5ca0f5138a15957f88a63b2d53f2ef181636b43",
        "summary.json":
            "4fa2ee9f01e6e9b96d4231d87c6021cc49fa09baceffdc3098ac9ec7a173d21a",
        "trajectory.csv":
            "3dec85e818204020ff0a8978168433ee7f7b78bd23530a351b54501ca31e7cbf",
        "stdout":
            "1eb1b965ad5ea05f21222e5f908a5646058a4da99bbdfa32303938241b521654",
    },
    "line": {
        "profile.csv":
            "3cdc8272cbbb8d91a655104db44c9d38a04383b398e1e88bff76c913e9805f38",
        "summary.json":
            "bb07813d4f78a81734b3cab4b851492ed33872c7d32d27efbad4240dc1d06760",
        "trajectory.csv":
            "d0567cb69e5e6d655d64d0167e5f2bb35ff1701e26732c7386743e4d5bcb75f5",
        "stdout":
            "e49236addff457d70a0866ebc27bd337159a0531ad7cd49c6089e98bb1b56cf4",
    },
    "wave_table": {
        "profile.csv":
            "6fc54f253ea61d12c70eafc49eaa90b016e85b024c530326464b532e8c6c2535",
        "summary.json":
            "a037e177a2ccf3cea62da77a93a45bf11afbb65856ecbb1564bfe4d36f978864",
        "trajectory.csv":
            "54bd342e2edd98464b4ba36b477c39574e98b1d204fe96e9ec051927072c0038",
        "stdout":
            "b5fda7bf7a8d1263d234dcf558951e3b0506f57b7c2a9deadd0419a77843e39c",
    },
}


# toppkit oracle --n 201, and toppkit sweep --resolutions 11,21,41
# --reference finest, of the bundled instances.
GOLDEN_ORACLE = {
    "capped_arc": {
        "oracle.csv":
            "069cd0bd60b6ffea2ffe6f1d0a429c8bae7ae4cf98c9c385df7e88d157a1e65b",
        "agreement.json":
            "fc87135c1f9a3aab72d6fd1f30cdf2afdc62bf3fa25eb2a9e6b7e71b38a8661d",
        "stdout":
            "a0ffb2817e4eff21413d40155f3e8dfda56bd11b4ed60063bf40cbf6ae5f7544",
    },
    "capped_line": {
        "oracle.csv":
            "7f71431ea291a824f3d295982721edf285307d0674df1fad65b9ded7cfc7cd4d",
        "agreement.json":
            "22c6f1e4f3b1fa5befcb91563ff56fd0e48f3ef852ac1161b8009b7e6b9d5bc7",
        "stdout":
            "6412725d55376162a4a276329392c77abc1adee2653b0223af6a1903e2772661",
    },
    "circle": {
        "oracle.csv":
            "ed2371027531ca6b0e0a4007afb8f51c66d73fef2ed301c3ce8cb837af8c5ed4",
        "agreement.json":
            "1cfb9bccffb03ce5eabd9512312381f6088e5330323f3dbcd426dd55ea14ad82",
        "stdout":
            "0ea056f80e2ad26359a510b22847c0712af8b5d1bd4c1352df29d2b8b7aff522",
    },
    "line": {
        "oracle.csv":
            "ba8f1b3df18a9806dd3d264d2d1a089b92249fe21ee0dc7d62f30b273cfa0c20",
        "agreement.json":
            "f3eb47b44295aec04805571f411bd485630ae2db446578789231c352b0956f6f",
        "stdout":
            "3ca178cf71452ed4178817341cd606991e311e22978d2a2dc499edbb89083f21",
    },
    "wave_table": {
        "oracle.csv":
            "9c6c1dde19d27f3ea0184fa805b7926d7f25407899ca6db18da7dc4228c2579a",
        "agreement.json":
            "7b212fd422ac147744472293cf2689c4302aed12f453e61535d77f4853283153",
        "stdout":
            "3a42a1bea35854812c24627f4d1b66f448f63dd423cef1d0a91077e8a102fea9",
    },
}
GOLDEN_SWEEP = {
    "capped_arc": {
        "sweep.csv":
            "cbd9e770956f9f5f7d8c391a40864523b318aece64136e225a5b07cdde9738ea",
        "stdout":
            "e6049a3b0e8a82b8e9ed23f700e5a4f71b8dcaf99b0b31389deb61e263fdb08f",
    },
    "capped_line": {
        "sweep.csv":
            "6b0beb60b8436a0c4d1ac1e58ba677e973b0c9db8bfab86f59a33514acf22fac",
        "stdout":
            "4524e6db61bef54bff4aed3ad99e56581f46e03524fda16d541733c94fbc5baf",
    },
    "circle": {
        "sweep.csv":
            "bc397a82d273411d100d09c0b4663f7ffe090cc45e5524e352f36086c03e2a36",
        "stdout":
            "540e51f77c5014624124ad8c5a5ca5e65d891cdb83f40410fa9be4a3f56560e1",
    },
    "line": {
        "sweep.csv":
            "818109a6d5327a1f7ce9cac3f43f5d2dbc95bec9e57e4e7b0c77704edac96db4",
        "stdout":
            "6129a3fc4fcff6a1530aa2cf3c9b633cb729abe9cda4d87a4f7c9b8993d2988a",
    },
    "wave_table": {
        "sweep.csv":
            "5e62e4ceb7a790ce26f084912073bd5676533e1c07d5a757fea67db1cd0ac6ed",
        "stdout":
            "f7974166b8714409bc6c4e465c411f73270cc2f0e769463a61b42206c13c02c7",
    },
}


# toppkit solve --n 100001, and for capped_arc toppkit retime of its profile
# at dt = T / 100001.
N_1E5 = 100_001
GOLDEN_1E5 = {
    "capped_arc": {
        "profile.csv":
            "f51e8861012874f15440f086927efa30e3a47d70e9a28c3ac08ef95808bb146b",
        "trajectory.csv":
            "7f09fdc385e9dca1f36eeb94da8be1f7f869f4f5ec0e58059707edf791def773",
    },
    "wave_table": {
        "profile.csv":
            "129332de53ec12c771184434c1bf64f210c9d727055e7306828f76110edb57e3",
    },
}


def _write_spec(tmp_path, name):
    spec = tmp_path / "path.json"
    spec.write_text(json.dumps(bundled_instances()[name].to_json_dict()),
                    encoding="utf-8")
    return str(spec)


def _hashes(out, files, capsys):
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
           for f in files}
    got["stdout"] = hashlib.sha256(
        capsys.readouterr().out.encode("utf-8")).hexdigest()
    return got


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_recorded_hashes(tmp_path, capsys, name):
    out = tmp_path / "out"
    assert main(["solve", "--input", _write_spec(tmp_path, name),
                 "--n", str(N), "--out", str(out)]) == 0
    t = json.loads((out / "summary.json").read_text())["traversal_time"]
    assert main(["retime", "--profile", str(out / "profile.csv"),
                 "--dt", repr(t / N), "--out", str(out)]) == 0
    assert _hashes(out, FILES, capsys) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_ORACLE))
def test_oracle_matches_recorded_hashes(tmp_path, capsys, name):
    out = tmp_path / "out"
    assert main(["oracle", "--input", _write_spec(tmp_path, name),
                 "--n", "201", "--out", str(out)]) == 0
    assert _hashes(out, ("oracle.csv", "agreement.json"),
                   capsys) == GOLDEN_ORACLE[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEP))
def test_sweep_matches_recorded_hashes(tmp_path, capsys, name):
    out = tmp_path / "out"
    assert main(["sweep", "--input", _write_spec(tmp_path, name),
                 "--resolutions", "11,21,41", "--reference", "finest",
                 "--out", str(out)]) == 0
    assert _hashes(out, ("sweep.csv",), capsys) == GOLDEN_SWEEP[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_1E5))
def test_large_csv_artifacts_match_recorded_hashes(tmp_path, capsys, name):
    out = tmp_path / "out"
    assert main(["solve", "--input", _write_spec(tmp_path, name),
                 "--n", str(N_1E5), "--out", str(out)]) == 0
    if "trajectory.csv" in GOLDEN_1E5[name]:
        t = json.loads((out / "summary.json").read_text())["traversal_time"]
        assert main(["retime", "--profile", str(out / "profile.csv"),
                     "--dt", repr(t / N_1E5), "--out", str(out)]) == 0
    got = _hashes(out, GOLDEN_1E5[name], capsys)
    del got["stdout"]
    assert got == GOLDEN_1E5[name]
