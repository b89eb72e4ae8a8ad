"""Golden hashes of the CLI artifacts of the bundled instances.

``toppkit solve`` at n = 1001, then ``toppkit retime`` of its profile at
dt = T / 1001, must reproduce these files byte for byte: any change to
a writer's layout or to a float it writes shows here. The hashes were
recorded with the row-by-row writers that the block writers replaced,
on x86-64 Linux with numpy 2.4. They pin the floats of the platform's
libm and numpy build too, so a platform whose last bits differ has to
record its own.
"""

import hashlib
import json

import pytest

from toppkit import bundled_instances
from toppkit.cli import main

N = 1001
FILES = ("profile.csv", "report.json", "summary.json", "trajectory.csv")
GOLDEN = {
    "capped_arc": {
        "profile.csv":
            "3fb5627d0ce21031346fb999040a679767f77d2401df3ba0c419dc022a99acf0",
        "report.json":
            "1f0e688a022a312292206480f136b2fbe38deebeca3cae87336e9d8007e1e055",
        "summary.json":
            "79ef1d3548469668d3b7999a3b5cd0c45d8c0ef46f465c77944a45fd77414fc1",
        "trajectory.csv":
            "e206a76a8d68bb615e68b66a5a3fbb5c02534eb166068334a19b6a0fc18859a9",
        "stdout":
            "353a31bdaf89bcdc2516c21aee1a374f90dcf53ced3c614dc1fc5316f50b8d1a",
    },
    "capped_line": {
        "profile.csv":
            "5b26ddead9f42023a8a2fd10063aa25d45dde171361c0f5a8382e80a9ae4e5bc",
        "report.json":
            "af8ed548ba61d3d97a99a5dc10becd4537a0f752d1d1afcb6b3ad6e95fcf6534",
        "summary.json":
            "46bb4c2bf0469f6c6586657ec459c7126562f6a1bd408ddaa5f4c69a741ce065",
        "trajectory.csv":
            "6b046766f5be64060739a970801e78e7a713365c25aac93056ceee16eea70933",
        "stdout":
            "5e07ad6f749d53d9ff0b89a823ca531471e8581ede2546dda4eb39ad465c778f",
    },
    "circle": {
        "profile.csv":
            "c33c3e548042d362a91ca48bd5ca0f5138a15957f88a63b2d53f2ef181636b43",
        "report.json":
            "f7d944f380adec7e15ebd880d83b27df6fb253cf57da62cf411bcbd010335598",
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
        "report.json":
            "9099b94742d46ca129fb7270a9e3ce2b1314a30ddb0e65583f3bf52036061bad",
        "summary.json":
            "bb07813d4f78a81734b3cab4b851492ed33872c7d32d27efbad4240dc1d06760",
        "trajectory.csv":
            "8a805dd035dbd3cfa6973bb9c6a8e36fea139b0d5f3e35c6065cf1b77e50cdeb",
        "stdout":
            "e49236addff457d70a0866ebc27bd337159a0531ad7cd49c6089e98bb1b56cf4",
    },
    "wave_table": {
        "profile.csv":
            "6fc54f253ea61d12c70eafc49eaa90b016e85b024c530326464b532e8c6c2535",
        "report.json":
            "db84b16a90129a0c2eee0f8c3f6a44b0531ff6a182b0b6a1b6521c9a88b2cd7a",
        "summary.json":
            "a037e177a2ccf3cea62da77a93a45bf11afbb65856ecbb1564bfe4d36f978864",
        "trajectory.csv":
            "391e857a35a00322cce25b9aa24a8ec3332fc05a8cd2f2164b96ff76a5e1002c",
        "stdout":
            "b5fda7bf7a8d1263d234dcf558951e3b0506f57b7c2a9deadd0419a77843e39c",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_recorded_hashes(tmp_path, capsys, monkeypatch, name):
    monkeypatch.delenv("TOPPKIT_TOL", raising=False)
    spec = tmp_path / "path.json"
    spec.write_text(json.dumps(bundled_instances()[name].to_json_dict()),
                    encoding="utf-8")
    out = tmp_path / "out"
    assert main(["solve", "--input", str(spec), "--n", str(N),
                 "--out", str(out)]) == 0
    t = json.loads((out / "summary.json").read_text())["traversal_time"]
    assert main(["retime", "--profile", str(out / "profile.csv"),
                 "--dt", repr(t / N), "--out", str(out)]) == 0
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
           for f in FILES}
    got["stdout"] = hashlib.sha256(
        capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert got == GOLDEN[name]
