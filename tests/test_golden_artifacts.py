"""Golden artifacts: `rrs run` on the bundled scenarios must keep writing
byte-identical `metrics.csv`, `actions.log` and `summary.json`, and `rrs plan`
on the earthquake demo a byte-identical `plan.json`.

The run hashes were recorded before the world-state caches and the streaming
metrics writer went in, the plan hashes before the planner took its
out-of-service set from the snapshot's link budget; a change that alters any
artifact on purpose names the defect it fixes and records new hashes here.
"""

import hashlib
import json

import pytest

from rrsim.cli import bundled_scenario_path, main

GOLDEN = {
    "earthquake_demo.json": (
        14_520_000,
        {
            "metrics.csv": "650204534670789e29ce1645638c0f67e13f696730014e5fc42f8598d2df239e",
            "actions.log": "bd640eea2066aa61e34aa781c603b84d703b241683d48a8f27850869fe785473",
            "summary.json": "eac2740b9429c922a55ef449681b077aa8507f76585a6dfe25ad271943da94c7",
        },
    ),
    "indoor_ris_demo.json": (
        60_000,
        {
            "metrics.csv": "2b345c15c7ba459d946fe3ef7e9311d48fd5cfbc241b3b0a35d2985d8f18b050",
            "actions.log": "c046ddae74a77e0649a3fb84bfb6b83b7aaf99824a9d77592db18bd37652e3c4",
            "summary.json": "6423c5cf7fdf0989ef6197d58740a527951aa51ba203cf16a0ff35f12b9f3f45",
        },
    ),
    "two_ue_demo.json": (
        60_000,
        {
            "metrics.csv": "4decab36932d64e1d4b0a8a02867135e8bded5b43cf66f661a4803402a02f42e",
            "actions.log": "dd6a0e9dce45bcf066890b6d37c80d5a47f79f788afee12e183d36cf9c691c80",
            "summary.json": "681b28da518143dd8149d0b50e299cbdd93724fc084721f46a1f6d4986767bb3",
        },
    ),
}

# `rrs plan` on earthquake_demo.json: options, sha256 of plan.json.
GOLDEN_PLANS = {
    "default": ((), "e03f0e06011e801c77bfd9632dc0aa4ef912c3476b6619eabcb5f10fb3379847"),
    "max_nodes_1": (("--max-nodes", "1"), "94ca895ca513b408b391eea07683c7f088e867eedd64d1144f154f788da990c7"),
}


def artifact_hashes(out_dir) -> dict[str, str]:
    hashes = {}
    for name in ("metrics.csv", "actions.log"):
        hashes[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    # The scenario path depends on where the package is installed.
    summary = json.loads((out_dir / "summary.json").read_text())
    del summary["scenario"]
    canonical = json.dumps(summary, indent=2, sort_keys=True).encode()
    hashes["summary.json"] = hashlib.sha256(canonical).hexdigest()
    return hashes


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_run_artifacts_unchanged(name, tmp_path, capsys):
    until, expected = GOLDEN[name]
    out = tmp_path / "out"
    rc = main(["run", "--scenario", bundled_scenario_path(name), "--until", str(until), "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    assert artifact_hashes(out) == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
def test_earthquake_plan_unchanged(name, tmp_path, capsys):
    options, expected = GOLDEN_PLANS[name]
    out = tmp_path / "plan.json"
    rc = main(["plan", "--scenario", bundled_scenario_path("earthquake_demo.json"), *options, "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected
