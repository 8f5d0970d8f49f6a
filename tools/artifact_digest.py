"""Print one sha256 per artifact that `rrs` writes for a fixed set of runs.

The runs are the three bundled scenarios at the `--until` values of
`BUNDLED`, plus `rrs run` on the generated
`quake_4h` and `ris_emergency` inputs and `rrs plan` on the generated
`plan_blocked` input, seeds 0-2 (from `perfbench.inputs`), and `rrs plan` on
`earthquake_demo.json` with the default `max_nodes` and with `--max-nodes 1`
(a planner without relays, at the full precision of `plan.json`). Then the RIS
outputs: `rrs ris bench` on a 76x4 panel (bench seeds 0-2, the iterative,
grouping and codebook algorithms) and `rrs codebook build` for both parts of
the panel of `two_ue_demo.json` and of the `ris_emergency` inputs, seeds 0-2.
Last, `rrs run` with Rayleigh fading on (`"channel": {"fading": true}` written
into a copy of the input) for `earthquake_demo.json` and the `ris_emergency`
seed 0 input, the only runs here that draw from the fading stream. Then the
battery paths, `rrs run` on copies of `two_ue_demo.json` with a 5,000 ms
battery reserve (`BATTERY_RUNS`): `tx1` failed at 1,000 ms and then struck by
a power loss at 4,000 ms; `tx1` loaded `OnBattery` with `battery_ms` 5,000
and struck by a power loss at 4,000 ms; and a power loss on the serving
`tx1` at 4,000 ms, whose battery runs out at 9,000 ms.
`summary.json` is hashed without its `scenario` entry, which holds the input
path.

To check that two source trees write the same artifacts, run this from the
root of each and compare the outputs:

    PYTHONPATH=src python3 tools/artifact_digest.py > digest.txt

`tests/test_golden_artifacts.py` runs `main()` and compares its output with
the recorded `tests/artifact_digest.txt`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import inputs  # noqa: E402
from rrsim import cli  # noqa: E402

BUNDLED = {
    "earthquake_demo.json": 14_520_000,
    "indoor_ris_demo.json": 60_000,
    "two_ue_demo.json": 60_000,
}
SEEDS = (0, 1, 2)
RUN_ARTIFACTS = ("metrics.csv", "actions.log", "summary.json")
RIS_BENCH = ("--panel", "76,4", "--seeds", "3", "--algorithms", "iterative,grouping,codebook")
RIS_PANEL, RIS_PARTS = "ris1", (0, 1)
QUAKE_PLANS = (("plan.json", ()), ("plan_max_nodes_1.json", ("--max-nodes", "1")))
BATTERY_RESERVE_MS = 5_000
# label: (the disasters, the fields that replace tx1's in the copy)
BATTERY_RUNS = {
    "fail_then_power_loss": (
        [{"time_ms": 1_000, "fail": ["tx1"]}, {"time_ms": 4_000, "power_loss": ["tx1"]}], {}
    ),
    "on_battery_then_power_loss": (
        [{"time_ms": 4_000, "power_loss": ["tx1"]}], {"status": "OnBattery", "battery_ms": 5_000}
    ),
    "power_loss": ([{"time_ms": 4_000, "power_loss": ["tx1"]}], {}),
}


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "summary.json":
        summary = json.loads(data)
        del summary["scenario"]
        data = json.dumps(summary, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def rrs(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(list(argv))
    if rc != 0:
        raise SystemExit(f"rrs {' '.join(argv)} exited with {rc}")


def run(label: str, scenario_path: str, until_ms: int, tmp: str) -> None:
    out = os.path.join(tmp, label)
    rrs("run", "--scenario", scenario_path, "--until", str(until_ms), "--out", out)
    for name in RUN_ARTIFACTS:
        print(f"{digest(os.path.join(out, name))}  {label}/{name}")


def codebooks(label: str, scenario_path: str, tmp: str) -> None:
    os.makedirs(os.path.join(tmp, label), exist_ok=True)
    for part in RIS_PARTS:
        name = f"codebook_{RIS_PANEL}_part{part}.json"
        out = os.path.join(tmp, label, name)
        rrs("codebook", "build", "--scenario", scenario_path, "--panel", RIS_PANEL,
            "--part", str(part), "--out", out)
        print(f"{digest(out)}  {label}/{name}")


def with_fading(scenario_path: str, out_path: str) -> str:
    with open(scenario_path) as fh:
        data = json.load(fh)
    data["channel"] = {**data.get("channel", {}), "fading": True}
    return inputs.write_json(data, out_path)


def battery_run(label: str, tmp: str) -> str:
    """A copy of two_ue_demo.json with the disasters and tx1 fields of
    BATTERY_RUNS[label] and a BATTERY_RESERVE_MS reserve."""
    with open(cli.bundled_scenario_path("two_ue_demo.json")) as fh:
        data = json.load(fh)
    disasters, tx1 = BATTERY_RUNS[label]
    data["nodes"] = [{**n, **tx1} if n["id"] == "tx1" else n for n in data["nodes"]]
    data["disasters"] = disasters
    data["battery_reserve_ms"] = BATTERY_RESERVE_MS
    return inputs.write_json(data, os.path.join(tmp, "inputs", "battery", f"{label}.json"))


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="rrs_digest_") as tmp:
        for name, until_ms in BUNDLED.items():
            run(name, cli.bundled_scenario_path(name), until_ms, tmp)
        for seed in SEEDS:
            for label, make, until_ms in (
                ("quake_4h", inputs.quake_scenario, inputs.QUAKE_UNTIL_MS),
                ("ris_emergency", inputs.ris_emergency_scenario, inputs.RIS_UNTIL_MS),
            ):
                path = inputs.write_json(make(seed), os.path.join(tmp, "inputs", f"{label}_{seed}.json"))
                run(f"{label}/seed{seed}", path, until_ms, tmp)
            path = inputs.write_json(
                inputs.plan_blocked_scenario(seed), os.path.join(tmp, "inputs", f"plan_blocked_{seed}.json")
            )
            plan = os.path.join(tmp, f"plan_blocked_{seed}.json")
            rrs("plan", "--scenario", path, "--out", plan)
            print(f"{digest(plan)}  plan_blocked/seed{seed}/plan.json")
        for name, options in QUAKE_PLANS:
            plan = os.path.join(tmp, name)
            rrs("plan", "--scenario", cli.bundled_scenario_path("earthquake_demo.json"), *options, "--out", plan)
            print(f"{digest(plan)}  earthquake_demo.json/{name}")

        bench = os.path.join(tmp, "ris_bench_76x4.csv")
        rrs("ris", "bench", *RIS_BENCH, "--out", bench)
        print(f"{digest(bench)}  ris_bench/76x4/ris_bench.csv")
        codebooks("two_ue_demo.json", cli.bundled_scenario_path("two_ue_demo.json"), tmp)
        for seed in SEEDS:
            codebooks(f"ris_emergency/seed{seed}", os.path.join(tmp, "inputs", f"ris_emergency_{seed}.json"), tmp)

        for label, path, until_ms in (
            ("earthquake_demo.json", cli.bundled_scenario_path("earthquake_demo.json"), BUNDLED["earthquake_demo.json"]),
            ("ris_emergency/seed0", os.path.join(tmp, "inputs", "ris_emergency_0.json"), inputs.RIS_UNTIL_MS),
        ):
            faded = with_fading(path, os.path.join(tmp, "inputs", "fading", os.path.basename(path)))
            run(f"{label}+fading", faded, until_ms, tmp)

        for label in BATTERY_RUNS:
            run(f"two_ue_demo.json+{label}", battery_run(label, tmp), BUNDLED["two_ue_demo.json"], tmp)


if __name__ == "__main__":
    main()
