"""CLI surface: argument validation, emitted artifacts and exit codes."""

import csv
import datetime
import json
import os
import stat

import pytest

from rrsim.cli import bundled_scenario_path, main

SMALL = {
    "seed": 3,
    "ticks": {"non_rt_ms": 60_000, "near_rt_ms": 1_000, "sample_ms": 5_000},
    "nodes": [
        {"id": "gw", "kind": "Gateway", "position": [0, 0, 10]},
        {"id": "bs1", "kind": "TerrestrialBS", "position": [0, 0, 25], "tx_power_dbm": 43},
        {"id": "bs2", "kind": "TerrestrialBS", "position": [2000, 0, 25], "tx_power_dbm": 43},
        {"id": "ue1", "kind": "UE", "position": [50, 10, 1.5]},
        {"id": "ue2", "kind": "UE", "position": [1950, 10, 1.5]},
    ],
    "channel": {"exponent": 3.0},
    "disasters": [{"time_ms": 30_000, "fail": ["bs2"]}],
}


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestValidation:
    def test_missing_scenario_file(self, tmp_path, capsys):
        rc = main(["run", "--scenario", str(tmp_path / "nope.json"), "--until", "1000"])
        assert rc == 2
        assert "scenario error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = main(["run", "--scenario", str(path), "--until", "1000"])
        assert rc == 2

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--until", "1000", "--out", "{tmp}/out"],
            ["plan", "--out", "{tmp}/plan.json"],
            ["codebook", "build", "--panel", "p1", "--out", "{tmp}/codebook.json"],
        ],
    )
    def test_unsorted_mcs_table(self, tmp_path, capsys, command):
        scenario = write_scenario(tmp_path, dict(SMALL, channel={"mcs_table": [[5.0, 2.0], [0.0, 1.0]]}))
        rc = main([arg.format(tmp=tmp_path) for arg in command] + ["--scenario", scenario])
        assert rc == 2
        assert "MCS table must be sorted" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--until", "1000", "--out", "{tmp}/out"],
            ["plan", "--out", "{tmp}/plan.json"],
            ["codebook", "build", "--panel", "ris1", "--out", "{tmp}/codebook.json"],
        ],
    )
    def test_unknown_ris_tx(self, tmp_path, capsys, command):
        with open(bundled_scenario_path("two_ue_demo.json")) as fh:
            data = json.load(fh)
        data["ric"]["ris"]["ris1"]["tx"] = "nope"
        scenario = write_scenario(tmp_path, data)
        rc = main([arg.format(tmp=tmp_path) for arg in command] + ["--scenario", scenario])
        assert rc == 2
        assert "unknown node 'nope'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    def test_bad_panel_spec(self, capsys):
        rc = main(["ris", "bench", "--panel", "seventysix"])
        assert rc == 2
        assert "--panel" in capsys.readouterr().err

    def test_unknown_algorithm(self, capsys):
        rc = main(["ris", "bench", "--panel", "8,2", "--algorithms", "magic"])
        assert rc == 2
        assert "magic" in capsys.readouterr().err


class TestRun:
    def test_artifacts_and_summary(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, SMALL)
        out = tmp_path / "out"
        rc = main(["run", "--scenario", scenario, "--until", "60000", "--out", str(out)])
        assert rc == 0

        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time_ms", "coverage_ratio", "ue_id", "throughput_mbps"]
        assert len(rows) == 1 + 13 * 2  # 13 samples x 2 UEs

        actions = (out / "actions.log").read_text().splitlines()
        assert any("DisasterStrike" in line for line in actions)
        assert all("\t" in line for line in actions)

        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"] == scenario
        assert summary["baseline_coverage"] == 1.0
        assert summary["recovery_time_ms"] == "not_recovered"

        stdout = capsys.readouterr().out
        assert json.loads(stdout.strip())["seed"] == 3

    def test_require_recovery_exit_code(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL)
        rc = main(
            [
                "run", "--scenario", scenario, "--until", "60000",
                "--out", str(tmp_path / "out"), "--require-recovery",
            ]
        )
        assert rc == 3

    def test_no_disaster_omits_recovery_time(self, tmp_path):
        data = dict(SMALL)
        data["disasters"] = []
        scenario = write_scenario(tmp_path, data)
        out = tmp_path / "out"
        rc = main(["run", "--scenario", scenario, "--until", "20000", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "recovery_time_ms" not in summary

    def test_disable_app_flag(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL)
        out = tmp_path / "out"
        rc = main(
            [
                "run", "--scenario", scenario, "--until", "60000", "--out", str(out),
                "--disable-app", "CfClusterer",
            ]
        )
        assert rc == 0
        assert "Recluster" not in (out / "actions.log").read_text()


class TestRisBench:
    def test_csv_with_mean_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(
            [
                "ris", "bench", "--panel", "8,2", "--seeds", "3",
                "--algorithms", "iterative,codebook", "--out", str(out),
            ]
        )
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "algorithm"
        body = [r for r in rows[1:] if not r[0].startswith("mean:")]
        means = [r for r in rows[1:] if r[0].startswith("mean:")]
        assert len(body) == 6  # 2 algorithms x 3 seeds
        assert [r[0] for r in means] == ["mean:iterative", "mean:codebook"]


class TestPlan:
    def test_plan_for_bundled_earthquake(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        rc = main(
            [
                "plan", "--scenario", bundled_scenario_path("earthquake_demo.json"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        plan = json.loads(out.read_text())
        assert len(plan["placements"]) == 3
        assert len(plan["backhaul"]) == 3
        stdout = capsys.readouterr().out
        assert "estimated coverage: 0.985" in stdout

    def test_unreachable_placement_exit_code(self, tmp_path, capsys):
        data = {
            "nodes": [
                {"id": "gw", "kind": "Gateway", "position": [100_000, 0, 10]},
                {"id": "bs1", "kind": "TerrestrialBS", "position": [0, 0, 25], "tx_power_dbm": 43},
                {"id": "ue1", "kind": "UE", "position": [50, 10, 1.5]},
            ],
            "channel": {"exponent": 3.0},
            "disasters": [{"time_ms": 1000, "fail": ["bs1"]}],
            "planner": {
                "snr_threshold_db": 3.0,
                "max_nodes": 1,
                "uav_tx_power_dbm": 20.0,
                "candidate_spacing_m": 100.0,
                "candidate_bounds": [[0, 0], [200, 200]],
                "backhaul_threshold_db": 30.0,
            },
        }
        scenario = write_scenario(tmp_path, data)
        rc = main(["plan", "--scenario", scenario, "--out", str(tmp_path / "plan.json")])
        assert rc == 4
        assert "planning failed" in capsys.readouterr().err


class TestCodebookBuild:
    def test_build_from_bundled_scenario(self, tmp_path, capsys):
        out = tmp_path / "cb.json"
        rc = main(
            [
                "codebook", "build",
                "--scenario", bundled_scenario_path("two_ue_demo.json"),
                "--panel", "ris1", "--part", "0", "--out", str(out),
            ]
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["version"] == 1
        assert len(data["codewords"]) == 7

    def test_unknown_panel(self, capsys):
        rc = main(
            [
                "codebook", "build",
                "--scenario", bundled_scenario_path("two_ue_demo.json"),
                "--panel", "nope",
            ]
        )
        assert rc == 2

    def test_part_without_reference_points(self, capsys):
        rc = main(
            [
                "codebook", "build",
                "--scenario", bundled_scenario_path("two_ue_demo.json"),
                "--panel", "ris1", "--part", "5",
            ]
        )
        assert rc == 2


class TestArtifactFiles:
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
    def test_mode_follows_umask_like_open(self, tmp_path, umask, capsys):
        scenario = write_scenario(tmp_path, SMALL)
        old = os.umask(umask)
        try:
            plain = tmp_path / "plain"
            open(plain, "w").close()
            assert main(["run", "--scenario", scenario, "--until", "10000", "--out", str(tmp_path / "run")]) == 0
            assert main(
                [
                    "plan", "--scenario", bundled_scenario_path("earthquake_demo.json"),
                    "--out", str(tmp_path / "plan.json"),
                ]
            ) == 0
            assert main(
                [
                    "codebook", "build",
                    "--scenario", bundled_scenario_path("two_ue_demo.json"),
                    "--panel", "ris1", "--out", str(tmp_path / "cb.json"),
                ]
            ) == 0
        finally:
            os.umask(old)
        want = stat.S_IMODE(plain.stat().st_mode)
        for path in (tmp_path / "run" / "metrics.csv", tmp_path / "plan.json", tmp_path / "cb.json"):
            assert stat.S_IMODE(path.stat().st_mode) == want, path

    def test_codebook_bytes_do_not_depend_on_the_date(self, tmp_path, monkeypatch, capsys):
        outputs = []
        for day in (datetime.date(2024, 1, 1), datetime.date(2031, 12, 31)):

            class FixedDate(datetime.date):
                @classmethod
                def today(cls, day=day):
                    return day

            monkeypatch.setattr(datetime, "date", FixedDate)
            out = tmp_path / f"cb_{day.isoformat()}.json"
            rc = main(
                [
                    "codebook", "build",
                    "--scenario", bundled_scenario_path("two_ue_demo.json"),
                    "--panel", "ris1", "--out", str(out),
                ]
            )
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
