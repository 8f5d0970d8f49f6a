"""Golden artifacts: every artifact that `tools/artifact_digest.py` hashes
must stay byte-identical to the hashes recorded in `tests/artifact_digest.txt`.
Those are `rrs run` on the bundled scenarios and on the benchmark's generated
inputs, `rrs plan`, `rrs ris bench`, `rrs codebook build`, two runs with fading on
and three battery runs of `two_ue_demo.json`. The tool runs once, in-process; the per-scenario tests below read
the same output, so a failure names the bundled scenario whose artifacts moved.

The hashes were recorded before the one-queue kernel went in. A change that
alters any artifact on purpose names the defect it fixes and records the
tool's new output:

    PYTHONPATH=src python3 tools/artifact_digest.py > tests/artifact_digest.txt
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_digest.py"
RECORDED = Path(__file__).with_name("artifact_digest.txt")
BUNDLED = ("earthquake_demo.json", "indoor_ris_demo.json", "two_ue_demo.json")
# `rrs plan` on earthquake_demo.json: the digest label of each plan.
PLANS = {"default": "plan.json", "max_nodes_1": "plan_max_nodes_1.json"}


@pytest.fixture(scope="module")
def digest() -> str:
    spec = importlib.util.spec_from_file_location("artifact_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        tool.main()
    return out.getvalue()


def hashes(text: str, labels: list[str]) -> dict[str, str]:
    table = {label: sha for sha, label in (line.split("  ", 1) for line in text.splitlines())}
    return {label: table[label] for label in labels}


def test_artifact_digest_unchanged(digest):
    assert digest == RECORDED.read_text()


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_run_artifacts_unchanged(digest, name):
    labels = [f"{name}/{artifact}" for artifact in ("metrics.csv", "actions.log", "summary.json")]
    assert hashes(digest, labels) == hashes(RECORDED.read_text(), labels)


@pytest.mark.parametrize("name", sorted(PLANS))
def test_earthquake_plan_unchanged(digest, name):
    labels = [f"earthquake_demo.json/{PLANS[name]}"]
    assert hashes(digest, labels) == hashes(RECORDED.read_text(), labels)
