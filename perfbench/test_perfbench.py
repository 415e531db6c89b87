"""The benchmark's own tests: a smoke run of every workload, traced and
untraced, at tiny input sizes, plus the tracer's handling of missing names."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402


def _bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric_without_errors(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    record = json.loads(record_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert record["error_rate"] == 0
    assert len(record["output_sha256"]) == 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "repeat-block", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_reports_zero_for_names_the_package_lacks(monkeypatch):
    package = types.ModuleType("fakepkg")
    exec(
        "def map_symbols(text):\n    return text\n\n"
        "def transliterate_text(text):\n    return map_symbols(text)\n",
        package.__dict__,
    )
    transliterate_text = package.transliterate_text
    monkeypatch.setitem(sys.modules, "fakepkg", package)
    tracer = Tracer().install("fakepkg")
    assert package.transliterate_text("a,b") == "a,b"
    tracer.uninstall()
    assert package.transliterate_text is transliterate_text
    layers = tracer.layers()
    assert layers["engine.calls"] == 1
    assert layers["rules.lookups"] == 0 and layers["scanner.tokens"] == 0
    assert layers["engine.self_s"] >= 0 and layers["engine.symbols_s"] > 0
