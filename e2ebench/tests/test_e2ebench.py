"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest e2ebench/tests -q

The smoke and failure tests run the real command on the cheapest
workload and take about half a minute together.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(BENCH))

import catalog  # noqa: E402
import ledger  # noqa: E402
import workload as wl  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def _metrics(spec):
    return spec["end_to_end"] + spec["per_layer"]


def test_metric_and_workload_names_are_plain(spec):
    names = [m["name"] for m in _metrics(spec)]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in _metrics(spec):
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_metric_states_its_intent(spec):
    assert set(catalog.E2E_WHAT) == {m["name"] for m in spec["end_to_end"]}
    assert set(catalog.LAYER_INTENT) == {m["name"] for m in spec["per_layer"]}
    end_to_end = set(catalog.E2E_WHAT)
    workloads = {w["name"] for w in spec["workloads"]}
    for name, intent in catalog.LAYER_INTENT.items():
        assert intent.moves in end_to_end, name
        assert intent.on and set(intent.on) <= workloads, name
        assert set(intent.bypassed) <= workloads - set(intent.on), name


def test_bypassed_layers_record_no_span_there():
    """A workload said to skip a layer shows no span of it in the traced
    shapes pins.json holds for the committed and the held-out seed."""
    shapes = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))["shape"]
    spans = [hook[0] for hook in ledger.LAYER_HOOKS]
    for name, intent in catalog.LAYER_INTENT.items():
        span = next((s for s in spans if name.startswith(s + ".")), None)
        for workload in intent.bypassed if span else ():
            for seed, shape in shapes[workload].items():
                assert span not in shape["shares"], (name, workload, seed)


def _small_campaign():
    from repro.sim import ScenarioSpec, SwarmSpec, derive_seed

    return [
        ScenarioSpec(app="testapp", seed=derive_seed(5, 0, "board"),
                     attack="guess", attack_seed=derive_seed(5, 0, "attack"),
                     warmup_ticks=5, observe_ticks=30, label="guess"),
        ScenarioSpec(app="testapp", defense="ctomp", seed=3, attack="guess",
                     attack_seed=3, warmup_ticks=5, observe_ticks=30,
                     label="guess-ctomp"),
        ScenarioSpec(app="testapp", defense="daedalus", seed=4, attack="v2",
                     warmup_ticks=5, observe_ticks=30, label="v2-daedalus"),
        SwarmSpec(app="testapp", boards=2, seed=6, attack="flood",
                  observe_ticks=10, label="flood"),
    ]


def _records(specs, cache_dir):
    from repro.sim import CampaignRunner

    report = CampaignRunner(cache_dir=cache_dir).run(specs)
    return [wl.record_line(result) for result in report.results]


def test_tracing_wrappers_leave_records_identical(tmp_path):
    from repro.avr.cpu import AvrCpu
    from repro.sim import campaign

    specs = _small_campaign()
    original_run, original_scenario = AvrCpu.run, campaign.run_scenario
    plain = _records(specs, tmp_path / "plain")
    tracer = ledger.Tracer(traced=True)
    with tracer:
        assert AvrCpu.run is not original_run
        traced = _records(specs, tmp_path / "traced")
    with ledger.Tracer(traced=False):
        counted = _records(specs, tmp_path / "counted")
    assert AvrCpu.run is original_run
    assert campaign.run_scenario is original_scenario
    assert traced == plain
    assert counted == plain

    labels = [s.label for s in specs]
    totals = tracer.layer_totals(labels)
    assert totals[ledger.ROOT]["calls"] == len(specs)
    for layer in ("avr.run", "core.diversify", "core.recover",
                  "attack.gadget_scan", "uav.detector", "mavlink.parser",
                  "sim.artifacts.put", "hw.isp_program"):
        assert totals[layer]["calls"] > 0, layer
    assert all(end >= start for _, start, end, _, _ in tracer.spans)


def test_smoke_run_prints_every_metric_with_its_unit(spec):
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        done = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", catalog.SWARM,
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=REPO, stdout=subprocess.PIPE, text=True, timeout=180,
        )
        assert done.returncode == 0
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in listed]
        text = "\n".join(lines[:-1])
        for metric in listed:
            cell = result["metrics"][metric["name"]]
            assert cell["unit"] == metric["unit"]
            assert isinstance(cell["value"], (int, float))
            assert re.search(
                rf"^\s+{re.escape(metric['name'])}\s+\S+\s+"
                rf"{re.escape(metric['unit'])}$", text, re.M,
            ), metric["name"]
    assert not (BENCH / "_tmp").exists()


#: imported at start-up by every interpreter the command starts: makes
#: the second scenario of every protocol-swarm batch 0 raise
FAIL_ONE_SCENARIO = """
import sys
sys.path.insert(0, {src!r})
import repro.sim
from repro.sim import campaign, swarm

real = swarm.run_swarm_scenario


def run_swarm_scenario(spec, *args, **kwargs):
    if spec.label == "protocol-swarm-1":
        raise RuntimeError("injected failure")
    return real(spec, *args, **kwargs)


for module in (repro.sim, swarm, campaign):
    module.run_swarm_scenario = run_swarm_scenario
"""


@pytest.mark.parametrize("trace", (0, 1))
def test_a_failing_scenario_is_counted_not_fatal(tmp_path, trace):
    (tmp_path / "sitecustomize.py").write_text(
        FAIL_ONE_SCENARIO.format(src=str(REPO / "src")), encoding="utf-8"
    )
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", catalog.SWARM,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=REPO, stdout=subprocess.PIPE, text=True, timeout=180,
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
    )
    assert done.returncode == 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "FAILED protocol-swarm-1: error" in done.stdout
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__", "_tmp"))
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", catalog.GUESS,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
