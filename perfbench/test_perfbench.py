"""Tests of the benchmark itself, at the seconds-long ``tiny`` size.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    result = _result(_run("--workload", workload, "--seed", "1",
                          "--seconds", "0", "--trace", str(trace),
                          "--size", "tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


def test_recorded_digests_cover_the_tiny_seed():
    digests = bench.load_digests()
    for workload in WORKLOADS:
        assert bench.digest_key("tiny", workload, 1) in digests


def test_planted_wrong_digest_fails_the_gate(tmp_path, monkeypatch,
                                             capsys):
    digests = bench.load_digests()
    key = bench.digest_key("tiny", "city_day", 1)
    digests[key] = "0" * 64
    planted = tmp_path / "digests.json"
    planted.write_text(json.dumps(digests))
    monkeypatch.setattr(bench, "DIGESTS", str(planted))
    code = bench.main(["--workload", "city_day", "--seed", "1",
                       "--seconds", "0", "--size", "tiny"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "behaviour digest" in err
    assert '"correct"' not in out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".spans", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "city_day",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gate_rejects_disagreeing_repetitions():
    rep = {"checks": [], "digest": "a" * 64, "migration_n": 0,
           "lookup_n": 0, "write_n": 0}
    other = dict(rep, digest="b" * 64, layers={})
    with pytest.raises(bench.GateError, match="differ"):
        bench.gate([rep, other], "city_day", "tiny", None)
    failing = dict(rep, checks=[["apps run once", False, "2 twice"]])
    with pytest.raises(bench.GateError, match="apps run once"):
        bench.gate([failing], "city_day", "tiny", None)


def test_gate_rejects_unattributed_time_and_silent_layers():
    counts = {name: 1 for name in bench.EXPECTED_COUNTS["city_day"]}
    rep = {"checks": [], "digest": "a" * 64, "migration_n": 5_000,
           "lookup_n": 0, "write_n": 0, "counts": counts,
           "layers": {"other.share": 0.05}}
    bench.gate([rep], "city_day", "bench", None)
    lost = dict(rep, layers={"other.share": 0.4})
    with pytest.raises(bench.GateError, match="in no layer"):
        bench.gate([lost], "city_day", "bench", None)
    silent = dict(rep, counts=dict(counts, **{"net.simnet.sends": 0}))
    with pytest.raises(bench.GateError, match="net.simnet.sends"):
        bench.gate([silent], "city_day", "bench", None)


def test_city_legs_are_timed_from_the_move_they_serve():
    from types import SimpleNamespace as NS

    from workloads import TraceDues

    events = [NS(dwell=True, to_space="office", at_ms=100.0),
              NS(dwell=False, to_space="road", at_ms=150.0),
              NS(dwell=True, to_space="cafe", at_ms=200.0),
              NS(dwell=True, to_space="office", at_ms=300.0)]
    population = NS(iter_user_events=lambda user: iter(events))
    deployment = NS(loop=NS(now=1_000.0),
                    topology=NS(space_of=lambda host: host.split(":")[0]))
    dues = TraceDues(NS(population=population, deployment=deployment))
    user = NS(apps=[NS(name="app")])
    assert list(population.iter_user_events(user)) == events

    def leg(destination, queued_at):
        return NS(app_name="app", destination=destination,
                  queued_at=queued_at)

    assert dues.due(leg("office:h0", 1_100.0)) == 1_100.0
    # A follow-up leg, submitted when the app's earlier leg ended.
    assert dues.due(leg("cafe:h1", 1_250.0)) == 1_200.0
    assert dues.due(leg("office:h0", 1_340.0)) == 1_300.0
    assert dues.due(leg("road:h2", 1_400.0)) is None


def test_host_times_scale_with_the_speed_probe():
    rep = {"spawned_at": 0.0, "setup_done": 1.0, "done": 5.0,
           "completed": 100, "peak_rss_mb": 50.0, "migration_p50_ms": 1.0,
           "migration_p99_ms": 2.0, "wire_bytes": 1000,
           "probe_s": bench.PROBE_S}
    nominal = bench.end_to_end([rep])
    assert nominal["wall_s"] == 5.0 and nominal["ops_per_s"] == 25.0
    # A host running at half speed: the probe takes twice as long.
    slow = bench.end_to_end([dict(rep, probe_s=2 * bench.PROBE_S)])
    assert slow["wall_s"] == pytest.approx(2.5)
    assert slow["setup_s"] == pytest.approx(0.5)
    assert slow["ops_per_s"] == pytest.approx(50.0)


def test_tracer_wraps_names_imported_by_name_and_restores_them():
    import repro.agents.platform as platform
    import repro.agents.serialization as serialization
    import repro.core.snapshot as snapshot

    original = serialization.deep_size_bytes
    tracer = Tracer()
    tracer.start()
    tracer.install()
    try:
        wrapped = serialization.deep_size_bytes
        assert wrapped is not original
        assert platform.deep_size_bytes is wrapped
        assert snapshot.deep_size_bytes is wrapped
        assert platform.deep_size_bytes({"a": [1, 2]}) == \
            original({"a": [1, 2]})
    finally:
        tracer.stop()
        tracer.uninstall()
    assert serialization.deep_size_bytes is original
    assert platform.deep_size_bytes is original
    assert tracer.counts["agents.serialization.calls"] == 1
    total = sum(tracer.layer_self_s().values())
    assert total == pytest.approx(tracer.wall_s, rel=1e-9)
    assert set(tracer.layer_self_s()) == set(LAYERS)
