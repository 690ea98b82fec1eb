"""Capture frozen transfer-engine golden outputs.

Two goldens pin the observable behaviour (timings, recovery log, metrics
and the full JSONL trace) of a 5 MB static migration, once under a 600 ms
link flap that forces retries and once on a clean network:

- ``stop_and_wait_window1.json`` -- chunked transfers (256 kB chunks under
  the flap, 64 kB clean), captured from the pre-pipelining stop-and-wait
  engine; the sliding-window engine with ``transfer_window=1`` must
  reproduce it byte-for-byte.
- ``single_message.json`` -- unchunked transfers (no
  ``transfer_chunk_bytes``), captured from the former single-message
  engine; the one-chunk case of the go-back-N pump must reproduce it
  byte-for-byte.

Both are asserted by ``tests/faults/test_transfer_window.py``.  Re-capture
only when a behaviour change is intended:

    PYTHONPATH=src python tests/faults/golden/capture_stop_and_wait.py [NAME]

where ``NAME`` is ``stop_and_wait_window1`` or ``single_message`` (default:
both).
"""

import json
import pathlib
import sys

from repro.bench.harness import MigrationExperiment, TestbedConfig
from repro.core import BindingPolicy
from repro.faults import FaultConfig, FaultPlan, FaultSpec, link_target
from repro.obs import Observability
from repro.obs.exporters import to_jsonl

GOLDEN_DIR = pathlib.Path(__file__).parent

#: Golden name -> (flap chunk bytes, clean chunk bytes); 0 is unchunked.
GOLDENS = {
    "stop_and_wait_window1": (256_000, 64_000),
    "single_message": (0, 0),
}


def flap_faults(transfer_chunk_bytes=256_000):
    plan = FaultPlan(seed=3)
    plan.add(FaultSpec(at_ms=1_500.0, kind="link_down",
                       target=link_target("host1", "host2"),
                       duration_ms=600.0,
                       params={"drop_in_flight": True}))
    return FaultConfig(plan=plan, seed=3,
                       transfer_chunk_bytes=transfer_chunk_bytes,
                       migration_deadline_ms=60_000.0,
                       max_transfer_retries=8)


def clean_faults(transfer_chunk_bytes=64_000):
    return FaultConfig(plan=FaultPlan(), seed=3,
                       transfer_chunk_bytes=transfer_chunk_bytes)


def run(faults, label):
    obs = Observability()
    obs.begin_run(label)
    experiment = MigrationExperiment(TestbedConfig(), faults=faults,
                                     observability=obs)
    outcome = experiment.run_once(int(5e6), policy=BindingPolicy.STATIC)
    return {
        "completed": outcome.completed,
        "phases": outcome.phases(),
        "events": outcome.events,
        "transfer_retries": outcome.transfer_retries,
        "transfer_resumed": outcome.transfer_resumed,
        "dedup_hits": outcome.dedup_hits,
        "total_ms": outcome.total_ms,
        "jsonl": to_jsonl(obs),
    }


def capture(name):
    """Run both scenarios of golden ``name`` (see :data:`GOLDENS`)."""
    flap_chunk, clean_chunk = GOLDENS[name]
    return {
        "flap": run(flap_faults(flap_chunk), "golden/flap"),
        "clean": run(clean_faults(clean_chunk), "golden/clean"),
    }


def main(argv):
    for name in argv or list(GOLDENS):
        golden = capture(name)
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path} "
              f"({len(golden['flap']['jsonl'].splitlines())} flap JSONL "
              f"records, {golden['flap']['transfer_retries']} flap retries)")


if __name__ == "__main__":
    main(sys.argv[1:])
