"""``Decision.derivation`` explains the move that was actually decided.

The Move rule cross-joins both ``imcl:address`` facts, so it derives a
move action for every (source, destination) pairing, and the closure's
set order -- which follows ``PYTHONHASHSEED`` -- decides which one a
naive ``[0]`` would pick.  The explanation must bind the real source and
destination whatever the hash seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

PROBE = """
import json
from repro.core.autonomous_agent import DecisionEngine
decision = DecisionEngine().evaluate("pc0-0", "pc2-0", 50.0, True, True)
bindings = dict(decision.derivation.bindings)
print(json.dumps({name: str(bindings[name])
                  for name in ("?src", "?dest", "?value1", "?value2")}))
"""


@pytest.mark.parametrize("hash_seed", ["1", "2", "3", "4"])
def test_derivation_binds_actual_source_and_destination(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == {
        "?src": "imcl:src", "?dest": "imcl:dest",
        "?value1": "'pc0-0'", "?value2": "'pc2-0'"}


def test_derivation_supports_are_the_decided_addresses():
    from repro.core.autonomous_agent import DecisionEngine
    from repro.ontology.triples import Literal, Triple

    decision = DecisionEngine().evaluate("h1", "h2", 50.0, True, False)
    supports = set(decision.derivation.supports)
    assert Triple("imcl:src", "imcl:address", Literal("h1")) in supports
    assert Triple("imcl:dest", "imcl:address", Literal("h2")) in supports
