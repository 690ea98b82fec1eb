"""Middleware pipeline: the shape of the shipped stacks and the
digest-pinned proof that the default stack reproduces the pre-pipeline
monolithic ``migrate``/``prestage`` byte-for-byte."""

import json
from pathlib import Path

import pytest

from repro.core import PipelineError
from repro.core.pipeline import (
    MIGRATION_PROTOCOLS,
    build_migration_pipeline,
    build_prestage_pipeline,
    migration_phases,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

MIGRATION_ORDER = ["admission", "planning", "negotiation", "suspend",
                   "capture", "transfer", "checkin", "rebind", "powerup"]
PRESTAGE_ORDER = ["admission", "planning", "pack", "transfer", "install",
                  "finish"]


class _Config:
    def __init__(self, protocol="direct"):
        self.migration_protocol = protocol


def shipped_stacks():
    """(pipeline, expected phase order) for every stack a config builds."""
    stacks = [(build_migration_pipeline(_Config(protocol)), MIGRATION_ORDER)
              for protocol in MIGRATION_PROTOCOLS]
    stacks.append((build_prestage_pipeline(_Config()), PRESTAGE_ORDER))
    return stacks


class TestValidator:
    """The stack-shape check, run over the shipped stacks (there is no
    run-time stack validator: these are the only stacks there are)."""

    def test_default_migration_stacks_validate(self):
        for pipeline, order in shipped_stacks():
            names = [p.name for p in pipeline.phases]
            assert names == order, pipeline.name
            # Exactly one hand-off, at ``transfer``: the phases up to it
            # run at the source, the ones after it at the destination.
            assert [p.name for p in pipeline.phases if p.handoff] == \
                ["transfer"], pipeline.name
            assert pipeline.phases[pipeline._handoff_index].name == \
                "transfer"

    def test_default_stack_order_and_contracts(self):
        # Per-phase profiling wraps ``run`` where a phase class defines
        # it, so every shipped phase defines its own: shared steps live
        # in helpers, never in an inherited ``run``.
        for pipeline, _order in shipped_stacks():
            for phase in pipeline.phases:
                assert "run" in type(phase).__dict__, (pipeline.name, phase)

    def test_fipa_stack_has_same_shape(self):
        direct = migration_phases("direct")
        fipa = migration_phases("fipa")
        assert [p.name for p in fipa] == [p.name for p in direct]
        assert [p.handoff for p in fipa] == [p.handoff for p in direct]
        # Only the negotiation phase differs between the two stacks.
        differ = [d.name for d, f in zip(direct, fipa)
                  if type(d) is not type(f)]
        assert differ == ["negotiation"]


class TestPipelineConstruction:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(PipelineError) as err:
            migration_phases("jade")
        assert "unknown migration protocol" in str(err.value)
        with pytest.raises(PipelineError):
            build_migration_pipeline(_Config("jade"))

    def test_builders_pick_protocol_from_config(self):
        class Config:
            migration_protocol = "fipa"

        pipeline = build_migration_pipeline(Config())
        assert pipeline.name == "migration/fipa"
        assert pipeline.observe is True
        Config.migration_protocol = "direct"
        default = build_migration_pipeline(Config())
        assert default.name == "migration/direct"
        assert default.observe is False  # pinned digests stay silent
        prestage = build_prestage_pipeline(Config())
        assert [p.name for p in prestage.phases] == PRESTAGE_ORDER


class TestDigestEquivalence:
    def test_default_stack_reproduces_committed_scale_digest(self):
        """The refactor's no-regression proof: the pipelined default
        stack must reproduce the monolith's committed bench digest."""
        from repro.bench.trajectory import run_bench

        baseline = json.loads(
            (REPO_ROOT / "BENCH_scale.json").read_text())
        record = run_bench("scale", quick=False)
        assert record["sim_digest"] == baseline["sim_digest"], (
            "pipeline refactor drifted the default-stack behaviour")
