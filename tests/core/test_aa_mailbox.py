"""The autonomous agent consumes the MA manager's ``md-migration`` replies.

Every follow-me decision sends a REQUEST to the mobile agent manager,
which answers AGREE (or REFUSE / FAILURE).  Left unread, those answers
pile up in the AA's mailbox -- one per move for the whole run -- and
every later ``receive`` scans them all.  After a run, no mailbox of
either agent may hold anything.
"""

from repro.agents.acl import ACLMessage, Performative
from repro.apps.music_player import MusicPlayerApp
from repro.bench.scenarios import SmartBuildingWorkload, WorkloadConfig
from repro.core import Deployment, UserProfile


def assert_mailboxes_empty(deployment):
    for middleware in deployment.middlewares.values():
        assert middleware.aa.queue_size == 0, middleware.host_name
        assert middleware.mam.queue_size == 0, middleware.host_name


def two_rooms():
    d = Deployment(seed=3)
    d.add_space("office")
    d.add_space("lab")
    office_pc = d.add_host("office-pc", "office")
    lab_pc = d.add_host("lab-pc", "lab")
    d.add_gateway("gw-office", "office")
    d.add_gateway("gw-lab", "lab")
    d.connect_spaces("office", "lab")
    return d, office_pc, lab_pc


def test_announced_moves_leave_no_replies_behind():
    d, office_pc, lab_pc = two_rooms()
    profile = UserProfile("alice", preferences={"follow_user": True})
    office_pc.launch_application(MusicPlayerApp.build(
        "player", "alice", track_bytes=200_000, user_profile=profile))
    d.run_all()
    spaces = ["office", "lab"]
    for move in range(6):
        d.announce_location("alice", spaces[(move + 1) % 2],
                            previous=spaces[move % 2])
        d.run_all()
    assert_mailboxes_empty(d)
    assert office_pc.aa.migrations_requested == 3
    assert lab_pc.aa.migrations_requested == 3
    assert lab_pc.application("player") is not None


def test_building_run_leaves_no_replies_behind():
    building = SmartBuildingWorkload(WorkloadConfig(
        spaces=3, hosts_per_space=2, users=6, duration_ms=900_000.0,
        mean_dwell_ms=120_000.0, prestaging=True, seed=5))
    report = building.run()
    requested = sum(m.aa.migrations_requested
                    for m in building.deployment.middlewares.values())
    assert report.moves_injected > 0 and requested > 0
    assert_mailboxes_empty(building.deployment)


def test_refusals_and_failures_are_counted():
    d, office_pc, _lab_pc = two_rooms()
    d.run_all()
    aa = office_pc.aa
    for content in ({"action": "dance"},
                    {"action": "migrate", "app_name": "no-such-app",
                     "destination": "lab-pc"}):
        aa.send(ACLMessage(Performative.REQUEST,
                           receivers=[office_pc.ma_manager_aid],
                           content=content,
                           protocol="md-migration").with_reply_id())
        d.run_all()
    assert (aa.migrations_refused, aa.migrations_failed) == (1, 1)
    assert_mailboxes_empty(d)
