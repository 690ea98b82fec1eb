"""The benchmark's three workloads, driven through the program's public API.

Every workload is open loop in simulated time: the seed fixes when each
operation is due, whatever has completed by then, and each latency is
timed from that due time.  The program receives only the generated
inputs (city/building parameters, move lists, registry request lists).

- ``city_day``: one commuter day of :class:`repro.city.CityWorkload`
  (flat registry, prestaging and deadlines on, legs through the
  :class:`MigrationScheduler`).
- ``building_day``: a :class:`repro.bench.scenarios.SmartBuildingWorkload`
  building whose users move at random; every move goes through
  ``Deployment.announce_location``.
- ``registry_mix``: a federated-registry city.  After launch a seeded
  stream of registry reads and writes from many hosts runs beside a
  seeded stream of migrations submitted to the scheduler.

:func:`run_workload` returns a :class:`Result` holding the operation
ledger, the correctness checks and the behaviour digest.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Workload sizes.  ``bench`` is what the benchmark measures; ``tiny`` is
#: the seconds-long size its own tests run.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "bench": {
        "city_day": dict(spaces=80, users=600),
        "building_day": dict(spaces=6, hosts_per_space=3, users=60,
                             hours=1.8),
        "registry_mix": dict(spaces=40, users=300, migrations=1_100,
                             bursts=1_500, writes=1_100,
                             stream_hours=1.0),
    },
    "tiny": {
        "city_day": dict(spaces=12, users=40),
        "building_day": dict(spaces=3, hosts_per_space=2, users=8,
                             hours=0.25),
        "registry_mix": dict(spaces=12, users=30, migrations=40,
                             bursts=60, writes=40, stream_hours=0.1),
    },
}

HOUR_MS = 3_600_000.0
#: Synthetic registry keys: service records registered at set-up, read
#: and rewritten by the request streams.  No application runs under
#: these names, so registry writes never steer a migration.
SERVICE_PREFIX = "svc-"
#: Resource class of the probe resources registry_mix registers.  No
#: application of the city binds a database, so rebind planning never
#: picks one up.
PROBE_RESOURCE_CLASS = "imcl:Database"


@dataclass
class Result:
    """What one workload run produced, before any host-time metric."""

    workload: str
    seed: int
    #: perf_counter() when the first operation was due to be issued.
    setup_done: float = 0.0
    attempted: int = 0
    completed: int = 0
    failed: int = 0
    migration_ms: List[float] = field(default_factory=list)
    lookup_ms: List[float] = field(default_factory=list)
    write_ms: List[float] = field(default_factory=list)
    deadline_misses: int = 0
    #: City legs submitted late, after an earlier leg of the same app.
    follow_ups: int = 0
    #: Network bytes put on the wire after set-up.
    wire_bytes: int = 0
    digest: str = ""
    #: (check name, passed, detail) for every correctness check.
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    deployment: Any = None
    #: Completed migration outcomes (sim-time phase breakdown source).
    outcomes: List[Any] = field(default_factory=list)
    #: Scheduler handles (queue-wait source); empty without a scheduler.
    requests: List[Any] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


# -- registry request streams -------------------------------------------------


@dataclass
class RegistryOp:
    due_ms: float
    host: str
    operation: str
    args: Dict[str, Any]
    write: bool


def service_keys(rng: random.Random, hosts: List[str], count: int
                 ) -> List[Tuple[str, str]]:
    """``count`` synthetic services, each with the host it registers on."""
    return [(f"{SERVICE_PREFIX}{i:03d}", rng.choice(hosts))
            for i in range(count)]


def _service_record(name: str, host: str) -> Dict[str, Any]:
    return {"app_name": name, "host": host,
            "components": ["logic", "interface"]}


def plan_registry_stream(rng: random.Random, hosts: List[str],
                         services: List[Tuple[str, str]],
                         span_ms: float, bursts: int, writes: int,
                         resource_writes: bool) -> List[RegistryOp]:
    """A seeded, time-ordered registry request stream.

    Reads come in bursts: one host asks about one service one to three
    times, a few hundred ms apart, so client TTL caches can serve the
    repeats (but fewer than half of all reads).  Hot services are
    picked far more often than cold ones.  Due times are offsets from
    the stream's start.

    Writes come in pairs: a mirror record (or, with ``resource_writes``,
    every third pair a probe resource) is registered and deregistered a
    few seconds later, bumping the coherence tokens that invalidate
    cached reads of that service.
    """
    ops: List[RegistryOp] = []
    weights = [1.0 / (1 + i) for i in range(len(services))]
    for _ in range(bursts):
        due = rng.random() * span_ms
        host = rng.choice(hosts)
        name, home = rng.choices(services, weights)[0]
        draw = rng.random()
        if draw < 0.6:
            operation = "components_at"
            args: Dict[str, Any] = {"app_name": name, "host": home}
        elif draw < 0.85:
            operation = "lookup_application"
            args = {"app_name": name}
        else:
            operation = "application_hosts"
            args = {"app_name": name}
        for repeat in range(rng.choices((1, 2, 3), (4, 4, 2))[0]):
            ops.append(RegistryOp(due + repeat * rng.uniform(150.0, 600.0),
                                  host, operation, dict(args), False))
    for i in range(writes // 2):
        due = rng.random() * span_ms
        host = rng.choice(hosts)
        hold = rng.uniform(1_000.0, 8_000.0)
        if resource_writes and i % 3 == 2:
            rid = f"probe-res-{i:05d}"
            record = {"resource_id": rid, "host": host,
                      "classes": [PROBE_RESOURCE_CLASS], "properties": {}}
            ops.append(RegistryOp(due, host, "register_resource",
                                  {"record": record}, True))
            ops.append(RegistryOp(due + hold, host, "deregister_resource",
                                  {"resource_id": rid}, True))
        else:
            name, _home = rng.choices(services, weights)[0]
            ops.append(RegistryOp(due, host, "register_application",
                                  {"record": _service_record(name, host)},
                                  True))
            ops.append(RegistryOp(due + hold, host,
                                  "deregister_application",
                                  {"app_name": name, "host": host}, True))
    ops.sort(key=lambda op: op.due_ms)
    return ops


class StreamReplay:
    """Issues registry ops at their due times and keeps the reply ledger."""

    def __init__(self, deployment, ops: List[RegistryOp]):
        self.deployment = deployment
        self.ops = ops
        #: op index -> (done_at, result, error)
        self.replies: Dict[int, Tuple[float, Any, Optional[str]]] = {}
        self.duplicate_replies = 0

    def schedule(self, start_ms: float) -> None:
        """Issue every op at ``start_ms`` plus its planned offset."""
        loop = self.deployment.loop
        for op in self.ops:
            op.due_ms += start_ms
        for index, op in enumerate(self.ops):
            loop.call_at(op.due_ms, self._issue, index)

    def _issue(self, index: int) -> None:
        op = self.ops[index]
        client = self.deployment.middleware(op.host).registry_client
        client.call(op.operation, dict(op.args),
                    lambda result, error, i=index: self._reply(i, result,
                                                               error))

    def _reply(self, index: int, result: Any, error: Optional[str]) -> None:
        if index in self.replies:
            self.duplicate_replies += 1
            return
        self.replies[index] = (self.deployment.loop.now, result, error)

    def record(self, res: Result, digest) -> None:
        """Fold latencies, failures and the reply ledger into ``res``."""
        res.attempted += len(self.ops)
        for index, op in enumerate(self.ops):
            reply = self.replies.get(index)
            if reply is None or reply[2] is not None:
                res.failed += 1
                continue
            res.completed += 1
            latency = reply[0] - op.due_ms
            (res.write_ms if op.write else res.lookup_ms).append(latency)
            digest.update((f"R{index}|{op.host}|{op.operation}|"
                           f"{_canonical(op.args)}|{reply[0]:.3f}|"
                           f"{_canonical(reply[1])}\n").encode())
        res.check("registry: every request answered exactly once",
                  len(self.replies) == len(self.ops)
                  and self.duplicate_replies == 0,
                  f"{len(self.replies)}/{len(self.ops)} answered, "
                  f"{self.duplicate_replies} duplicates")


def _canonical(value: Any) -> str:
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{_canonical(value[k])}"
                              for k in sorted(value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, float):
        return f"{value:.6g}"
    return repr(value)


def register_services(deployment, services: List[Tuple[str, str]]
                      ) -> None:
    """Register the synthetic service records (set-up writes)."""
    for name, host in services:
        deployment.middleware(host).registry_client.call(
            "register_application", {"record": _service_record(name, host)},
            _ignore_reply)


def _ignore_reply(_result, _error) -> None:
    """Set-up writes are checked by the reads that follow them."""


# -- shared checks and ledgers ------------------------------------------------


def _outcome_line(outcome) -> str:
    plan = outcome.plan
    state = ("completed" if outcome.completed
             else "failed" if outcome.failed else "open")
    return (f"{plan.app_name}|{plan.source}|{plan.destination}|"
            f"{int(plan.prestage)}|{state}|{outcome.started_at:.3f}|"
            f"{outcome.suspend_done_at:.3f}|{outcome.migrate_done_at:.3f}|"
            f"{outcome.resume_done_at:.3f}\n")


def check_quiescence(res: Result, deployment, app_names: List[str]) -> None:
    """Check byte conservation, exactly-once execution and terminal
    outcomes; keep the completed migrations for the phase breakdown."""
    from repro.core.application import AppStatus

    network = deployment.network
    res.check("network: bytes_on_wire == bytes_off_wire at quiescence",
              network.bytes_on_wire == network.bytes_off_wire,
              f"{network.bytes_on_wire} on, {network.bytes_off_wire} off")
    running: Dict[str, int] = {}
    for _host, app in deployment.application_instances():
        if app.status is AppStatus.RUNNING:
            running[app.name] = running.get(app.name, 0) + 1
    wrong = [name for name in app_names if running.get(name, 0) != 1]
    extra = sorted(set(running) - set(app_names))
    res.check("apps: every app runs exactly once",
              not wrong and not extra,
              f"{len(wrong)} not running once, {len(extra)} unexpected")
    open_outcomes = [o for o in deployment.outcomes.values()
                     if not (o.completed or o.failed)]
    res.check("migrations: every outcome terminal", not open_outcomes,
              f"{len(open_outcomes)} open")
    res.outcomes = [o for o in deployment.outcomes.values()
                    if o.completed and not o.plan.prestage]


def _ledger_outcomes(deployment, digest) -> None:
    for token in sorted(deployment.outcomes):
        digest.update(f"O{token}|".encode()
                      + _outcome_line(deployment.outcomes[token]).encode())


def _scheduler_ledger(res: Result, requests, due: Dict[int, float],
                      digest) -> None:
    """Fold scheduler handles into the op counts and the digest.

    ``due`` maps a request seq to the time its operation was due; by
    default the time it was submitted.
    """
    open_requests = 0
    for request in requests:
        res.attempted += 1
        outcome = request.outcome
        if request.state not in ("done", "rejected"):
            open_requests += 1
        if (request.state == "done" and outcome is not None
                and outcome.completed):
            res.completed += 1
            latency = outcome.resume_done_at - due.get(request.seq,
                                                      request.queued_at)
            res.migration_ms.append(latency)
            if (request.deadline_ms is not None
                    and latency > request.deadline_ms):
                res.deadline_misses += 1
        else:
            res.failed += 1
        digest.update((f"S{request.seq}|{request.app_name}|"
                       f"{request.source}|{request.destination}|"
                       f"{request.state}|{request.queued_at:.3f}|"
                       f"{request.admitted_at:.3f}\n").encode())
    res.check("scheduler: every leg terminal", open_requests == 0,
              f"{open_requests} legs still queued or active")
    res.requests = list(requests)


# -- city_day -----------------------------------------------------------------


def _city(seed: int, spaces: int, users: int, federated: bool):
    from repro.city import CityConfig, CityWorkload

    config = CityConfig(seed=seed, spaces=spaces, users=users,
                        federated_registry=federated)
    workload = CityWorkload(config)
    deployment = workload.build()
    return workload, deployment


class TraceDues:
    """When each city leg was due: the user's move that asked for it.

    The city submits a leg when its user's trace event fires, but a user
    who moves on while their app's leg is in flight gets a follow-up leg
    only once that leg is done.  So the leg's own ``queued_at`` can be
    later than the move it serves.  This wraps the population's public
    ``iter_user_events`` to note, per (app, space), the sim time every
    dwell event is due (the day's start plus its offset), and times each
    leg from the latest such event at or before its submission.
    """

    def __init__(self, workload):
        self.space_of = workload.deployment.topology.space_of
        self.dues: Dict[Tuple[str, str], List[float]] = {}
        loop = workload.deployment.loop
        population = workload.population
        events_of = population.iter_user_events

        def iter_user_events(user):
            return self._note(user, events_of(user), loop.now)

        population.iter_user_events = iter_user_events

    def _note(self, user, events, t0: float):
        for event in events:
            if event.dwell:
                for app in user.apps:
                    self.dues.setdefault((app.name, event.to_space),
                                         []).append(t0 + event.at_ms)
            yield event

    def due(self, request) -> Optional[float]:
        """The due time of ``request``'s leg; None if no move asked."""
        dues = self.dues.get((request.app_name,
                              self.space_of(request.destination)), ())
        return max((t for t in dues if t <= request.queued_at),
                   default=None)


def run_city_day(res: Result, size: Dict[str, Any]) -> None:
    rng = random.Random(f"city_day/{res.seed}")
    workload, d = _city(rng.randrange(1 << 30), size["spaces"],
                        size["users"], False)
    dues = TraceDues(workload)
    d.run_all(max_events=50_000_000)
    res.setup_done = time.perf_counter()
    wire0 = d.network.bytes_on_wire
    city = workload.run()
    res.follow_ups = city.follow_ups
    digest = hashlib.sha256(f"city_day|{res.seed}\n".encode())
    digest.update(f"fleet|{city.fleet_digest}|{city.trace_digest}\n"
                  .encode())
    due = {r.seq: dues.due(r) for r in d.scheduler.requests}
    undue = [seq for seq, t in due.items() if t is None]
    res.check("city: every leg serves a due trace event", not undue,
              f"{len(undue)} legs with no move asking for them")
    _scheduler_ledger(res, d.scheduler.requests,
                      {seq: t for seq, t in due.items() if t is not None},
                      digest)
    res.wire_bytes = d.network.bytes_on_wire - wire0
    check_quiescence(res, d, sorted(workload.app_host))
    _ledger_outcomes(d, digest)
    res.digest = digest.hexdigest()
    res.deployment = d


# -- building_day -------------------------------------------------------------


def run_building_day(res: Result, size: Dict[str, Any]) -> None:
    from repro.bench.scenarios import SmartBuildingWorkload, WorkloadConfig

    rng = random.Random(f"building_day/{res.seed}")
    config = WorkloadConfig(spaces=size["spaces"],
                            hosts_per_space=size["hosts_per_space"],
                            users=size["users"], prestaging=True,
                            seed=rng.randrange(1 << 30))
    building = SmartBuildingWorkload(config)
    d = building.build()
    d.enable_prestaging(config.prestaging_threshold)
    d.run_all(max_events=50_000_000)
    res.setup_done = time.perf_counter()
    wire0 = d.network.bytes_on_wire
    app_names = sorted(name for m in d.middlewares.values()
                       for name in m.applications)
    # Random mobility with the same number of moves on every seed, so
    # the seed varies where and when users go but not how much work the
    # run does: each user's dwell times are exponential draws scaled to
    # fill the window, at least 1 s each.
    t0 = d.loop.now
    window = size["hours"] * HOUR_MS
    count = int(window // config.mean_dwell_ms)
    spaces = [f"space{s}" for s in range(config.spaces)]
    location = dict(building.user_locations)
    moves: Dict[str, List[float]] = {user: [] for user in location}
    for user in sorted(location):
        draws = [rng.expovariate(1.0) for _ in range(count + 1)]
        spare = window - (count + 1) * 1_000.0
        due = t0
        for draw in draws[:count]:
            due += 1_000.0 + spare * draw / sum(draws)
            previous = location[user]
            destination = rng.choice([s for s in spaces if s != previous])
            location[user] = destination
            moves[user].append(due)
            d.loop.call_at(due, d.announce_location, user, destination,
                           previous)
    d.run_all(max_events=50_000_000)
    digest = hashlib.sha256(f"building_day|{res.seed}\n".encode())
    migrations = [o for o in d.outcomes.values() if not o.plan.prestage]
    res.attempted += len(migrations)
    for outcome in migrations:
        if not outcome.completed:
            res.failed += 1
            continue
        res.completed += 1
        user = outcome.plan.app_name.rsplit("-", 1)[0]
        started = outcome.started_at
        due = max((t for t in moves.get(user, ()) if t <= started),
                  default=started)
        res.migration_ms.append(outcome.resume_done_at - due)
    res.wire_bytes = d.network.bytes_on_wire - wire0
    check_quiescence(res, d, app_names)
    _ledger_outcomes(d, digest)
    res.digest = digest.hexdigest()
    res.deployment = d


# -- registry_mix -------------------------------------------------------------


class MigrationStream:
    """Seeded app moves submitted to the scheduler at their due times.

    A move whose app is still migrating waits for that leg and is then
    submitted; its latency still counts from its due time.
    """

    def __init__(self, deployment, app_host: Dict[str, str],
                 moves: List[Tuple[float, str, str]]):
        self.deployment = deployment
        self.app_host = dict(app_host)
        self.moves = moves
        self.due: Dict[int, float] = {}
        self._busy: Dict[str, List[Tuple[float, str]]] = {}

    def schedule(self) -> None:
        for due, app, destination in self.moves:
            self.deployment.loop.call_at(due, self._move, app, destination,
                                         due)

    def _move(self, app: str, destination: str, due: float) -> None:
        waiting = self._busy.get(app)
        if waiting is not None:
            waiting.append((due, destination))
            return
        self._busy[app] = []
        self._submit(app, destination, due)

    def _submit(self, app: str, destination: str, due: float) -> None:
        request = self.deployment.scheduler.submit(
            self.app_host[app], app, destination, on_done=self._done)
        self.due[request.seq] = due

    def _done(self, request) -> None:
        app = request.app_name
        outcome = request.outcome
        if outcome is not None and outcome.completed:
            self.app_host[app] = request.destination
        waiting = self._busy.get(app)
        if waiting:
            due, destination = waiting.pop(0)
            self._submit(app, destination, due)
        else:
            self._busy.pop(app, None)


def plan_moves(rng: random.Random, city, app_host: Dict[str, str],
               count: int, start_ms: float, span_ms: float
               ) -> List[Tuple[float, str, str]]:
    """``count`` seeded (due, app, destination host) moves to other spaces."""
    apps = sorted(app_host)
    spaces = [s for s in city.spaces if s.kind != "home"]
    moves = []
    where = dict(app_host)
    dues = sorted(start_ms + rng.random() * span_ms for _ in range(count))
    for due in dues:
        app = rng.choice(apps)
        space = rng.choice(spaces)
        host = space.hosts[rng.randrange(len(space.hosts))]
        if host == where[app]:
            space = spaces[(spaces.index(space) + 1) % len(spaces)]
            host = space.hosts[0]
        where[app] = host
        moves.append((due, app, host))
    return moves


def run_registry_mix(res: Result, size: Dict[str, Any]) -> None:
    rng = random.Random(f"registry_mix/{res.seed}")
    city_seed = rng.randrange(1 << 30)
    workload, d = _city(city_seed, size["spaces"], size["users"], True)
    hosts = sorted(d.middlewares)
    services = service_keys(rng, hosts, 64)
    register_services(d, services)
    d.run_all(max_events=50_000_000)
    res.setup_done = time.perf_counter()
    wire0 = d.network.bytes_on_wire
    start = d.loop.now + 1_000.0
    span = size["stream_hours"] * HOUR_MS
    replay = StreamReplay(d, plan_registry_stream(
        rng, hosts, services, span, size["bursts"], size["writes"],
        resource_writes=True))
    migrations = MigrationStream(d, workload.app_host, plan_moves(
        rng, workload.city, workload.app_host, size["migrations"], start,
        span))
    replay.schedule(start)
    migrations.schedule()
    d.run_all(max_events=50_000_000)
    digest = hashlib.sha256(f"registry_mix|{res.seed}\n".encode())
    _scheduler_ledger(res, d.scheduler.requests, migrations.due, digest)
    replay.record(res, digest)
    res.wire_bytes = d.network.bytes_on_wire - wire0
    check_quiescence(res, d, sorted(workload.app_host))
    _ledger_outcomes(d, digest)
    res.digest = digest.hexdigest()
    res.deployment = d


RUNNERS: Dict[str, Callable[[Result, Dict[str, Any]], None]] = {
    "city_day": run_city_day,
    "building_day": run_building_day,
    "registry_mix": run_registry_mix,
}


def run_workload(name: str, seed: int, size: str = "bench") -> Result:
    """Build, run and check one workload; never raises on a failed check
    (the checks land in :attr:`Result.checks`)."""
    res = Result(workload=name, seed=seed)
    RUNNERS[name](res, SIZES[size][name])
    return res
