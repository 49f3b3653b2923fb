"""The four workloads: set-up, closed-loop timed phase, output check.

Three workloads drive ``python -m repro serve`` over HTTP; ``oneshot``
calls :func:`repro.host.scan.scan_database` in-process.  Every workload is a
closed loop: a client sends its next request only once the previous one
is answered, which is how this service's callers (scripts that submit and
poll) behave, and on two shared cores it cannot build a runaway queue.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from client import Client, Daemon, JobOutcome, PssSampler, job_failed, returned_hits
from inputs import SYNONYMS, Inputs
from oracle import HitList, Oracle, threshold_for

#: Cold starts per run.  ``setup_s`` is their median, and the timed phase
#: is split evenly over the instances they start, so that one instance's
#: luck weighs a fifth of a run (on a 2-vCPU VM, one daemon instance ran
#: 10-20% faster or slower than the next for its whole life).
COLD_STARTS = 5

#: Requests each instance serves after its first answer, before timing.
WARMUP_REQUESTS = 1

#: Throughput is measured over windows of at least this many seconds, cut
#: where a request is answered; ``jobs_per_s`` and ``cells_per_s`` are the
#: medians over every window of a run.  A burst of hypervisor steal then
#: slows a few windows instead of a whole instance's share.
WINDOW_SECONDS = 1.0

#: Jobs per ``POST /scan`` on ``bulk``, and its share of jobs checked.
BULK_BATCH = 16
BULK_CHECK_SHARE = 1 / 8

#: ``sharded-mixed``: jobs per POST, share of them repeating one of the
#: lane's recent answers (the window stays well inside the 256-entry result
#: cache), and the per-job ``min_identity`` choices.
MIXED_BATCH = 4
MIXED_REPEAT_SHARE = 0.5
MIXED_REPEAT_WINDOW = 32
MIXED_IDENTITIES = (0.7, 0.8, 0.9)

#: How each daemon workload starts ``serve`` (default flags otherwise).
BACKENDS = {
    "interactive": ["--workers", "2"],
    "bulk": ["--workers", "2"],
    "sharded-mixed": ["--shards", "2"],
}


def cpu_ticks() -> Tuple[int, int]:
    """``(steal, total)`` jiffies over all CPUs since boot, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


class CheckError(AssertionError):
    """An answer disagrees with the codon-table oracle or the plant ledger."""


@dataclass
class Answer:
    """One answered job, kept for the output check after the timed phase."""

    protein: str
    min_identity: float
    threshold: int
    hits: HitList
    checked: bool = True


@dataclass
class Tally:
    """What a timed phase measured, plus per-layer detail for traced runs."""

    latencies: List[float] = field(default_factory=list)
    jobs: int = 0
    fresh_jobs: int = 0
    cells: int = 0
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    #: ``(perf_counter, jobs, cells)`` each time a request is answered.
    answered: List[Tuple[float, int, int]] = field(default_factory=list)
    #: ``(seconds, jobs, cells)`` of each throughput window.
    windows: List[Tuple[float, int, int]] = field(default_factory=list)
    #: CPU time the hypervisor gave to other guests while timing, and all
    #: CPU time, in jiffies over every CPU (``/proc/stat``).
    steal_ticks: int = 0
    cpu_ticks: int = 0
    post_s: List[float] = field(default_factory=list)
    get_s: List[float] = field(default_factory=list)
    polls: List[int] = field(default_factory=list)
    queue_wait_s: List[float] = field(default_factory=list)
    execute_s: List[float] = field(default_factory=list)
    self_s: List[float] = field(default_factory=list)
    result_bytes: List[int] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)


class Checker:
    """Collects answers and checks them all once timing is over."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.answers: List[Answer] = []
        self.malformed: List[str] = []
        self._oracle: Optional[Oracle] = None
        self._lock = threading.Lock()

    @property
    def oracle(self) -> Oracle:
        if self._oracle is None:
            self._oracle = Oracle(self.inputs.codes)
        return self._oracle

    def add(self, answer: Answer) -> None:
        with self._lock:
            self.answers.append(answer)

    def verify(self) -> int:
        """Check every flagged answer and the plant ledger; return jobs checked."""
        if self.malformed:
            raise CheckError(self.malformed[0])
        expected: Dict[Tuple[str, int], HitList] = {}
        checked = 0
        for answer in self.answers:
            if answer.threshold != threshold_for(answer.protein, answer.min_identity):
                raise CheckError(
                    f"threshold {answer.threshold} for min_identity {answer.min_identity}"
                )
            if not answer.checked:
                continue
            key = (answer.protein, answer.threshold)
            if key not in expected:
                expected[key] = self.oracle.hits(*key)
            if answer.hits != expected[key]:
                raise CheckError(
                    f"query {answer.protein[:12]}... at threshold {answer.threshold}: "
                    f"got {answer.hits[:4]}, oracle says {expected[key][:4]}"
                )
            checked += 1
        self._verify_plants()
        return checked

    def _verify_plants(self) -> None:
        by_query: Dict[str, List[Answer]] = {}
        for answer in self.answers:
            by_query.setdefault(answer.protein, []).append(answer)
        for plant in self.inputs.plants:
            answers = [a for a in by_query.get(plant.query, []) if a.checked]
            if not answers:
                raise CheckError(f"planted query {plant.query[:12]}... never answered")
            predicted = self.oracle.planted_score(plant.query, plant.codons)
            agy = sum(
                1 for aa, codon in zip(plant.query, plant.codons)
                if aa == "S" and codon in SYNONYMS["S"][4:]
            )
            if predicted != 3 * len(plant.query) - 2 * agy:
                raise CheckError(f"codon table predicts {predicted} for a plant with {agy} AGY")
            for answer in answers:
                planted_hit = (plant.reference, plant.position, predicted)
                if (planted_hit in answer.hits) != (predicted >= answer.threshold):
                    raise CheckError(
                        f"plant at {plant.reference}:{plant.position} (score {predicted}, "
                        f"threshold {answer.threshold}) reported wrongly"
                    )


@dataclass
class Spec:
    """One job to submit: a query and its ``min_identity``."""

    protein: str
    min_identity: float = 0.9
    checked: bool = True

    def payload(self) -> Dict[str, Any]:
        return {"query": self.protein, "min_identity": self.min_identity}


class Workload:
    """Shared driver; subclasses define set-up, one operation and load."""

    name = ""
    threads = 1

    def __init__(
        self, root: Path, work: Path, inputs: Inputs, checker: Checker, trace: Any = None
    ):
        self.root = root
        self.work = work
        self.inputs = inputs
        self.checker = checker
        self.trace = trace
        self.fasta = inputs.write_fasta(work / f"{self.name}_{inputs.seed}.fa")
        self.setup_samples: List[float] = []
        self.peak_pss_mib = 0.0

    # -- overridden --------------------------------------------------------

    def start(self) -> None:
        """Cold-start one instance, up to its first answered job."""
        raise NotImplementedError

    def stop(self) -> None:
        pass

    def operation(self, lane: int, tally: Tally) -> None:
        raise NotImplementedError

    def root_pid(self) -> int:
        raise NotImplementedError

    def before_timing(self) -> None:
        pass

    def after_timing(self, tally: Tally) -> None:
        pass

    # -- driver ------------------------------------------------------------

    def run(self, seconds: float) -> Tally:
        """Cold-start each instance, then time its share of the load."""
        tally = Tally()
        try:
            for _ in range(COLD_STARTS):
                started = time.perf_counter()
                self.start()
                self.setup_samples.append(time.perf_counter() - started)
                for _ in range(WARMUP_REQUESTS):
                    self.operation(-1, Tally())
                self.before_timing()
                with PssSampler(self.root_pid()) as sampler:
                    steal, ticks = cpu_ticks()
                    began = time.perf_counter()
                    self._load(began + seconds / COLD_STARTS, tally)
                    wall = time.perf_counter() - began
                    steal_after, ticks_after = cpu_ticks()
                tally.steal_ticks += steal_after - steal
                tally.cpu_ticks += ticks_after - ticks
                tally.wall += wall
                tally.windows.extend(throughput_windows(began, tally.answered))
                tally.answered.clear()
                self.peak_pss_mib = max(self.peak_pss_mib, sampler.peak_mib)
                self.after_timing(tally)
                self.stop()
        finally:
            self.stop()
        return tally

    def _load(self, deadline: float, tally: Tally) -> None:
        if self.threads == 1:
            self._lane(0, deadline, tally)
            return
        errors: List[BaseException] = []

        def lane(index: int) -> None:
            try:
                self._lane(index, deadline, tally)
            except BaseException as error:  # re-raised below, in the caller
                errors.append(error)

        lanes = [threading.Thread(target=lane, args=(i,)) for i in range(self.threads)]
        for thread in lanes:
            thread.start()
        for thread in lanes:
            thread.join()
        if errors:
            raise errors[0]

    def _lane(self, lane: int, deadline: float, tally: Tally) -> None:
        while time.perf_counter() < deadline:
            self.operation(lane, tally)


def throughput_windows(
    began: float, answered: Sequence[Tuple[float, int, int]]
) -> List[Tuple[float, int, int]]:
    """Cut a timed share into windows of at least :data:`WINDOW_SECONDS`.

    Each window runs from the end of the previous one (the first from
    ``began``) to the first answer at least :data:`WINDOW_SECONDS` later;
    a shorter tail is dropped.
    """
    windows: List[Tuple[float, int, int]] = []
    start, jobs, cells = began, 0, 0
    for when, answered_jobs, answered_cells in sorted(answered):
        jobs += answered_jobs
        cells += answered_cells
        if when - start >= WINDOW_SECONDS:
            windows.append((when - start, jobs, cells))
            start, jobs, cells = when, 0, 0
    return windows


class HttpDriver:
    """Runs requests against one ``serve`` address and records what they saw."""

    def __init__(self, inputs: Inputs, checker: Checker, trace: Any = None):
        self.inputs = inputs
        self.checker = checker
        self.trace = trace
        self._serial = 0
        self._lock = threading.Lock()

    def request(self, client: Client, specs: List[Spec], tally: Tally) -> None:
        """One request: POST the specs, poll every job, record and keep answers."""
        with self._lock:
            self._serial += 1
            request_id = f"r{self._serial:06d}"
        client.request_id = request_id
        started = time.perf_counter()
        posted = client.post_scan([spec.payload() for spec in specs])
        outcomes: List[Optional[JobOutcome]] = [None] * len(specs)
        if posted.status == 202:
            outcomes = [client.wait_result(job["id"]) for job in posted.body["jobs"]]
        ended = time.perf_counter()
        failed = 0
        answered_jobs = answered_cells = 0
        windows: List[Tuple[float, float]] = []
        for spec, outcome in zip(specs, outcomes):
            if outcome is None or job_failed(outcome.status, outcome.view):
                failed += 1
                continue
            view = outcome.view
            try:
                hits = returned_hits(view, self.inputs.names, self.inputs.lengths)
            except (KeyError, TypeError, ValueError) as error:
                self.checker.malformed.append(f"malformed results: {error!r}")
                continue
            self.checker.add(
                Answer(spec.protein, spec.min_identity, int(view["threshold"]), hits, spec.checked)
            )
            cells = self.inputs.cells(spec.protein)
            answered_jobs += 1
            answered_cells += cells
            with tally.lock:
                tally.jobs += 1
                tally.cells += cells
                tally.polls.append(outcome.polls)
                tally.get_s.extend(outcome.gets)
                tally.result_bytes.append(outcome.result_bytes)
                if not view["cached"]:
                    tally.fresh_jobs += 1
                    tally.queue_wait_s.append(view["started_at"] - view["submitted_at"])
                    tally.execute_s.append(view["finished_at"] - view["started_at"])
            if not view["cached"]:
                windows.append((view["submitted_at"], view["finished_at"]))
                self._job_spans(request_id, view)
        latency = ended - started
        served = max(b for _, b in windows) - min(a for a, _ in windows) if windows else 0.0
        with tally.lock:
            tally.attempted += len(specs)
            tally.failed += failed
            tally.latencies.append(latency)
            tally.answered.append((ended, answered_jobs, answered_cells))
            tally.post_s.append(posted.seconds)
            tally.self_s.append(latency - served)
        if self.trace is not None:
            self.trace.span("request", started, ended, request_id, {"jobs": len(specs)})

    def _job_spans(self, request_id: str, view: Dict[str, Any]) -> None:
        if self.trace is None:
            return
        submitted, begun, finished = (
            self.trace.from_wall(view[key])
            for key in ("submitted_at", "started_at", "finished_at")
        )
        detail = {"job": view["id"]}
        self.trace.span("job.queue", submitted, begun, request_id, detail)
        self.trace.span("job.execute", begun, finished, request_id, detail)


class DaemonWorkload(Workload):
    """A workload served by ``python -m repro serve`` over HTTP."""

    fresh_connections = False

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.driver = HttpDriver(self.inputs, self.checker, self.trace)
        self.daemon: Optional[Daemon] = None
        self.clients: List[Client] = []
        self.counters = ServiceCounters()
        self._health: Dict[str, Any] = {}

    def client(self, lane: int) -> Client:
        index = max(lane, 0)
        while len(self.clients) <= index:
            assert self.daemon is not None
            client = Client(self.daemon.host, self.daemon.port, fresh=self.fresh_connections)
            if self.trace is not None:
                client.span = self.trace.span
            self.clients.append(client)
        return self.clients[index]

    def request(self, client: Client, specs: List[Spec], tally: Tally) -> None:
        self.driver.request(client, specs, tally)

    def start(self) -> None:
        self.daemon = Daemon.spawn(self.root, self.work, self.fasta, BACKENDS[self.name])
        client = Client(self.daemon.host, self.daemon.port)
        try:
            self.request(client, [Spec(self.inputs.random_query("setup"))], Tally())
        finally:
            client.close()

    def root_pid(self) -> int:
        assert self.daemon is not None
        return self.daemon.process.pid

    def stop(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.daemon is not None:
            daemon, self.daemon = self.daemon, None
            code = daemon.stop()
            if code != 0:
                raise RuntimeError(f"serve exited {code}; see {daemon.log}")

    def before_timing(self) -> None:
        if self.trace is not None:
            self._health = self.client(0).healthz()

    def after_timing(self, tally: Tally) -> None:
        if self.trace is not None:
            self.counters.add(self._health, self.client(0).healthz())


class ServiceCounters:
    """Batcher and cache counters summed over /healthz reads around timed phases."""

    def __init__(self) -> None:
        self.batches = 0
        self.hits = 0
        self.lookups = 0

    def add(self, before: Dict[str, Any], after: Dict[str, Any]) -> None:
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        self.batches += after["batches_dispatched"] - before["batches_dispatched"]
        self.hits += hits
        self.lookups += hits + after["cache"]["misses"] - before["cache"]["misses"]

    def metrics(self, tally: Tally) -> Dict[str, float]:
        return {
            "service.daemon.jobs_per_batch": tally.fresh_jobs / max(self.batches, 1),
            "service.cache.hit_ratio": self.hits / max(self.lookups, 1),
        }


class Interactive(DaemonWorkload):
    """One keep-alive client, one distinct query per POST."""

    name = "interactive"

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._plants = [plant.query for plant in self.inputs.plants]

    def operation(self, lane: int, tally: Tally) -> None:
        if lane < 0:
            protein = self.inputs.random_query("warmup")
        elif self._plants:
            protein = self._plants.pop(0)
        else:
            protein = self.inputs.random_query("load")
        self.request(self.client(lane), [Spec(protein)], tally)


class Bulk(DaemonWorkload):
    """One client posting 16 distinct queries at a time, one connection each."""

    name = "bulk"
    fresh_connections = True

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._plants = [plant.query for plant in self.inputs.plants]
        self._sample = self.inputs.stream_rng("check")

    def operation(self, lane: int, tally: Tally) -> None:
        if lane < 0:
            specs = [Spec(self.inputs.random_query("warmup"), checked=False)
                     for _ in range(BULK_BATCH)]
        elif self._plants:
            specs = [Spec(q) for q in self._plants[:BULK_BATCH]]
            del self._plants[:BULK_BATCH]
        else:
            specs = [
                Spec(self.inputs.random_query("load"),
                     checked=bool(self._sample.random() < BULK_CHECK_SHARE))
                for _ in range(BULK_BATCH)
            ]
        self.request(self.client(lane), specs, tally)


class ShardedMixed(DaemonWorkload):
    """Two keep-alive clients; half repeats, per-job thresholds."""

    name = "sharded-mixed"
    threads = 2

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        plants = [plant.query for plant in self.inputs.plants]
        self._plants = [plants[0::2], plants[1::2]]
        self._rngs = [self.inputs.stream_rng(f"lane{i}") for i in range(self.threads)]
        self._history: List[List[Spec]] = []

    def start(self) -> None:
        super().start()
        # Repeats come from answers this instance gave, so they hit its cache.
        self._history = [[] for _ in range(self.threads)]

    def operation(self, lane: int, tally: Tally) -> None:
        if lane < 0:
            specs = [Spec(self.inputs.random_query("warmup")) for _ in range(MIXED_BATCH)]
            self.request(self.client(0), specs, tally)
            return
        rng, history = self._rngs[lane], self._history[lane]
        repeats = round(MIXED_BATCH * MIXED_REPEAT_SHARE) if history else 0
        slots = rng.permutation([True] * repeats + [False] * (MIXED_BATCH - repeats))
        specs: List[Spec] = []
        fresh: List[Spec] = []
        for repeat in slots:
            identity = float(MIXED_IDENTITIES[int(rng.integers(len(MIXED_IDENTITIES)))])
            if repeat:
                window = history[-MIXED_REPEAT_WINDOW:]
                specs.append(window[int(rng.integers(len(window)))])
                continue
            if self._plants[lane]:
                protein = self._plants[lane].pop(0)
            else:
                protein = self.inputs.random_query(f"lane{lane}")
            spec = Spec(protein, identity)
            specs.append(spec)
            fresh.append(spec)
        self.request(self.client(lane), specs, tally)
        history.extend(fresh)


class Oneshot(Workload):
    """In-process supervised ``scan_database(..., workers=2)``, one query at a time."""

    name = "oneshot"

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._plants = [plant.query for plant in self.inputs.plants]
        self.database: Any = None

    def start(self) -> None:
        from repro.host.scan import PackedDatabase
        from repro.seq.fasta import read_rna

        self.database = PackedDatabase.from_references(read_rna(self.fasta))
        self._scan(self.database, self.inputs.random_query("setup"), Tally())

    def root_pid(self) -> int:
        import os

        return os.getpid()

    def _scan(self, database: Any, protein: str, tally: Tally) -> None:
        request_id = f"r{len(tally.latencies):06d}"
        started = time.perf_counter()
        try:
            results, report = oneshot_scan(protein, database)
        except Exception:  # noqa: BLE001 - a failed call is a failed operation
            tally.attempted += 1
            tally.failed += 1
            return
        ended = time.perf_counter()
        tally.attempted += 1
        tally.latencies.append(ended - started)
        if report.exit_code() != 0:
            tally.failed += 1
            return
        self.checker.add(Answer(protein, 0.9, results[0].threshold, hit_list(results)))
        cells = self.inputs.cells(protein)
        tally.jobs += 1
        tally.fresh_jobs += 1
        tally.cells += cells
        tally.answered.append((ended, 1, cells))
        if self.trace is not None:
            self.trace.span("scan_database", started, ended, request_id, {"workers": 2})

    def operation(self, lane: int, tally: Tally) -> None:
        if lane < 0:
            protein = self.inputs.random_query("warmup")
        elif self._plants:
            protein = self._plants.pop(0)
        else:
            protein = self.inputs.random_query("load")
        self._scan(self.database, protein, tally)


def oneshot_scan(protein: str, database: Any, workers: int = 2) -> Any:
    """The one-shot library call the ``scan`` CLI makes: supervised, with a report.

    Without ``with_report`` a multi-worker scan above the parallel cutover
    takes the unsupervised ``multiprocessing.Pool`` path instead, which now
    and then hangs for good in the pool's teardown; that path is left out.
    """
    from repro.host.scan import scan_database

    return scan_database(protein, database, workers=workers, with_report=True)


def hit_list(results: Sequence[Any]) -> HitList:
    """Library results as sorted ``(reference index, position, score)``."""
    return tuple(sorted(
        (index, hit.position, hit.score)
        for index, result in enumerate(results)
        for hit in result.hits
    ))


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (Interactive, Bulk, ShardedMixed, Oneshot)
}
