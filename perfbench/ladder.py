"""Traced-run instruments: span recorder and the in-process layer ladder.

Kernel work inside pool workers and shard runners cannot be seen from
outside, because their telemetry dies with the process.  The ladder
therefore replays a seeded sample of the workload's own jobs in-process,
on the same inputs, one layer at a time:

    kernel -> scan_database -> ScanSession -> ShardedScanRuntime
           -> ScanService -> HTTP

A layer's added cost is its time minus the time of the layer below.  Every
call is wrapped in a span recorded from this file; nothing is traced
inside the program.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

from client import Client
from inputs import Inputs, generate
from oracle import threshold_for
from workloads import (
    Answer,
    Checker,
    HttpDriver,
    ServiceCounters,
    Spec,
    Tally,
    hit_list,
    oneshot_scan,
)

#: Queries replayed per rung (the workload's first jobs), and the batch
#: size of the batched rungs.
SAMPLE = 5
BATCH = 16

#: Repeats of the slow one-off rungs (file read, pack, session open).
REPEATS = 3


class Trace:
    """Spans kept in memory, written once as Chrome ``trace_event`` JSON.

    Uses the program's own recorder type so the file is exactly what
    ``fabp-repro obs summarize`` reads.  Spans of one request share its id.
    """

    def __init__(self) -> None:
        from repro.obs.trace import TraceRecorder

        self.recorder = TraceRecorder(capacity=1 << 20)
        self._wall_minus_perf = time.time() - time.perf_counter()

    def from_wall(self, stamp: float) -> float:
        """A ``time.time()`` stamp (as the job views carry) on the span clock."""
        return stamp - self._wall_minus_perf

    def span(
        self, name: str, start: float, end: float, request_id: str, detail: Dict[str, Any]
    ) -> None:
        parent = None if name in ("request",) or name.startswith("ladder") else "request"
        self.recorder.record(
            name, "perfbench", start, end - start, parent=parent,
            args={"request": request_id, **detail},
        )

    def write(self, path: Path) -> Path:
        path.write_text(json.dumps(self.recorder.to_chrome()))
        return path


class Ladder:
    """Per-layer timings over one workload's inputs, spans included."""

    def __init__(self, workload: str, seed: int, fasta: Path, trace: Trace):
        # A fresh generator replays the same query streams the load used.
        self.inputs: Inputs = generate(workload, seed)
        self.fasta = fasta
        self.trace = trace
        self.checker = Checker(self.inputs)
        replay = [plant.query for plant in self.inputs.plants]
        while len(replay) < BATCH:
            replay.append(self.inputs.random_query("load"))
        self.sample = replay[:SAMPLE]
        self.batch = replay[:BATCH]
        self.metrics: Dict[str, float] = {}
        self.lone: List[Tuple[str, float]] = []
        self.probe = Tally()
        self.probe_counters = ServiceCounters()

    def timed(self, rung: str, call: Callable[[], Any]) -> Tuple[float, Any]:
        started = time.perf_counter()
        value = call()
        ended = time.perf_counter()
        self.trace.span(f"ladder.{rung}", started, ended, f"ladder.{rung}", {})
        return ended - started, value

    def median(self, rung: str, calls: Sequence[Callable[[], Any]]) -> float:
        return statistics.median(self.timed(rung, call)[0] for call in calls)

    def keep(self, protein: str, results: Sequence[Any]) -> None:
        self.checker.add(Answer(protein, 0.9, results[0].threshold, hit_list(results)))

    def run(self) -> Dict[str, float]:
        from repro.core.aligner import scores_batch_from_codes, scores_from_codes
        from repro.core.encoding import encode_query
        from repro.host.scan import PackedDatabase
        from repro.host.scan_session import ScanSession
        from repro.host.shards import ShardedScanRuntime
        from repro.seq.fasta import read_rna

        m = self.metrics
        codes = self.inputs.codes
        m["seq.fasta.read_s"] = self.median(
            "read", [lambda: read_rna(self.fasta)] * REPEATS
        )
        references = read_rna(self.fasta)
        m["host.scan.pack_s"] = self.median(
            "pack", [lambda: PackedDatabase.from_references(references)] * REPEATS
        )
        database = PackedDatabase.from_references(references)
        instructions = {q: encode_query(q).as_array() for q in self.batch}

        def kernel(engine: str, batch: Sequence[str]) -> Callable[[], None]:
            def call() -> None:
                for ref in codes:
                    if engine == "bitscore":
                        scores_from_codes(instructions[batch[0]], ref, engine)
                    else:
                        scores_batch_from_codes([instructions[q] for q in batch], ref, engine)
            return call

        m["core.bitscore.single_ms"] = 1e3 * self.median(
            "kernel.single", [kernel("bitscore", [q]) for q in self.sample]
        )
        m["core.bitscore.batch1_ms"] = 1e3 * self.median(
            "kernel.batch1", [kernel("bitscore_batch", [q]) for q in self.sample]
        )
        batch_cells = sum(self.inputs.cells(q) for q in self.batch)
        m["core.bitscore.batch16_cells_per_s"] = batch_cells / self.median(
            "kernel.batch16", [kernel("bitscore_batch", self.batch)] * 2
        )

        def oneshot(workers: int, protein: str) -> Callable[[], None]:
            return lambda: self.keep(protein, oneshot_scan(protein, database, workers)[0])

        m["host.scan.serial_ms"] = 1e3 * self.median(
            "scan.serial", [oneshot(1, q) for q in self.sample]
        )
        m["host.scan.parallel_ms"] = 1e3 * self.median(
            "scan.parallel", [oneshot(2, q) for q in self.sample]
        )

        def session_open() -> None:
            with ScanSession(database, workers=2) as session:
                self.keep(self.sample[0], session.scan_batch([self.sample[0]])[0])

        m["host.scan_session.open_s"] = self.median("session.open", [session_open] * REPEATS)
        with ScanSession(database, workers=2) as session:
            def session_batch(batch: Sequence[str]) -> Callable[[], Any]:
                def call() -> Any:
                    answers, report = session.scan_batch(list(batch), with_report=True)
                    for protein, results in zip(batch, answers):
                        self.keep(protein, results)
                    return report
                return call

            m["host.scan_session.batch1_ms"] = 1e3 * self.median(
                "session.batch1", [session_batch([q]) for q in self.sample]
            )
            m["host.scan_session.batch1_ratio"] = (
                m["host.scan_session.batch1_ms"] / m["core.bitscore.batch1_ms"]
            )
            respawns = session.respawns_total
            seconds, report = self.timed("session.batch16", session_batch(self.batch))
            m["host.scan_session.batch16_cells_per_s"] = batch_cells / seconds
            m["host.scan_session.tasks_per_batch"] = float(report.chunks_total)
            m["host.scan_session.retries"] = float(
                report.retries + session.respawns_total - respawns
            )
            mixed = self.batch[:4]
            identities = [0.7, 0.8, 0.9, 0.9]
            session_mixed = self.median(
                "session.mixed",
                [lambda: session.scan_batch(mixed, threshold=self._thresholds(mixed, identities))]
                * REPEATS,
            )
        runtime = ShardedScanRuntime(database, num_shards=2)
        shard_reports: List[Any] = []

        def sharded(batch: Sequence[str], thresholds: Any) -> Callable[[], None]:
            def call() -> None:
                answers, report = runtime.scan_batch(
                    list(batch), threshold=thresholds, with_report=True
                )
                shard_reports.append(report)
                if thresholds is None:
                    for protein, results in zip(batch, answers):
                        self.keep(protein, results)
            return call

        shards_s = self.median(
            "shards.mixed", [sharded(mixed, self._thresholds(mixed, identities))] * REPEATS
        )
        m["host.shards.batch_ms"] = 1e3 * shards_s
        m["host.shards.ratio"] = shards_s / session_mixed
        m["host.shards.retries"] = float(sum(
            max(0, shard.attempts - 1) + shard.hedges
            for report in shard_reports for shard in report.shards
        ))
        self._lone_job_ladder(database, sharded)
        return m

    @staticmethod
    def _thresholds(batch: Sequence[str], identities: Sequence[float]) -> List[int]:
        return [threshold_for(q, i) for q, i in zip(batch, identities)]

    def _lone_job_ladder(self, database: Any, sharded: Any) -> None:
        """One job per call through every layer; each rung's median over the sample.

        The first three rungs are the batch-of-one figures measured above.
        """
        from repro.service import ScanServer, ScanService

        m = self.metrics
        rungs: List[Tuple[str, float]] = [
            ("kernel", m["core.bitscore.batch1_ms"] / 1e3),
            ("scan_database", m["host.scan.parallel_ms"] / 1e3),
            ("ScanSession", m["host.scan_session.batch1_ms"] / 1e3),
            ("ShardedScanRuntime", self.median(
                "lone.shards", [sharded([q], None) for q in self.sample]
            )),
        ]
        service = ScanService(database, workers=2)
        try:
            def submit(protein: str) -> Callable[[], None]:
                def call() -> None:
                    job = service.submit(protein)
                    while job.state not in ("done", "failed"):
                        time.sleep(0.0005)
                return call

            rungs.append(("ScanService", self.median(
                "lone.service", [submit(q) for q in self.sample]
            )))
        finally:
            service.close(drain=False)
        # A second service, so the HTTP rung's repeats of the sample miss
        # the result cache exactly as the rung below did.
        server = ScanServer.ephemeral(ScanService(database, workers=2))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = Client(*server.address)
            client.span = self.trace.span
            driver = HttpDriver(self.inputs, self.checker, self.trace)
            health = client.healthz()
            rungs.append(("HTTP", self.median(
                "lone.http",
                [lambda q=q: driver.request(client, [Spec(q)], self.probe)
                 for q in self.sample],
            )))
            self.probe_counters.add(health, client.healthz())
            client.close()
        finally:
            server.shutdown(drain=False)
            thread.join(timeout=10)
        self.lone = rungs
