"""Outside-in plumbing: spawn ``serve``, talk HTTP, sample PSS from /proc.

Nothing here imports the program; the daemon is driven as a user would
drive it, through ``python -m repro serve`` and its HTTP endpoints.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from pss import descendant_pids

#: Client-side pause between two polls of a pending job.
POLL_SECONDS = 0.005

#: How long a daemon may take to write its ready file.
READY_TIMEOUT = 60.0

#: ``prctl`` option that makes a process the reaper of its orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36


class ServeError(RuntimeError):
    """The daemon did not come up, or did not stop cleanly."""


@dataclass
class Daemon:
    """One ``serve`` process and the address it listens on."""

    process: subprocess.Popen
    host: str
    port: int
    log: Path

    @classmethod
    def spawn(
        cls, root: Path, work: Path, database: Path, backend: Sequence[str]
    ) -> "Daemon":
        work.mkdir(parents=True, exist_ok=True)
        ready = work / f"ready_{os.getpid()}_{time.monotonic_ns()}"
        log = work / "serve.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["TMPDIR"] = str(work)
        command = [
            sys.executable, "-m", "repro", "serve",
            "--database", str(database), "--port", "0",
            "--ready-file", str(ready), *backend,
        ]
        with open(log, "ab") as sink:
            process = subprocess.Popen(
                command, cwd=root, env=env, stdout=sink, stderr=sink,
                stdin=subprocess.DEVNULL,
            )
        deadline = time.monotonic() + READY_TIMEOUT
        while not ready.exists() or not ready.read_text().endswith("\n"):
            if process.poll() is not None or time.monotonic() > deadline:
                _stop(process)
                raise ServeError(f"serve did not start; see {log}")
            time.sleep(0.002)
        host, port = ready.read_text().split()
        ready.unlink()
        return cls(process, host, int(port), log)

    def stop(self) -> int:
        """SIGTERM (graceful drain), wait, and reap every descendant."""
        return _stop(self.process)


def _stop(process: subprocess.Popen, timeout: float = 30.0) -> int:
    descendants = descendant_pids(process.pid)
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        code = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        code = process.wait()
    deadline = time.monotonic() + 10.0
    for pid in descendants:
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        if _alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    return code


def adopt_orphans() -> None:
    """Make this process the subreaper of every process it starts (Linux).

    A grandchild whose parent exits first (a ``serve`` process's resource
    tracker) is then re-parented here rather than to init, so that
    :func:`reap_descendants` sees it and waits for it.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_descendants(timeout: float = 10.0) -> None:
    """Wait out every process this one started, then stop the resource tracker.

    In-process scans fork pool workers and, through shared memory, start
    :mod:`multiprocessing`'s resource tracker, which otherwise outlives
    this process by a moment.  Workers still alive at ``timeout`` are
    killed.  The tracker goes last: it exits once every holder of its pipe
    (the workers inherit it) has closed it, and unlinks any segment left.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    deadline = time.monotonic() + timeout
    for pid in descendant_pids(os.getpid()):
        if pid == getattr(tracker, "_pid", None):
            continue
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        if _alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + timeout
    for pid in descendant_pids(os.getpid()):
        while time.monotonic() < deadline:
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    break
            except ChildProcessError:  # reaped already, or not our child
                if not _alive(pid):
                    break
            time.sleep(0.01)
        else:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


class PssSampler:
    """Peak summed PSS of a process tree, sampled by a separate process.

    The sampler runs in its own process (``pss.py``) so the load-driving
    process gains no thread: ``oneshot`` forks scan workers from it, and a
    fork while another thread runs can leave locks held in the child.  It
    starts just before the timed phase and stops at its end, so set-up
    and the output check never count.
    """

    def __init__(self, root: int, interval: float = 0.1):
        self._command = [
            sys.executable, str(Path(__file__).resolve().parent / "pss.py"),
            str(root), str(interval),
        ]
        self._process: Optional[subprocess.Popen] = None
        self.peak_kib = 0

    def __enter__(self) -> "PssSampler":
        self._process = subprocess.Popen(
            self._command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        assert self._process.stdout is not None
        self._process.stdout.readline()  # "ready" once the first sample is in
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._process is not None
        output, _ = self._process.communicate("stop\n", timeout=30)
        self.peak_kib = int(output.split()[-1])

    @property
    def peak_mib(self) -> float:
        return self.peak_kib / 1024.0


#: ``(name, start perf_counter, end perf_counter, request id, detail)``
SpanSink = Callable[[str, float, float, str, Dict[str, Any]], None]


@dataclass
class Exchange:
    """One HTTP round trip as the client saw it."""

    status: int
    body: Dict[str, Any]
    size: int
    seconds: float


@dataclass
class JobOutcome:
    """A job's final view plus what it cost to get it."""

    view: Dict[str, Any]
    status: int
    polls: int
    result_bytes: int
    gets: List[float] = field(default_factory=list)


class Client:
    """One HTTP/1.1 client; keep-alive unless ``fresh`` is set.

    With ``fresh`` every request opens its own connection and asks the
    server to close it afterwards, as a one-shot script would.
    """

    def __init__(self, host: str, port: int, *, fresh: bool = False):
        self._host = host
        self._port = port
        self._fresh = fresh
        self._conn: Optional[http.client.HTTPConnection] = None
        self.span: Optional[SpanSink] = None
        self.request_id = ""

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _exchange(self, method: str, path: str, payload: Any = None) -> Exchange:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        if self._fresh:
            headers["Connection"] = "close"
        started = time.perf_counter()
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self._host, self._port, timeout=120)
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        raw = response.read()
        ended = time.perf_counter()
        if self._fresh or response.will_close:
            self.close()
        if self.span is not None:
            self.span(
                f"http.{method.lower()}", started, ended, self.request_id,
                {"path": path.split("/")[1], "status": response.status},
            )
        return Exchange(response.status, json.loads(raw or b"{}"), len(raw), ended - started)

    def post_scan(self, specs: List[Dict[str, Any]]) -> Exchange:
        return self._exchange("POST", "/scan", {"queries": specs})

    def healthz(self) -> Dict[str, Any]:
        return self._exchange("GET", "/healthz").body

    def wait_result(self, job_id: str) -> JobOutcome:
        """Poll ``GET /results/<id>`` until it stops answering 202."""
        polls = 0
        gets: List[float] = []
        while True:
            exchange = self._exchange("GET", f"/results/{job_id}")
            polls += 1
            gets.append(exchange.seconds)
            if exchange.status != 202:
                return JobOutcome(exchange.body, exchange.status, polls, exchange.size, gets)
            time.sleep(POLL_SECONDS)


def job_failed(status: int, view: Dict[str, Any]) -> bool:
    """A non-2xx answer, a failed job, or an exit code of 3/4 is a failure."""
    return (
        not 200 <= status < 300
        or view.get("state") != "done"
        or view.get("exit_code", 0) in (1, 3, 4)
    )


def returned_hits(
    view: Dict[str, Any], names: Sequence[str], lengths: Sequence[int]
) -> Tuple[Tuple[int, int, int], ...]:
    """The job's hits as ``(reference index, position, score)``, checked in shape.

    Raises ``ValueError`` when the per-reference results do not list every
    reference of the database, in order, with its length.
    """
    results = view.get("results")
    if not isinstance(results, list) or len(results) != len(names):
        raise ValueError(
            f"job {view.get('id')}: {len(results or [])} results for {len(names)} references"
        )
    hits: List[Tuple[int, int, int]] = []
    for index, result in enumerate(results):
        if result["reference"] != names[index] or result["reference_length"] != lengths[index]:
            raise ValueError(f"job {view.get('id')}: result {index} is {result['reference']!r}")
        hits.extend((index, int(p), int(s)) for p, s in result["hits"])
    return tuple(sorted(hits))
