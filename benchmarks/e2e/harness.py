"""Shared plumbing of the end-to-end benchmark.

Locates the package source, runs the server child with the shipped
defaults (admission wide open, everything else untouched), and holds
the small statistics helpers every workload reports through.

Everything the benchmark writes lives under ``benchmarks/e2e/out/``
(a real-disk directory inside the checkout, removed per run).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    # The benchmark measures the program in this checkout; without the
    # source tree there is nothing to run, and no result is printed.
    sys.stderr.write(
        f"benchmarks/e2e: no program source at {SRC}; nothing to measure\n"
    )
    sys.exit(2)
sys.path.insert(0, SRC)

from repro.serve import ServeClient  # noqa: E402
from repro.service.store import DocumentStore  # noqa: E402
from repro.tree.tree import Tree  # noqa: E402

#: the one deliberate deviation from ``repro serve`` defaults: admission
#: is opened wide so the benchmark measures the store, not the shedder
SERVE_ARGUMENTS = (
    "--serve-threads", "2",
    "--rate", "1e6",
    "--burst", "1e6",
    "--max-queue", "8192",
    "--max-wait", "60",
)
#: every set-up is repeated this often in a run; ``setup_s`` and the
#: metrics taken from set-up phases are medians over the repeats
SETUP_REPEATS = 5
#: latency limits of ``within_limit_share`` (seconds, from due time)
READ_LIMIT = 0.050
WRITE_LIMIT = 0.250


class CheckFailed(Exception):
    """A correctness check of the benchmark did not hold."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def p95(samples: Sequence[float]) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------


def environment() -> Dict[str, object]:
    """What a result must match before two sets may be compared."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": numpy_version,
        "commit": commit,
    }


def sha256_of(chunks: Sequence[bytes]) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# scratch directories
# ----------------------------------------------------------------------


@contextlib.contextmanager
def scratch(tag: str) -> Iterator[str]:
    """A fresh directory under ``out/`` that is removed on exit."""
    path = os.path.join(OUT, f"tmp-{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def tree_bytes(directory: str) -> int:
    total = 0
    for parent, _, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(parent, name))
    return total


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for process {pid}")


# ----------------------------------------------------------------------
# seeding and the server child
# ----------------------------------------------------------------------


def child_environment() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def add_in_batches(
    store: DocumentStore, documents: Sequence[Tuple[int, Tree]], batches: int
) -> None:
    """``add_documents`` in ``batches`` equal parts (each part ends in
    the store's own full checkpoint)."""
    size = -(-len(documents) // batches)
    for start in range(0, len(documents), size):
        store.add_documents(documents[start : start + size])


def seed_store(directory: str, documents: Sequence[Tuple[int, Tree]]) -> float:
    """Build a store with the shipped defaults in one ``add_documents``
    and close it; the seconds until the documents were added."""
    started = time.perf_counter()
    store = DocumentStore(directory)
    store.add_documents(documents)
    added = time.perf_counter() - started
    store.close()
    return added


class ServerChild:
    """``python -m repro.cli serve`` over one serving root."""

    def __init__(self, root: str) -> None:
        self._log = open(os.path.join(root, "server.log"), "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--dir", root]
            + list(SERVE_ARGUMENTS),
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=child_environment(),
        )
        assert self.process.stdout is not None
        announce = self.process.stdout.readline().decode("utf-8", "replace")
        try:
            self.port = int(announce.strip().rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.kill()
            raise CheckFailed(
                f"server child did not announce a port: {announce!r}"
            ) from None
        with ServeClient(port=self.port) as client:
            client.ping()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def drain(self, timeout: float = 60.0) -> None:
        """SIGTERM and wait for the graceful drain."""
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise CheckFailed("server child did not drain in time") from None
        finally:
            self._close_pipes()
        if code != 0:
            raise CheckFailed(f"server child exited with code {code}")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


class Setup:
    """The set-up phases of one run, one sample per repeat: the whole
    set-up, ``add_documents`` alone, and reopening until the store
    answers.  :meth:`run` is the served form — seed, close, start the
    server child — repeated :data:`SETUP_REPEATS` times; the last
    repeat's server is kept."""

    def __init__(self) -> None:
        self.total: List[float] = []
        self.add: List[float] = []
        self.recover: List[float] = []
        self.tenant_directory = ""

    def run(
        self, base: str, documents: Sequence[Tuple[int, Tree]]
    ) -> ServerChild:
        for repeat in range(SETUP_REPEATS):
            root = os.path.join(base, f"serve-{repeat}")
            tenant = os.path.join(root, "default")
            os.makedirs(root)
            started = time.perf_counter()
            add_seconds = seed_store(tenant, documents)
            spawned = time.perf_counter()
            server = ServerChild(root)
            ready = time.perf_counter()
            self.total.append(ready - started)
            self.add.append(add_seconds)
            self.recover.append(ready - spawned)
            if repeat < SETUP_REPEATS - 1:
                # the repeat is measured; how its server goes is not
                server.kill()
                shutil.rmtree(root)
        self.tenant_directory = tenant
        return server


def verify_store(directory: str) -> None:
    """``repro store verify`` in a fresh process: the maintained index
    must equal a from-scratch rebuild after recovery."""
    outcome = subprocess.run(
        [sys.executable, "-m", "repro.cli", "store", "--dir", directory, "verify"],
        capture_output=True,
        text=True,
        env=child_environment(),
        timeout=120,
    )
    if outcome.returncode != 0:
        tail = "\n".join(outcome.stdout.splitlines()[-5:])
        raise CheckFailed(f"store verify failed for {directory}:\n{tail}")


class EventReader(threading.Thread):
    """Reads the standing-query events streamed to one subscriber
    connection and stamps each on arrival."""

    def __init__(self, client: ServeClient) -> None:
        super().__init__()
        self._client = client
        # a ServeClient serves one thread at a time: the reader steps
        # aside while a subscription is being registered
        self._turn = threading.Lock()
        self._subscribing = threading.Event()
        self._halt = threading.Event()
        self.events: List[Tuple[float, Dict[str, object]]] = []
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            while not self._halt.is_set():
                if self._subscribing.is_set():
                    time.sleep(0.001)
                    continue
                with self._turn:
                    event = self._client.next_event(timeout=0.02)
                if event is not None:
                    self.events.append((time.perf_counter(), event))
        except BaseException as exc:  # noqa: BLE001 - raised by close()
            self.error = exc

    def subscribe(
        self, query_id: str, brackets: str, tau: float
    ) -> List[Tuple[int, float]]:
        """Register one standing query; its initial matches."""
        self._subscribing.set()
        try:
            with self._turn:
                return self._client.subscribe(query_id, brackets, tau=tau)
        finally:
            self._subscribing.clear()

    def close(self) -> None:
        self._halt.set()
        if self.is_alive():
            self.join()
        self._client.close()
        if self.error is not None:
            raise CheckFailed(f"event reader failed: {self.error!r}")


def declared() -> Dict[str, object]:
    """The benchmark's declaration, ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: str, payload: object) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
