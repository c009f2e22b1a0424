"""The ``serve`` workload: an open-loop stream against ``repro-server``.

A ``repro-server --workers 1`` child (started through ``launcher.py``)
receives a seeded Poisson stream of two classes:

* **hot** — repeats of a few default ResNet-18 specs, primed during
  set-up, so every one is answered from the result cache;
* **cold** — ResNet-18 at ``columns_per_stripe=128`` on the periodic
  engine with a unique ``eta``, so the result cache, the profile memo
  and the stream cache all miss.

One sender thread submits each request at its intended time, without
``?wait=``; one poller thread follows cold jobs to completion.  Each
has its own ``repro.server.client.ServerClient``.  Latency runs from
the intended send time and is recorded per class in a
``repro.obs.loadgen`` ``LatencyRecorder``.  Every answer is checked
against ``reference.json``.
"""

from __future__ import annotations

import collections
import json
import random
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import metrics
from calibrate import Calibration
from common import (
    HERE,
    REPO,
    Tally,
    digest,
    golden_digest,
    load_reference,
    vm_hwm_mb,
)
from repro.obs.loadgen.arrival import arrival_offsets
from repro.obs.loadgen.attribution import diff_scrapes, scrape
from repro.obs.loadgen.mix import SpecMix
from repro.obs.loadgen.recorder import LatencyRecorder
from repro.server.client import ServerClient, ServerError
from repro.server.jobs import TERMINAL_STATES

HOT_SPECS = (
    {"network": "ResNet18"},
    {"network": "ResNet18", "batch": 64},
    {"network": "ResNet18", "batch": 16},
    {"network": "ResNet18", "designs": ["Baseline", "GradPIM-BD"]},
)

# The traffic mix.  The hot share of requests is the load generator's
# default (``SpecMix.hot_fraction``, 0.7).  The cold rate keeps the one
# worker busy COLD_UTILIZATION of the time with cold jobs of
# COLD_EXECUTE_S each (the median server execute time of one cold job
# on a 2-vCPU 2 GHz Xeon VM; 0.45-0.9 s as the host's load varies).
# At a quarter utilization cold latency is mostly execution rather than
# queueing, even when the host runs slow, and most hot requests find
# no cold job running beside them.
HOT_FRACTION = SpecMix.hot_fraction
COLD_EXECUTE_S = 0.65
COLD_UTILIZATION = 0.25
COLD_RATE = COLD_UTILIZATION / COLD_EXECUTE_S  # 0.385 requests per second
HOT_RATE = COLD_RATE * HOT_FRACTION / (1 - HOT_FRACTION)  # 0.897 per second

LATE_SECONDS = 0.010  # send lag beyond which a send counts as late
POLL_SECONDS = 0.050
DRAIN_SECONDS = 60.0
SETUP_BOOTS = 5
# The reference loop holds the GIL.  The sender runs it only where the
# next send is at least this far off, so no send waits for it.
CALIBRATION_GAP_S = Calibration.SAMPLE_S + 0.05
SERVER_ARGS = ("--port", "0", "--workers", "1")


def cold_spec(eta: float) -> dict:
    return {
        "network": "ResNet18",
        "columns_per_stripe": 128,
        "engine": "periodic",
        "optimizer": "momentum_sgd",
        "optimizer_params": {"eta": eta, "alpha": 0.9, "weight_decay": 1e-4},
    }


class EtaDraw:
    """Seeded, never-repeating learning rates for cold specs."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[float] = set()

    def __call__(self) -> float:
        while True:
            eta = round(self.rng.uniform(1e-3, 1e-1), 12)
            if eta not in self.used:
                self.used.add(eta)
                return eta


class ServerProcess:
    """A ``repro-server`` child run through ``launcher.py``."""

    def __init__(self, trace: bool) -> None:
        command = [sys.executable, str(HERE / "launcher.py")]
        if trace:
            command.append("--trace")
        command += ["--", *SERVER_ARGS]
        self.proc = subprocess.Popen(
            command,
            cwd=str(REPO),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.stderr_tail = collections.deque(maxlen=40)
        url = None
        for line in self.proc.stderr:
            self.stderr_tail.append(line)
            if "listening on" in line:
                url = line.split("listening on", 1)[1].strip()
                break
        if url is None:
            self.stop()
            raise RuntimeError(
                "server did not start:\n" + "".join(self.stderr_tail)
            )
        threading.Thread(target=self._drain_stderr, daemon=True).start()
        self.url = url
        self.pid = self.proc.pid

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr_tail.append(line)

    def client(self, seed: int = 0) -> ServerClient:
        """A client that retries a 503 up to five times, sleeping the
        server's ``Retry-After`` (at most 0.5 s)."""
        return ServerClient(
            self.url,
            timeout=120.0,
            retry_after_cap=0.5,
            rng=random.Random(seed),
        )

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                with urllib.request.urlopen(f"{self.url}/readyz", timeout=5):
                    return
            except (urllib.error.URLError, ConnectionError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never became ready")
            time.sleep(0.01)

    def reset_spans(self) -> None:
        self.proc.stdin.write("reset\n")
        self.proc.stdin.flush()
        if self.proc.stdout.readline().strip() != "reset-done":
            raise RuntimeError("launcher did not acknowledge reset")

    def stop(self) -> str:
        """Shut the server down and wait; returns its stdout."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        return self.proc.stdout.read()


def prime(server: ServerProcess, eta: float, tally: Tally, ref: dict) -> None:
    """Compute every hot spec and one cold spec, checking each result;
    the default hot spec is also checked against the Fig. 9 golden."""
    client = server.client()
    for i, spec in enumerate(HOT_SPECS):
        job = _wait_job(client, spec)
        tally.check(
            job is not None and digest(job["result"]) == ref["hot"][i],
            f"prime hot {i}",
        )
        if i == 0:
            tally.check(
                job is not None and digest(job["result"]) == golden_digest(),
                "golden fig9 ResNet18 via server",
            )
    job = _wait_job(client, cold_spec(eta))
    tally.check(
        job is not None and digest(job["result"]) == ref["cold"], "prime cold"
    )


def _wait_job(client: ServerClient, spec: dict):
    """Submit and wait server-side; the ``done`` job or None."""
    try:
        job = client.submit(spec, wait=120)[0]
    except ServerError:
        return None
    return job if job["status"] == "done" else None


def _submit(client: ServerClient, spec: dict):
    """Submit without waiting; the job envelope, or None when the
    server still refuses the spec after the client's retries."""
    try:
        return client.submit(spec)[0]
    except ServerError:
        return None


def make_schedule(rng: random.Random, seconds: float, eta: EtaDraw):
    """``(offset, kind, spec index or eta)`` events, sorted by offset."""
    events = []
    for kind, rate in (("hot", HOT_RATE), ("cold", COLD_RATE)):
        # A fixed count per class: n Poisson arrivals conditioned on
        # the (n+1)-th landing at ``seconds``.  The amount of cold work
        # (and so the time hot requests share the server with it) then
        # does not vary with the seed.
        n = max(1, round(rate * seconds))
        offsets = arrival_offsets("poisson", rate, n + 1, seed=rng.getrandbits(32))
        scale = seconds / offsets[n]
        for offset in offsets[:n]:
            if kind == "hot":
                arg = rng.randrange(len(HOT_SPECS))
            else:
                arg = eta()
            events.append((offset * scale, kind, arg))
    events.sort()
    return events


def _recorder() -> LatencyRecorder:
    # 0.1 %-wide buckets: a p50 read from the default ~6 % buckets moves
    # in steps of a quarter of the metric's bound.
    return LatencyRecorder(lo=1e-4, hi=1e3, buckets_per_decade=2000)


class Phase:
    """Everything one open-loop phase measured."""

    def __init__(self) -> None:
        self.latency = {"hot": _recorder(), "cold": _recorder()}
        self.sent = 0
        self.late = 0
        self.calls = 0  # HTTP calls made by the sender and the poller
        self.call_seconds = 0.0  # client time spent in them
        self.attribution = None

    def p50(self, kind: str) -> float:
        return self.latency[kind].quantile(0.5)


def drive(
    server: ServerProcess, events, tally: Tally, ref: dict, calibration
) -> Phase:
    """Send ``events`` open-loop and collect every answer, calibrating
    the host in the sender's idle gaps."""
    phase = Phase()
    sender, poller, control = (server.client(seed) for seed in range(3))
    pending: collections.deque = collections.deque()
    sender_done = threading.Event()
    lock = threading.Lock()  # guards tally
    errors: list[BaseException] = []

    def finish(kind, due, job, expected) -> None:
        phase.latency[kind].record(time.perf_counter() - due)
        field = "speedups" if kind == "hot" else "result"
        ok = job is not None and job["status"] == "done" and (
            digest(job[field]) == expected
        )
        # A wrong or refused answer still keeps its latency: it counts
        # against ``ok_fraction`` and must not flatter the percentiles.
        with lock:
            tally.check(ok, f"{kind} job {job and job.get('id')}")

    def send_all(start: float) -> None:
        # Past this point the server has fallen so far behind that the
        # run would overrun its time limit: what is left counts failed.
        give_up = start + 2 * events[-1][0] + 5.0
        try:
            for offset, kind, arg in events:
                due = start + offset
                if due - time.perf_counter() > CALIBRATION_GAP_S:
                    calibration.sample()
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                expected = (
                    ref["hot_speedups"][arg] if kind == "hot" else ref["cold"]
                )
                if time.perf_counter() > give_up:
                    finish(kind, due, None, expected)
                    continue
                if time.perf_counter() - due > LATE_SECONDS:
                    phase.late += 1
                phase.sent += 1
                spec = HOT_SPECS[arg] if kind == "hot" else cold_spec(arg)
                job = _submit(sender, spec)
                if job is None or job["status"] in TERMINAL_STATES:
                    finish(kind, due, job, expected)
                else:
                    pending.append((job["id"], due, kind, expected))
        except BaseException as exc:  # surfaced by the caller
            errors.append(exc)
        finally:
            sender_done.set()

    def poll_all() -> None:
        try:
            drain_deadline = None
            while True:
                if not pending:
                    # Test again after seeing the sender finish: it may
                    # have queued one last job in between.
                    if sender_done.is_set() and not pending:
                        return
                    time.sleep(POLL_SECONDS / 2)
                    continue
                if sender_done.is_set() and drain_deadline is None:
                    drain_deadline = time.perf_counter() + DRAIN_SECONDS
                job_id, due, kind, expected = pending[0]
                try:
                    job = poller.job(job_id)
                except ServerError:
                    job = None
                if job is not None and job["status"] not in TERMINAL_STATES:
                    if drain_deadline and time.perf_counter() > drain_deadline:
                        job = None
                    else:
                        time.sleep(POLL_SECONDS)
                        continue
                pending.popleft()
                finish(kind, due, job, expected)
        except BaseException as exc:
            errors.append(exc)

    before = scrape(control.metrics_text())
    start = time.perf_counter() + 0.05
    threads = [
        threading.Thread(target=send_all, args=(start,)),
        threading.Thread(target=poll_all),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    for client in (sender, poller):
        service = client.client_stats()["service"]
        phase.calls += service.count
        phase.call_seconds += service.sum
    phase.attribution = diff_scrapes(before, scrape(control.metrics_text()))
    return phase


def _boot(trace: bool, eta: EtaDraw, tally: Tally, ref: dict) -> ServerProcess:
    server = ServerProcess(trace)
    try:
        server.wait_ready()
        prime(server, eta(), tally, ref)
    except BaseException:
        server.stop()
        raise
    return server


def _cold_per_s(phase: Phase) -> float:
    execute = phase.attribution.stages["execute"]
    return execute["count"] / execute["sum_seconds"]


def run(seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of ``serve``."""
    ref = load_reference()["serve"]
    rng = random.Random(seed)
    eta = EtaDraw(rng)
    tally = Tally()
    calibration = Calibration()
    if not trace:
        setups = []
        for boot in range(SETUP_BOOTS):
            start = time.perf_counter()
            server = _boot(False, eta, tally, ref)
            setups.append(time.perf_counter() - start)
            calibration.sample()
            if boot < SETUP_BOOTS - 1:
                server.stop()
        try:
            phase = drive(
                server, make_schedule(rng, seconds, eta), tally, ref,
                calibration,
            )
            rss = vm_hwm_mb(server.pid)
        finally:
            server.stop()
        calibration.sample()
        # The sender calibrated in its idle gaps, so the mean over the
        # run scales the latencies.
        scale = calibration.scale()
        values = metrics.end_to_end(
            statistics.median(setups) * scale, rss, tally,
            cold_p50_s=phase.p50("cold") * scale,
            hot_p50_s=phase.p50("hot") * scale,
            cold_per_s=_cold_per_s(phase) / scale,
        )
        return {
        "tally": tally, "metrics": values, "scale": calibration.scale()
    }

    # Both halves send the same schedule, each to a freshly booted
    # server, so the traced half's cold jobs still miss every cache.
    events = make_schedule(rng, seconds / 2, eta)
    server = _boot(False, eta, tally, ref)
    calibration.sample()
    try:
        untraced = drive(server, events, tally, ref, calibration)
    finally:
        server.stop()
    server = _boot(True, eta, tally, ref)
    calibration.sample()
    try:
        server.reset_spans()
        traced = drive(server, events, tally, ref, calibration)
    finally:
        out = server.stop()
    calibration.sample()
    totals = json.loads(out.strip().splitlines()[-1])
    values = _layer_metrics(
        totals, traced, untraced, calibration.scale()
    )
    return {
        "tally": tally, "metrics": values, "scale": calibration.scale()
    }


def _layer_metrics(
    totals: dict, traced: Phase, untraced: Phase, scale: float
) -> dict:
    att = traced.attribution
    stages, counters, engine = att.stages, att.counters, att.engine
    cold_ops = traced.latency["cold"].count
    n = max(cold_ops, 1)
    fast = engine.get("repro_server_engine_fast_path_total", 0.0)
    fallback = engine.get("repro_server_engine_fallback_total", 0.0)
    extra = {
        "dram.steady_fast_path_ratio": (
            fast / (fast + fallback) if fast + fallback else 0.0
        ),
        "dram.steady_commands_replayed": engine.get(
            "repro_server_engine_commands_replayed_total", 0.0
        ) / n,
        "dram.steady_commands_simulated": engine.get(
            "repro_server_engine_commands_simulated_total", 0.0
        ) / n,
        "dram.steady_sweeps_extended": engine.get(
            "repro_server_engine_sweeps_extended_total", 0.0
        ) / n,
        "server.request_s": stages["request"]["sum_seconds"] / n,
        "server.queue_wait_s": stages["queue"]["sum_seconds"] / n,
        "server.execute_s": stages["execute"]["sum_seconds"] / n,
        "server.cache_hits": counters["cache_hits"] / n,
        "server.executions": counters["executions"] / n,
        "server.coalesced": counters["coalesced"] / n,
        "server.rejected": counters["rejected"] / n,
        "server.client_residual_s": (
            (traced.call_seconds - stages["request"]["sum_seconds"])
            / traced.calls
        ),
        "loadgen.late_fraction": traced.late / traced.sent,
        "loadgen.sent": traced.sent,
        "trace.overhead_fraction": traced.p50("cold") / untraced.p50("cold") - 1,
    }
    return metrics.per_layer(totals, cold_ops, extra, scale)
