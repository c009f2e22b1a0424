"""A stdlib (urllib) client for the simulation gateway.

Speaks the ``/v1`` JSON protocol, honours 503 + ``Retry-After``
backpressure with bounded retries, and can digest ``/metrics`` into a
per-endpoint latency summary — everything the examples, benchmark, and
CI smoke need without leaving the standard library.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request
from email.utils import parsedate_to_datetime
from typing import Mapping, Optional, Sequence, Union

from repro.obs.metrics import StreamingHistogram
from repro.server.jobs import TERMINAL_STATES
from repro.obs.metrics import parse_prometheus
from repro.service.spec import SimJobSpec

SpecLike = Union[SimJobSpec, Mapping]


def parse_retry_after(
    value: Optional[str],
    default: float = 1.0,
    now: Optional[float] = None,
) -> float:
    """Seconds to wait per an RFC-7231 ``Retry-After`` header.

    The header carries either delta-seconds (``"2"``) or an HTTP-date
    (``"Wed, 21 Oct 2015 07:28:00 GMT"``); both forms are accepted,
    anything unparsable falls back to ``default``, and dates already in
    the past clamp to 0. ``now`` is the reference POSIX timestamp for
    date arithmetic (tests pin it; production uses the current time).
    """
    if value is None:
        return default
    text = value.strip()
    try:
        seconds = float(text)
    except ValueError:
        try:
            target = parsedate_to_datetime(text)
        except (TypeError, ValueError):
            return default
        if target.tzinfo is None:
            # RFC 5322 allows "-0000" for unknown offsets; treat the
            # naive result as UTC like every mainstream client does.
            from datetime import timezone

            target = target.replace(tzinfo=timezone.utc)
        reference = time.time() if now is None else now
        seconds = target.timestamp() - reference
    return max(0.0, seconds)


class ServerError(Exception):
    """A non-2xx response (after any backpressure retries).

    ``envelopes`` holds the job envelopes of any specs the server DID
    accept before the failure (partial batch under backpressure) — the
    caller can still poll those ids instead of resubmitting everything.
    """

    def __init__(
        self,
        status: int,
        message: str,
        envelopes: Optional[list] = None,
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.envelopes = envelopes or []


def _spec_dict(spec: SpecLike) -> dict:
    return spec.to_dict() if isinstance(spec, SimJobSpec) else dict(spec)


class ServerClient:
    """Client for one gateway base URL (e.g. ``http://127.0.0.1:8037``).

    ``max_retries`` bounds how many 503 (queue full) responses a submit
    absorbs by sleeping the server-advertised ``Retry-After`` before
    giving up and raising :class:`ServerError`. ``Retry-After`` is
    parsed in both RFC-7231 forms (delta-seconds and HTTP-date, see
    :func:`parse_retry_after`) and the resulting sleep is capped at
    ``retry_after_cap`` seconds so a skewed server clock or a
    pathological header can never stall the client for hours.

    ``retry_jitter`` spreads retry sleeps by ±that fraction so a herd
    of clients rejected together doesn't retry in lockstep and hit the
    same full queue again; jittered sleeps still respect the cap. Pass
    ``rng`` (a seeded ``random.Random``) for deterministic tests.

    ``request_timeout`` is the per-request socket timeout (seconds)
    applied to every HTTP round trip — a gateway that accepts the
    connection and then never answers fails the request instead of
    hanging the client forever. It defaults to ``timeout`` (kept as an
    alias for compatibility). Server-side ``?wait=`` submits get the
    wait budget *added on top*, so a legitimate long-poll is never
    mistaken for a dead server.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        max_retries: int = 5,
        retry_after_cap: float = 30.0,
        retry_jitter: float = 0.1,
        rng: Optional[random.Random] = None,
        request_timeout: Optional[float] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be > 0, got {request_timeout}"
            )
        self.timeout = timeout
        self.request_timeout = (
            request_timeout if request_timeout is not None else timeout
        )
        self.max_retries = max_retries
        self.retry_after_cap = retry_after_cap
        self.retry_jitter = retry_jitter
        self._rng = rng if rng is not None else random.Random()
        # Client-side accounting: HTTP round-trip time (service) is
        # recorded separately from Retry-After backoff sleeps, so a
        # latency report can say how much of a submit's wall time the
        # server actually worked versus how long the client sat out
        # backpressure. One lock guards both histograms — clients are
        # cheap enough that load harnesses give each thread its own.
        self._stats_lock = threading.Lock()
        self._service_hist = StreamingHistogram()
        self._backoff_hist = StreamingHistogram()
        self._retries = 0

    def _retry_sleep(self, base: float) -> float:
        """Jittered, capped seconds to sleep before a retry."""
        jitter = self.retry_jitter
        if jitter > 0:
            base *= 1.0 + self._rng.uniform(-jitter, jitter)
        return max(0.0, min(base, self.retry_after_cap))

    # ------------------------------------------------------------------
    # Raw HTTP
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        timeout: Optional[float] = None,
    ) -> tuple[int, dict, str]:
        """Returns ``(status, headers, body_text)``; never raises for
        HTTP-level errors (only transport failures propagate).
        ``timeout`` overrides ``request_timeout`` for this round trip
        (long-poll submits pass their wait budget on top)."""
        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        started = time.perf_counter()
        try:
            with urllib.request.urlopen(
                request,
                timeout=(
                    timeout if timeout is not None else self.request_timeout
                ),
            ) as response:
                return (
                    response.status,
                    dict(response.headers),
                    response.read().decode("utf-8"),
                )
        except urllib.error.HTTPError as exc:
            return (
                exc.code,
                dict(exc.headers),
                exc.read().decode("utf-8", errors="replace"),
            )
        finally:
            elapsed = time.perf_counter() - started
            with self._stats_lock:
                self._service_hist.record(elapsed)

    def _json(self, method: str, path: str, body: Optional[dict] = None):
        status, _, text = self._request(method, path, body)
        payload = _parse_body(text)
        if status >= 400:
            raise ServerError(
                status, payload.get("error", text) if payload else text
            )
        return payload

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        return self._json("GET", "/healthz")

    def metrics_text(self) -> str:
        status, _, text = self._request("GET", "/metrics")
        if status != 200:
            raise ServerError(status, text)
        return text

    def submit(
        self,
        specs: Union[SpecLike, Sequence[SpecLike]],
        wait: float = 0.0,
    ) -> list[dict]:
        """Submit one spec or a batch; returns the job envelopes.

        ``wait`` blocks server-side until completion (bounded by the
        server's ``max_wait_seconds``). 503 responses are retried after
        the advertised ``Retry-After``, resubmitting only the specs the
        server did not accept.
        """
        if isinstance(specs, (SimJobSpec, Mapping)):
            batch = [_spec_dict(specs)]
        else:
            batch = [_spec_dict(s) for s in specs]
        envelopes: list[dict] = []
        remaining = batch
        suffix = f"?wait={wait:g}" if wait > 0 else ""
        for attempt in range(self.max_retries + 1):
            status, headers, text = self._request(
                "POST",
                f"/v1/jobs{suffix}",
                {"jobs": remaining},
                timeout=self.request_timeout + wait,
            )
            payload = _parse_body(text)
            if status in (200, 202):
                envelopes.extend(payload["jobs"])
                return envelopes
            if status == 503:
                envelopes.extend(payload.get("jobs", []) if payload else [])
                if attempt < self.max_retries:
                    accepted = payload.get("accepted", 0) if payload else 0
                    remaining = remaining[accepted:]
                    retry_after = self._retry_sleep(
                        parse_retry_after(headers.get("Retry-After"))
                    )
                    with self._stats_lock:
                        self._retries += 1
                        self._backoff_hist.record(retry_after)
                    time.sleep(retry_after)
                    continue
            raise ServerError(
                status,
                payload.get("error", text) if payload else text,
                envelopes=envelopes,
            )
        raise ServerError(  # pragma: no cover
            503, "retries exhausted", envelopes=envelopes
        )

    def job(self, job_id: str, summary: bool = False) -> dict:
        suffix = "?summary=1" if summary else ""
        return self._json("GET", f"/v1/jobs/{job_id}{suffix}")

    def wait_for(
        self,
        job_ids: Sequence[str],
        timeout: float = 60.0,
        poll_seconds: float = 0.05,
        deadline: Optional[float] = None,
    ) -> list[dict]:
        """Poll until every job reaches a terminal state.

        ``deadline`` (seconds from now) overrides ``timeout`` when
        given — a polling budget spelled the same way job deadlines
        are. Terminal states include the classified failures
        (``timed_out``, ``quarantined``), so a job the server gave up
        on ends the wait instead of raising :class:`TimeoutError`.
        """
        budget = timeout if deadline is None else deadline
        deadline_at = time.monotonic() + budget
        done: dict[str, dict] = {}
        while len(done) < len(job_ids):
            for job_id in job_ids:
                if job_id in done:
                    continue
                envelope = self.job(job_id)
                if envelope["status"] in TERMINAL_STATES:
                    done[job_id] = envelope
            if len(done) < len(job_ids):
                if time.monotonic() > deadline_at:
                    raise TimeoutError(
                        f"{len(job_ids) - len(done)} of {len(job_ids)} "
                        "jobs still pending"
                    )
                time.sleep(poll_seconds)
        return [done[job_id] for job_id in job_ids]

    def result(self, spec_hash: str) -> dict:
        """Direct cache lookup (``GET /v1/results/{spec_hash}``)."""
        return self._json("GET", f"/v1/results/{spec_hash}")

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def client_stats(self) -> dict:
        """This client's own accounting, by wall-time category.

        Returns ``{"service": StreamingHistogram, "backoff":
        StreamingHistogram, "retries": int}``. *Service* is HTTP
        round-trip time (one sample per request, including requests
        the server answered with an error status); *backoff* is the
        Retry-After sleeps taken under 503 backpressure. Keeping the
        two apart is what lets :meth:`client_latency_summary` — and
        the load-generation harness — report honest service latency
        instead of folding the client's own waiting into it.

        The histograms are live references: snapshot or merge them
        before issuing more requests if a frozen view is needed.
        """
        with self._stats_lock:
            return {
                "service": self._service_hist,
                "backoff": self._backoff_hist,
                "retries": self._retries,
            }

    def client_latency_summary(self) -> dict:
        """Client-observed latency split: service vs retry backoff.

        Unlike :meth:`latency_summary` (the *server's* per-endpoint
        digest scraped from ``/metrics``), this summarizes what this
        client measured itself: ``{"service": snapshot, "backoff":
        snapshot, "retries": n}`` where each snapshot carries count /
        sum / min / max / mean / p50 / p95 / p99. A submit that spent
        1.2 s sleeping out backpressure and 30 ms being served shows
        up here as 30 ms of service — the 1.2 s is in ``backoff``
        where it belongs.
        """
        with self._stats_lock:
            return {
                "service": self._service_hist.snapshot(),
                "backoff": self._backoff_hist.snapshot(),
                "retries": self._retries,
            }

    def latency_summary(self) -> dict[str, dict[str, float]]:
        """Per-endpoint request-latency digest from ``/metrics``.

        Returns ``{endpoint: {"p50": s, "p95": s, "p99": s,
        "count": n, "sum": s}}``. This is the *server's* view of
        request service time; the client's own connect/retry overhead
        is deliberately absent (see :meth:`client_latency_summary`).
        """
        metrics = parse_prometheus(self.metrics_text())
        out: dict[str, dict[str, float]] = {}
        for labels, value in metrics.get(
            "repro_server_request_seconds", {}
        ).items():
            endpoint = _label_value(labels, "endpoint")
            quantile = _label_value(labels, "quantile")
            if endpoint is None or quantile is None:
                continue
            out.setdefault(endpoint, {})[
                f"p{int(float(quantile) * 100)}"
            ] = value
        for family, key in (
            ("repro_server_request_seconds_count", "count"),
            ("repro_server_request_seconds_sum", "sum"),
        ):
            for labels, value in metrics.get(family, {}).items():
                endpoint = _label_value(labels, "endpoint")
                if endpoint is not None:
                    out.setdefault(endpoint, {})[key] = value
        return out


def _parse_body(text: str) -> dict:
    try:
        payload = json.loads(text)
        return payload if isinstance(payload, dict) else {}
    except ValueError:
        return {}


def _label_value(label_text: str, name: str) -> Optional[str]:
    """Extract one label's value from a ``{a="x",b="y"}`` section."""
    marker = f'{name}="'
    start = label_text.find(marker)
    if start < 0:
        return None
    start += len(marker)
    end = label_text.find('"', start)
    return label_text[start:end] if end >= 0 else None
