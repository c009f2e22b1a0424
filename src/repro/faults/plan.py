"""Declarative, seeded fault plans.

A :class:`FaultPlan` names *where* and *how often* faults fire: one
:class:`FaultRule` per injection site, all driven by a single seed so a
plan replays identically — same processes, same sites, same decisions —
run after run. Plans parse from a compact one-line spec (the
``REPRO_FAULTS`` environment variable, so live-server tests and the
chaos CI job can inject without code changes) or from JSON::

    REPRO_FAULTS="seed=42;worker.kill:rate=0.2,attempts=1;engine.slow:delay_ms=50"

Each ``site:key=value,...`` segment arms one site. Parameters:

``rate``
    Probability a check fires (default 1.0). Decisions are a pure
    function of ``(seed, site, check index, attempt)`` — deterministic,
    but independent across checks and retry attempts.
``max``
    Cap on total fires of the site per process (default unlimited).
``after``
    Skip the first N eligible checks (default 0), to let a system warm
    up before the chaos starts.
``attempts``
    Fire only while the job attempt number is below this bound
    (default: every attempt). ``attempts=1`` makes ``worker.kill`` a
    crash-once fault whose retry succeeds; omitting it makes the job a
    poison pill that ends in quarantine.
``delay_ms``
    Injected delay for the sleep-type sites (``worker.hang``,
    ``engine.slow``, ``dispatcher.stall``).
``arg``
    Free numeric parameter; ``cache.*.truncate`` reads it as the
    fraction of the file to keep (default 0.5).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.errors import ConfigError

# ----------------------------------------------------------------------
# Injection sites. Each is a choke point the hardened execution path is
# instrumented to recover from; the spelling here is the spelling in
# specs, logs, and the ``repro_faults_*`` metric labels.
# ----------------------------------------------------------------------
#: SIGKILL the current worker process (fires only inside an isolated
#: per-job worker — never in a process the caller cannot afford to lose).
WORKER_KILL = "worker.kill"
#: Sleep ``delay_ms`` inside the worker body (models a wedged job; the
#: pool's per-job timeout interrupts it). Same isolation guard as kill.
WORKER_HANG = "worker.hang"
#: Raise :class:`~repro.faults.inject.InjectedFault` inside the worker
#: body (classified as a per-job error payload, never retried).
WORKER_EXCEPTION = "worker.exception"
#: Corrupt the cache file's text after reading it from disk.
CACHE_READ_CORRUPT = "cache.read.corrupt"
#: Truncate the cache file's text after reading it from disk.
CACHE_READ_TRUNCATE = "cache.read.truncate"
#: Corrupt the serialized entry before it is written to disk.
CACHE_WRITE_CORRUPT = "cache.write.corrupt"
#: Truncate the serialized entry before it is written to disk.
CACHE_WRITE_TRUNCATE = "cache.write.truncate"
#: Sleep ``delay_ms`` in the server dispatcher loop before executing.
DISPATCHER_STALL = "dispatcher.stall"
#: Sleep ``delay_ms`` at the top of every update-phase profile.
ENGINE_SLOW = "engine.slow"
#: Raise inside a *periodic*-engine profile (exercises the graceful
#: degradation path: ``pool.execute_spec_resilient`` re-runs the spec
#: with ``engine="columnar"``).
ENGINE_FAIL = "engine.fail"
#: SIGKILL a shard gateway child from the cluster supervisor's probe
#: loop (the supervisor is instrumented to fail over and restart it).
SHARD_KILL = "shard.kill"
#: SIGSTOP a shard gateway child so readiness probes time out (models a
#: wedged-but-alive process; the supervisor declares it dead).
SHARD_HANG = "shard.hang"
#: Discard one successful readiness probe at the supervisor (models a
#: lossy probe network; consecutive drops trigger spurious failover).
PROBE_DROP = "probe.drop"
#: Sleep ``delay_ms`` in the cluster router's request path.
ROUTER_SLOW = "router.slow"

SITES = (
    WORKER_KILL,
    WORKER_HANG,
    WORKER_EXCEPTION,
    CACHE_READ_CORRUPT,
    CACHE_READ_TRUNCATE,
    CACHE_WRITE_CORRUPT,
    CACHE_WRITE_TRUNCATE,
    DISPATCHER_STALL,
    ENGINE_SLOW,
    ENGINE_FAIL,
    SHARD_KILL,
    SHARD_HANG,
    PROBE_DROP,
    ROUTER_SLOW,
)

#: Sites that SIGKILL or wedge the current process; they only fire in a
#: disposable per-job worker (see ``repro.faults.inject``).
DESTRUCTIVE_SITES = frozenset({WORKER_KILL, WORKER_HANG})

#: Default injected delays (seconds) for the sleep-type sites when the
#: rule does not pin ``delay_ms``. ``worker.hang`` defaults long enough
#: that only a per-job timeout ends it — that is the point.
DEFAULT_DELAYS = {
    WORKER_HANG: 300.0,
    ENGINE_SLOW: 0.05,
    DISPATCHER_STALL: 0.25,
    ROUTER_SLOW: 0.05,
}

_RULE_PARAMS = frozenset(
    {"rate", "max", "after", "attempts", "delay_ms", "arg"}
)


@dataclass(frozen=True)
class FaultRule:
    """How one injection site misbehaves (see module docstring)."""

    site: str
    rate: float = 1.0
    max_fires: Optional[int] = None
    after: int = 0
    max_attempt: Optional[int] = None
    delay_ms: Optional[float] = None
    arg: Optional[float] = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ConfigError(
                f"unknown fault site {self.site!r}; choose from {SITES}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(
                f"fault rate must be in [0, 1], got {self.rate}"
            )
        if self.max_fires is not None and self.max_fires < 0:
            raise ConfigError(
                f"fault max must be >= 0, got {self.max_fires}"
            )
        if self.after < 0:
            raise ConfigError(
                f"fault after must be >= 0, got {self.after}"
            )
        if self.max_attempt is not None and self.max_attempt < 1:
            raise ConfigError(
                f"fault attempts must be >= 1, got {self.max_attempt}"
            )
        if self.delay_ms is not None and self.delay_ms < 0:
            raise ConfigError(
                f"fault delay_ms must be >= 0, got {self.delay_ms}"
            )

    @property
    def delay_seconds(self) -> float:
        """The injected delay this rule asks for, site default applied."""
        if self.delay_ms is not None:
            return self.delay_ms / 1000.0
        return DEFAULT_DELAYS.get(self.site, 0.0)

    def to_dict(self) -> dict:
        out: dict = {"site": self.site, "rate": self.rate}
        if self.max_fires is not None:
            out["max"] = self.max_fires
        if self.after:
            out["after"] = self.after
        if self.max_attempt is not None:
            out["attempts"] = self.max_attempt
        if self.delay_ms is not None:
            out["delay_ms"] = self.delay_ms
        if self.arg is not None:
            out["arg"] = self.arg
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultRule":
        unknown = sorted(set(data) - _RULE_PARAMS - {"site"})
        if unknown:
            raise ConfigError(
                f"unknown fault rule parameter(s) {unknown}; choose "
                f"from {sorted(_RULE_PARAMS)}"
            )
        if "site" not in data:
            raise ConfigError("a fault rule must name a site")
        try:
            return cls(
                site=str(data["site"]),
                rate=float(data.get("rate", 1.0)),
                max_fires=(
                    int(data["max"]) if "max" in data else None
                ),
                after=int(data.get("after", 0)),
                max_attempt=(
                    int(data["attempts"]) if "attempts" in data else None
                ),
                delay_ms=(
                    float(data["delay_ms"])
                    if "delay_ms" in data
                    else None
                ),
                arg=float(data["arg"]) if "arg" in data else None,
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad fault rule {dict(data)!r}: {exc}")


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus one rule per armed site."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        seen = set()
        for rule in self.rules:
            if rule.site in seen:
                raise ConfigError(
                    f"fault site {rule.site!r} armed twice in one plan"
                )
            seen.add(rule.site)

    def rule(self, site: str) -> Optional[FaultRule]:
        for rule in self.rules:
            if rule.site == site:
                return rule
        return None

    @property
    def sites(self) -> tuple[str, ...]:
        return tuple(rule.site for rule in self.rules)

    # ------------------------------------------------------------------
    # Serde: compact spec (REPRO_FAULTS) and JSON.
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a compact one-line spec or a JSON object."""
        text = text.strip()
        if not text:
            raise ConfigError("empty fault spec")
        if text.startswith("{"):
            try:
                data = json.loads(text)
            except ValueError as exc:
                raise ConfigError(f"bad JSON fault spec: {exc}")
            return cls.from_dict(data)
        seed = 0
        rules = []
        for segment in text.split(";"):
            segment = segment.strip()
            if not segment:
                continue
            if segment.startswith("seed="):
                try:
                    seed = int(segment[len("seed="):])
                except ValueError:
                    raise ConfigError(
                        f"bad fault seed in segment {segment!r}"
                    )
                continue
            site, _, params_text = segment.partition(":")
            rule_data: dict = {"site": site.strip()}
            if params_text:
                for pair in params_text.split(","):
                    key, eq, value = pair.partition("=")
                    if not eq:
                        raise ConfigError(
                            f"bad fault parameter {pair!r} in segment "
                            f"{segment!r} (expected key=value)"
                        )
                    rule_data[key.strip()] = value.strip()
            rules.append(FaultRule.from_dict(rule_data))
        return cls(seed=seed, rules=tuple(rules))

    def to_spec(self) -> str:
        """The compact one-line form (round-trips through :meth:`parse`)."""
        segments = [f"seed={self.seed}"]
        for rule in self.rules:
            params = []
            data = rule.to_dict()
            data.pop("site")
            for key, value in data.items():
                params.append(f"{key}={value:g}" if isinstance(
                    value, float) else f"{key}={value}")
            segments.append(
                rule.site + (":" + ",".join(params) if params else "")
            )
        return ";".join(segments)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        unknown = sorted(set(data) - {"seed", "rules"})
        if unknown:
            raise ConfigError(
                f"unknown fault plan key(s) {unknown}; expected "
                "'seed' and 'rules'"
            )
        rules: Sequence[Mapping] = data.get("rules", ())
        return cls(
            seed=int(data.get("seed", 0)),
            rules=tuple(FaultRule.from_dict(r) for r in rules),
        )
