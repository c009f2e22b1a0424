"""The in-process workloads: ``figures`` and ``fullrow``.

One *cold* operation starts from empty simulator caches, as every
``repro-run`` or fresh ``TrainingSimulator`` does.  After each cold
operation the workload repeats *hot* operations on the state it left
warm — what a user pays to re-render a figure or re-simulate a config
already profiled.  Every output is checked against ``reference.json``.
"""

from __future__ import annotations

import gc
import random
import statistics
import subprocess
import sys
import time

import metrics
import tracer
from calibrate import NOMINAL_S, Calibration
from common import (
    HERE,
    NoTrace,
    Tally,
    digest,
    golden_digest,
    load_reference,
    text_digest,
    vm_hwm_mb,
)
from repro.service.cache import ResultCache

#: The fullrow draw: optimizer × precision × timing grade.
OPTIMIZERS = ("sgd", "momentum_sgd", "nag")
PRECISIONS = ("8/32", "16/32", "8/16", "32/32")
TIMINGS = ("DDR4-2133", "DDR4-3200")
FULLROW_COLUMNS = 128

#: Set-up is measured this many times in child processes (median).
SETUP_PROBES = 5

#: A hot sample repeats whole rounds of hot operations, each followed
#: by one calibration loop, until it has taken at least this long.
HOT_BATCH_S = 0.6


def warm_up() -> bool:
    """Process-global warm-up: imports plus one untimed default
    ResNet-18 config, checked against the checked-in Fig. 9 golden."""
    import repro.experiments.runner  # noqa: F401  (imports every figure)
    from repro import TrainingSimulator, UpdatePhaseModel

    result = TrainingSimulator(update_model=UpdatePhaseModel()).simulate(
        "ResNet18"
    )
    return digest(result.to_dict()) == golden_digest()


def fullrow_config_id(optimizer: str, precision: str, timing: str) -> str:
    return f"{optimizer}|{precision}|{timing}"


def fullrow_draw(seed: int):
    """Endless seeded config sequence.

    Host cost depends mostly on the precision (``32/32`` needs no
    quantization and is the cheapest), then on the optimizer.  So the
    sequence comes in groups of four, each holding every precision
    once with both grades twice; three groups in a row hold every
    optimizer × precision pair once.  A run that stops part-way
    through the grid still sees an even mix."""
    rng = random.Random(seed)
    while True:
        optimizers = rng.sample(OPTIMIZERS, len(OPTIMIZERS))
        precisions = rng.sample(PRECISIONS, len(PRECISIONS))
        for shift in rng.sample(range(len(OPTIMIZERS)), len(OPTIMIZERS)):
            grades = rng.sample(TIMINGS * 2, len(PRECISIONS))
            group = [
                (optimizers[(i + shift) % len(optimizers)], prec, grade)
                for i, (prec, grade) in enumerate(zip(precisions, grades))
            ]
            rng.shuffle(group)
            yield from group


def simulate_fullrow(optimizer: str, precision: str, timing: str):
    """One cold full-row config: ``(simulator, result)``."""
    from repro import TrainingSimulator, UpdatePhaseModel
    from repro.dram.timing import PRESETS
    from repro.optim.precision import PRECISIONS as MIXES
    from repro.optim.registry import build_optimizer

    grade = PRESETS[timing]
    simulator = TrainingSimulator(
        build_optimizer(optimizer),
        MIXES[precision],
        grade,
        update_model=UpdatePhaseModel(
            timing=grade, columns_per_stripe=FULLROW_COLUMNS
        ),
    )
    return simulator, simulator.simulate("ResNet18")


class RecordingCache(ResultCache):
    """In-memory ``ResultCache`` that also keeps every ``(spec, result)``
    stored, so each result can be checked at full precision once the
    timed regeneration is over."""

    def __init__(self) -> None:
        super().__init__()
        self.stored: list = []

    def put(self, spec, result):
        self.stored.append((spec, result))
        return super().put(spec, result)


def settle() -> None:
    """Collect garbage before a timed phase, so that no operation pays
    for collecting what the one before it left behind."""
    gc.collect()


def hot_batch(round_, calibration, rounds=None):
    """Run ``round_()`` ``rounds`` times, or until :data:`HOT_BATCH_S`
    has passed when ``rounds`` is None: ``(reference seconds per round,
    outputs of every round)``.

    Each vCPU of a shared 2-vCPU VM slows by about x1.4 on and off every
    second or so.  A calibration loop timed right after each round runs
    at the same speed, so the ratio of round time to loop time does not
    depend on which state the host was in.
    """
    outputs = []
    hot = loops = 0.0
    settle()
    deadline = time.perf_counter() + HOT_BATCH_S
    while True:
        start = time.perf_counter()
        outputs.append(round_())
        hot += time.perf_counter() - start
        loops += calibration.loop()
        if len(outputs) == rounds or (
            rounds is None and time.perf_counter() >= deadline
        ):
            return NOMINAL_S * hot / loops, outputs


def regenerate_figures(trace=NoTrace()):
    """One cold in-process ``repro-run``: ``(context, texts)``."""
    from repro.experiments.common import ExperimentContext
    from repro.experiments.runner import EXPERIMENTS
    from repro.service.pool import clear_model_cache

    clear_model_cache()
    ctx = ExperimentContext(jobs=1, cache=RecordingCache())
    texts = {}
    for name, run in EXPERIMENTS.items():
        with trace.span(f"experiments.{name}"):
            texts[name] = run(ctx)
    return ctx, texts


def figures_stdout(texts: dict) -> str:
    """What ``repro-run`` prints to stdout for these experiment texts."""
    return "".join(f"{'=' * 72}\n{text}\n" for text in texts.values())


def figures_results(ctx) -> dict:
    """Full-precision digest of every result the regeneration stored,
    keyed by the digest of its spec."""
    return {
        text_digest(spec.canonical_json()): digest(result.to_dict())
        for spec, result in ctx.cache.stored
    }


class Figures:
    """Cold: a full figure regeneration.  Hot: rounds of all eight
    experiments re-rendered from the warm context."""

    TRACED_HOT_ROUNDS = 2

    def __init__(self, seed: int, reference: dict, hot_rounds=None) -> None:
        self.reference = reference["figures"]
        self.hot_rounds = hot_rounds

    def step(self, tally: Tally, trace, calibration) -> tuple[float, float]:
        """``(cold host seconds, hot reference seconds)``."""
        from repro.experiments.runner import EXPERIMENTS

        settle()
        start = time.perf_counter()
        ctx, texts = regenerate_figures(trace)
        cold = time.perf_counter() - start
        per_round, rounds = hot_batch(
            lambda: {name: run(ctx) for name, run in EXPERIMENTS.items()},
            calibration,
            self.hot_rounds,
        )
        hot = per_round / len(EXPERIMENTS)
        with trace.paused():
            tally.check(
                text_digest(figures_stdout(texts)) == self.reference["stdout"],
                "figures stdout",
            )
            results = figures_results(ctx)
            expected = self.reference["results"]
            for key in expected.keys() | results.keys():
                tally.check(
                    results.get(key) == expected.get(key),
                    f"figures result {key[:12]}",
                )
            for warm in rounds:
                for name, text in warm.items():
                    tally.check(
                        text_digest(text)
                        == self.reference["experiments"][name],
                        f"warm {name}",
                    )
        return cold, hot


class Fullrow:
    """Cold: one 128-column ResNet-18 config on a fresh model.  Hot:
    re-simulates of the same config on the warm simulator."""

    TRACED_HOT_ROUNDS = 20

    def __init__(self, seed: int, reference: dict, hot_rounds=None) -> None:
        self.reference = reference["fullrow"]
        self.draw = fullrow_draw(seed)
        self.hot_rounds = hot_rounds

    def step(self, tally: Tally, trace, calibration) -> tuple[float, float]:
        """``(cold host seconds, hot reference seconds)``."""
        config = next(self.draw)
        settle()
        start = time.perf_counter()
        simulator, result = simulate_fullrow(*config)
        cold = time.perf_counter() - start
        hot, warm = hot_batch(
            lambda: simulator.simulate("ResNet18"),
            calibration,
            self.hot_rounds,
        )
        expected = self.reference[fullrow_config_id(*config)]
        with trace.paused():
            tally.check(
                digest(result.to_dict()) == expected, f"config {config}"
            )
            for result in warm:
                tally.check(
                    digest(result.to_dict()) == expected, f"warm {config}"
                )
        return cold, hot


WORKLOADS = {"figures": Figures, "fullrow": Fullrow}


def measure(workload, tally: Tally, seconds: float, calibration):
    """Cold and hot samples (one of each per step, in reference
    seconds) from steps run until ``seconds`` elapse.  A cold sample is
    scaled by the loops timed just before it and in the hot batch just
    after it."""
    cold, hot = [], []
    deadline = time.perf_counter() + seconds
    while not cold or time.perf_counter() < deadline:
        mark = calibration.mark()
        calibration.sample()
        cold_s, hot_s = workload.step(tally, NoTrace(), calibration)
        cold.append(cold_s * calibration.scale(mark))
        hot.append(hot_s)
    return cold, hot


def measure_traced(
    untraced, traced, tally: Tally, seconds: float, calibration
):
    """Steps run in pairs until ``seconds`` elapse: one step of
    ``untraced``, then the same seeded step of ``traced`` with spans
    recorded.  Returns the span totals and the cold-time ratios of the
    pairs; run back to back, the two halves of a pair see the same host
    speed."""
    recorder = tracer.Recorder()
    ratios = []
    deadline = time.perf_counter() + seconds
    while not ratios or time.perf_counter() < deadline:
        calibration.sample()
        plain, _ = untraced.step(tally, NoTrace(), calibration)
        recorder.install()
        try:
            spanned, _ = traced.step(tally, recorder, calibration)
        finally:
            recorder.uninstall()
        ratios.append(spanned / plain)
    calibration.sample()
    return tracer.aggregate(recorder.take()), ratios


def probe_setup() -> float:
    """Seconds from spawning a fresh benchmark process to the end of
    its warm-up (imports plus the untimed warm-up config)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-probe"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of ``figures`` or ``fullrow``."""
    reference = load_reference()
    tally = Tally()
    calibration = Calibration()
    if not trace:
        setups = [probe_setup() for _ in range(SETUP_PROBES)]
    tally.check(warm_up(), "golden fig9 ResNet18")
    workload = WORKLOADS[name]
    if not trace:
        cold, hot = measure(
            workload(seed, reference), tally, seconds, calibration
        )
        # Loop times beside a ~1 s probe in another process swing more
        # than the probe does; the run's mean loop time scales it.
        values = metrics.end_to_end(
            statistics.median(setups) * calibration.scale(),
            vm_hwm_mb(),
            tally,
            cold_p50_s=statistics.median(cold),
            hot_p50_s=statistics.median(hot),
            cold_per_s=len(cold) / sum(cold),
        )
    else:
        # A fixed number of hot rounds keeps the per-cold-op layer
        # counts the same from run to run.
        totals, ratios = measure_traced(
            workload(seed, reference, workload.TRACED_HOT_ROUNDS),
            workload(seed, reference, workload.TRACED_HOT_ROUNDS),
            tally,
            seconds,
            calibration,
        )
        values = metrics.per_layer(
            totals, len(ratios),
            {"trace.overhead_fraction": statistics.median(ratios) - 1},
            calibration.scale(),
        )
    return {
        "tally": tally, "metrics": values, "scale": calibration.scale()
    }
