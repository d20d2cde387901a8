"""Episode loop of the whole-round benchmark.

A run is a sequence of whole *episodes*.  Each episode builds a fresh
``OliveSystem`` from the generated inputs and runs one warm-up round --
together the set-up, timed as ``setup_s`` -- then the workload's timed
rounds.  A run holds as many whole episodes as fit in its time, and at
least two, so set-up is measured several times and every run attempts
whole episodes of the same rounds.  Peak memory is read at the end of
the first episode: the inputs plus one deployment through all its
rounds.  Later episodes add only the allocator's history (which heap
holes a freed deployment left), and that varies from run to run.  Every round's released update is checked
after its timed window closes (see :mod:`checks`).

With tracing, episodes alternate untraced / traced: the traced ones give
the per-layer ledger, and the difference of the two kinds' median round
times is the tracing overhead.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans
from repro.sgx.crypto import Ciphertext
from repro.sgx.crypto import open_sealed as _open_sealed
from workloads import CLIP, DELTA, NOISE_MULTIPLIER, SERVER_LR, Inputs, build_system

#: Episodes per run, at least.
MIN_EPISODES = 2


def peak_rss() -> float:
    """The process's peak resident set so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class NoiseTap:
    """Keeps the return value of ``Enclave.gauss_vector`` for the checks."""

    def __init__(self) -> None:
        self.last = None
        self._patch = spans.Patch()

    def __enter__(self) -> "NoiseTap":
        tap = self

        def make(fn):
            def gauss_vector(*args, **kwargs):
                tap.last = fn(*args, **kwargs)
                return tap.last
            return gauss_vector

        if not self._patch.wrap("repro.sgx.enclave", "Enclave.gauss_vector",
                                make):
            raise checks.CheckFailed("Enclave.gauss_vector is gone: the "
                                     "noise check cannot capture noise")
        return self

    def __exit__(self, *exc) -> None:
        self._patch.restore()

    def take(self):
        noise, self.last = self.last, None
        if noise is None:
            raise checks.CheckFailed("the round drew no noise vector")
        return noise


@dataclass
class Episode:
    """Per-episode record: timings, check inputs and round outcomes."""

    traced: bool
    setup_s: float = 0.0
    round_s: list[float] = field(default_factory=list)
    accepted: list[int] = field(default_factory=list)   # timed rounds
    attempted: int = 0
    failed: int = 0
    epsilons: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)
    roots: list[str] = field(default_factory=list)
    accepted_sets: list[list[int]] = field(default_factory=list)


@dataclass
class Result:
    """Everything one run measured."""

    episodes: list[Episode]
    tracer: spans.Tracer | None
    missing: list[str]
    peak_rss_mb: float     # high-water mark at the end of the first episode

    def _untraced(self):
        return [ep for ep in self.episodes if not ep.traced]

    @property
    def attempted(self) -> int:
        return sum(ep.attempted for ep in self.episodes)

    @property
    def failed(self) -> int:
        return sum(ep.failed for ep in self.episodes)

    def end_to_end(self) -> dict[str, float]:
        eps = self._untraced()
        rounds = [s for ep in eps for s in ep.round_s]
        wall = sum(rounds)
        return {
            "setup_s": statistics.median(ep.setup_s for ep in eps),
            "round_s": statistics.median(rounds),
            "uploads_per_s": sum(sum(ep.accepted) for ep in eps) / wall,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self) -> dict[str, float]:
        book = spans.ledger(self.tracer.spans)
        n = max(1, book["rounds"])
        out = {f"{name}_s": book["self"].get(name, 0.0) / n
               for name in spans.LAYERS}
        out.update({name: book["counts"].get(name, 0) / n
                    for name in spans.COUNTS})
        setups = max(1, book["setups"])
        out["sgx.ra_s"] = book["ra_s"] / setups
        out["sgx.ra_clients"] = book["ra_clients"] / setups
        out["round.unattributed_s"] = book["self"].get(spans.ROUND, 0.0) / n
        traced = [s for ep in self.episodes if ep.traced for s in ep.round_s]
        untraced = [s for ep in self._untraced() for s in ep.round_s]
        out["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced))
        out["round.wall_s"] = book["round_wall_s"] / n
        return out


def _check_round(system, inputs: Inputs, log, noise, ep: Episode) -> int:
    """Independent checks of one completed round; returns uploads."""
    wl = inputs.workload
    accepted = list(log.participants)
    blobs = log.cohort.ciphertext_bytes(accepted)
    plaintexts = [
        _open_sealed(system.client_keys[cid], Ciphertext.from_bytes(blobs[cid]))
        for cid in accepted
    ]
    uploads, weights = checks.upload_sum(plaintexts, system.d)
    checks.check_aggregate(log.weights_before, log.weights_after,
                           wl.denominator, SERVER_LR, uploads, noise)
    if wl.access_traced:
        # A missing trace counts as zero accesses and fails the check.
        recorded = 0 if log.trace is None else len(log.trace)
        checks.check_oram_trace(recorded, weights, system.d)
    if wl.audit:
        ep.roots.append(checks.merkle_root(blobs))
        ep.accepted_sets.append(sorted(accepted))
    ep.epsilons.append(log.epsilon)
    ep.rates.append(len(plaintexts) / wl.n_clients if wl.realized_accounting
                    else wl.sample_rate)
    return len(plaintexts)


def _round(system, inputs: Inputs, ep: Episode, tap: NoiseTap,
           pool: checks.NoisePool, tracer: spans.Tracer | None,
           timed: bool) -> float:
    """Run, time and check one round; returns its wall time."""
    wl = inputs.workload
    audit_before = (Path(system.audit.path).stat().st_size
                    if wl.audit else 0)
    ep.attempted += 1
    t0 = time.perf_counter()
    handle = tracer.begin(spans.ROUND, t0, timed=timed) if tracer else None
    try:
        log = system.run_round(traced=wl.access_traced)
    except Exception:
        # A round that raises (or aborts on quorum) counts as failed.
        t1 = time.perf_counter()
        if tracer:
            tracer.end(handle, t1)
        ep.failed += 1
        tap.last = None
        return t1 - t0
    t1 = time.perf_counter()
    noise = tap.take()
    if tracer:
        counts = {}
        if log.trace is not None:
            counts["sgx.trace_accesses"] = len(log.trace)
            counts["sgx.trace_mb"] = log.trace.nbytes / 1e6
        if wl.audit:
            counts["audit.bytes_logged"] = (
                Path(system.audit.path).stat().st_size - audit_before)
        tracer.end(handle, t1, counts)
    uploads = _check_round(system, inputs, log, noise, ep)
    pool.add(noise)
    if timed:
        ep.round_s.append(t1 - t0)
        ep.accepted.append(uploads)
    return t1 - t0


def run_episode(inputs: Inputs, workdir: Path, index: int, tap: NoiseTap,
                pool: checks.NoisePool,
                tracer: spans.Tracer | None) -> Episode:
    """Set up one deployment, run its rounds, check the episode."""
    wl = inputs.workload
    ep = Episode(traced=tracer is not None)
    audit_path = workdir / f"audit-{index}.jsonl" if wl.audit else None
    t0 = time.perf_counter()
    handle = tracer.begin(spans.SETUP, t0) if tracer else None
    system = build_system(inputs, audit_path)
    try:
        built = time.perf_counter() - t0
        # Set-up ends with the warm-up round; its output check is untimed.
        ep.setup_s = built + _round(system, inputs, ep, tap, pool, tracer,
                                    timed=False)
        if tracer:
            tracer.end(handle, time.perf_counter())
        for _ in range(wl.rounds):
            _round(system, inputs, ep, tap, pool, tracer, timed=True)
    finally:
        system.close()
        if system.audit is not None:
            system.audit.close()
    if ep.epsilons:
        checks.check_epsilon(ep.epsilons, ep.rates, NOISE_MULTIPLIER, DELTA)
    if audit_path is not None:
        checks.check_audit_log(audit_path, ep.roots, ep.accepted_sets)
        audit_path.unlink()
    return ep


def run(inputs: Inputs, seconds: float, trace: bool, workdir: Path) -> Result:
    """Run the whole episodes that fit in ``seconds``, at least two.

    Traced runs add episodes in untraced / traced pairs.
    """
    wl = inputs.workload
    workdir.mkdir(parents=True, exist_ok=True)
    pool = checks.NoisePool()
    tracer = spans.Tracer() if trace else None
    missing: list[str] = []
    episodes: list[Episode] = []
    start = time.perf_counter()
    with NoiseTap() as tap:
        while True:
            traced = trace and len(episodes) % 2 == 1
            if traced:
                missing = tracer.install()
            try:
                episodes.append(run_episode(inputs, workdir, len(episodes),
                                            tap, pool,
                                            tracer if traced else None))
            finally:
                if traced:
                    tracer.uninstall()
            # Free the finished deployment (it holds reference cycles)
            # before the next one is built, so peak memory is one
            # episode's, not a matter of when the collector runs.
            gc.collect()
            if len(episodes) == 1:
                peak_rss_mb = peak_rss()
            done = len(episodes)
            elapsed = time.perf_counter() - start
            step = (2 if trace else 1) * elapsed / done
            if (done >= MIN_EPISODES and not (trace and done % 2)
                    and elapsed + step > seconds):
                break
    pool.check(NOISE_MULTIPLIER * CLIP)
    if not any(ep.round_s for ep in episodes if not ep.traced):
        raise checks.CheckFailed("no timed round completed")
    return Result(episodes=episodes, tracer=tracer, missing=missing,
                  peak_rss_mb=peak_rss_mb)
