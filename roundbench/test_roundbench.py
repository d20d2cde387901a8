"""Self-tests of the whole-round benchmark at toy sizes (seconds to run).

Run from the repository root::

    python3 -m pytest roundbench -q
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import checks
import engine
import spans
from repro.dp.accountant import PrivacyAccountant
from repro.sgx.crypto import Ciphertext, open_sealed
from workloads import SERVER_LR, WORKLOADS, build_system, make_inputs


def toy(name: str):
    """The named workload's shape on the 378-parameter model."""
    wl = WORKLOADS[name]
    return dataclasses.replace(wl, spec="tiny", model="tiny_mlp", rounds=2,
                               n_clients=30 if wl.dropout_rate else 10)


def one_round(name: str, tmp_path, rounds: int = 1):
    """Run ``rounds`` rounds of a toy deployment; returns system, logs, noise."""
    inputs = make_inputs(toy(name), seed=3)
    system = build_system(inputs, tmp_path / "audit.jsonl")
    logs, noises = [], []
    with engine.NoiseTap() as tap:
        for _ in range(rounds):
            logs.append(system.run_round(traced=inputs.workload.access_traced))
            noises.append(tap.take())
    system.close()
    if system.audit is not None:
        system.audit.close()
    return inputs, system, logs, noises


def plaintexts(system, log):
    blobs = log.cohort.ciphertext_bytes(log.participants)
    return [open_sealed(system.client_keys[c], Ciphertext.from_bytes(blobs[c]))
            for c in log.participants]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_shape_runs_end_to_end(name, trace, tmp_path):
    inputs = make_inputs(toy(name), seed=1)
    result = engine.run(inputs, seconds=0, trace=trace, workdir=tmp_path)
    assert len(result.episodes) == engine.MIN_EPISODES
    assert result.attempted == engine.MIN_EPISODES * (1 + inputs.workload.rounds)
    assert result.failed == 0
    e2e = result.end_to_end()
    assert all(v > 0 for v in e2e.values())
    if trace:
        layer = result.per_layer()
        assert layer["sgx.ra_clients"] == inputs.workload.n_clients
        assert layer["round.wall_s"] > 0


def test_traced_layers_plus_residual_equal_round_wall(tmp_path):
    inputs = make_inputs(toy("mnist_advanced_sharded"), seed=2)
    result = engine.run(inputs, seconds=0, trace=True, workdir=tmp_path)
    layer = result.per_layer()
    total = sum(layer[f"{n}_s"] for n in spans.LAYERS)
    total += layer["round.unattributed_s"]
    assert total == pytest.approx(layer["round.wall_s"], rel=1e-9, abs=1e-12)
    assert layer["round.unattributed_s"] >= 0
    traced = [s for ep in result.episodes if ep.traced for s in ep.round_s]
    assert layer["round.wall_s"] == pytest.approx(sum(traced) / len(traced))
    path = tmp_path / "spans.jsonl"
    result.tracer.write(path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(result.tracer.spans)
    assert {"id", "parent", "name", "start", "end"} <= set(json.loads(lines[0]))


def test_aggregate_check_fails_with_one_upload_dropped(tmp_path):
    inputs, system, (log,), (noise,) = one_round("mnist_advanced_sharded", tmp_path)
    wl = inputs.workload
    texts = plaintexts(system, log)
    assert len(texts) >= 2
    full, _ = checks.upload_sum(texts, system.d)
    checks.check_aggregate(log.weights_before, log.weights_after,
                           wl.denominator, SERVER_LR, full, noise)
    short, _ = checks.upload_sum(texts[1:], system.d)
    with pytest.raises(checks.CheckFailed):
        checks.check_aggregate(log.weights_before, log.weights_after,
                               wl.denominator, SERVER_LR, short, noise)


def test_noise_check_fails_on_wrong_scale():
    rng = np.random.default_rng(0)
    good, bad = checks.NoisePool(), checks.NoisePool()
    good.add(rng.normal(0.0, 1.12, 50_000))
    bad.add(rng.normal(0.0, 1.12 * 1.05, 50_000))
    good.check(1.12)
    with pytest.raises(checks.CheckFailed):
        bad.check(1.12)


@pytest.mark.parametrize("rates", [[0.2] * 3, [1.0] * 2,
                                   [0.08, 0.0, 0.1, 0.085, 0.08]])
def test_epsilon_check_fails_when_perturbed(rates):
    acct = PrivacyAccountant(sampling_rate=rates[0], noise_multiplier=1.12,
                             delta=1e-5)
    epsilons = []
    for q in rates:
        acct.step_realized(q)
        epsilons.append(acct.epsilon)
    checks.check_epsilon(epsilons, rates, 1.12, 1e-5)
    with pytest.raises(checks.CheckFailed):
        checks.check_epsilon(epsilons[:-1] + [epsilons[-1] + 1e-3], rates,
                             1.12, 1e-5)


def test_epsilon_check_fails_when_epsilon_decreases():
    with pytest.raises(checks.CheckFailed):
        checks.check_epsilon([1.0, 0.9, 1.1], [0.1] * 3, 1.12, 1e-5)


def test_audit_check_fails_with_one_ciphertext_byte_flipped(tmp_path):
    _, system, logs, _ = one_round("mnist_advanced_sharded", tmp_path, rounds=2)
    blobs = [lg.cohort.ciphertext_bytes(lg.participants) for lg in logs]
    accepted = [sorted(lg.participants) for lg in logs]
    roots = [checks.merkle_root(b) for b in blobs]
    path = tmp_path / "audit.jsonl"
    assert checks.check_audit_log(path, roots, accepted) == 2

    cid = accepted[1][0]
    flipped = dict(blobs[1])
    flipped[cid] = bytes([flipped[cid][0] ^ 1]) + flipped[cid][1:]
    with pytest.raises(checks.CheckFailed, match="Merkle"):
        checks.check_audit_log(path, [roots[0], checks.merkle_root(flipped)],
                               accepted)

    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record["epsilon"] += 1.0
    lines[1] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="chain"):
        checks.check_audit_log(path, roots, accepted)


def test_oram_check_fails_with_one_access_removed(tmp_path):
    _, system, (log,), _ = one_round("long_horizon", tmp_path)
    _, weights = checks.upload_sum(plaintexts(system, log), system.d)
    recorded = len(log.trace)
    checks.check_oram_trace(recorded, weights, system.d)
    with pytest.raises(checks.CheckFailed):
        checks.check_oram_trace(
            recorded - checks.entries_per_access(system.d), weights, system.d)


def test_parse_upload_rejects_bad_length():
    with pytest.raises(checks.CheckFailed):
        checks.parse_upload(b"\x00\x00\x00\x02" + b"\x00" * 12)
