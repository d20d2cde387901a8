"""Workload definitions for the whole-round OLIVE benchmark.

A workload fixes the deployment (model, population, sampling rate,
aggregator, executor, faults, audit) and how many timed rounds one
episode runs.  ``--seed`` drives only the generated inputs: the
synthetic client data, its label partition and the model's initial
weights.  The deployment's own seed -- the enclave RNG behind secure
sampling and DP noise, and the fault-plan entropy -- is a fixed
constant of each workload, so every seed runs cohorts of the same
sizes and the amount of work per round does not depend on the seed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.audit import AuditRecorder, make_manifest
from repro.core import OliveConfig, OliveSystem
from repro.fl import SPECS, SyntheticClassData, TrainingConfig, build_model, partition_clients
from repro.runtime import FaultConfig, RuntimeConfig, ShardConfig

LABELS_PER_CLIENT = 2
SAMPLES_PER_CLIENT = 16
SPARSE_RATIO = 0.1            # top-k keeps 10 % of the coordinates
NOISE_MULTIPLIER = 1.12
CLIP = 1.0
SERVER_LR = 1.0
DELTA = 1e-5
SYSTEM_SEED = 7               # enclave RNG + fault-plan entropy
TRAINING = TrainingConfig(local_epochs=1, local_lr=0.2, batch_size=8,
                          sparse_ratio=SPARSE_RATIO, clip=CLIP)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fixed OLIVE deployment and round count."""

    name: str
    spec: str                     # dataset spec (``repro.fl.SPECS`` key)
    model: str                    # ``repro.fl.build_model`` name
    n_clients: int
    sample_rate: float
    aggregator: str               # the aggregator, or the leaf kernel
    executor: str                 # cohort executor (single process)
    rounds: int                   # timed rounds per episode
    shards: int | None = None     # leaf enclaves; None = one enclave
    dropout_rate: float = 0.0     # injected client dropout
    audit: bool = False           # attach an ``AuditRecorder``

    @property
    def config(self) -> OliveConfig:
        return OliveConfig(
            sample_rate=self.sample_rate, server_lr=SERVER_LR,
            noise_multiplier=NOISE_MULTIPLIER, delta=DELTA,
            aggregator=self.aggregator, training=TRAINING,
        )

    @property
    def runtime(self) -> RuntimeConfig:
        return RuntimeConfig(
            executor=self.executor,
            faults=FaultConfig(dropout_rate=self.dropout_rate),
        )

    @property
    def shard_config(self) -> ShardConfig | None:
        if self.shards is None:
            return None
        return ShardConfig(shards=self.shards, aggregator=self.aggregator)

    @property
    def access_traced(self) -> bool:
        """Whether rounds run ``run_round(traced=True)``: Path ORAM only."""
        return self.aggregator == "path_oram"

    @property
    def realized_accounting(self) -> bool:
        """Whether the accountant charges realized cohort fractions."""
        return self.runtime.use_realized_accounting()

    @property
    def denominator(self) -> float:
        """The DP-FedAvg denominator ``qN`` the enclave divides by."""
        return max(1.0, self.sample_rate * self.n_clients)


WORKLOADS: dict[str, Workload] = {
    # The paper's headline configuration: Advanced (Algorithm 4) over an
    # MNIST-shaped MLP, run by two leaf enclaves of the sharded service
    # with the audit recorder attached.  Each leaf sorts a 2^17- or
    # 2^18-entry network twice per round, and the sorts dominate; the
    # client path, unseal + decode, shard bookkeeping and the audit
    # commit each take a few per cent.
    "mnist_advanced_sharded": Workload(
        name="mnist_advanced_sharded", spec="mnist", model="mnist_mlp",
        n_clients=100, sample_rate=0.28, aggregator="advanced",
        executor="vectorized", rounds=9, shards=2, audit=True,
    ),
    # Many cheap rounds on the serial (C = 1) path with realized-rate
    # accounting under 20 % dropout: the accountant and the access-traced
    # Path ORAM dominate, and the accountant's cost grows with the
    # number of distinct realized rates seen so far.
    "long_horizon": Workload(
        name="long_horizon", spec="tiny", model="tiny_mlp",
        n_clients=200, sample_rate=0.1, aggregator="path_oram",
        executor="serial", rounds=16, dropout_rate=0.2,
    ),
}


@dataclass
class Inputs:
    """Everything generated from ``--seed`` before any timing starts."""

    workload: Workload
    seed: int
    clients: list
    model: object


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate the client data and the initial model from ``seed``."""
    gen = SyntheticClassData(SPECS[workload.spec], seed=seed)
    clients = partition_clients(
        gen, workload.n_clients, SAMPLES_PER_CLIENT, LABELS_PER_CLIENT,
        seed=seed + 1,
    )
    model = build_model(workload.model, seed=seed + 2)
    return Inputs(workload=workload, seed=seed, clients=clients, model=model)


def build_system(inputs: Inputs, audit_path=None) -> OliveSystem:
    """A fresh OLIVE deployment over the generated inputs.

    Construction runs enclave creation and remote attestation of every
    client; with ``audit_path`` an :class:`AuditRecorder` writing there
    is attached.
    """
    wl = inputs.workload
    recorder = None
    if wl.audit:
        manifest = make_manifest(
            data={"spec": wl.spec, "seed": inputs.seed,
                  "n_clients": wl.n_clients,
                  "samples_per_client": SAMPLES_PER_CLIENT,
                  "labels_per_client": LABELS_PER_CLIENT,
                  "partition_seed": inputs.seed + 1},
            model={"name": wl.model, "seed": inputs.seed + 2},
            config=wl.config, runtime=wl.runtime, shards=wl.shard_config,
            seed=SYSTEM_SEED,
        )
        recorder = AuditRecorder(audit_path, manifest)
    return OliveSystem(
        copy.deepcopy(inputs.model), inputs.clients, wl.config,
        seed=SYSTEM_SEED, runtime=wl.runtime, shards=wl.shard_config,
        audit=recorder,
    )
