"""Independent output checks of the whole-round benchmark.

Each check recomputes a released value from the benchmark's own view of
the round, without the program's decoder, Merkle code or accountant:

* **aggregate** -- the released delta times ``qN / server_lr`` equals
  the sum of the accepted uploads (parsed from their opened plaintext
  with this module's own big-endian ``(u32, f64)`` record layout) plus
  the round's noise vector, to :data:`SUM_RTOL` in the infinity norm;
* **noise** -- pooled noise has mean ~0 and standard deviation
  ``noise_multiplier x clip``, both within :data:`NOISE_Z` standard
  errors;
* **epsilon** -- the final epsilon equals an RDP composition computed by
  numerical integration of the sampled-Gaussian Renyi divergence
  (Mironov, Talwar & Zhang 2019, arXiv:1908.10530), closed form
  ``alpha / (2 sigma^2)`` at q = 1, to :data:`EPS_RTOL`; epsilon never
  decreases from one round to the next;
* **audit** -- every logged Merkle root equals a root recomputed with
  ``hashlib`` over the accepted ciphertexts (RFC 6962 tree shape, the
  log's domain-separated leaf/node prefixes) and the record hash chain
  links from genesis to the seal;
* **oram** -- each access-traced round records exactly the number of
  tree accesses Path ORAM's definition gives for its public sizes.

Every failure raises :class:`CheckFailed`.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

SUM_RTOL = 1e-9
EPS_RTOL = 1e-6
NOISE_Z = 6.0

#: The sealed sparse-gradient plaintext: u32 count, then ``count``
#: big-endian (u32 index, f64 value) records.
RECORD = np.dtype([("i", ">u4"), ("v", ">f8")])

#: RDP orders the epsilon check composes over.
ORDERS = tuple(range(2, 64)) + (64, 80, 96, 128, 192, 256, 512)


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent check."""


# ----------------------------------------------------------------------
# Aggregate = sum of uploads + noise
# ----------------------------------------------------------------------


def parse_upload(plaintext: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of one opened sparse-gradient upload."""
    if len(plaintext) < 4:
        raise CheckFailed("upload plaintext shorter than its header")
    (k,) = struct.unpack(">I", plaintext[:4])
    if len(plaintext) != 4 + RECORD.itemsize * k:
        raise CheckFailed(f"upload plaintext length does not fit {k} records")
    records = np.frombuffer(plaintext, dtype=RECORD, count=k, offset=4)
    return records["i"].astype(np.int64), records["v"].astype(np.float64)


def upload_sum(plaintexts: list[bytes], d: int) -> tuple[np.ndarray, int]:
    """Dense sum of the uploads and their total record count."""
    total = np.zeros(d)
    weights = 0
    for plaintext in plaintexts:
        idx, val = parse_upload(plaintext)
        if idx.size and int(idx.max()) >= d:
            raise CheckFailed("upload index outside the model")
        np.add.at(total, idx, val)
        weights += idx.size
    return total, weights


def check_aggregate(weights_before, weights_after, denominator: float,
                    server_lr: float, uploads: np.ndarray,
                    noise: np.ndarray) -> float:
    """Released delta x denominator / lr == uploads + noise; returns error."""
    released = (np.asarray(weights_after) - np.asarray(weights_before))
    lhs = released * denominator / server_lr
    rhs = uploads + np.asarray(noise, dtype=np.float64)
    scale = float(np.max(np.abs(rhs))) if rhs.size else 0.0
    err = float(np.max(np.abs(lhs - rhs))) / max(scale, 1e-300)
    if not err <= SUM_RTOL:
        raise CheckFailed(
            f"released aggregate differs from uploads + noise by {err:.3g} "
            f"(relative, infinity norm; tolerance {SUM_RTOL:g})")
    return err


class NoisePool:
    """Running moments of every noise coordinate released in a run."""

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self.total_sq = 0.0

    def add(self, noise) -> None:
        arr = np.asarray(noise, dtype=np.float64)
        self.n += arr.size
        self.total += float(arr.sum())
        self.total_sq += float(np.dot(arr, arr))

    def check(self, sigma: float) -> tuple[float, float]:
        """Mean ~ 0 and std ~ sigma within NOISE_Z standard errors."""
        if self.n < 2:
            raise CheckFailed("no noise was captured")
        mean = self.total / self.n
        var = (self.total_sq - self.n * mean * mean) / (self.n - 1)
        std = math.sqrt(max(var, 0.0))
        mean_tol = NOISE_Z * sigma / math.sqrt(self.n)
        std_tol = NOISE_Z / math.sqrt(2.0 * self.n)
        if abs(mean) > mean_tol:
            raise CheckFailed(f"pooled noise mean {mean:.4g} exceeds "
                              f"+-{mean_tol:.3g} over {self.n} draws")
        if abs(std / sigma - 1.0) > std_tol:
            raise CheckFailed(f"pooled noise std {std:.5g} is not "
                              f"{sigma:g} within {std_tol:.3%}")
        return mean, std


# ----------------------------------------------------------------------
# Epsilon by numerical integration of the Renyi divergence
# ----------------------------------------------------------------------

_RDP_CACHE: dict[tuple[float, float], np.ndarray] = {}


def _logsumexp(x: np.ndarray) -> float:
    top = float(np.max(x))
    return top + math.log(float(np.sum(np.exp(x - top))))


def rdp_integrated(q: float, sigma: float) -> np.ndarray:
    """Per-order RDP of one Poisson-subsampled Gaussian step.

    ``A(alpha) = E_{z ~ N(0, s^2)} [((1 - q) + q exp((2z - 1) / 2s^2))^alpha]``
    integrated by the trapezoid rule in log space; the integrand's
    modes lie in ``[0, alpha]``, so the grid spans it with 15 sigma of
    margin at a step of ``min(sigma, sigma^2) / 100``.
    """
    key = (float(q), float(sigma))
    if key in _RDP_CACHE:
        return _RDP_CACHE[key]
    orders = np.asarray(ORDERS, dtype=np.float64)
    if q >= 1.0:
        out = orders / (2.0 * sigma * sigma)
    else:
        s2 = sigma * sigma
        h = min(sigma, s2) / 100.0
        log_norm = -0.5 * math.log(2.0 * math.pi * s2)
        out = np.empty(len(ORDERS))
        for j, alpha in enumerate(ORDERS):
            z = np.arange(-15.0 * sigma, alpha + 15.0 * sigma, h)
            log_mix = np.logaddexp(math.log1p(-q),
                                   math.log(q) + (2.0 * z - 1.0) / (2.0 * s2))
            log_f = log_norm - z * z / (2.0 * s2) + alpha * log_mix
            # Trapezoid weights: interior h, end points h / 2.
            log_f[0] -= math.log(2.0)
            log_f[-1] -= math.log(2.0)
            out[j] = (_logsumexp(log_f) + math.log(h)) / (alpha - 1.0)
    _RDP_CACHE[key] = out
    return out


def epsilon_from_rates(rates: list[float], sigma: float, delta: float) -> float:
    """(epsilon, delta) after composing one step at each rate."""
    total = np.zeros(len(ORDERS))
    for q in rates:
        if q > 0.0:
            total = total + rdp_integrated(q, sigma)
    if not np.any(total):
        return 0.0
    orders = np.asarray(ORDERS, dtype=np.float64)
    return float(np.min(total + math.log(1.0 / delta) / (orders - 1.0)))


def check_epsilon(epsilons: list[float], rates: list[float], sigma: float,
                  delta: float) -> float:
    """Final epsilon matches the integration; epsilon never decreases."""
    for prev, cur in zip(epsilons, epsilons[1:]):
        if cur < prev:
            raise CheckFailed(f"epsilon decreased from {prev!r} to {cur!r}")
    expected = epsilon_from_rates(rates, sigma, delta)
    got = epsilons[-1]
    if not abs(got - expected) <= EPS_RTOL * max(1.0, abs(expected)):
        raise CheckFailed(f"epsilon {got!r} != integrated {expected!r} "
                          f"after {len(rates)} rounds")
    return expected


# ----------------------------------------------------------------------
# Audit log: Merkle roots and the record hash chain
# ----------------------------------------------------------------------

_LEAF = b"\x00olive-leaf:"
_NODE = b"\x01olive-node:"
_EMPTY = hashlib.sha256(b"\x02olive-empty").digest()
_RECORD_DOMAIN = b"olive-audit-record:"
_GENESIS = "0" * 64


def _root(leaves: list[bytes]) -> bytes:
    if not leaves:
        return _EMPTY
    if len(leaves) == 1:
        return leaves[0]
    split = 1 << ((len(leaves) - 1).bit_length() - 1)
    return hashlib.sha256(_NODE + _root(leaves[:split])
                          + _root(leaves[split:])).digest()


def merkle_root(ciphertexts: dict[int, bytes]) -> str:
    """RFC 6962-shaped root over uploads, leaves in client-id order."""
    leaves = [hashlib.sha256(_LEAF + struct.pack(">Q", cid)
                             + ciphertexts[cid]).digest()
              for cid in sorted(ciphertexts)]
    return _root(leaves).hex()


def check_audit_log(path, roots: list[str], accepted: list[list[int]]) -> int:
    """Chain links, seal, and each round's root; returns rounds checked."""
    prev = _GENESIS
    rounds = 0
    seal = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            record = json.loads(line)
            body = {k: v for k, v in record.items() if k != "hash"}
            blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
            digest = hashlib.sha256(_RECORD_DOMAIN + blob.encode()).hexdigest()
            if record.get("prev") != prev or record.get("hash") != digest:
                raise CheckFailed(f"audit record {lineno} breaks the chain")
            prev = digest
            if record["type"] == "round":
                if rounds >= len(roots):
                    raise CheckFailed("audit log holds more rounds than ran")
                if record["accepted"] != accepted[rounds]:
                    raise CheckFailed(f"round {rounds}: logged accepted set "
                                      "differs from the released one")
                if record["merkle_root"] != roots[rounds]:
                    raise CheckFailed(f"round {rounds}: logged Merkle root "
                                      "differs from the recomputed one")
                rounds += 1
            elif record["type"] == "seal":
                seal = record
    if seal is None or seal.get("rounds") != rounds or rounds != len(roots):
        raise CheckFailed(f"audit log sealed {seal and seal.get('rounds')} "
                          f"rounds, {rounds} logged, {len(roots)} ran")
    return rounds


# ----------------------------------------------------------------------
# Path ORAM access count
# ----------------------------------------------------------------------


def entries_per_access(d: int) -> int:
    """Trace entries of one Path ORAM access over ``d`` blocks.

    The access fetches a root-to-leaf path of ``height + 1`` buckets
    (a read and a clearing write each) and writes the path back (one
    write each).
    """
    height = max(1, (d - 1).bit_length())
    return 3 * (height + 1)


def oram_trace_accesses(weights: int, d: int) -> int:
    """Trace entries traced Path ORAM aggregation records for one round:
    a read and a write access per uploaded weight, then a read access
    per model coordinate."""
    return (2 * weights + d) * entries_per_access(d)


def check_oram_trace(recorded: int, weights: int, d: int) -> None:
    expected = oram_trace_accesses(weights, d)
    if recorded != expected:
        raise CheckFailed(f"access-traced round recorded {recorded} "
                          f"accesses; Path ORAM over {weights} weights and "
                          f"d = {d} gives {expected}")
