"""In-memory span tracing around each layer's public functions.

The tracer wraps public functions of the program from the outside
(class and module attributes are swapped for timing wrappers while a
traced episode runs, then restored), keeps one record per call --
``(id, parent, name, start, end, counts)`` -- and writes them out as
JSON lines when the run ends.  A layer's self time is its span's
duration minus the durations of its direct children, so the layer self
times under one round plus the round's own self time (the unattributed
residual) add up to the round's wall time exactly.

A target missing from the program (renamed or removed) is skipped and
reported, so the ledger still adds up: its time then lands in the
enclosing span's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

#: Per-layer time metrics, in ledger order; each is ``<span name>_s``.
LAYERS = (
    "runtime.cohort", "sgx.ingest", "sgx.unseal", "sgx.decode",
    "sgx.noise", "core.aggregate", "oblivious.sort", "oram.access",
    "dp.epsilon", "shards.service", "shards.checkpoint", "audit.commit",
)

#: Per-layer counts, in ledger order.
COUNTS = (
    "runtime.clients_trained", "runtime.clients_dropped",
    "sgx.uploads_loaded", "sgx.bytes_decrypted", "sgx.noise_coords",
    "sgx.trace_accesses", "sgx.trace_mb", "oblivious.sort_elements",
    "oram.accesses", "dp.epsilon_calls", "shards.checkpoints",
    "audit.bytes_logged",
)

ROUND = "round"
SETUP = "setup"
RA = "sgx.ra"


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _cohort_counts(args, kwargs, result):
    done = len(result.completed)
    return {"runtime.clients_trained": done,
            "runtime.clients_dropped": len(result.sampled) - done}


def _ingest_counts(args, kwargs, result):
    ciphertext = _arg(args, kwargs, 2, "ciphertext")
    return {"sgx.uploads_loaded": 1,
            "sgx.bytes_decrypted": len(ciphertext.body)}


def _provision_counts(args, kwargs, result):
    return {"sgx.ra_clients": len(result)}


#: (module, attribute path, span name, counts hook).  Properties are
#: wrapped through their getter.
TARGETS = (
    ("repro.runtime.cohort", "CohortRuntime.run_cohort", "runtime.cohort",
     _cohort_counts),
    ("repro.sgx.enclave", "Enclave.load_gradient", "sgx.ingest",
     _ingest_counts),
    ("repro.sgx.enclave", "Enclave.load_quantized_gradient", "sgx.ingest",
     _ingest_counts),
    ("repro.sgx.crypto", "open_sealed", "sgx.unseal", None),
    ("repro.sgx.crypto", "decode_sparse_gradient", "sgx.decode", None),
    ("repro.sgx.crypto", "decode_quantized_gradient", "sgx.decode", None),
    ("repro.sgx.enclave", "Enclave.gauss_vector", "sgx.noise",
     lambda a, k, r: {"sgx.noise_coords": _arg(a, k, 2, "length")}),
    ("repro.sgx.enclave", "provision_enclave_with_clients", RA,
     _provision_counts),
    ("repro.core.olive", "provision_enclave_with_clients", RA,
     _provision_counts),
    ("repro.sgx.enclave", "Enclave.replicate_keys_to", RA, None),
    ("repro.core.aggregation", "AggregatorSpec.run", "core.aggregate", None),
    ("repro.core.aggregation", "AggregatorSpec.run_traced", "core.aggregate",
     None),
    ("repro.core.aggregation", "bitonic_sort_traced_columns",
     "oblivious.sort",
     lambda a, k, r: {"oblivious.sort_elements": len(a[2])}),
    ("repro.oram.path_oram", "PathORAM.read", "oram.access",
     lambda a, k, r: {"oram.accesses": 1}),
    ("repro.oram.path_oram", "PathORAM.write", "oram.access",
     lambda a, k, r: {"oram.accesses": 1}),
    ("repro.dp.accountant", "PrivacyAccountant.epsilon", "dp.epsilon",
     lambda a, k, r: {"dp.epsilon_calls": 1}),
    ("repro.dp.accountant", "PrivacyAccountant.step", "dp.epsilon", None),
    ("repro.dp.accountant", "PrivacyAccountant.step_realized", "dp.epsilon",
     None),
    ("repro.runtime.shards", "ShardedAggregator.aggregate_round",
     "shards.service", None),
    ("repro.sgx.enclave", "Enclave.export_round_state", "shards.checkpoint",
     lambda a, k, r: {"shards.checkpoints": 1}),
    ("repro.audit.recorder", "AuditRecorder.record_round", "audit.commit",
     None),
)


class Patch:
    """Swap attributes for wrappers; :meth:`restore` undoes it (LIFO)."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, module: str, path: str, make_wrapper) -> bool:
        """Replace ``module.path`` by ``make_wrapper(original)``."""
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
        current = (owner.__dict__.get(attr) if isinstance(owner, type)
                   else getattr(owner, attr, None))
        if current is None:
            self.missing.append(f"{module}.{path}")
            return False
        if isinstance(current, property):
            replacement = property(make_wrapper(current.fget))
        else:
            replacement = make_wrapper(current)
        self._saved.append((owner, attr, current))
        setattr(owner, attr, replacement)
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Span recorder: parent links from a call stack, spans kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = [0]
        self._next = 1
        self._patch: Patch | None = None

    # -- spans ------------------------------------------------------------
    def begin(self, name: str, start: float, **attrs) -> list:
        """Open a span by hand (rounds and setups); returns its handle."""
        sid = self._next
        self._next += 1
        handle = [sid, self._stack[-1], name, start, 0.0, dict(attrs)]
        self._stack.append(sid)
        return handle

    def end(self, handle: list, end: float, counts: dict | None = None) -> None:
        """Close a hand-opened span at ``end`` and attach its counts."""
        handle[4] = end
        self._stack.pop()
        handle[5].update(counts or {})
        self.spans.append(tuple(handle))

    def _wrapper(self, name: str, hook):
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                sid = tracer._next
                tracer._next += 1
                parent = tracer._stack[-1]
                tracer._stack.append(sid)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    tracer._stack.pop()
                counts = hook(args, kwargs, result) if hook else None
                tracer.spans.append((sid, parent, name, t0, t1, counts))
                return result
            return traced

        return make

    # -- installation -----------------------------------------------------
    def install(self) -> list[str]:
        """Wrap every target; returns the targets the program lacks."""
        self._patch = Patch()
        for module, path, name, hook in TARGETS:
            self._patch.wrap(module, path, self._wrapper(name, hook))
        return list(self._patch.missing)

    def uninstall(self) -> None:
        if self._patch is not None:
            self._patch.restore()
            self._patch = None

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, counts in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1,
                                     "counts": counts or {}}) + "\n")


def ledger(spans: list[tuple]) -> dict:
    """Self time and counts per layer, over timed rounds and setups.

    Returns ``{"rounds": n, "round_wall_s": total, "self": {name: s},
    "counts": {name: total}, "setups": m, "ra_s": s, "ra_clients": c}``
    where ``self`` and ``counts`` cover spans under timed ``round`` spans
    (``self["round"]`` is the unattributed residual).
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for sid, parent, name, t0, t1, counts in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)

    root_of: dict[int, int] = {}

    def root(sid: int) -> int:
        path = []
        while sid not in root_of:
            parent = by_id[sid][1]
            if parent == 0:
                root_of[sid] = sid
                break
            path.append(sid)
            sid = parent
        top = root_of[sid]
        for p in path:
            root_of[p] = top
        return top

    out = {"rounds": 0, "round_wall_s": 0.0, "self": {}, "counts": {},
           "setups": 0, "ra_s": 0.0, "ra_clients": 0}
    for sid, parent, name, t0, t1, counts in spans:
        top = by_id[root(sid)]
        self_s = (t1 - t0) - child_time.get(sid, 0.0)
        if top[2] == SETUP:
            if sid == top[0]:
                out["setups"] += 1
            if name == RA:
                out["ra_s"] += self_s
                out["ra_clients"] += (counts or {}).get("sgx.ra_clients", 0)
            continue
        if top[2] != ROUND or not top[5].get("timed"):
            continue
        if sid == top[0]:
            out["rounds"] += 1
            out["round_wall_s"] += t1 - t0
        out["self"][name] = out["self"].get(name, 0.0) + self_s
        for key, value in (counts or {}).items():
            if key != "timed":
                out["counts"][key] = out["counts"].get(key, 0) + value
    return out
