"""Outside-in span tracing of the twirltomo layers.

``install`` rebinds each public function named in ``LAYERS`` to a wrapper
that records a span, in every loaded ``twirltomo`` module that holds it:
several modules import these functions by name (``seqpt`` and
``localtwirl`` import ``substream``, ``cli`` imports ``load_channel``), and
rebinding only the defining module would let those calls escape the trace.
Methods are rebound on their class.  ``uninstall`` restores the originals.
Nothing under ``src/`` is edited.

A span records its name, start, end, parent span and job id.  A layer's
self time is its span's duration minus the part covered by child spans.
Calls to the functions in ``AGGREGATED`` run 100k+ times per job, so they
are summed per (parent span, name) instead of kept one by one.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = {
    "cli": ["main"],
    "channel_spec": ["load_channel", "parse_channel_document"],
    "channels": ["ChannelModel.apply", "chi_from_kraus", "classify"],
    "rng": ["substream"],
    "stabilizer": ["sample_clifford_uniform", "Clifford.unitary",
                   "circuit_unitary", "build_mub_family"],
    "gf2": ["rref", "rank", "solve_affine"],
    "dense": ["DenseBackend.mub_transition_probs",
              "DenseBackend.clifford_outcome_probs",
              "DenseBackend.local_outcome_probs", "local_twirl_unitary"],
    "seqpt": ["run_blind_discovery", "estimate_chi_selective"],
    "localtwirl": ["run_local_twirl", "HammingStatistics.from_outcomes",
                   "choose_cutoff", "solve_pw", "solve_chi_col"],
}
NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
AGGREGATED = frozenset({"rng.substream", "gf2.rref", "gf2.rank", "gf2.solve_affine"})
BLIND = "seqpt.run_blind_discovery"


class JobTrace:
    """What the wrappers saw during one job."""

    def __init__(self, job: int):
        self.job = job
        self.stats: dict[str, list] = {}    # name -> [calls, total_s, self_s]
        # (parent name, name) -> [calls, total_s], for AGGREGATED names only
        self.under: dict[tuple, list] = {}
        self.class_keys: set[tuple] = set()  # distinct gf2.rref results under BLIND

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def total_under(self, parent: str, name: str) -> float:
        return self.under.get((parent, name), (0, 0.0))[1]


class Tracer:
    """Spans kept in memory; ``write`` puts them on disk at the end."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, job)
        self.aggregates: dict[tuple, list] = {}  # (parent id, name, job) -> [calls, total_s]
        self.current: JobTrace | None = None
        self._stack: list[list] = []  # open spans: [id, name, child seconds]
        self._last_id = 0
        self._first_span = 0
        self._origin = time.perf_counter()

    def begin_job(self, job: int) -> JobTrace:
        self.current = JobTrace(job)
        self._first_span = len(self.spans)
        return self.current

    def end_job(self):
        """Roll the job's aggregates up by the name of their parent span."""
        job = self.current
        names = {span[0]: span[1] for span in self.spans[self._first_span:]}
        for (parent, name, job_id), (calls, total) in self.aggregates.items():
            if job_id == job.job:
                un = job.under.setdefault((names.get(parent), name), [0, 0.0])
                un[0] += calls
                un[1] += total
        self.current = None
        self._stack.clear()

    def wrap(self, name: str, fn):
        aggregated = name in AGGREGATED
        observe_classes = name == "gf2.rref"
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if aggregated:
                sid = None
            else:
                self._last_id += 1
                sid = self._last_id
            frame = [sid, name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[2] += dur
                parent_id = parent[0] if parent else None
                job = self.current
                st = job.stats.get(name)
                if st is None:
                    st = job.stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                if aggregated:
                    key = (parent_id, name, job.job)
                    agg = self.aggregates.get(key)
                    if agg is None:
                        agg = self.aggregates[key] = [0, 0.0]
                    agg[0] += 1
                    agg[1] += dur
                else:
                    self.spans.append((sid, name, t0 - self._origin,
                                       t1 - self._origin, parent_id, job.job))
            if observe_classes and parent is not None and parent[1] == BLIND:
                self.current.class_keys.add(tuple(result))
            return result

        return wrapper

    def write(self, path, header: dict):
        """One JSON array per line: a header, then spans, then aggregates."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header,
                                 "span": ["id", "name", "start_s", "end_s", "parent", "job"],
                                 "aggregate": ["parent", "name", "job", "calls", "total_s"]})
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(["span", *span]) + "\n")
            for (parent, name, job), (calls, total) in self.aggregates.items():
                fh.write(json.dumps(["aggregate", parent, name, job, calls, total]) + "\n")


def _loaded_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "twirltomo" or key.startswith("twirltomo."))]


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every function in LAYERS; returns the patches for ``uninstall``."""
    patches = []
    modules = _loaded_modules()
    for layer, fns in LAYERS.items():
        mod = importlib.import_module(f"twirltomo.{layer}")
        for qual in fns:
            name = f"{layer}.{qual}"
            owner, _, attr = qual.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                raw = inspect.getattr_static(cls, attr)
                if isinstance(raw, staticmethod):
                    new = staticmethod(tracer.wrap(name, raw.__func__))
                else:
                    new = tracer.wrap(name, raw)
                patches.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            orig = getattr(mod, attr)
            new = tracer.wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        patches.append((m, key, orig))
                        setattr(m, key, new)
    return patches


def uninstall(patches: list[tuple]):
    for obj, attr, orig in reversed(patches):
        setattr(obj, attr, orig)
