#!/usr/bin/env python3
"""twirltomo benchmark: closed-loop CLI jobs checked against the exact oracle.

Run from the repository root:

    python3 twirlbench/run.py --workload mub-blind --seed 1 --seconds 20 --trace 0

One client runs one job at a time in this process: each job is one
in-process call of ``twirltomo.cli.main(argv)`` and starts when the previous
one ends.  The benchmark writes the channel-spec files itself and derives
every job's ``--seed`` from ``--seed``.  Every job is checked against the
exact answer, computed once through the library outside the timed region.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each job
twice, untraced and then traced at the same seed, and reports the per-layer
metrics.  ``--workload all`` runs every workload, one child process at a
time.  The last line of standard output is one JSON object.
"""
from __future__ import annotations

import os
import sys

# The package is read from src/ and must leave the checkout clean; one
# process with no BLAS worker threads.
sys.dont_write_bytecode = True
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".twirlbench-work"

# CNOT(1,2) followed by 5% depolarizing noise on qubit 1.
NOISY_CNOT = [{"named_gate": "CNOT", "qubits": [1, 2]},
              {"noise": "depolarizing", "strength": 0.05, "qubits": [1]}]


@dataclass(frozen=True)
class Workload:
    n: int
    shots: int
    verb: tuple[str, ...]
    kind: str  # "blind" or "local": which oracle check applies


WORKLOADS = {
    "mub-blind": Workload(3, 20000, ("seqpt", "blind", "--variant", "mub"), "blind"),
    "clifford-blind": Workload(3, 1000, ("seqpt", "blind", "--variant", "clifford"), "blind"),
    "local-twirl": Workload(4, 10000, ("local-twirl",), "local"),
}

SETUPS = 3            # setup_s is the median of this many set-ups
TAIL_BEYOND = 10      # job_tail_s: highest percentile with this many jobs beyond it
MIN_JOBS = TAIL_BEYOND + 1
MIN_TRACED = 3        # traced jobs per --trace 1 run, at least
Z_MAX = 5.0           # oracle check: every estimate within 5 stderr
REPORT_FLOOR = 10.0   # blind: exact entries >= 10 * (2/M) must be reported (see report_floor)
PROBE_NOMINAL_S = 0.025  # host_probe seconds on an unloaded 2.1 GHz x86_64 vCPU

_I2 = np.eye(2, dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)


def host_probe() -> float:
    """Seconds taken by a fixed piece of work that does not touch twirltomo.

    On a shared host the same job ran 0.42 s or 0.70 s, each for minutes at
    a time.  The probe mixes what the jobs do (Generator set-up, integer
    loops, small kron/einsum calls) and slows with them, so dividing a job's
    wall time by the probe's slowdown around it, (before + after) /
    (2 * PROBE_NOMINAL_S), gives its time at a fixed host speed.
    """
    t0 = time.perf_counter()
    for i in range(150):
        np.random.Generator(np.random.Philox(key=i, counter=[0, 0, 0, i])).integers(0, 9)
    acc, table = 0, {}
    for i in range(40000):
        acc += i * i
        table[i & 255] = acc
    for i in range(300):
        u = np.ones((1, 1), dtype=complex)
        for q in range(3):
            u = np.kron(u, _H if (i >> q) & 1 else _I2)
        v = u[:, 0]
        np.einsum("im,ij,jm->m", u.conj(), np.outer(v, v.conj()), u)
    return time.perf_counter() - t0


def host_factor(before: float, after: float) -> float:
    return (before + after) / (2.0 * PROBE_NOMINAL_S)


def job_seed(seed: int, k: int) -> int:
    """Seed of job k of a run with workload seed ``seed``."""
    digest = hashlib.sha256(f"twirlbench:{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class Job:
    seed: int
    wall_s: float
    error: str | None
    digest: str = ""
    results: dict | None = None
    bytes_written: int = 0


class Bench:
    """One workload's inputs, job runner and oracle, inside ``run_dir``."""

    def __init__(self, wl: Workload, run_dir: Path):
        self.wl = wl
        self.run_dir = run_dir
        self.spec = run_dir / f"noisy-cnot-n{wl.n}.json"
        self.out = run_dir / "out"
        self.cli = None

    def setup(self, seed: int) -> tuple[float, Job]:
        """Fresh import, input files, one warm-up job; returns (seconds, job)."""
        t0 = time.perf_counter()
        for key in [k for k in sys.modules if k == "twirltomo" or k.startswith("twirltomo.")]:
            del sys.modules[key]
        importlib.invalidate_caches()
        self.cli = importlib.import_module("twirltomo.cli")
        if not Path(self.cli.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"twirltomo imported from {self.cli.__file__}, not {SRC}")
        self.run_dir.mkdir(parents=True, exist_ok=True)
        doc = {"name": f"noisy-cnot-n{self.wl.n}", "n": self.wl.n, "build": NOISY_CNOT}
        self.spec.write_text(json.dumps(doc, sort_keys=True) + "\n")
        job = self.job(seed)
        return time.perf_counter() - t0, job

    def job(self, seed: int) -> Job:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = [*self.wl.verb, "--spec", str(self.spec), "--out", str(self.out),
                "--shots", str(self.wl.shots), "--seed", str(seed)]
        sink = io.StringIO()
        error = None
        with contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # a raising job is a failed job; keep measuring
                code = None
                error = traceback.format_exc()
            wall = time.perf_counter() - t0
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is not None:
            return Job(seed, wall, error)
        raw = (self.out / "results.json").read_bytes()
        # manifest.json is left out: its timestamp makes its length vary.
        written = sum(p.stat().st_size for p in self.out.iterdir()
                      if p.name != "manifest.json")
        return Job(seed, wall, None, hashlib.sha256(raw).hexdigest(),
                   json.loads(raw), written)

    def oracle(self):
        """Exact answer through the library: chi diagonal or its coarse graining."""
        from twirltomo.channel_spec import load_channel
        from twirltomo.channels import coarse_grain
        from twirltomo.pauli import Pauli
        chi = load_channel(self.spec).chi
        if self.wl.kind == "local":
            return coarse_grain(chi)
        diag = chi.diagonal().real
        return {str(Pauli.from_label(self.wl.n, l)): float(diag[l])
                for l in range(len(diag))}

    def report_floor(self, exact: float) -> float:
        """Smallest exact chi[l,l] a blind job must report.

        At least 10 * (2/M), and at least Z_MAX binomial stderr above the
        reporting threshold 2/M: an entry closer to the threshold than that
        is missed by chance (at M=20000, chi=0.00625 sits 2.5 stderr above it).
        """
        m, d = self.wl.shots, 1 << self.wl.n
        rate = (d * exact + 1.0) / (d + 1.0)
        stderr = (d + 1.0) / d * math.sqrt(max(rate * (1.0 - rate), 0.0) / m)
        return max(REPORT_FLOOR * 2.0 / m, 2.0 / m + Z_MAX * stderr)

    def check(self, job: Job, oracle) -> str | None:
        """None if the job's results agree with the oracle, else the reason."""
        if job.error is not None:
            return job.error
        res = job.results
        bad = []
        if self.wl.kind == "blind":
            for label, est in res["estimates"].items():
                exact = oracle[label]
                if abs(est["chi_hat"] - exact) > max(Z_MAX * est["stderr"], 1e-12):
                    bad.append(f"{label}: {est['chi_hat']} vs exact {exact} "
                               f"(stderr {est['stderr']})")
            bad += [f"{label} (exact {exact}) not reported" for label, exact in oracle.items()
                    if exact >= self.report_floor(exact) and label not in res["estimates"]]
        else:
            weight = res["weight"]
            for w, (v, s) in enumerate(zip(weight["values"], weight["stderr"])):
                exact = float(oracle.by_weight[w])
                if abs(v - exact) > max(Z_MAX * s, 1e-9):
                    bad.append(f"p_{w}: {v} vs exact {exact} (stderr {s})")
            support = res["support"]
            for key, v in support["values"].items():
                exact = float(oracle.by_support[tuple(int(c) for c in key)])
                s = support["stderr"][key]
                if abs(v - exact) > max(Z_MAX * s, 1e-9):
                    bad.append(f"support {key}: {v} vs exact {exact} (stderr {s})")
        return "; ".join(bad) or None


def job_counts(jt: tracer.JobTrace, job: Job, shots: int) -> dict[str, float]:
    """Exact per-job counts, from the wrappers' arguments and the job's files."""
    counts = {f"{name}.calls": jt.calls(name) for name in tracer.NAMES}
    res = job.results or {}
    counts.update({
        "seqpt.classes": len(jt.class_keys),
        "seqpt.class_pairs": jt.under.get((tracer.BLIND, "gf2.rank"), (0,))[0],
        "seqpt.usable_pairs": round(res.get("usable_pair_fraction", 0.0)
                                    * res.get("total_pairs", 0)),
        "dense.local_miss_ratio": jt.calls("dense.DenseBackend.local_outcome_probs") / shots,
        "channel_spec.parses_per_job": jt.calls("channel_spec.parse_channel_document"),
        "cli.bytes_written": job.bytes_written,
    })
    return counts


COUNT_UNITS = {"seqpt.classes": "count", "seqpt.class_pairs": "count",
               "seqpt.usable_pairs": "count", "dense.local_miss_ratio": "1",
               "channel_spec.parses_per_job": "count", "cli.bytes_written": "B"}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_end_to_end(bench: Bench, seed: int, seconds: float, oracle, ledger,
                   probe: float) -> dict:
    """Timed jobs, each followed by a host probe; ``probe`` is the one before."""
    jobs, factors = [], []
    t_start = time.perf_counter()
    k = 1
    while len(jobs) < MIN_JOBS or time.perf_counter() - t_start < seconds:
        jobs.append(bench.job(job_seed(seed, k)))
        after = host_probe()
        factors.append(host_factor(probe, after))
        probe = after
        k += 1
    for job in jobs:
        ledger.record(job, bench.check(job, oracle))
    shots, n = bench.wl.shots, len(jobs)
    wall = sorted(j.wall_s for j in jobs)
    ref = [j.wall_s / f for j, f in zip(jobs, factors)]
    # Wall-clock figures, printed but not gated: they swing with host load.
    # With 11 to 60 jobs a run, the "tail" runs from the fastest job up to
    # about p80.
    ledger.info.update({
        "realizations_per_s": shots * n / sum(wall),
        "job_p50_s": statistics.median(wall),
        "job_tail_s": wall[n - 1 - TAIL_BEYOND],
        "job_tail_percentile": round(100.0 * (n - TAIL_BEYOND) / n, 2),
        "jobs_timed": n,
        "host_factor_p50": statistics.median(factors),
    })
    return {
        "ref_realizations_per_s": metric(shots * n / sum(ref), "1/s"),
        "ref_job_p50_s": metric(statistics.median(ref), "s"),
    }


def run_traced(bench: Bench, seed: int, seconds: float, oracle, ledger,
               trace_path: Path, header: dict) -> dict:
    tr = tracer.Tracer()
    shots = bench.wl.shots

    def traced_job(k: int, s: int):
        patches = tracer.install(tr)
        jt = tr.begin_job(k)
        try:
            job = bench.job(s)
        finally:
            tr.end_job()
            tracer.uninstall(patches)
        return job, jt

    plain_times, traced_times, counts = [], [], []
    first_digest = None
    traces: list[tracer.JobTrace] = []
    t_start = time.perf_counter()
    k = 1
    while len(traces) < MIN_TRACED or time.perf_counter() - t_start < seconds:
        s = job_seed(seed, k)
        plain = bench.job(s)
        ledger.record(plain, bench.check(plain, oracle))
        job, jt = traced_job(k, s)
        problem = bench.check(job, oracle)
        if problem is None and job.digest != plain.digest:
            problem = "tracing changed results.json"
        ledger.record(job, problem)
        if first_digest is None:
            first_digest = plain.digest
        plain_times.append(plain.wall_s)
        traced_times.append(job.wall_s)
        traces.append(jt)
        counts.append(job_counts(jt, job, shots))
        k += 1

    # The first traced job again: its counts and results must repeat exactly.
    again, jt = traced_job(k, job_seed(seed, 1))
    problem = bench.check(again, oracle)
    if problem is None and again.digest != first_digest:
        problem = "results.json differs on a rerun at the same seed"
    if problem is None and job_counts(jt, again, shots) != counts[0]:
        problem = "per-job counts differ on a rerun at the same seed"
    ledger.record(again, problem)

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tr.write(trace_path, header)
    ledger.info["trace_file"] = str(trace_path.relative_to(ROOT))

    n = len(traces)
    out = {}
    for name in tracer.NAMES:
        stats = [jt.stats.get(name, (0, 0.0, 0.0)) for jt in traces]
        out[f"{name}.calls"] = metric(sum(s[0] for s in stats) / n, "count")
        out[f"{name}.total_s"] = metric(sum(s[1] for s in stats) / n, "s")
        out[f"{name}.self_s"] = metric(sum(s[2] for s in stats) / n, "s")
    for key, unit in COUNT_UNITS.items():
        out[key] = metric(sum(c[key] for c in counts) / n, unit)
    out["seqpt.class_building_s"] = metric(
        sum(jt.total_under(tracer.BLIND, "gf2.rref") for jt in traces) / n, "s")
    out["seqpt.pair_analysis_s"] = metric(
        sum(jt.total_under(tracer.BLIND, "gf2.rank")
            + jt.total_under(tracer.BLIND, "gf2.solve_affine") for jt in traces) / n, "s")
    out["trace.overhead_frac"] = metric(
        statistics.median(traced_times) / statistics.median(plain_times) - 1.0, "1")
    ledger.info["jobs_traced"] = n
    ledger.info["largest_self_s"] = sorted(
        tracer.NAMES, key=lambda name: -out[f"{name}.self_s"]["value"])[:5]
    return out


class Ledger:
    """Attempted and failed jobs, and facts printed next to the metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.info: dict = {}

    def record(self, job: Job, problem: str | None):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"job seed {job.seed} failed: {problem}", file=sys.stderr)


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numba_imports": numba_version is not None,
        "numba": numba_version,
        "git_commit": git_commit(ROOT),
        "src_lines": src_lines,
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    run_dir = WORK / f"run-{os.getpid()}"
    ledger = Ledger()
    try:
        bench = Bench(wl, run_dir)
        setups, wall_setups, warmups = [], [], []
        probe = host_probe()
        for _ in range(1 if trace else SETUPS):
            secs, job = bench.setup(job_seed(seed, 0))
            after = host_probe()
            setups.append(secs / host_factor(probe, after))
            wall_setups.append(secs)
            warmups.append(job)
            probe = after
        oracle = bench.oracle()
        for job in warmups:
            problem = bench.check(job, oracle)
            if problem is None and job.digest != warmups[0].digest:
                problem = "results.json differs on a rerun at the same seed"
            ledger.record(job, problem)
        header = {"workload": name, "seed": seed, "seconds": seconds,
                  "n": wl.n, "shots": wl.shots, "verb": list(wl.verb),
                  "provenance": provenance()}
        if trace:
            metrics = run_traced(bench, seed, seconds, oracle, ledger,
                                 WORK / f"trace-{name}.jsonl", header)
        else:
            metrics = run_end_to_end(bench, seed, seconds, oracle, ledger, probe)
            metrics["setup_s"] = metric(statistics.median(setups), "s")
            ledger.info["wall_setup_s"] = statistics.median(wall_setups)
            metrics["peak_rss_mib"] = metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    info = {**header, **ledger.info,
            "failed_frac": ledger.failed / ledger.attempted}
    print("info " + json.dumps(info, sort_keys=True))
    if not trace:
        print(f"realizations_per_s = {info['realizations_per_s']:.6g} 1/s")
        print(f"job_p50_s = {info['job_p50_s']:.6g} s")
        print(f"job_tail_s = {info['job_tail_s']:.6g} s "
              f"(p{info['job_tail_percentile']} of {info['jobs_timed']} jobs)")
        print(f"wall_setup_s = {info['wall_setup_s']:.6g} s")
        print(f"failed_frac = {info['failed_frac']:.4g} 1")
        print(f"host_factor_p50 = {info['host_factor_p50']:.4g} 1")
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "twirltomo" / "__init__.py").is_file():
        print(f"error: no twirltomo package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
