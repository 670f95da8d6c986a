"""Command-line harness: seeded, reproducible protocol runs.

Every verb loads a channel-spec document (where applicable), executes one
protocol, and writes four files into --out (``exact-chi`` adds ``chi.json``
and ``chi.csv``):

* ``manifest.json``  -- protocol, config, seed, tool version, timestamp
* ``results.json``   -- the complete result payload (no timestamp; a rerun
  of the same manifest is byte-identical)
* ``report.txt``     -- human-readable table
* ``report.csv``     -- plot-ready rows

Exit codes: 0 success, 2 validation failure, 3 capacity failure.  A run
prints one line, ``wrote results to DIR``; nothing is written on failure.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .channels import (ChannelModel, _check_dense_cap, check_cp_bound, check_positive_bound,
                       coarse_grain)
# load_channel is not called here; it stays importable as
# twirltomo.cli.load_channel, a name outside tooling already uses.
from .channel_spec import build_channel, load_channel, parse_channel_document  # noqa: F401
from .dense import DenseBackend, haar_twirl_moment
from .errors import CapacityError, ConfigError, SpecValidationError
from .localtwirl import LocalTwirlConfig, run_local_twirl
from .pauli import Pauli
from .rng import check_seed, master
from .seqpt import (SeqptConfig, estimate_chi_selective,
                    frames_independent_probability, run_blind_discovery,
                    success_probability)


def _json_text(name: str, payload: dict) -> str:
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # a NaN or an infinity
        raise ValueError(f"{name}: {exc}") from None


def _csv_text(rows: list[list]) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _write_outputs(args, doc, protocol: str, config: dict, results: dict,
                   lines: list[str], csv_rows: list[list],
                   extra: dict[str, str]) -> Path:
    """Write the four files of a run plus ``extra`` (name -> text).  Every
    file is serialized before the first is written, so a run that fails
    here writes nothing."""
    spec = None if doc is None else {"path": str(args.spec), "document": doc.to_json_dict()}
    manifest = {"protocol": protocol, "tool_version": __version__,
                "timestamp": time.time(), "spec": spec,
                "seed": getattr(args, "seed", None), "config": config}
    files = {"manifest.json": _json_text("manifest.json", manifest),
             "results.json": _json_text("results.json", results),
             "report.txt": "\n".join(lines) + "\n",
             "report.csv": _csv_text(csv_rows), **extra}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, newline="")
    return out


def _oracle_diag(channel: ChannelModel) -> dict[str, float] | None:
    if channel.n > 3:
        return None
    return dict(zip(channel.chi.labels(), channel.chi.diagonal().real.tolist()))


_CHECK_HEADER = ("label", "estimate", "stderr", "oracle", "pass")


def _check_row(key: str, value, stderr, exact: float | None, floor: float) -> list[str]:
    """CSV row of an estimate and its exact value, if known; the estimate
    passes within max(3 stderr, floor) of it."""
    ok = "" if exact is None else str(abs(value - exact) <= max(3 * stderr, floor))
    return [key, repr(float(value)), repr(float(stderr)),
            "" if exact is None else repr(exact), ok]


# ---------------------------------------------------------------------------
# verbs: each computes (protocol, config, results, report lines, csv rows)


def _cmd_exact_chi(args, doc, channel, warnings):
    diag = channel.chi.diagonal().real
    labels = channel.chi.labels()
    lines = [f"exact chi for {doc.name} (n={doc.n})"]
    lines += [f"  warning: {w}" for w in warnings]
    lines.append(f"{'label':>8} {'chi_ll':>12}")
    rows = [["label", "chi_ll"]]
    for l in np.argsort(diag)[::-1][:16]:
        lines.append(f"{labels[l]:>8} {diag[l]:>12.8f}")
        rows.append([labels[l], repr(float(diag[l]))])
    results = {"n": doc.n, "trace": float(diag.sum()),
               "diagonal": dict(zip(labels, diag.tolist()))}
    return "exact_chi", {}, results, lines, rows


def _cmd_seqpt(args, doc, channel, warnings):
    if args.mode == "select" and not args.label:
        raise ConfigError("seqpt select requires --label")
    cfg = SeqptConfig(shots=args.shots, epsilon=args.epsilon, delta=args.delta,
                      variant=args.variant, seed=args.seed)
    backend = DenseBackend()
    oracle = _oracle_diag(channel) or {}
    if args.mode == "select":
        label = Pauli.from_string(args.label)
        est = estimate_chi_selective(channel, label, cfg, backend)
        key = str(label)
        results = {"n": doc.n, "mode": "select", "label": key, "config": cfg.to_json_dict(),
                   "chi_hat": est.chi_hat, "stderr": est.stderr,
                   "survival_rate": est.survival_rate}
        lines = [f"selective estimate for {doc.name}, label {key}",
                 f"  chi_hat = {est.chi_hat:.6f} +- {est.stderr:.6f} "
                 f"(survival {est.survival_rate:.6f})"]
        rows = [_CHECK_HEADER, _check_row(key, est.chi_hat, est.stderr, oracle.get(key), 0.0)]
        return "seqpt_selective", cfg.to_json_dict(), results, lines, rows
    res = run_blind_discovery(channel, cfg, backend)
    ordered = sorted(res.estimates.items(), key=lambda kv: -kv[1].chi_hat)
    lines = [f"blind discovery for {doc.name} ({cfg.variant}, M={cfg.shots})",
             f"  usable pair fraction {res.usable_pair_fraction:.4f}; "
             f"residual mass {res.residual_mass:.4f}",
             f"{'label':>8} {'chi_hat':>10} {'stderr':>9} {'flag':>11}"]
    rows = [_CHECK_HEADER]
    below_marked = False
    for key, est in ordered:
        if not below_marked and est.chi_hat < res.threshold:
            lines.append(f"  ----- threshold 2/M = {res.threshold:.2e} -----")
            below_marked = True
        flag = "borderline" if est.borderline else ""
        lines.append(f"{key:>8} {est.chi_hat:>10.5f} {est.stderr:>9.5f} {flag:>11}")
        rows.append(_check_row(key, est.chi_hat, est.stderr, oracle.get(key), 0.0))
    if not below_marked:
        lines.append(f"  (threshold 2/M = {res.threshold:.2e})")
    return "seqpt_blind", cfg.to_json_dict(), res.to_json_dict(), lines, rows


def _cmd_local_twirl(args, doc, channel, warnings):
    cfg = LocalTwirlConfig(shots=args.shots, cutoff=args.cutoff, seed=args.seed)
    est = run_local_twirl(channel, cfg)
    cg = coarse_grain(channel.chi) if _oracle_diag(channel) else None
    lines = [f"local twirl for {doc.name} (M={cfg.shots}, cutoff={est.weight.cutoff})",
             f"{'w':>3} {'p_w':>10} {'stderr':>9} {'amplification':>14}"]
    rows = [_CHECK_HEADER]
    for w, (v, s, a) in enumerate(zip(est.weight.values, est.weight.stderr,
                                      est.weight.amplification)):
        lines.append(f"{w:>3} {v:>10.5f} {s:>9.5f} {a:>14.3f}")
        rows.append(_check_row(f"w={w}", v, s, cg and float(cg.by_weight[w]), 1e-9))
    if est.support is not None:
        lines.append(f"{'support':>8} {'chi_col':>10} {'stderr':>9}")
        for s_vec, v in sorted(est.support.values.items()):
            key = "".join(map(str, s_vec))
            sd = est.support.stderr[s_vec]
            lines.append(f"{key:>8} {v:>10.5f} {sd:>9.5f}")
            rows.append(_check_row(key, v, sd, cg and float(cg.by_support[s_vec]), 1e-9))
        lines.append(f"excess outcome mass beyond cutoff: {est.support.excess_mass:.2e}")
    return "local_twirl", cfg.to_json_dict(), est.to_json_dict(), lines, rows


def _cmd_bounds_check(args, doc, channel, warnings):
    chi = channel.chi
    cls = channel.classification
    cp_viol = check_cp_bound(chi)
    pos_viol, diag_viol = check_positive_bound(chi)
    eigs = np.linalg.eigvalsh(chi.mat) if cls.hermitian_preserving else None
    results = {
        "n": doc.n, "classification": cls.to_json_dict(),
        "cp_bound_violations": [[l, lp, lhs, rhs] for l, lp, lhs, rhs in cp_viol],
        "positive_bound_violations": [[l, lp, lhs, rhs] for l, lp, lhs, rhs in pos_viol],
        "diagonal_range_violations": [[l, v] for l, v in diag_viol],
        "chi_eigenvalues": None if eigs is None else eigs.tolist(),
    }
    lines = [f"bounds check for {doc.name}",
             f"  classification: {cls.to_json_dict()}",
             f"  cp-bound violations: {len(cp_viol)}",
             f"  positive-bound violations: {len(pos_viol)} pairs, {len(diag_viol)} diagonal"]
    if eigs is not None:
        lines.append(f"  chi eigenvalue range: [{eigs.min():.6f}, {eigs.max():.6f}]")
    rows = [["check", "violations"],
            ["cp_bound", str(len(cp_viol))],
            ["positive_bound_pairs", str(len(pos_viol))],
            ["diagonal_range", str(len(diag_viol))]]
    return "bounds_check", {}, results, lines, rows


def _cmd_haar_verify(args, doc, channel, warnings):
    if args.quadruples < 1:  # haar_twirl_moment checks --dim and --shots
        raise ConfigError("haar-verify needs --quadruples >= 1")
    rng = master(args.seed)
    results = {"dim": args.dim, "shots": args.shots, "seed": args.seed,
               "quadruples": []}
    lines = [f"haar moment verification, D={args.dim}, {args.shots} samples/quadruple",
             f"{'#':>3} {'closed form':>24} {'estimate':>24} {'sigmas':>7} {'pass':>5}"]
    rows = [["index", "closed_re", "closed_im", "estimate_re", "estimate_im",
             "stderr", "sigmas", "pass"]]
    all_ok = True
    for k in range(args.quadruples):
        ops = [rng.normal(size=(args.dim, args.dim))
               + 1j * rng.normal(size=(args.dim, args.dim)) for _ in range(4)]
        res = haar_twirl_moment(*ops, samples=args.shots, rng=rng)
        ok = res.deviation_sigmas <= 3.0
        all_ok &= ok
        results["quadruples"].append({
            "closed_form": [res.closed_form.real, res.closed_form.imag],
            "estimate": [res.estimate.real, res.estimate.imag],
            "stderr": res.stderr, "sigmas": res.deviation_sigmas, "pass": ok})
        lines.append(f"{k:>3} {res.closed_form:>24.6f} {res.estimate:>24.6f} "
                     f"{res.deviation_sigmas:>7.2f} {str(ok):>5}")
        rows.append([str(k), repr(res.closed_form.real), repr(res.closed_form.imag),
                     repr(res.estimate.real), repr(res.estimate.imag),
                     repr(res.stderr), repr(res.deviation_sigmas), str(ok)])
    results["all_pass"] = all_ok
    config = {"dim": args.dim, "shots": args.shots, "quadruples": args.quadruples}
    return "haar_verify", config, results, lines, rows


def _cmd_success_prob(args, doc, channel, warnings):
    if args.max_n < 1:
        raise ConfigError("success-prob needs --max-n >= 1")
    lines = [f"{'n':>3} {'mub':>10} {'clifford':>10} {'indep-frames':>13}"]
    rows = [["n", "mub", "clifford_closed_form", "independent_frames_rate"]]
    results = {"table": []}
    for n in range(1, args.max_n + 1):
        pm = success_probability("mub", n)
        pc = success_probability("clifford", n)
        pf = frames_independent_probability(n)
        results["table"].append({"n": n, "mub": pm, "clifford": pc,
                                 "independent_frames": pf})
        lines.append(f"{n:>3} {pm:>10.6f} {pc:>10.6f} {pf:>13.6f}")
        rows.append([str(n), repr(pm), repr(pc), repr(pf)])
    return "success_prob", {"max_n": args.max_n}, results, lines, rows


# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    try:
        return check_seed(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache  # parsing leaves the parser unchanged, so one serves every main()
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="twirltomo",
                                 description="twirling-based process tomography harness")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, spec=True, seed=True):
        if spec:
            p.add_argument("--spec", required=True, help="channel-spec JSON path")
        p.add_argument("--out", required=True, help="output directory")
        if seed:
            p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("exact-chi", help="exact chi matrix of the channel")
    common(p, seed=False)
    p.set_defaults(func=_cmd_exact_chi)

    p = sub.add_parser("seqpt", help="selective / blind diagonal estimation")
    p.add_argument("mode", choices=["select", "blind"])
    common(p)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--variant", choices=["mub", "clifford"], default="mub")
    p.add_argument("--label", help="Pauli string for select mode, e.g. ZI")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(func=_cmd_seqpt)

    p = sub.add_parser("local-twirl", help="one-qubit twirl weight/support estimation")
    common(p)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--cutoff", type=int, default=None)
    p.set_defaults(func=_cmd_local_twirl)

    p = sub.add_parser("bounds-check", help="chi bound and classification report")
    common(p, seed=False)
    p.set_defaults(func=_cmd_bounds_check)

    p = sub.add_parser("haar-verify", help="Monte Carlo check of the Haar moment identity")
    common(p, spec=False)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--shots", type=int, default=100000)
    p.add_argument("--quadruples", type=int, default=10)
    p.set_defaults(func=_cmd_haar_verify)

    p = sub.add_parser("success-prob", help="pair-success probability table")
    common(p, spec=False, seed=False)
    p.add_argument("--max-n", type=int, default=6)
    p.set_defaults(func=_cmd_success_prob)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        doc = channel = None
        warnings: list[str] = []
        if hasattr(args, "spec"):
            with open(args.spec) as fh:
                doc = parse_channel_document(json.load(fh))
            _check_dense_cap(doc.n)  # before build_channel makes a single D x D matrix
            channel = build_channel(doc, warnings)
        protocol, config, results, lines, rows = args.func(args, doc, channel, warnings)
        if doc is not None:  # every spec verb reports the spec's build warnings
            results["warnings"] = warnings
        extra = {}
        if args.verb == "exact-chi":
            extra = {"chi.json": _json_text("chi.json", channel.chi.to_json_dict()),
                     "chi.csv": channel.chi.to_csv()}
        out = _write_outputs(args, doc, protocol, config, results, lines, rows, extra)
        print(f"wrote results to {out}")
        return 0
    except (SpecValidationError, ConfigError, ValueError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
