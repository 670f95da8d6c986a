"""Tests of the benchmark's own machinery: run with ``python3 -m pytest -q twirlbench``."""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

SMALL = {
    "mub": run.Workload(2, 300, ("seqpt", "blind", "--variant", "mub"), "blind"),
    "clifford": run.Workload(2, 60, ("seqpt", "blind", "--variant", "clifford"), "blind"),
    "local": run.Workload(2, 300, ("local-twirl",), "local"),
}


def test_install_rebinds_every_alias_and_uninstall_restores():
    rng = importlib.import_module("twirltomo.rng")
    seqpt = importlib.import_module("twirltomo.seqpt")
    localtwirl = importlib.import_module("twirltomo.localtwirl")
    cli = importlib.import_module("twirltomo.cli")
    spec = importlib.import_module("twirltomo.channel_spec")
    channels = importlib.import_module("twirltomo.channels")
    orig_sub, orig_load = rng.substream, spec.load_channel
    orig_apply = channels.ChannelModel.__dict__["apply"]
    patches = tracer.install(tracer.Tracer())
    try:
        for holder in (rng, seqpt, localtwirl):
            assert holder.substream is not orig_sub
            assert holder.substream.__wrapped__ is orig_sub
        assert cli.load_channel is spec.load_channel is not orig_load
        assert cli.parse_channel_document is spec.parse_channel_document
        assert channels.ChannelModel.__dict__["apply"] is not orig_apply
        for module in tracer._loaded_modules():
            assert not any(value is orig_sub for value in vars(module).values())
    finally:
        tracer.uninstall(patches)
    assert rng.substream is seqpt.substream is localtwirl.substream is orig_sub
    assert cli.load_channel is orig_load
    assert channels.ChannelModel.__dict__["apply"] is orig_apply


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_leaves_results_unchanged(name, tmp_path):
    bench = run.Bench(SMALL[name], tmp_path)
    _, plain = bench.setup(7)
    assert bench.check(plain, bench.oracle()) is None
    tr = tracer.Tracer()
    patches = tracer.install(tr)
    jt = tr.begin_job(1)
    try:
        traced = bench.job(7)
    finally:
        tr.end_job()
        tracer.uninstall(patches)
    assert traced.error is None
    assert traced.digest == plain.digest
    assert jt.calls("cli.main") == 1
    assert jt.calls("channel_spec.parse_channel_document") == 2
    assert jt.calls("rng.substream") >= SMALL[name].shots
    if name != "local":
        assert jt.under[(tracer.BLIND, "gf2.rref")][0] == SMALL[name].shots


def test_self_time_excludes_child_spans():
    tr = tracer.Tracer()
    inner = tr.wrap("gf2.rank", lambda: sum(range(20000)))
    outer = tr.wrap("seqpt.run_blind_discovery",
                    lambda: [inner() for _ in range(5)] and sum(range(50000)))
    jt = tr.begin_job(1)
    outer()
    tr.end_job()
    calls, total, self_s = jt.stats["seqpt.run_blind_discovery"]
    assert calls == 1
    assert self_s == pytest.approx(total - jt.stats["gf2.rank"][1], abs=1e-12)
    assert 0 < self_s < total
    # aggregated calls leave no span of their own, only a per-parent sum
    assert [span[1] for span in tr.spans] == ["seqpt.run_blind_discovery"]
    assert jt.under[(tracer.BLIND, "gf2.rank")][0] == 5
