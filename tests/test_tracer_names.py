"""The benchmark tracer wraps functions by name: every name in ``LAYERS`` of
``twirlbench/tracer.py`` must still resolve in the package, or ``--trace 1``
fails when it calls ``getattr`` on a name that is gone.  It also rebinds the
aliases that other modules import (``seqpt`` and ``localtwirl`` import
``substream``, ``cli`` imports ``load_channel``), so those must stay too."""
import importlib
import importlib.util
from pathlib import Path

from twirltomo import channel_spec, cli, localtwirl, rng, seqpt

TRACER = Path(__file__).resolve().parent.parent / "twirlbench" / "tracer.py"


def _layers() -> dict[str, list[str]]:
    spec = importlib.util.spec_from_file_location("twirlbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_every_traced_name_resolves():
    missing = []
    for layer, names in _layers().items():
        module = importlib.import_module(f"twirltomo.{layer}")
        for qualname in names:
            obj = module
            for attr in qualname.split("."):
                obj = getattr(obj, attr, None)
            if not callable(obj):
                missing.append(f"{layer}.{qualname}")
    assert not missing, missing


def test_aliases_the_tracer_rebinds_are_the_originals():
    assert seqpt.substream is rng.substream
    assert localtwirl.substream is rng.substream
    assert cli.load_channel is channel_spec.load_channel
