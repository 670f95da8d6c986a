"""The benchmark tracer wraps functions by name: every name in ``LAYERS`` of
``twirlbench/tracer.py`` must still resolve in the package, or ``--trace 1``
fails when it calls ``getattr`` on a name that is gone."""
import importlib
import importlib.util
from pathlib import Path

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
