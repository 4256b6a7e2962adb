"""Every function the benchmark tracer times still exists under the name it
looks up.  ``bench/tracer.py`` names them in ``LAYERS`` as (module,
attribute path) pairs and resolves each with ``_resolve``; a rename in the
library would break every traced run of ``bench/run.py``."""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# executed from its source, so that no bytecode is written under bench/
tracer = types.ModuleType("expofield_bench_tracer")
exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer.__dict__)

TARGETS = [(layer, module, path) for layer, targets in tracer.LAYERS.items()
           for module, path in targets]


@pytest.mark.parametrize("layer,module,path", TARGETS,
                         ids=[f"{m}:{p}" for _, m, p in TARGETS])
def test_tracer_layer_resolves(layer, module, path):
    importlib.import_module(module)
    _, _, original = tracer._resolve(module, path)
    assert callable(original), f"{layer}: {module}.{path}"
