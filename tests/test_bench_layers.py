"""The benchmark's layer tracer still finds every layer it patches.

``perfbench/tracer.py`` wraps named entry points of the program
(``PerfRegistry.span``, ``TreePlan.execute``, ...) to report per-layer
self times. A refactor that moves or renames one of them breaks the
benchmark, so this installs every patch and takes it out again.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_patches_install_and_remove_cleanly():
    tracer = load_tracer()
    patches = tracer.LayerPatches(tracer.SpanRecorder())
    try:
        patches.install()
        assert tracer.find_wrappers()
    finally:
        patches.remove()
    assert tracer.find_wrappers() == []
