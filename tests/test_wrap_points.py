"""Every wrap point of the benchmark's layer tracer still names something.

``perfbench/layers.py`` replaces these names with timing wrappers; one that
no longer exists is silently left out of the per-layer figures.  The list
is read by path and resolved as ``Tracer.install`` resolves it, without
installing a wrapper.  The loop below repeats ``install``'s resolution
(getattr along the path, then ``inspect.getattr_static`` for the last
name) rather than calling it, because ``install`` also wraps; if one copy
changes, the other must follow, until ``perfbench/layers.py`` offers the
resolution as a function of its own.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.mark.skipif(not LAYERS.exists(), reason="no perfbench/ in this checkout")
def test_every_wrap_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for _, module_name, path in layers.WRAP_POINTS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or inspect.getattr_static(owner, attr, None) is None:
            missing.append(f"{module_name}.{path}")
    assert missing == []
    assert len(layers.WRAP_POINTS) > 0
