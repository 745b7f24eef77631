"""Every span the benchmark reports names a public cprank function or method.

``perfbench/run.py`` reports 0 calls for a span that never opened, so a
renamed or deleted function would leave its metrics at 0 without an error.
The sizers read what a traced function takes and returns, so a change to
that contract fails the sizer tests here instead of mis-sizing traced runs.
This reads ``perfbench/tracer.py`` and edits nothing there.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from cprank import WitnessSearchResult
from cprank.cliques import max_clique

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()
NAMES = sorted(set(tracer.METRIC_SPANS) | set(tracer.SIZES))


@pytest.mark.parametrize("name", NAMES)
def test_span_names_a_public_function_or_method(name):
    """The same test as ``Tracer.install``: a public function defined in its
    layer's module, or a public method of a class defined there."""
    layer, *path = name.split(".")
    assert layer in tracer.LAYERS and name not in tracer.UNWRAPPED
    module = importlib.import_module(f"cprank.{layer}")
    if len(path) == 1:
        (attr,) = path
        value = vars(module).get(attr)
        assert inspect.isfunction(value) and value.__module__ == module.__name__, name
    else:
        cls_name, attr = path
        cls = vars(module).get(cls_name)
        assert inspect.isclass(cls) and cls.__module__ == module.__name__, name
        assert inspect.isfunction(vars(cls).get(attr)), name
    assert not path[-1].startswith("_")


def test_witness_sizer_reads_samples_used():
    assert "samples_used" in {f.name for f in dataclasses.fields(WitnessSearchResult)}
    ((_, _, sizer, _),) = tracer.SIZES["cpmaps.witness_elementary_set"]
    assert sizer((), {}, WitnessSearchResult(None, 0.0, 7)) == 7


def test_clique_sizers_read_the_matrix_and_the_clique():
    # a K4 on 0-3 and a pendant vertex 4 with a self-loop, which is no edge
    adj = np.zeros((5, 5), dtype=bool)
    adj[:4, :4] = ~np.eye(4, dtype=bool)
    adj[0, 4] = adj[4, 0] = adj[4, 4] = True
    clique = max_clique(adj)
    readings = {key: sizer((adj,), {}, clique) for key, _, sizer, _ in tracer.SIZES["cliques.max_clique"]}
    assert readings == {
        "cliques.max_clique.vertices": 5,
        "cliques.max_clique.edges": 7,
        "cliques.max_clique.clique_size": 4,
    }
