"""The benchmark's tracer still finds every library name it wraps.

``perfbench/spans.py`` wraps semhash functions by module attribute; a library
change that deletes or renames one of them would otherwise show only in a
traced benchmark run.
"""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_name_and_restores_it():
    spans = load_spans()
    owners = {name: spans._resolve(owner) for name, (owner, *_) in spans.TRACED.items()}
    originals = {name: getattr(obj, name.rpartition(".")[2]) for name, obj in owners.items()}
    tracer = spans.Tracer()
    try:
        tracer.install()
        for name, obj in owners.items():
            assert getattr(obj, name.rpartition(".")[2]).__wrapped__ is originals[name]
    finally:
        tracer.uninstall()
    for name, obj in owners.items():
        assert getattr(obj, name.rpartition(".")[2]) is originals[name]
