"""Every broadcast↔partitioned choice reads one module constant at call
time; no public function takes a gate, force or salt option.  Tests
reach each side of a gate by patching its constant."""

import importlib
import inspect
import pkgutil

import rdf_canon_ray

BANNED = {
    "force_partitioned",
    "force_partitioned_linker",
    "broadcast_threshold",
    "edge_broadcast_threshold",
    "broadcast_max",
    "collect_threshold",
    "salt",
}


def _public_functions():
    """(qualified name, function) for every public function and public
    class method defined in an ``rdf_canon_ray`` module."""
    for info in pkgutil.walk_packages(rdf_canon_ray.__path__, "rdf_canon_ray."):
        mod = importlib.import_module(info.name)
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{mod.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        yield f"{mod.__name__}.{name}.{meth}", fn


def test_no_public_function_takes_a_gate_option():
    fns = dict(_public_functions())
    assert "rdf_canon_ray.stages.joins.hash_join" in fns
    hits = [
        f"{qual}({param})"
        for qual, fn in fns.items()
        for param in inspect.signature(fn).parameters
        if param in BANNED
    ]
    assert hits == []
