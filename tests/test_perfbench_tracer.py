"""perfbench's tracer (`perfbench/tracing.py`) wraps polcheck functions by
name from outside the program. A function it names that polcheck no longer
has breaks `perfbench/run.py --trace 1`, so this test installs the tracer
over the CLI's modules and checks that it finds every name and puts every
binding back. It reads perfbench and changes nothing in it.
"""

import importlib.util
import sys
from pathlib import Path

import polcheck.cli  # noqa: F401  (loads every module the tracer rebinds)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracing) -> dict:
    """(owner, name) -> object for every attribute of every loaded polcheck
    module, and every method the tracer wraps."""
    out = {}
    for name, mod in sys.modules.items():
        if name.startswith("polcheck.") and mod is not None:
            out.update(((name, attr), value) for attr, value in vars(mod).items())
    for home, cls_name, meth, _ in tracing.SPANNED_METHODS:
        cls = getattr(sys.modules[f"polcheck.{home}"], cls_name)
        out[(cls, meth)] = cls.__dict__[meth]
    return out


def test_the_tracer_finds_every_name_it_wraps_and_restores_each():
    tracing = _load_tracing()
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = _bindings(tracing)
    finally:
        tracer.uninstall()
    after = _bindings(tracing)

    changed = {key for key in before if during[key] is not before[key]}
    for home, fn_name, *_ in tracing.SPANNED + tracing.COUNTED:
        assert any(name == fn_name for _, name in changed), f"{home}.{fn_name} was not wrapped"
    for home, cls_name, meth, _ in tracing.SPANNED_METHODS:
        assert any(name == meth and getattr(owner, "__name__", None) == cls_name for owner, name in changed)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
