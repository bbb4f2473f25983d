"""Every public name of the package has a caller outside the tests, every
field of a public dataclass a reader, every default config value one, and
every defaulted parameter of a public function a caller that passes it.

A function, class, method or field that only tests reach does not belong
in the package.  Callers are the package's own modules and the
benchmark's (`eqbench/`, its tests excepted).
"""

import ast
import dataclasses
import importlib
import inspect
import math
from collections import defaultdict
from pathlib import Path

from eqspike.model import StackConfig, TeacherConfig
from eqspike.pipeline import default_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eqspike"
CALLERS = sorted(SRC.glob("*.py")) + sorted(
    p for p in (ROOT / "eqbench").glob("*.py") if not p.name.startswith("test_"))


def _public_names():
    """(module, name, methods) for each public function and class of the
    package; `methods` are a class's public methods and properties."""
    for path in sorted(SRC.glob("*.py")):
        mod = importlib.import_module(f"eqspike.{path.stem}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield path.stem, name, []
            elif inspect.isclass(obj):
                yield path.stem, name, [
                    attr for attr, member in vars(obj).items()
                    if not attr.startswith("_") and (
                        inspect.isfunction(member) or isinstance(
                            member, (classmethod, staticmethod, property)))]


def _references(path):
    """({package module: names the file refers to in it}, attribute names).

    In a module's own file that is every bare name; elsewhere, the names
    imported from it and the attributes of an alias bound to it.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    refs, aliases = defaultdict(set), {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and (node.module or "").split(".")[0] == "eqspike":
            module = node.module.partition(".")[2] or None
        else:
            continue
        if module is None:  # from . import m / from eqspike import m as x
            aliases.update((a.asname or a.name, a.name) for a in node.names)
        else:
            refs[module].update(a.name for a in node.names)
    attrs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                refs[aliases[node.value.id]].add(node.attr)
    if path.parent == SRC:
        refs[path.stem] |= {n.id for n in ast.walk(tree)
                            if isinstance(n, ast.Name)}
    return refs, attrs


def test_every_public_name_has_a_src_caller():
    refs, attrs = defaultdict(set), set()
    for path in CALLERS:
        file_refs, file_attrs = _references(path)
        for module, names in file_refs.items():
            refs[module] |= names
        attrs |= file_attrs
    uncalled = []
    for module, name, methods in _public_names():
        if name not in refs[module]:
            uncalled.append(f"{module}.{name}")
        # a method is reached through an instance, so any attribute of
        # its name counts
        uncalled += [f"{module}.{name}.{m}" for m in methods if m not in attrs]
    assert uncalled == []


def test_every_public_dataclass_field_is_read_outside_the_tests():
    reads = {node.attr for path in CALLERS
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    unread = []
    for module, name, _methods in _public_names():
        obj = getattr(importlib.import_module(f"eqspike.{module}"), name)
        if dataclasses.is_dataclass(obj):
            unread += [f"{module}.{name}.{f.name}"
                       for f in dataclasses.fields(obj) if f.name not in reads]
    assert unread == []


def _config_leaves(cfg, path=()):
    for key, val in cfg.items():
        if isinstance(val, dict):
            yield from _config_leaves(val, path + (key,))
        else:
            yield path + (key,)


def test_every_default_config_value_has_a_src_reader():
    # a reader subscripts the key by name, or the key is a field of the
    # dataclass its section builds
    subscripts = {n.slice.value for path in sorted(SRC.glob("*.py"))
                  for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(n, ast.Subscript)
                  and isinstance(n.slice, ast.Constant)}
    fields = {section: {f.name for f in dataclasses.fields(cls)}
              for section, cls in (("model", StackConfig),
                                   ("teacher", TeacherConfig))}
    unread = [".".join(path) for path in _config_leaves(default_config())
              if path[-1] not in subscripts
              and path[-1] not in fields.get(path[0], ())]
    assert unread == []


BENCH = ROOT / "eqbench"
# spans the benchmark still reads of functions that no longer exist
DEAD_SPANS = {"autodiff.backward", "implicit_grad.implicit_vjp",
              "model.EncoderStack.param_tensors", "quantizer.pack_codes",
              "quantizer.unpack_codes"}


def _strings(node):
    return {n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _span_names():
    """Every span name the benchmark reads: each workload's `must_trace`
    and `expected_counts` keys, the names `layers.py` looks up, and
    `tracer.py`'s quantizers, hook keys and spanned autodiff names."""
    def walk(name):
        return ast.walk(ast.parse((BENCH / name).read_text(encoding="utf-8")))

    names = set()
    for node in walk("workloads.py"):
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "must_trace" for t in node.targets):
            names |= _strings(node.value)
        elif isinstance(node, ast.FunctionDef) \
                and node.name == "expected_counts":
            names |= {k.value for ret in ast.walk(node)
                      if isinstance(ret, ast.Return) for k in ret.value.keys}
    for node in walk("layers.py"):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in {
                "calls", "self_ms", "incl_ms", "rec"}:
            names |= {a.value for a in node.args if isinstance(a, ast.Constant)}
    for node in walk("tracer.py"):
        target = getattr(node, "targets", [None])[0]
        target = getattr(target, "id", None)
        if target == "QUANTIZERS":
            names |= _strings(node.value)
        elif target in ("_PRE_HOOKS", "_POST_HOOKS"):  # `**` entries: key None
            names |= {k.value for k in node.value.keys if k is not None}
        elif target == "AUTODIFF_SPANNED":
            names |= {f"autodiff.{n}" for n in _strings(node.value)}
    return names


def _is_public_callable(name):
    """Whether `name` is module.function or module.Class.method of a
    public function or method defined in that eqspike module."""
    module, *path = name.split(".")
    mod = importlib.import_module(f"eqspike.{module}")
    obj = vars(mod).get(path[0])
    if getattr(obj, "__module__", None) != mod.__name__ \
            or any(p.startswith("_") for p in path):
        return False
    if len(path) == 2:
        obj = vars(obj).get(path[1]) if inspect.isclass(obj) else None
    return inspect.isfunction(obj) or isinstance(obj, (classmethod,
                                                       staticmethod))


def test_every_span_name_the_benchmark_reads_is_a_public_function():
    names = _span_names()
    assert len(names) > len(DEAD_SPANS)
    assert {n for n in names if not _is_public_callable(n)} == DEAD_SPANS


# the console script calls `main()` bare; tests pass it an argv
DEFAULT_EXEMPT = {"cli.main.argv"}


def _defaulted_parameters():
    """(name, function name, positional index or None, shift) for each
    defaulted parameter of a public function, method or non-dataclass
    constructor; `shift` is the leading `self`/`cls` a call leaves out,
    and a keyword-only parameter has no positional index."""
    for module, name, methods in _public_names():
        obj = getattr(importlib.import_module(f"eqspike.{module}"), name)
        if not inspect.isclass(obj):
            callables = [(f"{module}.{name}", name, obj, 0)]
        else:
            callables = [(f"{module}.{name}.{m}", m, vars(obj)[m],
                        0 if isinstance(vars(obj)[m], staticmethod) else 1)
                       for m in methods
                       if not isinstance(vars(obj)[m], property)]
            if not dataclasses.is_dataclass(obj) and "__init__" in vars(obj):
                callables.append((f"{module}.{name}", name, obj.__init__, 1))
        for qualname, called, fn, shift in callables:
            params = list(inspect.signature(inspect.unwrap(
                getattr(fn, "__func__", fn))).parameters.values())
            for index, p in enumerate(params):
                if p.default is not inspect.Parameter.empty:
                    positional = None if p.kind == p.KEYWORD_ONLY else index
                    yield f"{qualname}.{p.name}", called, positional, shift


def _calls():
    """{called name: [(positional argument count, keywords)]} over every
    call in the callers; a starred argument counts as reaching every
    position, a `**` one every keyword."""
    calls = defaultdict(list)
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = getattr(func, "attr", None) or getattr(func, "id", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            calls[called].append((math.inf if starred else len(node.args),
                                  keywords))
    return calls


def test_every_defaulted_parameter_is_passed_by_a_src_caller():
    # a default that every caller keeps is a constant, and a parameter
    # that only tests pass is a path that only tests reach
    calls = _calls()
    unpassed = []
    for qualname, called, positional, shift in _defaulted_parameters():
        name = qualname.rpartition(".")[2]
        if not any(name in keywords or None in keywords
                   or (positional is not None and count > positional - shift)
                   for count, keywords in calls[called]):
            unpassed.append(qualname)
    assert sorted(set(unpassed) - DEFAULT_EXEMPT) == []
    assert DEFAULT_EXEMPT <= set(unpassed)
