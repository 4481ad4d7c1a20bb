"""Every public name is reached by an experiment, or it is listed here.

The walk runs over the package sources, not over the imported modules: it
starts at the CLI entry points and follows every name a reached definition
mentions, through the sibling imports (``from .spectral import ...``) to
the module that defines it.  A reached class brings its whole body.  Each
name a layer lists in ``__all__`` must be reached, or be a key of
``_UNREACHED`` with the reason it stays; a listed name that the walk does
reach must leave the list.  In the same way, each defaulted parameter of a
public function is passed by some package call, or is a key of
``_UNPASSED`` with the reason it stays.
"""
import ast
import inspect
from pathlib import Path

import specmult

PACKAGE = Path(specmult.__file__).parent
LAYERS = ("spectral", "ouhermite", "multipliers", "products", "dyadic", "cli")
ROOTS = (("cli", "main"), ("cli", "run"), ("cli", "build_config"))

_UNREACHED = {
    # the sector-angle experiment
    "phi_star": "ROADMAP item 2",
    "DecayProfile": "ROADMAP item 2",
    "required_order": "ROADMAP item 2",
    "worst_case_order": "ROADMAP item 2",
    "rotate_multiplier": "ROADMAP item 2",
    # the weak-type (1,1) experiment, with the D_I group decided as a whole
    "weak_quasinorm": "ROADMAP item 3",
    "di_integral": "ROADMAP item 3",
    "di_bound_ratio": "ROADMAP item 3",
    "smallest_log_constant": "ROADMAP item 3",
    "sample_local_pairs": "ROADMAP item 3",
    "in_local_region": "ROADMAP item 3",
    # references that tests compare reached code against
    "decompose": "oracle: test_reconstruct_round_trip",
    "hermite_eval": "oracle: test_basis_arrays_match_pointwise_formulas",
    "mehler_kernel": "oracle: test_mehler_dr_matches_finite_difference",
    "apply_semigroup_kernel": "oracle: test_semigroup_spectral_agreement_band_limited",
    "lebesgue_weights": "oracle: test_mehler_unit_lebesgue_mass",
    "mellin_on_grid": "oracle: test_decay_check_sup_is_max_of_direct_mellin_sums",
    "kernel_Ktilde": "BENCHMARK.json per-layer metric",
    "m_kappa": "BENCHMARK.json per-layer metric",
    # the Laplace-transform multipliers of the abstract
    "kappa_one": "ROADMAP item 11",
    "kappa_imag": "ROADMAP item 11",
}

# defaulted parameters of public functions that no package call passes, as
# "function.parameter": an option that only tests set is a constant instead
_UNPASSED = {
    "apply_T_split.s": "ROADMAP item 3",
    "di_bound_ratio.c0": "ROADMAP item 3",
    "sample_local_pairs.d": "ROADMAP item 3",
    "builtin_multiplier.u": "ROADMAP item 2",
    "marcinkiewicz_seminorm.dyadic": "benchmark tracer: perfbench/tracer.py binds it by name",
    "marcinkiewicz_seminorm.n_gl": "benchmark tracer: perfbench/tracer.py binds it by name",
    "main.argv": "entry point",
}


def _definitions():
    """(layer, name) -> the top-level AST nodes binding it, and the sibling imports."""
    defs, imports, exported = {}, {}, {}
    for layer in LAYERS:
        tree = ast.parse((PACKAGE / f"{layer}.py").read_text())
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[(layer, alias.asname or alias.name)] = (node.module, alias.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault((layer, node.name), []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs.setdefault((layer, name.id), []).append(node)
                            if name.id == "__all__":
                                exported[layer] = ast.literal_eval(node.value)
    return defs, imports, exported


def _reached() -> set:
    """Every (layer, name) the walk from ROOTS reaches."""
    defs, imports, _ = _definitions()
    seen, todo = set(), list(ROOTS)
    while todo:
        key = todo.pop()
        key = imports.get(key, key)
        if key in seen or key not in defs:
            continue
        seen.add(key)
        layer = key[0]
        for node in defs[key]:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    todo.append((layer, sub.id))
    return seen


def _public() -> dict:
    """name -> layer for every name a layer lists in __all__."""
    _, _, exported = _definitions()
    return {name: layer for layer, names in exported.items() for name in names}


def test_every_public_name_is_reached_or_listed():
    reached = _reached()
    stray = sorted(
        f"{layer}.{name}"
        for name, layer in _public().items()
        if (layer, name) not in reached and name not in _UNREACHED
    )
    assert stray == [], f"public names no experiment reaches: {stray}"


def test_package_namespace_is_the_library_surface():
    # specmult re-exports the __all__ of every layer but the CLI and adds no public name
    library = {name for name, layer in _public().items() if layer != "cli"}
    top = {name for name, value in vars(specmult).items()
           if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(library - top) == [], "library names specmult does not export"
    assert sorted(top - library) == [], "specmult names no library layer lists"
    assert sorted(specmult.__all__) == sorted(library)


def test_listed_names_are_public_and_unreached():
    public, reached = _public(), _reached()
    assert set(_UNREACHED) <= set(public), sorted(set(_UNREACHED) - set(public))
    wired = sorted(name for name in _UNREACHED if (public[name], name) in reached)
    assert wired == [], f"reached now, drop them from _UNREACHED: {wired}"


def _test_bodies() -> dict:
    """test function name -> the names its body mentions, over the test modules."""
    bodies = {}
    for path in Path(__file__).parent.glob("test_*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                bodies[node.name] = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
    return bodies


def test_reasons_name_their_claim():
    prefixes = ("ROADMAP item 2", "ROADMAP item 3", "ROADMAP item 11", "oracle: test_",
                "BENCHMARK.json per-layer metric")
    assert all(reason.startswith(prefixes) for reason in _UNREACHED.values())
    bodies = _test_bodies()
    for name, reason in _UNREACHED.items():
        if reason.startswith("oracle: "):
            test = reason.removeprefix("oracle: ")
            assert name in bodies.get(test, ()), f"{test} does not call the oracle {name}"


def _read(paths, kinds) -> set:
    """The names (ast.Name) or attributes (ast.Attribute) the sources at paths read."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, kinds) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    return read


def test_every_private_module_name_is_read():
    # a private helper or constant that no package source reads is dead code
    read = _read(PACKAGE.glob("*.py"), (ast.Name, ast.Attribute))
    defs, _, _ = _definitions()
    unread = sorted(
        f"{layer}.{name}" for layer, name in defs
        if name.startswith("_") and not name.startswith("__") and name not in read
    )
    assert unread == [], f"private names no package source reads: {unread}"


def test_every_method_and_property_is_read():
    # a method or property of a layer's class that neither the package nor a
    # test reads as an attribute is dead code; dunders are reached by protocol
    read = _read([*PACKAGE.glob("*.py"), *Path(__file__).parent.glob("test_*.py")], ast.Attribute)
    defs, _, _ = _definitions()
    unread = sorted(
        f"{layer}.{node.name}.{item.name}"
        for (layer, _), nodes in defs.items()
        for node in nodes if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("__") and item.name not in read
    )
    assert unread == [], f"methods and properties nothing reads: {unread}"


def test_every_annotated_field_is_read():
    # a field of a layer's class that neither the package, a test nor the
    # benchmark harness reads as an attribute is dead data
    harness = PACKAGE.parents[1] / "perfbench"
    sources = [*PACKAGE.glob("*.py"), *Path(__file__).parent.glob("test_*.py"), *harness.glob("*.py")]
    read = _read(sources, ast.Attribute)
    defs, _, _ = _definitions()
    unread = sorted(
        f"{layer}.{node.name}.{item.target.id}"
        for (layer, _), nodes in defs.items()
        for node in nodes if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and item.target.id not in read
    )
    assert unread == [], f"fields nothing reads: {unread}"


def _defaulted() -> dict:
    """name -> (positional parameters, defaulted parameters) of every public function."""
    defs, _, exported = _definitions()
    out = {}
    for layer, names in exported.items():
        for name in names:
            for node in defs[(layer, name)]:
                if isinstance(node, ast.FunctionDef):
                    a = node.args
                    positional = [p.arg for p in a.posonlyargs + a.args]
                    defaulted = positional[len(positional) - len(a.defaults):] + [
                        p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
                    ]
                    out[name] = (positional, defaulted)
    return out


def _passed(signatures) -> set:
    """(function, parameter) for each parameter some package call passes, by keyword or position."""
    passed = set()
    for path in PACKAGE.glob("*.py"):
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in signatures:
                continue
            positional, defaulted = signatures[name]
            for i, arg in enumerate(call.args):
                # a starred argument may reach every positional parameter from here on
                reach = positional[i:] if isinstance(arg, ast.Starred) else positional[i : i + 1]
                passed.update((name, p) for p in reach)
            for kw in call.keywords:
                # a ** splat may pass any keyword
                passed.update((name, p) for p in defaulted if kw.arg is None or kw.arg == p)
    return passed


def test_no_library_option_only_tests_set():
    signatures = _defaulted()
    passed = _passed(signatures)
    unpassed = {
        f"{name}.{p}" for name, (_, defaulted) in signatures.items() for p in defaulted if (name, p) not in passed
    }
    stray = sorted(unpassed - set(_UNPASSED))
    assert stray == [], f"options no package call passes, so only tests set them: {stray}"
    wired = sorted(set(_UNPASSED) - unpassed)
    assert wired == [], f"passed by a package call now, drop them from _UNPASSED: {wired}"
    prefixes = ("ROADMAP item ", "benchmark tracer: ", "entry point")
    assert all(reason.startswith(prefixes) for reason in _UNPASSED.values())


def test_child_streams_are_only_looped_over():
    # products._child_rngs yields one Generator, re-seeded at every step, so
    # a caller that kept it would draw from a later child's stream: each
    # package use is the iterable of a for statement, directly or through
    # zip or enumerate
    calls, looped = [], []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and node.id == "_child_rngs":
                calls.append((path.name, node.lineno, node.col_offset))
            elif isinstance(node, ast.For):
                it = node.iter
                wrapped = isinstance(it, ast.Call) and getattr(it.func, "id", None) in ("zip", "enumerate")
                for arg in it.args if wrapped else [it]:
                    if isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "_child_rngs":
                        looped.append((path.name, arg.func.lineno, arg.func.col_offset))
    assert looped, "no package loop over _child_rngs"
    assert sorted(calls) == sorted(looped), "uses of _child_rngs outside a for loop's iterable"
