"""Source-level rules for the package itself."""

import ast
import inspect
import re
import sys
from collections import Counter
from pathlib import Path

import vkt
import vkt.checks
import vkt.twist

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vkt"


def test_no_assert_statements_in_the_package():
    # invariants raise InvariantError: `python -O` strips assert statements
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_isdigit_in_the_package():
    # str.isdigit admits characters int refuses (the superscript two);
    # isdecimal admits exactly the digits int reads
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "isdigit":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# (module, qualified function name) allowed to take both a datum rd and a
# twisting tau; every other function reads the datum as tau.rd
RD_AND_TAU = {
    # bench/workloads.py builds FusionRing(rd, tau); the ring refuses an rd
    # that is not tau.rd
    ("fusion", "FusionRing.__init__"),
    # `vkt info` without a twist reports a datum and no twisting
    ("cli", "report_header"),
}


def test_twisting_level_functions_read_the_datum_off_the_twisting():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scopes = [(tree, "")]
        while scopes:
            node, prefix = scopes.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    name = prefix + child.name
                    scopes.append((child, name + "."))
                    if isinstance(child, ast.FunctionDef):
                        args = child.args
                        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                        if {"rd", "tau"} <= params:
                            found.add((path.stem, name))
    assert found == RD_AND_TAU


def test_every_public_name_resolves():
    assert [name for name in vkt.__all__ if not hasattr(vkt, name)] == []


def _names(node):
    """Every name the node's subtree reads or imports."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            out.update(alias.name for alias in sub.names)
    return out


def test_every_module_level_definition_has_a_caller():
    # a function or class in src/vkt is named elsewhere in the package, is
    # public API (vkt.__all__), or is wrapped by the benchmark's tracer;
    # dunder hooks such as a module __getattr__ are called by Python itself
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    used = sum((_names(tree) for tree in trees), Counter())
    bench = "\n".join(path.read_text() for path in sorted((ROOT / "bench").glob("*.py")))
    unused = []
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] > _names(node)[name] or name in vkt.__all__ \
                    or re.search(rf"\b{name}\b", bench):
                continue
            unused.append(name)
    assert unused == []


EXACT_MATH = {"gcd", "lcm", "ceil", "floor", "isqrt", "comb", "prod"}


def test_no_floating_point_in_the_package():
    # exact arithmetic only: no float or complex literal, no use of the names
    # float or complex, no cmath, and from math only integer functions
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
                found.append(f"{where} literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
                found.append(f"{where} name {node.id}")
            elif isinstance(node, ast.Import):
                found += [f"{where} import {alias.name}" for alias in node.names
                          if alias.name.split(".")[0] in ("math", "cmath")]
            elif isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath"):
                found += [f"{where} from {node.module} import {alias.name}"
                          for alias in node.names
                          if node.module == "cmath" or alias.name not in EXACT_MATH]
    assert found == []


def _assigned_self_attributes(tree):
    """(attribute name, line) of every `self.<name> = ...` in the tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                            and sub.value.id == "self":
                        out.append((sub.attr, node.lineno))
    return out


def test_every_instance_attribute_is_read():
    # an attribute the package sets on self is read somewhere in src/,
    # tests/ or bench/: a write-only attribute is work no result uses
    paths = [path for folder in ("src", "tests", "bench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.name}:{line} {name}" for path, tree in trees.items()
              if SRC in path.parents
              for name, line in _assigned_self_attributes(tree) if name not in read]
    assert unread == []


def test_the_package_imports_only_the_standard_library():
    # the runtime has no dependencies: every import is relative or names a
    # module of the standard library, wherever in the file it stands
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


def _occurrences(phrase):
    """(module, innermost enclosing function) of each occurrence of the
    phrase in the package's source text."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        functions = [node for node in ast.walk(ast.parse(text, str(path)))
                     if isinstance(node, ast.FunctionDef)]
        for lineno, line in enumerate(text.splitlines(), 1):
            inner = [f.name for f in functions if f.lineno <= lineno <= f.end_lineno]
            found += [(path.stem, inner[-1] if inner else None)] * line.count(phrase)
    return found


def test_one_integrality_validator_and_one_weyl_group_guard():
    # integrality is refused in one place, zlattice.integers, and |W| in
    # one place, the orbit tree every W-sized loop reads; a second
    # validator or guard would repeat its message
    assert _occurrences("non-integral") == [("zlattice", "integers")]
    assert _occurrences("Weyl group exceeds") == [("rootdata", "_free_orbit_template")]


def test_one_f_order_guard():
    # |F| is refused in one place, the sides of the Smith box that the coset
    # list and F_eps both enumerate, as |W| is in the orbit tree
    assert _occurrences("exceeds {MAX_GROUP_ORDER} cosets") == [("twist", "_box_factors")]


def test_f_epsilon_takes_no_adjugate_product_per_coset(monkeypatch):
    # F_eps is enumerated over the Smith box from the lift of eps and one
    # step per Smith generator, so building it applies adj(b) at most
    # rank + 1 times, where |F| is far larger
    calls = []
    real = vkt.twist.Twisting.adj_apply

    def counting(tau, vec):
        calls.append(tuple(vec))
        return real(tau, vec)

    monkeypatch.setattr(vkt.twist.Twisting, "adj_apply", counting)
    for name, levels, torus, eps in [("SU(3)", (5,), None, None),
                                     ("SU(2) x U(1)", (3,), [[4]], (0, 1)),
                                     ("SU(2) x U(1)", (3,), [[-4]], (0, 1)),
                                     ("Spin(7)", (6,), None, None)]:
        rd = vkt.root_datum_from_spec(name)
        tau = vkt.twisting_from_level(rd, levels, torus_block=torus, eps=eps)
        calls.clear()
        m, lifts = tau.f_epsilon()
        assert len(lifts) == tau.order_F() > 5 * (rd.rank + 1), name
        assert 0 < len(calls) <= rd.rank + 1, name


def test_one_coset_naming_path():
    # weights are named by their cosets in one place, CosetValues, which
    # alone compares the values at weights of one coset; no per-twisting
    # memo of coset keys or irregular codes sits beside it.  The kernel is
    # equivariant, so CosetValues codes each weight as it is: it moves no
    # weight to its coset key and carries no translation sign
    assert _occurrences("inconsistent equivariant values") == [("fusion", "delta")]
    for phrase in ("_canonical_coset_values", '"coset_key"', '"irregular_codes"'):
        assert _occurrences(phrase) == [], phrase
    source = inspect.getsource(vkt.fusion.CosetValues)
    for phrase in ("translation_sign", "apply_b"):
        assert phrase not in source, phrase


def test_one_alcove_reduction_path():
    # Alcove.reduce walks a weight into the alcove and reads ZERO off the
    # walls through its end point, memoized per weight; no second walk, ZERO
    # scan or memo sits beside it, and the orbit normal form and the
    # Kac-Walton pass both read it
    members = vars(vkt.affineweyl.Alcove)
    assert "reduce" in members
    assert "walk" not in members and "is_zero" not in members
    assert _occurrences("== bound2") == [("affineweyl", "reduce")]
    for function in (vkt.affineweyl.orbit_normal_form, vkt.fusion._kac_walton):
        assert ".reduce(" in inspect.getsource(function), function.__name__


def test_one_signed_orbit_walk():
    # rootdata carries a weight over the orbit tree's moves in one place,
    # signed_orbit, which serves the Weyl numerator and the delta check; the
    # check's data come from that W tree, not from alcove walks of the
    # coset representatives, which it names once, for its exact half
    tree = ast.parse((SRC / "rootdata.py").read_text())
    walkers = [function.name for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
               for node in ast.walk(function)
               if isinstance(node, ast.For) and isinstance(node.iter, ast.Name)
               and node.iter.id == "moves"]
    assert walkers == ["signed_orbit"]
    assert "signed_orbit(" in inspect.getsource(vkt.rootdata.weyl_numerator)
    source = inspect.getsource(vkt.checks.check_delta_identity)
    assert "signed_orbit(" in source and "orbit_normal_form" not in source
    assert source.split('"""', 2)[2].count("cosets()") == 1
