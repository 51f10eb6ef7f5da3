"""The package's exported names, and the names the benchmark's tracer
(perfbench/tracing.py) patches by attribute lookup."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import nilorb

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
)

# Loads the tracer by path, installs it on a fresh nilorb, makes two traced
# conjugacy calls and runs the carrier walk (method 2) on G2 with Kac labels 0,0,1;
# prints name=calls for the span names that recorded a call.
TRACER_RUN = """
import importlib.util, sys
import nilorb
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
from nilorb.weyl import WeylSubgroup, conjugate_sets, conjugate_tuples
rs = nilorb.build_root_system("A", 2)
full = WeylSubgroup(rs, [(1, 0), (0, 1)])
assert conjugate_sets(rs, full, [(1, 0)], [(0, 1)]) is not None
assert conjugate_tuples(rs, full, [(1, 0)], [(0, 1)]) is not None
g2 = nilorb.build_algebra(nilorb.build_root_system("G", 2))
g = nilorb.grading_from_kac(g2, nilorb.KacDiagram.from_labels(g2.rs, (0, 0, 1)))
assert len(nilorb.classify_orbits(g, method="2")) == 6
print(" ".join(f"{name}={stats[0]}" for name, stats in sorted(tracer.stats.items()) if stats[0]))
"""


def test_every_exported_name_resolves():
    assert len(set(nilorb.__all__)) == len(nilorb.__all__)
    for name in nilorb.__all__:
        assert getattr(nilorb, name, None) is not None, name


def test_benchmark_tracer_installs_on_every_traced_name():
    proc = subprocess.run(
        [sys.executable, "-c", TRACER_RUN, str(ROOT / "perfbench" / "tracing.py")],
        capture_output=True, text=True, env=ENV, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    called = dict(item.split("=") for item in proc.stdout.split())
    assert {"rootsystem.build_root_system", "weyl.conjugate_sets", "weyl.conjugate_tuples"} <= called.keys()
    # the walk completes through the traced public name each of the 12
    # non-empty candidates but the 3 with no degree-1 root, which are never
    # flat
    assert called["carrier.completion"] == "9"
    # the integer functions that do the work carry the traced names: the
    # normality test and the diagram of each of the 5 distinct flat h (the
    # zero record takes the zero diagram without a walk), one solve per
    # completion and per row of G2's inverse Cartan matrix, and the kernel
    # of the seed candidates
    assert called["characteristics.decide_normal"] == "5"
    assert called["records.wdd_of_cartan"] == "5"
    assert called["linalg.solve"] == "11"
    assert int(called["linalg.nullspace"]) > 0
    # every record, the zero record too, counts its dimension through the
    # traced records.orbit_dimension, which nullcone re-exports
    assert called["nullcone.orbit_dimension"] == "6"


def module_trees():
    for path in sorted((ROOT / "src" / "nilorb").glob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def test_no_module_imports_another_modules_private_names():
    borrowed = []
    for path, tree in module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("nilorb")):
                borrowed += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert borrowed == []


def test_no_module_reads_another_modules_private_attributes():
    # obj._name, obj not self, where no def, class or assignment of this
    # module names _name: a table or helper of another module's object
    borrowed = []
    for path, tree in module_trees():
        own = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                own.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                own.add(node.id)
        borrowed += [
            f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            and node.attr not in own
        ]
    assert borrowed == []


def test_no_function_imports_inside_its_body():
    # imports stand at the top of a module, where its dependencies show
    local = sorted({
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path, tree in module_trees()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })
    assert local == []


def test_one_draw_policy():
    # every random draw of the package comes from one generator, keyed on
    # the seed and h (characteristics.h_rng)
    importers, built = [], []
    for path, tree in module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                importers += [path.name for alias in node.names if alias.name == "random"]
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                importers.append(path.name)
            elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("random.Random", "Random"):
                built.append(path.name)
    assert importers == ["characteristics.py"]
    assert built == ["characteristics.py"]


def named_outside_own_body(trees):
    """A test that a function is named (read, called or assigned) somewhere
    in the package outside its own body."""
    refs: dict = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(node)

    def named(fn) -> bool:
        own = set(map(id, ast.walk(fn)))
        return any(id(node) not in own for node in refs.get(fn.name, ()))

    return named


def test_no_dead_private_helpers():
    # every private function or method is named somewhere in the package
    # outside its own body: a helper that only tests call is no helper
    trees = list(module_trees())
    named = named_outside_own_body(trees)
    dead = [
        f"{path.name}: {fn.name}"
        for path, tree in trees
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and fn.name.startswith("_")
        and not fn.name.startswith("__")
        and not named(fn)
    ]
    assert dead == []


def test_no_unreached_public_functions():
    # every public module-level function is named somewhere in the package
    # outside its own body, exported in nilorb.__all__, or patched by the
    # benchmark's tracer (loaded by path, as TRACER_RUN does); methods are
    # out of scope here
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    kept = set(nilorb.__all__) | {attr for _, attr in tracing.TRACED if "." not in attr}
    trees = list(module_trees())
    named = named_outside_own_body(trees)
    unreached = [
        f"{path.name}: {fn.name}"
        for path, tree in trees
        for fn in tree.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not fn.name.startswith("_")
        and fn.name not in kept
        and not named(fn)
    ]
    assert unreached == []


def test_carrier_and_grading_stay_in_integers():
    # a completion and a grading hold integers; a reader that wants the
    # Fraction defining element builds alg.cartan(hnum, den), and the centre
    # of g_0 has dimension rank - len(delta0)
    imported, defined = {}, set()
    for path, tree in module_trees():
        names = imported.setdefault(path.name, set())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                names.update([node.module or ""] + [alias.name for alias in node.names])
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.add(node.target.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
    assert not imported["carrier.py"] & {"fractions", "Fraction", "LieElement"}
    assert "linalg" not in imported["grading.py"]
    assert not defined & {"h0", "z_basis", "center_basis", "component_roots"}
    # linear algebra is integer in and integer out, and each computation
    # has one function, not a Fraction entry point beside an integer twin
    assert not imported["linalg.py"] & {"fractions", "Fraction"}
    assert not defined & {
        "decide_normal_int", "wdd_of_values", "solve_int", "kernel_int", "_fractions"
    }
    # the root system owns the integer coroots and pairings, and a Weyl
    # element acts through its root permutation alone
    assert not imported["rootsystem.py"] & {"fractions", "Fraction"}
    assert not defined & {"_form_vec", "_integral_coroot", "_matrix", "matrix"}
    chevalley = next(tree for path, tree in module_trees() if path.name == "chevalley.py")
    algebra = next(
        node for node in chevalley.body
        if isinstance(node, ast.ClassDef) and node.name == "ChevalleyAlgebra"
    )
    assert not any(
        isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and node.attr == "coroot_coords"
        for node in ast.walk(algebra)
    )


def test_only_records_builds_records():
    # both listing methods end at normal triples; records.listing turns
    # them into records, so orbit_record is called, and OrbitRecord built,
    # in records.py alone
    builders = sorted({
        path.name
        for path, tree in module_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rpartition(".")[2] in ("orbit_record", "OrbitRecord")
    })
    assert builders == ["records.py"]


def test_listing_methods_do_not_rebuild_the_integer_h():
    # both methods hand records.listing the integers they tested; the
    # Fraction h is cleared again (ChevalleyAlgebra.cartan_values) only by
    # normal_list, which takes a Fraction h, and the per-algebra
    # characteristic cache
    allowed = {
        "carrier.py": set(),
        "characteristics.py": {"normal_list", "_characteristics"},
        "records.py": set(),
    }
    callers = {name: set() for name in allowed}
    for path, tree in module_trees():
        if path.name in allowed:
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Attribute) and node.attr == "cartan_values"
                    for node in ast.walk(fn)
                ):
                    callers[path.name].add(fn.name)
    assert callers == allowed


def test_one_normality_test_and_one_dimension_count():
    # the ambient stage, the sweep and the carrier walk test normality
    # through decide_normal, the only code that names its search
    # _normal_triple; records.orbit_dimension counts every dimension, and
    # no name of the span test or count it replaced is left as an alias
    def names(node):
        return {
            n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute, ast.FunctionDef, ast.alias))
        }

    trees = list(module_trees())
    search = {
        f"{path.name}: {getattr(node, 'name', None)}"
        for path, tree in trees
        for node in tree.body
        if "_normal_triple" in names(node) and getattr(node, "name", None) != "_normal_triple"
    }
    assert search == {"characteristics.py: decide_normal"}
    callers = {
        fn.name
        for _, tree in trees
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call) and ast.unparse(node.func) == "decide_normal"
            for node in ast.walk(fn)
        )
    }
    assert {"_sweep", "classify_nilpotent_g", "classify_by_carriers"} <= callers
    assert not set().union(*(names(tree) for _, tree in trees)) & {"_spanning_eye", "dimension_of_values"}
    assert nilorb.orbit_dimension is nilorb.nullcone.orbit_dimension is nilorb.records.orbit_dimension


def test_sweep_neither_rechecks_its_triples_nor_walks_their_diagrams():
    # the normality test certifies each triple on its integers
    # (ChevalleyAlgebra.check_sl2), and method 1 hands each record the WDD
    # of the characteristic it swept: characteristics.py calls neither the
    # general Sl2Triple.check nor the chamber walk wdd_of_cartan
    tree = next(tree for path, tree in module_trees() if path.name == "characteristics.py")
    called = sorted({
        ast.unparse(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rpartition(".")[2] in ("check", "wdd_of_cartan")
    })
    named = sorted({
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "wdd_of_cartan"
    })
    assert called == [] and named == []
