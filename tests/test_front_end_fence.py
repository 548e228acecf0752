"""A static fence around the one-pair and one-robot front ends.

The tick, the tests and the package's exports run the stacked passes
(`JudgeBank.screen_all`, `RecordBank.add_all`, `build_samples`,
`cl_update_all`, `advance`, `compose_layers`, ...).  Each pass keeps a front
end for one pair or one robot only because `benchmarks/tracing.py` wraps it,
until ROADMAP item 1.  This walks the syntax tree of every module of
`src/uwbio` and `tests` and fails on any reference to a front-end name
outside ALLOWED, and on an ALLOWED entry that holds none, so ALLOWED lists
exactly what goes when the front ends do.

A reference is a name, attribute, import or non-docstring string equal to
one of NAMES (a local variable of that name is none); an attribute `sample`
(`RangeStream.sample`); or an attribute `add` of what the fence can see is a
`DataRecord` (`DataRecord.add`): a `DataRecord(...)` or `.data` expression,
a call of a function annotated to return one, or a name assigned from these.
"""

import ast
import inspect
from pathlib import Path

import uwbio
from uwbio.regression import DataRecord

ROOT = Path(__file__).resolve().parent.parent

# The front-end functions and classes, the one-entity types only they build
# and the errors only they raise.
NAMES = {"build_sample", "cl_update", "excitation_ratio", "reconstruct_pose",
         "leader_initial_estimate", "leader_realtime_estimate", "tracking_error_estimated",
         "tracking_error_truth", "stage1_command", "stage2_command", "step", "JudgeQueue",
         "OdomStream", "RelativePoseEstimate", "ScreenResult", "MeasurementTriplet",
         "TrackingError", "EmptyRecord", "MissingNeighborEstimate"}
# Front-end methods of classes the passes keep.
METHODS = {"RangeStream.sample", "DataRecord.add"}

# (file, scope): a definition with everything inside it, or a module-level
# statement, named by what it assigns or "<import>".
ALLOWED = {
    # The definitions.
    ("src/uwbio/world.py", "step"),
    ("src/uwbio/sensing.py", "MeasurementTriplet"),
    ("src/uwbio/sensing.py", "RangeStream.sample"),
    ("src/uwbio/sensing.py", "OdomStream"),
    ("src/uwbio/outliers.py", "<import>"),          # MeasurementTriplet
    ("src/uwbio/outliers.py", "ScreenResult"),
    ("src/uwbio/outliers.py", "JudgeQueue"),
    ("src/uwbio/regression.py", "EmptyRecord"),
    ("src/uwbio/regression.py", "build_sample"),
    ("src/uwbio/regression.py", "DataRecord.add"),
    ("src/uwbio/regression.py", "excitation_ratio"),
    ("src/uwbio/estimation.py", "RelativePoseEstimate"),
    ("src/uwbio/estimation.py", "cl_update"),
    ("src/uwbio/estimation.py", "reconstruct_pose"),
    ("src/uwbio/cooploc.py", "MissingNeighborEstimate"),
    ("src/uwbio/cooploc.py", "<import>"),           # RelativePoseEstimate
    ("src/uwbio/cooploc.py", "leader_initial_estimate"),
    ("src/uwbio/cooploc.py", "leader_realtime_estimate"),
    ("src/uwbio/control.py", "TrackingError"),
    ("src/uwbio/control.py", "tracking_error_truth"),
    ("src/uwbio/control.py", "tracking_error_estimated"),
    ("src/uwbio/control.py", "stage1_command"),
    ("src/uwbio/control.py", "stage2_command"),
    # harness's tracer import block.
    ("src/uwbio/harness.py", "<import>"),
    # The table test and the run fence's FRONT_ENDS.
    ("tests/test_reference_equivalence.py", "TestFrontEndsMatchTheirPasses"),
    ("tests/test_reference_equivalence.py", "FRONT_ENDS"),
    # MeasurementTriplet's own check.
    ("tests/test_sensing.py", "<import>"),
    ("tests/test_sensing.py", "test_triplet_rejects_negative_distance"),
}


def modules() -> list[Path]:
    here = Path(__file__).resolve()
    return [p for p in sorted([*(ROOT / "src" / "uwbio").glob("*.py"),
                               *(ROOT / "tests").glob("*.py")]) if p != here]


def record_functions(trees) -> set[str]:
    """Functions annotated to return a DataRecord."""
    return {node.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and isinstance(node.returns, ast.Name)
            and node.returns.id == "DataRecord"}


def local_names(fn) -> set[str]:
    """Names a function binds itself: its arguments and assignment targets."""
    args = fn.args
    out = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                           args.vararg, args.kwarg] if a is not None}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
    return out


class References(ast.NodeVisitor):
    """Every front-end reference of one module, as (scope, line, what)."""

    def __init__(self, record_funcs: set[str]):
        self.record_funcs = record_funcs
        self.found: list[tuple[str, int, str]] = []
        self.scope: list[str] = []
        self.locals: list[set[str]] = [set()]
        self.records: list[set[str]] = [set()]

    def _add(self, node, what: str) -> None:
        self.found.append((".".join(self.scope), node.lineno, what))

    def _is_record(self, node) -> bool:
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            return name == "DataRecord" or name in self.record_funcs
        if isinstance(node, ast.Attribute):
            return node.attr == "data"
        return isinstance(node, ast.Name) and node.id in self.records[-1]

    def _enter(self, node, fn: bool) -> None:
        self.scope.append(node.name)
        if node.name in NAMES or ".".join(self.scope) in METHODS:
            self._add(node, node.name)     # the definition, inside its own scope
        self.locals.append(local_names(node) | self.locals[-1] if fn else set())
        self.records.append(set(self.records[-1]))
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]     # the docstring
        for child in [*node.decorator_list, *getattr(node, "bases", []),
                      *([node.args, node.returns] if fn else []), *body]:
            if child is not None:
                self.visit(child)
        self.scope.pop()
        self.locals.pop()
        self.records.pop()

    def visit_FunctionDef(self, node):
        self._enter(node, fn=True)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        self._enter(node, fn=False)

    def visit_Assign(self, node):
        if self._is_record(node.value):
            self.records[-1].update(t.id for t in node.targets if isinstance(t, ast.Name))
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id in NAMES and node.id not in self.locals[-1]:
            self._add(node, node.id)

    def visit_Attribute(self, node):
        if node.attr in NAMES or node.attr == "sample" or \
                (node.attr == "add" and self._is_record(node.value)):
            self._add(node, node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        for alias in node.names:
            if alias.name in NAMES:
                self._add(node, alias.name)

    def visit_Constant(self, node):
        if node.value in NAMES:
            self._add(node, node.value)


def module_scope(stmt) -> str:
    """The scope of a module-level statement for ALLOWED."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return "<import>"
    if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
        return stmt.targets[0].id
    return "<module>"


def front_end_references() -> list[tuple[str, str, int, str]]:
    """(file, scope, line, name) of every front-end reference."""
    trees = {p: ast.parse(p.read_text(), str(p)) for p in modules()}
    record_funcs = record_functions(trees.values())
    out = []
    for path, tree in trees.items():
        rel = path.relative_to(ROOT).as_posix()
        for stmt in tree.body:
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue    # the module docstring
            refs = References(record_funcs)
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                refs.scope.append(module_scope(stmt))
            refs.visit(stmt)
            out += [(rel, scope, line, what) for scope, line, what in refs.found]
    return out


def allowed(rel: str, scope: str) -> tuple[str, str] | None:
    """The ALLOWED entry that covers a reference, or None."""
    for entry_rel, entry in ALLOWED:
        if rel == entry_rel and (scope == entry or scope.startswith(entry + ".")):
            return entry_rel, entry
    return None


def test_front_ends_are_reached_only_from_the_allow_list():
    refs = front_end_references()
    outside = [f"{rel}:{line} {what} (in {scope})" for rel, scope, line, what in refs
               if allowed(rel, scope) is None]
    assert not outside, "front-end references outside ALLOWED:\n" + "\n".join(outside)
    unused = ALLOWED - {allowed(rel, scope) for rel, scope, _, _ in refs}
    assert not unused, f"ALLOWED entries that hold no front-end reference: {sorted(unused)}"


def test_the_fence_sees_each_kind_of_reference(tmp_path):
    """A module that calls front ends in each way the fence knows is caught
    at each call, and its look-alikes are not."""
    src = '''
from uwbio.world import step
import uwbio.harness as harness


def f(bank, truth, cmd, stream, s):
    rec = DataRecord(bank, 0)
    rec.add(s)
    seen = set()
    seen.add(s)
    step = 0.1
    return harness.cl_update, stream.sample(truth, truth), step, "stage1_command"
'''
    refs = References({"filled_record"})
    refs.visit(ast.parse(src))
    assert [(line, what) for _, line, what in refs.found] == \
        [(2, "step"), (8, "add"), (12, "cl_update"), (12, "sample"), (12, "stage1_command")]


def test_package_exports_no_front_end():
    assert not NAMES & set(dir(uwbio))
    assert list(inspect.signature(DataRecord).parameters) == ["bank", "row"]
