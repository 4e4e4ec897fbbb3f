"""Every function, class, method and module-level UPPER_CASE constant the
library defines has a use in the library or the benchmark, not only in
tests.

A name counts as used when it appears, as a name, an attribute or an
imported name, anywhere in src/scampsim or perfbench outside its own
definition. Dunder methods are called by Python itself and are exempt.

Likewise every statement of steps.build_steps runs for some lowered
program: a rule that no lowered program reaches is a guess about traffic,
not a measured one. And every statement of the servo timeline's edge walk
and CSV sink runs for a loop the servo tests check against their
reference, so no special case stays there that no loop reaches. And
every statement of model.dense_forward, both conv paths, runs for the
config-sweep design's models.
"""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from test_servo import (LOOP_EXAMPLES, Rig, loop_of, streamed_loop,
                        uniform_cost_121)

from scampsim import model, servo, steps
from scampsim.geometry import PlaneGeometry
from scampsim.lowering import lower_model
from scampsim.model import default_model, random_model

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "scampsim").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _names(node) -> list[str]:
    """Every name that `node` and its children refer to."""
    found = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.append(n.id)
        elif isinstance(n, ast.Attribute):
            found.append(n.attr)
        elif isinstance(n, ast.alias):
            found.append(n.name.rsplit(".", 1)[-1])
    return found


def _definitions(tree: ast.Module):
    """(qualified name, def node) of each top-level function and class, of
    each method of a top-level class, and (name, assignment) of each
    module-level UPPER_CASE constant, private ones included."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    yield f"{node.name}.{member.name}", member


def test_every_library_definition_has_a_caller_outside_tests():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    unused = []
    for path in LIBRARY:
        for qualname, node in _definitions(trees[path]):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            if uses[name] == _names(node).count(name):
                unused.append(f"{path.name}: {qualname}")
    assert not unused, "defined but only tests call: " + ", ".join(unused)


def _statement_spans(function: ast.FunctionDef) -> list[tuple[int, int]]:
    """(first, last) line of each statement in the function and the ones
    nested in it, docstrings left out: a compound statement's header, a
    simple statement's whole extent."""
    spans = []
    for node in ast.walk(function):
        if node is function or not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring, which runs nothing
        if isinstance(node, (ast.If, ast.While)):
            spans.append((node.lineno, node.test.end_lineno))
        elif isinstance(node, ast.For):
            spans.append((node.lineno, node.iter.end_lineno))
        elif isinstance(node, ast.FunctionDef):
            spans.append((node.lineno, node.lineno))
        else:
            spans.append((node.lineno, node.end_lineno))
    return spans


def _code_objects(code):
    """The code object and those of the functions defined inside it."""
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const)


def _unreached(module, qualname: str, run) -> list[int]:
    """First line of each statement of `module`'s function or method
    `qualname` that does not run while run() does."""
    owner, _, name = qualname.rpartition(".")
    function = getattr(getattr(module, owner), name) if owner else getattr(module, name)
    ours = set(_code_objects(function.__code__))
    reached = set()

    def line(frame, event, arg):
        if event == "line":
            reached.add(frame.f_lineno)
        return line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line if frame.f_code in ours else None)
    try:
        run()
    finally:
        sys.settrace(previous)
    tree = ast.parse(Path(module.__file__).read_text())
    node = dict(_definitions(tree))[qualname]
    return [first for first, last in _statement_spans(node)
            if not reached & set(range(first, last + 1))]


def test_every_statement_of_build_steps_runs_for_a_lowered_program():
    """The default model, a grid-1 k-2 model and a grid-8 k-6 model, each as
    the whole program, its stage slices and dump's slices (the stages cut
    after each gsum too)."""
    models = [default_model(),
              random_model(seed=0, k=2, geometry=PlaneGeometry(8, 8, 1, 8)),
              random_model(seed=0, k=6, geometry=PlaneGeometry(64, 64, 8, 8))]

    def lower_and_build():
        for model in models:
            prog, plan = lower_model(model)
            cuts = sorted({end for _, end in plan.stage_ranges.values()}
                          | {i + 1 for i, ins in enumerate(prog.instructions)
                             if ins.opcode == "gsum"})
            for a, b in [(0, len(prog)), *plan.stage_ranges.values(),
                         *zip([0] + cuts, cuts)]:
                steps.build_steps(prog.instructions[a:b], model.geometry.shape)

    missed = _unreached(steps, "build_steps", lower_and_build)
    assert not missed, f"build_steps lines no lowered program reaches: {missed}"


@pytest.mark.parametrize("qualname", ["ServoTimeline._walk", "ServoTimeline.chunks"])
def test_every_statement_of_the_timeline_walk_runs_for_a_tested_loop(qualname):
    """The reference property's explicit loops and the 5-servo streamed
    loop, each written out as CSV."""
    model = random_model(seed=0)
    program, _ = lower_model(model)
    rig = Rig(model, program, uniform_cost_121(program))
    timelines = [loop_of(rig, case) for case in LOOP_EXAMPLES]
    timelines.append(streamed_loop(rig)[0])

    def write_out():
        for tl in timelines:
            tl.to_csv()

    missed = _unreached(servo, qualname, write_out)
    assert not missed, f"{qualname} lines no tested loop reaches: {missed}"


def test_every_statement_of_dense_forward_runs_for_the_sweep_design():
    """Every (grid, k) of perfbench's config-sweep design on the 256x256
    plane, through the scores-only oracle and with the conv kept."""
    models = [random_model(seed=k, k=k,
                           geometry=PlaneGeometry(256, 256, grid, 256 // grid))
              for grid in (1, 2, 4, 8) for k in (2, 3, 4, 5, 6)]

    def infer():
        for m in models:
            x = np.ones((m.geometry.block_size,) * 2, dtype=np.uint8)
            model.reference_infer(m, x)
            model.dense_forward(m.kernels, m.fc_weights, x[None])

    missed = _unreached(model, "dense_forward", infer)
    assert not missed, f"dense_forward lines the sweep design does not reach: {missed}"
