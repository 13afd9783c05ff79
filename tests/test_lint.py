"""Source-level lint checks the CI image can run without extra tools.

The experiment modules long carried ``duration: float = None`` — a PEP
484 violation (an implicit-Optional default behind a non-Optional
annotation) that flake8/mypy would flag.  Neither tool is a dependency
of this repo, so this AST-based check enforces the rule in the tier-1
suite: any parameter whose default is ``None`` must have an
``Optional[...]``-style (or omitted) annotation.

A second check keeps the transaction manager's execute loop single:
one function runs the per-reference lock/fix loop and one the
deadlock-restart loop, with every commit protocol as a hook on them.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Annotations that legitimately accept None.
_OPTIONAL_MARKERS = ("Optional", "Union", "Any", "None", "object")


def _annotation_allows_none(node: ast.expr) -> bool:
    text = ast.unparse(node)
    return "None" in text or any(marker in text
                                 for marker in _OPTIONAL_MARKERS) \
        or "|" in text


def _implicit_optional_params(tree: ast.AST):
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaults = args.defaults
        # Defaults align with the tail of the positional parameters.
        for arg, default in zip(positional[len(positional)
                                           - len(defaults):], defaults):
            yield node, arg, default
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node, arg, default


def test_no_implicit_optional_annotations():
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func, arg, default in _implicit_optional_params(tree):
            if not (isinstance(default, ast.Constant)
                    and default.value is None):
                continue
            if arg.annotation is None:
                continue
            if _annotation_allows_none(arg.annotation):
                continue
            violations.append(
                f"{path.relative_to(SRC.parent.parent)}:{arg.lineno} "
                f"{func.name}({arg.arg}: "
                f"{ast.unparse(arg.annotation)} = None)"
            )
    assert not violations, (
        "PEP 484 implicit-Optional defaults (annotate as "
        "Optional[...]):\n" + "\n".join(violations)
    )


#: Modules that implement the per-reference primitives (or drive them
#: in a standalone micro-benchmark) rather than run transactions.
_LOOP_EXEMPT = {"core/bm.py", "core/cc.py", "bench.py"}


def _callers(method: str):
    """``module:function`` of every function under ``src/repro`` that
    calls ``.<method>`` — or binds it for a later call — directly (not
    from a nested function)."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module in _LOOP_EXEMPT:
            continue
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and any(isinstance(node, ast.Attribute)
                            and node.attr == method
                            for stmt in func.body
                            for node in _walk_same_function(stmt)):
                found.append(f"{module}:{func.name}")
    return found


def _walk_same_function(node):
    """``ast.walk`` that does not descend into nested functions."""
    yield node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.Lambda)):
        return
    for child in ast.iter_child_nodes(node):
        yield from _walk_same_function(child)


def test_one_transaction_execute_loop():
    """The TM lifecycle (lock -> charge -> fix per reference, restart
    on deadlock) is written once; commit variants are hooks on it, so
    a second copy of either loop is a regression."""
    ref_loops = _callers("fix_page_miss")
    assert len(ref_loops) == 1, ref_loops
    assert ref_loops == [f for f in _callers("try_acquire")
                         if f in ref_loops], ref_loops
    restart_loops = _callers("reset_for_restart")
    assert len(restart_loops) == 1, restart_loops
