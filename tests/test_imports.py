"""The package's import structure: every import at module level, and the
relative imports between modules free of cycles."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "blockspec"
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def test_no_import_inside_a_function_or_class():
    nested = [
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items()
        for scope in ast.walk(tree)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for node in ast.walk(scope)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


def test_relative_imports_form_an_acyclic_graph():
    graph = {name: set() for name in MODULES}
    for name, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
                graph[name].update(targets)
    assert set().union(*graph.values()) <= set(MODULES)
    assert {"alp", "speculative"} <= graph["engine"]
    # static_order raises CycleError naming any cycle
    assert len(list(TopologicalSorter(graph).static_order())) == len(MODULES)


def _writes_a_file(node) -> bool:
    """A call of ``open`` with a mode that writes, or of a path's
    ``write_text`` or ``write_bytes``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
    return any(not (isinstance(m, ast.Constant) and set(str(m.value)) <= set("rbt"))
               for m in modes)


def test_only_the_cli_writes_files():
    """The library returns rows and numbers; cli.py writes every output."""
    offenders = [
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items()
        if name != "cli"
        for node in ast.walk(tree)
        if _writes_a_file(node)
        or (isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "csv")
    ]
    assert offenders == []


def _parses_json(node) -> bool:
    """A call of ``json.load`` or ``json.loads``, or an import of either
    from ``json``."""
    if isinstance(node, ast.ImportFrom) and node.module == "json":
        return any(a.name in ("load", "loads") for a in node.names)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("load", "loads")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json")


def test_only_errors_parses_json():
    """Every input document goes through the one strict reader in errors.py."""
    assert any(_parses_json(node) for node in ast.walk(MODULES["errors"]))
    offenders = [
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items()
        if name != "errors"
        for node in ast.walk(tree)
        if _parses_json(node)
    ]
    assert offenders == []


def test_the_stage_rule_is_stated_in_spec_step_alone():
    """The decode loop hands a speculative step the step before it; the
    stage and the candidate budget are spec_step's to choose."""
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(MODULES["engine"])
             if isinstance(node, (ast.Name, ast.Attribute))}
    imported = {alias.name for node in ast.walk(MODULES["engine"])
                if isinstance(node, ast.ImportFrom) and node.module == "speculative"
                for alias in node.names}
    assert imported == {"spec_step"}
    assert not names & {"STAGE_CANDIDATES", "stage2_min_decoded", "select_candidates"}


def _top_level_name(stmt) -> str:
    """The name a module-level statement defines, else ``<module>``."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
        return stmt.targets[0].id
    return "<module>"


def test_the_sizing_rule_is_stated_in_spec_stage_alone():
    """The stage threshold and the per-stage budgets are read by one
    function, so a per-step sizing rule replaces spec_stage alone; the mask
    dump and the layout builders follow it."""
    rule = {"STAGE_CANDIDATES", "stage2_min_decoded"}
    uses = {
        (name, _top_level_name(stmt))
        for name, tree in MODULES.items()
        for stmt in tree.body
        for node in ast.walk(stmt)
        if (getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)) in rule
    }
    assert uses == {("speculative", "STAGE_CANDIDATES"), ("speculative", "spec_stage"),
                    ("decoder", "RunConfig")}
    # the decode loop ends a block on its last step's rejections
    assert not any(isinstance(node, ast.Attribute) and node.attr == "block_masked_positions"
                   for node in ast.walk(MODULES["engine"]))


def _calls(tree, name: str) -> set[str]:
    """The module-level names whose statements call `name`."""
    return {_top_level_name(stmt) for stmt in tree.body for node in ast.walk(stmt)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name}


def test_the_cut_rule_is_stated_in_alp_alone():
    """Where an EOS can shorten the response is cut_window's to say: the
    decode loop compares no sequence length or block range to decide
    whether to draft, and the scan and the truncation read the window."""
    read = {"seq_len", "block_range"}
    compared = [
        f"engine.py:{node.lineno}"
        for node in ast.walk(MODULES["engine"])
        if isinstance(node, ast.Compare)
        for inner in ast.walk(node)
        if (getattr(inner, "id", None) or getattr(inner, "attr", None)) in read
    ]
    assert compared == []
    assert _calls(MODULES["engine"], "cut_window") == {"_decode_blockwise"}
    assert _calls(MODULES["alp"], "cut_window") == {"scan_eos", "apply_truncation"}


def test_engine_runs_the_model_in_one_decode_loop():
    """engine.py calls a model's forward at one site, and holds one
    outermost loop."""
    engine = MODULES["engine"]
    forwards = [node.lineno for node in ast.walk(engine)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "forward"]
    assert len(forwards) == 1, forwards
    loops = [node for node in ast.walk(engine) if isinstance(node, (ast.For, ast.While))]
    nested = {id(inner) for outer in loops for inner in ast.walk(outer) if inner is not outer}
    assert len([loop for loop in loops if id(loop) not in nested]) == 1


def test_run_config_holds_the_decode_settings_alone():
    """RunConfig's fields, in order, so a new knob shows up in review."""
    run_config = next(node for node in MODULES["decoder"].body
                      if isinstance(node, ast.ClassDef) and node.name == "RunConfig")
    assert [stmt.target.id for stmt in run_config.body if isinstance(stmt, ast.AnnAssign)] == [
        "strategy", "gen_length", "block_size", "accept_threshold", "truncate_threshold",
        "stage2_min_decoded"]


def test_no_module_starts_a_thread_or_a_process():
    """Every forward runs on the caller's thread: no module imports a
    threading or process module, or registers a fork handler."""
    banned = {"threading", "concurrent", "multiprocessing"}
    offenders = [
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] in banned for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] in banned)
        or (isinstance(node, ast.Attribute) and node.attr == "register_at_fork")
    ]
    assert offenders == []
