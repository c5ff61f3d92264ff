"""The program reads only path settings from the environment: a switch
of behaviour read there would select a configuration that no committed
result, test or benchmark covers."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _named(node: ast.AST, *names: str) -> bool:
    return ((isinstance(node, ast.Attribute) and node.attr in names)
            or (isinstance(node, ast.Name) and node.id in names))


def env_reads(tree: ast.AST) -> list[str]:
    """One entry per environment access in ``tree``: the variable name
    that ``os.environ.get(name, …)``, ``os.environ[name]`` or
    ``os.getenv(name, …)`` reads when it is a string literal, else the
    source of the access; any other use of ``environ`` or ``getenv``
    appears as its source too."""
    reads, matched = [], set()
    for node in ast.walk(tree):
        access = key = None
        if isinstance(node, ast.Call) and node.args:
            f = node.func
            if _named(f, "getenv"):
                access, key = f, node.args[0]
            elif isinstance(f, ast.Attribute) and f.attr == "get" and _named(f.value, "environ"):
                access, key = f.value, node.args[0]
        elif isinstance(node, ast.Subscript) and _named(node.value, "environ"):
            access, key = node.value, node.slice
        if access is not None:
            matched.add(access)
            literal = isinstance(key, ast.Constant) and isinstance(key.value, str)
            reads.append(key.value if literal else ast.unparse(node))
    return reads + [ast.unparse(node) for node in ast.walk(tree)
                    if _named(node, "environ", "getenv") and node not in matched]


def test_only_the_two_path_settings_are_read_from_the_environment():
    reads = {}
    for path in sorted(SRC.rglob("*.py")):
        for name in env_reads(ast.parse(path.read_text(encoding="utf-8"))):
            reads.setdefault(name, []).append(str(path.relative_to(SRC)))
    assert set(reads) == {"REPRO_DATA_DIR", "REPRO_RESULTS_DIR"}, reads
