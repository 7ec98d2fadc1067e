"""Every name a polcheck module imports is used in that module, and every
private top-level name a module defines is read by some module. The
package's `__init__.py` re-exports names, so it is exempt from the first."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polcheck"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names the source imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            # `import a.b` binds `a`
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_plain_dotted_and_aliased_imports():
    source = "import os.path\nimport re as regex\nfrom json import dumps, loads\nloads(os.sep)\n"
    assert unused_imports(source) == ["dumps", "regex"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_a_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: dict) -> list:
    """The private top-level names (`_x`) that a module of ``sources`` (file
    name -> source) defines and no module reads outside that definition, as
    `file:name`, sorted. A load, an attribute and an import all read a name."""
    defined, reads = [], []
    for name, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                bound = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                targets = [t.id for t in bound if isinstance(t, ast.Name)]
            else:
                targets = []
            defined += [(name, t, stmt) for t in targets if t.startswith("_") and not t.startswith("__")]
            read = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    read.update(alias.name for alias in node.names)
            reads.append((stmt, read))
    return sorted(
        f"{name}:{t}" for name, t, stmt in defined if not any(t in read for s, read in reads if s is not stmt)
    )


def test_unread_private_names_finds_a_definition_no_module_reads():
    sources = {
        "a.py": "def _used():\n    return _left()\ndef _left():\n    return _left()\n_unused = 1\n",
        "b.py": "from .a import _used\n_used()\ndef _orphan():\n    _orphan()\n",
    }
    assert unread_private_names(sources) == ["a.py:_unused", "b.py:_orphan"]


def test_every_private_top_level_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def comma_loops(source: str) -> list:
    """Every `.accept(",")` or `.at(",")` call and every comparison with
    `","` outside class TokenStream, as `function:line`. A comma-separated
    list is read by a TokenStream method, `items` or, for an atom's
    arguments, `arguments`, not by a loop of its own."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name == "TokenStream":
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("accept", "at")
                and [isinstance(a, ast.Constant) and a.value for a in child.args][:1] == [","]
            ) or (
                isinstance(child, ast.Compare)
                and any(isinstance(x, ast.Constant) and x.value == "," for x in [child.left, *child.comparators])
            ):
                found.append(f"{where}:{child.lineno}")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(ast.parse(source), "<module>")
    return found


def test_comma_loops_finds_calls_outside_the_token_stream():
    source = (
        "class TokenStream:\n    def idents(self):\n        return self.accept(',')\n"
        "def args(ts):\n    def inner():\n        ts.accept(',')\n    while ts.accept(','):\n"
        "        ts.accept('|')\n"
    )
    assert comma_loops(source) == ["inner:6", "args:7"]


def test_comma_loops_finds_token_comparisons_and_lookaheads():
    source = (
        "class TokenStream:\n    def arguments(self, i):\n        return self.tokens[i] != ','\n"
        "def args(ts, tokens, i):\n    while tokens[i] == ',' or ',' != tokens[i + 1]:\n"
        "        i += ts.at(',', 1)\n    return ', '.join(tokens), ts.at(')'), i == 0\n"
    )
    assert comma_loops(source) == ["args:5", "args:5", "args:6"]


def test_no_grammar_reads_a_comma_list_by_hand():
    found = [f"{p.name}:{where}" for p in MODULES for where in comma_loops(p.read_text(encoding="utf-8"))]
    assert found == []


def stream_fields(source: str) -> dict:
    """Method name -> the sorted `self.<name>` attributes it assigns, for
    each method of class TokenStream that assigns any."""
    fields = {}
    for cls in ast.walk(ast.parse(source)):
        if isinstance(cls, ast.ClassDef) and cls.name == "TokenStream":
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                targets = set()
                for node in ast.walk(method):
                    bound = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
                    for t in bound:
                        if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self":
                            targets.add(t.attr)
                if targets:
                    fields[method.name] = sorted(targets)
    return fields


def test_stream_fields_finds_plain_augmented_and_annotated_assignments():
    source = (
        "class TokenStream:\n    def __init__(self, t):\n        self.text = t\n        self.tokens: list = []\n"
        "        self.tokens += ['']\n        other.x = 1\n    def step(self):\n        self.pos += 1\n"
        "    def read(self):\n        return self.pos\n"
    )
    assert stream_fields(source) == {"__init__": ["text", "tokens"], "step": ["pos"]}


def test_a_token_stream_keeps_only_its_text_tokens_and_position():
    # tests/test_tokenize.py's ReferenceStream sets these three and no more,
    # and a per-token side list would lift the heap peak of a parse
    fields = stream_fields((PACKAGE / "terms.py").read_text(encoding="utf-8"))
    assert fields.pop("__init__") == ["pos", "text", "tokens"]
    assert all(names == ["pos"] for names in fields.values()), fields
