"""What the benchmark and the fixture builder need from `bridge`.

bench/ and tools/make_fixtures.py are read, never run, here: every bridge
name they import, every attribute they read off it, every keyword they pass
to a bridge callable and every `Tracer.wrap(owner, "attr", ...)` target must
exist.  A rename or a dropped parameter in src/bridge fails this test rather
than the benchmark run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CLIENTS = sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tools" / "make_fixtures.py"]


def bridge_aliases(tree):
    """Local name -> bridge module or object, from every bridge import."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == "bridge" or node.module.startswith("bridge.")
        ):
            module = importlib.import_module(node.module)
            for alias in node.names:
                name = alias.asname or alias.name
                if hasattr(module, alias.name):
                    aliases[name] = getattr(module, alias.name)
                else:
                    aliases[name] = importlib.import_module(f"{node.module}.{alias.name}")
    return aliases


def dotted(node):
    """['lean', 'LeanVerifier', 'check'] for lean.LeanVerifier.check, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return [node.id] + parts[::-1]
    return None


def resolve(parts, aliases, where):
    obj = aliases[parts[0]]
    for depth, attr in enumerate(parts[1:], start=1):
        assert hasattr(obj, attr), f"{where}: bridge has no {'.'.join(parts[:depth + 1])}"
        obj = getattr(obj, attr)
    return obj


def uses(path):
    """(where, kind, detail) for each use of bridge the client makes."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = bridge_aliases(tree)
    found = []
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Attribute):
            parts = dotted(node)
            if parts and parts[0] in aliases:
                found.append((where, "attribute", parts))
        elif isinstance(node, ast.Call):
            parts = dotted(node.func)
            if parts and parts[0] in aliases:
                found.append((where, "call", (parts, node)))
            elif parts and parts[-1] == "wrap" and len(node.args) >= 2:
                owner = dotted(node.args[0])
                if owner and owner[0] in aliases and isinstance(node.args[1], ast.Constant):
                    found.append((where, "wrap", owner + [node.args[1].value]))
    return aliases, found


def check(path):
    aliases, found = uses(path)
    for where, kind, detail in found:
        if kind in ("attribute", "wrap"):
            resolve(detail, aliases, where)
            continue
        parts, call = detail
        target = resolve(parts, aliases, where)
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords
        ):
            continue
        try:
            signature = inspect.signature(target)
        except (TypeError, ValueError):
            continue
        try:
            signature.bind_partial(
                *[None] * len(call.args), **{k.arg: None for k in call.keywords}
            )
        except TypeError as exc:
            pytest.fail(f"{where}: {'.'.join(parts)}{signature} refuses the call: {exc}")
    return found


@pytest.mark.parametrize("path", CLIENTS, ids=lambda p: p.name)
def test_client_names_exist(path):
    check(path)


def test_scan_sees_the_named_uses():
    _, traced = uses(ROOT / "bench" / "tracing.py")
    wrapped = [detail for _, kind, detail in traced if kind == "wrap"]
    assert ["pipeline", "extract_artifacts"] in wrapped
    assert ["pipeline", "load_manifest"] in wrapped
    assert ["prompts", "TemplateCatalog", "render_retry"] in wrapped
    assert ["pyexec", "subprocess"] in [d for _, kind, d in traced if kind == "attribute"]

    _, generated = uses(ROOT / "bench" / "workloads.py")
    calls = {
        tuple(parts): sorted(k.arg for k in call.keywords)
        for _, kind, (parts, call) in (u for u in generated if u[1] == "call")
    }
    assert calls[("LeanVerifier",)] == ["transcripts", "workdir_factory"]
    assert ("lean", "build_source") in calls
    assert ("lean", "source_digest") in calls


def test_scan_catches_a_missing_name(tmp_path):
    client = tmp_path / "client.py"
    client.write_text(
        "from bridge import lean\n"
        "from bridge.lean import LeanVerifier\n"
        "LeanVerifier(transcripts={}, no_such_option=1)\n",
        encoding="utf-8",
    )
    with pytest.raises(pytest.fail.Exception, match="no_such_option"):
        check(client)
    client.write_text("from bridge import lean\nlean.no_such_name()\n", encoding="utf-8")
    with pytest.raises(AssertionError, match="lean.no_such_name"):
        check(client)

