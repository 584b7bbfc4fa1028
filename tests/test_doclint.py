"""Docstring lint for the public API (pydocstyle D100/D101/D103/D104).

The same rule set is configured for ruff in ``pyproject.toml``; this
AST-based check enforces it in environments without the ruff binary so
the contract is tier-1-tested either way: every public module, class,
and module-level function under ``src/repro`` carries a docstring.
Methods (D102) and nested helper functions are deliberately out of
scope, matching the configured ruff selection.

Also lints the documentation itself: every relative markdown link in
README/EXPERIMENTS/docs must resolve to a real file.
"""

import ast
import re
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent


def iter_sources():
    return sorted(SRC_ROOT.rglob("*.py"))


def docstring_violations(path: Path) -> list[str]:
    """D100/D104 for the module, D101 for classes, D103 for functions."""
    tree = ast.parse(path.read_text())
    rel = path.relative_to(SRC_ROOT.parent)
    violations = []
    if not ast.get_docstring(tree):
        code = "D104" if path.name == "__init__.py" else "D100"
        violations.append(f"{rel}:1 {code} missing module docstring")
    for node in ast.walk(tree):
        if (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                and not ast.get_docstring(node)):
            violations.append(
                f"{rel}:{node.lineno} D101 missing docstring on "
                f"class {node.name}")
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")
                and not ast.get_docstring(node)):
            violations.append(
                f"{rel}:{node.lineno} D103 missing docstring on "
                f"function {node.name}")
    return violations


def test_sources_found():
    assert len(iter_sources()) > 50  # the walk really covers the package


def test_serve_package_in_scope():
    """The serving layer (PR 6) is covered by the same docstring contract
    as the rest of the public API — guard against the package being
    skipped by a future scoping change."""
    serve = [p for p in iter_sources() if p.parent.name == "serve"]
    assert len(serve) >= 5  # __init__, admission, worker, server, client
    for path in serve:
        assert not docstring_violations(path), path


def test_obs_package_in_scope():
    """The observability plane (PR 7) — tracing, exposition, SLO, flight
    recorder — carries the same docstring contract; guard against the
    package being skipped by a future scoping change."""
    obs = [p for p in iter_sources() if p.parent.name == "obs"]
    names = {p.name for p in obs}
    assert {"__init__.py", "tracing.py", "metrics.py", "events.py",
            "exposition.py", "slo.py", "flight.py"} <= names
    for path in obs:
        assert not docstring_violations(path), path


def test_infer_package_in_scope():
    """The inference layer (paged KV cache + prefix sharing,
    per-request sampling params, speculative decoding) is covered by
    the same docstring contract; guard against the package being
    skipped by a future scoping change."""
    infer = [p for p in iter_sources() if p.parent.name == "infer"]
    names = {p.name for p in infer}
    assert {"__init__.py", "paged_kv.py",
            "engine.py", "sampling_params.py", "speculative.py"} <= names
    for path in infer:
        assert not docstring_violations(path), path


def test_dtype_policy_module_in_scope():
    """The dtype policy (PR 10) is a root-level leaf module; guard that
    it is linted with everything else and documents its contract."""
    path = SRC_ROOT / "dtypes.py"
    assert path.exists()
    assert not docstring_violations(path), path
    # the module docstring must spell out the resolution order
    assert "Resolution order" in ast.get_docstring(ast.parse(path.read_text()))


def test_lm_draft_adapter_in_scope():
    """The speculative-decoding draft adapter (PR 9) lives in the lm
    package; guard that it is linted with everything else."""
    lm = [p for p in iter_sources() if p.parent.name == "lm"]
    assert "draft.py" in {p.name for p in lm}
    for path in lm:
        assert not docstring_violations(path), path


def test_public_api_is_documented():
    violations = []
    for path in iter_sources():
        violations.extend(docstring_violations(path))
    assert not violations, "\n" + "\n".join(violations)


_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_REPO_ROOT = SRC_ROOT.parent.parent


def markdown_link_violations(md_path: Path) -> list[str]:
    """Relative links in ``md_path`` that point at nothing on disk."""
    violations = []
    for target in _MD_LINK.findall(md_path.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (md_path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            violations.append(f"{md_path.name}: broken link -> {target}")
    return violations


def test_markdown_links_resolve():
    """Every relative link in the top-level and docs/ markdown resolves
    (PR 8 satellite: KV_CACHE.md is cross-linked from README and
    ARCHITECTURE — broken doc links fail tier-1, not code review)."""
    pages = [_REPO_ROOT / "README.md", _REPO_ROOT / "EXPERIMENTS.md"]
    pages += sorted((_REPO_ROOT / "docs").glob("*.md"))
    assert any(p.name == "KV_CACHE.md" for p in pages)
    assert any(p.name == "DTYPE.md" for p in pages)  # PR 10 satellite
    violations = []
    for page in pages:
        violations.extend(markdown_link_violations(page))
    assert not violations, "\n" + "\n".join(violations)
