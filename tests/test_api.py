"""The package holds what its commands run.

A top-level function or class under src/blochquad/, public or private
(dunders aside), that no other library code names is test-only code; it
belongs in tests/.  The allowlist names the few that an open ROADMAP item
still needs in the package, each with its item.
"""

import ast
from pathlib import Path

import blochquad

SRC = Path(blochquad.__file__).parent

NAMED_ONLY_BY_TESTS = {
    "verify_collapse": "ROADMAP item 2: simulate reaches the collapse law, or it moves to tests/",
    "estimate_divergence_rate": "ROADMAP item 2: simulate reports the shadowing horizon, or it moves to tests/",
    "fixed_points_sphere": "ROADMAP items 5 and 7: perfbench's orbits workload calls it",
    "check_linear_isometry": "ROADMAP item 7: perfbench traces it",
    "monte_carlo_sphere": "ROADMAP item 7: moves to tests/ with the sampling layer",
}


def unnamed_definitions(src: Path) -> list:
    """'module.name' of each top-level def or class but a dunder that no code in src names outside its own body.

    A name counts as a Name node, or as the attribute of the defining
    module's name (`channel.bloch_images`); __init__ is left aside.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py")) if path.stem != "__init__"}
    named = set()
    for tree in trees.values():
        # owner: the top-level definition whose body holds the node; its own name does not count there
        stack = [(tree, None)]
        while stack:
            node, owner = stack.pop()
            if isinstance(node, ast.Name) and node.id != owner:
                named.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in trees:
                named.add((node.value.id, node.attr))
            inner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and owner is None else owner
            stack.extend((child, inner) for child in ast.iter_child_nodes(node))
    unnamed = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
                if node.name not in named and (module, node.name) not in named:
                    unnamed.append(f"{module}.{node.name}")
    return unnamed


def test_every_public_definition_is_named_by_library_code():
    assert {name.split(".")[1] for name in unnamed_definitions(SRC)} == set(NAMED_ONLY_BY_TESTS)


def test_the_guard_sees_a_definition_that_only_tests_call(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "pauli.py", "a") as fh:  # a function that only the tests called, put back
        fh.write("\n\ndef state_eval(s, p):\n    return p.w0 + complex(np.dot(p.w, s.f))\n")
    assert "pauli.state_eval" in unnamed_definitions(tmp_path)
    with open(tmp_path / "channel.py", "a") as fh:  # a private layout handle that only the tests read, put back
        fh.write("\n\ndef _basis_coefficients(d):\n    return d._stacked_coefficients[1:].reshape(3, 4, 4)\n")
    assert "channel._basis_coefficients" in unnamed_definitions(tmp_path)

