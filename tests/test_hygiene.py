"""Every name a banachkit module imports is used there or re-exported, and
the package exports exactly the names its modules declare public.

A name counts as used when it is read anywhere in the module, including
inside a quoted annotation, or when the module lists it in ``__all__``.
``from __future__`` imports are compiler directives and are skipped, and so
are star imports, which bind exactly the source module's ``__all__``.
``__all__`` is read from the imported module, since the package builds its
own from the modules' lists.
"""

import ast
import importlib
from pathlib import Path

import pytest

import banachkit
from banachkit import analysis, blockseq, combinatorics, games, spaces

MODULES = sorted(Path(banachkit.__file__).parent.glob("*.py"))
PUBLIC_MODULES = (spaces, combinatorics, blockseq, analysis, games)

# the names the package exported while it listed them by hand
LISTED_BY_HAND = """
C0 Interleave James Lp LpSum SegmentIndex SparseVector SpaceSpec combination_norm
make_example_space norm segment_of space_from_doc type_p_witness Blocking Coloring
FiniteSet SearchCertificate coarsenings diagonal finite_unions hindman_search
is_blocking is_coarser milliken_taylor_search min_parity_coloring ramsey_search
BlockArray BlockSequence BlockTree CombinationNorm block_sums branch combine
interleave_array merge_blocking nccb_from_blocking nccb_of_sequence subsequence_tree
tree_from_array EquivalenceReport GoodnessReport KrivineReport LpReference ScalarNet
SequenceReference SpreadingEstimate StabilizationResult brunel_sucheston_extract
equivalence_constant verify_example_space goodness_test krivine_p_estimate
nccb_stabilize norm_quantization_coloring spreading_model_estimate AsymptoticReport
AsymptoticVerdict BranchExtraction GameTranscript ProtocolViolationError Strategy
asymptotic_lp_verdict good_branch_extract play stabilized_constant
strategy_from_name subspace_constant subspace_tail vector_nccb vector_net
vector_unit
""".split()


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name bound by an import statement, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def exported_names(path: Path) -> set[str]:
    name = "banachkit" if path.stem == "__init__" else f"banachkit.{path.stem}"
    return set(getattr(importlib.import_module(name), "__all__", ()))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = set(imported_names(tree)) - used_names(tree) - exported_names(path)
    assert not unused, f"{path.name} imports names it never uses: " + ", ".join(
        f"{name} (line {imported_names(tree)[name]})" for name in sorted(unused)
    )


def test_package_exports_the_modules_public_names_in_order():
    expected = [name for module in PUBLIC_MODULES for name in module.__all__]
    assert banachkit.__all__ == expected
    assert len(set(expected)) == len(expected) == 88
    for module in PUBLIC_MODULES:
        for name in module.__all__:
            assert getattr(banachkit, name) is getattr(module, name), name


def test_star_import_keeps_every_name_listed_by_hand():
    namespace = {}
    exec("from banachkit import *", namespace)
    assert len(LISTED_BY_HAND) == 72
    assert set(LISTED_BY_HAND) <= set(namespace)
