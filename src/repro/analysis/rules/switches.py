"""R5 — feature-switch-snapshot: read each switch once per function.

The :mod:`repro.features` contract is *snapshot semantics*: a
run/object reads its switch exactly once — at ``ShardedCluster``
construction, at ``make_injector()`` — so flipping a switch mid-run can
never mix the on and off paths inside one result. A function body that
reads the same switch twice (two ``USE_X`` loads, or two
``features.is_enabled("x")`` calls) re-opens that race: the A/B
harness, a test's ``override()`` context, or a future async driver can
flip the global between the two reads.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List

from repro.analysis.rules.base import (
    Finding,
    ModuleContext,
    Rule,
    body_nodes,
    function_bodies,
    resolve_dotted,
)

#: Module-level feature-switch globals follow this spelling by
#: convention (``USE_SHARDING``, ``USE_FAULTS``, …).
_SWITCH_NAME = re.compile(r"^USE_[A-Z0-9_]+$")


class FeatureSnapshotRule(Rule):
    id = "R5"
    name = "feature-switch-snapshot"
    rationale = (
        "feature switches are snapshot-once-per-run; a second read in "
        "one function body can mix the on and off paths mid-run"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.module == "repro.features":
            return  # the registry itself reads switches by design
        for scope, _name in function_bodies(module.tree):
            reads: Dict[str, List[ast.AST]] = {}
            for node in body_nodes(scope):
                key = self._switch_key(node, module)
                if key is not None:
                    reads.setdefault(key, []).append(node)
            for key, nodes in reads.items():
                ordered = sorted(
                    nodes, key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0))
                )
                for node in ordered[1:]:
                    yield module.finding(
                        self,
                        node,
                        f"feature switch {key} is read more than once in "
                        "this function body; snapshot it once at entry "
                        "(snapshot semantics, repro.features)",
                    )

    @staticmethod
    def _switch_key(node: ast.AST, module: ModuleContext) -> str | None:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if _SWITCH_NAME.match(node.id):
                return node.id
            return None
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if _SWITCH_NAME.match(node.attr):
                return node.attr
            return None
        if isinstance(node, ast.Call):
            dotted = resolve_dotted(node.func, module.imports)
            if dotted is not None and dotted.endswith("features.is_enabled"):
                if node.args and isinstance(node.args[0], ast.Constant):
                    value = node.args[0].value
                    if isinstance(value, str):
                        return f"feature:{value}"
                return "feature:<dynamic>"
        return None
