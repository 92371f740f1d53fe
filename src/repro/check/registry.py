"""Rule base class and the project rule registry.

A rule is a small stateful object instantiated once per checked file.
It declares which AST node types it wants (``interests``) and which
parts of the repository it polices (``domains`` / ``exclude``), and the
engine dispatches matching nodes to its :meth:`Rule.check`.

Rule codes are grouped in families by their hundreds digit:

* ``RPC1xx`` — layout contract (kernels must access memory through the
  uniform layout interface, never raw linear-index arithmetic);
* ``RPC2xx`` — determinism (seeded RNG, harness timers, order-stable
  iteration in measured/result-assembly code);
* ``RPC3xx`` — worker safety (everything shipped into worker processes
  must be picklable and fork-safe);
* ``RPC4xx`` — durability (artifacts are written through the atomic
  integrity-checked writer, never a bare ``open``/``tofile``/``np.save``);
* ``RPC5xx`` — async concurrency (no state torn across ``await``
  points, no dropped tasks, no blocking calls on the event loop).

Registration is by decorator::

    @rule
    class MyRule(Rule):
        code = "RPC199"
        ...
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Type

__all__ = ["Rule", "rule", "RULES", "FAMILIES", "select_codes",
           "dotted_name"]

#: code -> rule class, populated by the @rule decorator
RULES: Dict[str, Type["Rule"]] = {}

#: family prefix -> human name (used by --list-rules and the docs)
FAMILIES = {
    "RPC1": "layout-contract",
    "RPC2": "determinism",
    "RPC3": "worker-safety",
    "RPC4": "durability",
    "RPC5": "async-concurrency",
}


class Rule:
    """Base class for one checked contract.

    Class attributes
    ----------------
    code : str
        Unique ``RPC###`` code.
    name : str
        Short kebab-case rule name.
    summary : str
        One-line catalog description (shown by ``--list-rules`` and
        reproduced in docs/STATIC_ANALYSIS.md).
    interests : tuple of ast.AST subclasses
        Node types the engine feeds to :meth:`check`.
    domains : frozenset of str or None
        Repository areas the rule applies to (see
        :func:`repro.check.engine.domain_tags`); ``None`` = everywhere.
    exclude : frozenset of str
        Areas exempted even when ``domains`` matches (e.g. ``core`` is
        the one place allowed to do raw index arithmetic).
    """

    code: str = ""
    name: str = ""
    summary: str = ""
    interests: Tuple[type, ...] = ()
    domains: Optional[FrozenSet[str]] = None
    exclude: FrozenSet[str] = frozenset()

    def __init__(self, ctx):
        self.ctx = ctx

    def applies_to(self, tags: FrozenSet[str]) -> bool:
        """Does this rule police a file carrying these domain tags?"""
        if self.exclude & tags:
            return False
        if self.domains is None:
            return True
        return bool(self.domains & tags)

    def check(self, node: ast.AST) -> None:  # pragma: no cover - interface
        """Inspect one node; call ``self.ctx.report(...)`` on violation."""
        raise NotImplementedError

    def finish(self) -> None:
        """Hook called after the whole file was visited (optional)."""


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: register a rule under its code."""
    if not cls.code or not cls.code.startswith("RPC"):
        raise ValueError(f"rule {cls.__name__} has invalid code {cls.code!r}")
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls
    return cls


def select_codes(selectors: Optional[Sequence[str]]) -> List[str]:
    """Resolve ``--select`` prefixes to concrete rule codes.

    ``None``/empty selects everything.  A selector matches by prefix, so
    ``RPC1`` selects the whole layout-contract family.  Raises
    :class:`ValueError` for a selector matching nothing (a usage error).
    """
    codes = sorted(RULES)
    if not selectors:
        return codes
    chosen = []
    for sel in selectors:
        sel = sel.strip()
        if not sel:
            continue
        matched = [c for c in codes if c.startswith(sel)]
        if not matched:
            raise ValueError(
                f"--select {sel!r} matches no rule (known: {', '.join(codes)})")
        chosen.extend(matched)
    return sorted(set(chosen))


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted name of a Name/Attribute chain (else '')."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""
