"""AST node definitions for the mini-C language.

Nodes are plain dataclasses; the IR generator resolves names and types while
walking this tree (single-pass typed lowering, see irgen.py).  ``line`` is
kept on every node for error messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.ctypes import CType


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    line: int = 0


@dataclass
class NumberExpr(Expr):
    value: int = 0


@dataclass
class NameExpr(Expr):
    name: str = ""


@dataclass
class UnaryExpr(Expr):
    """op in {'-', '!', '~', '*', '&'}"""

    op: str = ""
    operand: Expr | None = None


@dataclass
class IncDecExpr(Expr):
    """``++x`` / ``x--`` etc.  op in {'++', '--'}; prefix selects value."""

    op: str = ""
    operand: Expr | None = None
    prefix: bool = True


@dataclass
class BinaryExpr(Expr):
    """op in {'+','-','*','/','%','<<','>>','&','|','^',
    '==','!=','<','<=','>','>=','&&','||'}"""

    op: str = ""
    left: Expr | None = None
    right: Expr | None = None


@dataclass
class AssignExpr(Expr):
    """op is '=' or a compound operator like '+='."""

    op: str = "="
    target: Expr | None = None
    value: Expr | None = None


@dataclass
class ConditionalExpr(Expr):
    cond: Expr | None = None
    then_expr: Expr | None = None
    else_expr: Expr | None = None


@dataclass
class IndexExpr(Expr):
    base: Expr | None = None
    index: Expr | None = None


@dataclass
class CallExpr(Expr):
    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class CastExpr(Expr):
    ctype: CType | None = None
    operand: Expr | None = None


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    line: int = 0


@dataclass
class ExprStmt(Stmt):
    expr: Expr | None = None


@dataclass
class DeclStmt(Stmt):
    """A local variable declaration (one declarator)."""

    name: str = ""
    ctype: CType | None = None
    init: Expr | None = None
    init_list: list[Expr] | None = None  # array initializer


@dataclass
class BlockStmt(Stmt):
    body: list[Stmt] = field(default_factory=list)
    #: False for the declarators of one declaration (``int i = 1, k;``),
    #: which belong to the enclosing scope
    scoped: bool = True


@dataclass
class IfStmt(Stmt):
    cond: Expr | None = None
    then_body: Stmt | None = None
    else_body: Stmt | None = None


@dataclass
class WhileStmt(Stmt):
    cond: Expr | None = None
    body: Stmt | None = None


@dataclass
class DoWhileStmt(Stmt):
    body: Stmt | None = None
    cond: Expr | None = None


@dataclass
class ForStmt(Stmt):
    init: Stmt | None = None  # DeclStmt or ExprStmt or None
    cond: Expr | None = None
    step: Expr | None = None
    body: Stmt | None = None


@dataclass
class SwitchCase:
    """One ``case value:`` (value None for ``default:``) and its statements."""

    value: int | None
    body: list[Stmt] = field(default_factory=list)
    line: int = 0


@dataclass
class SwitchStmt(Stmt):
    scrutinee: Expr | None = None
    cases: list[SwitchCase] = field(default_factory=list)


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


@dataclass
class ReturnStmt(Stmt):
    value: Expr | None = None


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------


@dataclass
class Param:
    name: str
    ctype: CType
    line: int = 0


@dataclass
class FunctionDecl:
    name: str
    return_type: CType
    params: list[Param]
    body: BlockStmt | None  # None for a prototype
    line: int = 0


@dataclass
class GlobalDecl:
    name: str
    ctype: CType
    init: Expr | None = None
    init_list: list[Expr] | None = None
    line: int = 0


@dataclass
class TranslationUnit:
    globals: list[GlobalDecl] = field(default_factory=list)
    functions: list[FunctionDecl] = field(default_factory=list)
