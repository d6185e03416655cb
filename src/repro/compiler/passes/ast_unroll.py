"""AST-level loop unrolling (enabled at -O3).

Unrolls counted ``for`` loops of the canonical shape

    for (i = START; i < BOUND; i += STEP) BODY

by a constant factor U, producing

    for (i = START; i + (U-1)*STEP < BOUND; ) { BODY; i+=STEP; ... xU }
    for (; i < BOUND; i += STEP) BODY          /* remainder */

Requirements checked before transforming: the induction variable is a plain
name, the step is ``i++``/``i += C`` with positive constant C, the body does
not modify ``i``, contains no ``break``/``continue``/``return``/``switch``,
and is small.  The emitted binary then contains the repeated, isomorphic
body copies with interleaved induction updates that the paper's **loop
rerolling** pass must detect and roll back.
"""

from __future__ import annotations

from dataclasses import replace

from repro.compiler import ast_nodes as ast

DEFAULT_FACTOR = 4
MAX_BODY_STMTS = 12


def unrolled(
    unit: ast.TranslationUnit, factor: int = DEFAULT_FACTOR
) -> tuple[ast.TranslationUnit, int]:
    """*unit* with its eligible for-loops unrolled, and how many were.

    *unit* itself is left as it was: the result shares every subtree
    that no unrolling touches and copies the path from the root to each
    unrolled loop, so a tree that other compiles share may be unrolled.
    """
    count = 0
    changed = False
    global_names = {decl.name for decl in unit.globals}
    functions = []
    for func in unit.functions:
        if func.body is not None:
            body, inner = _transform(func.body, factor, global_names)
            if body is not None:
                func = replace(func, body=body)
                changed = True
                count += inner
        functions.append(func)
    return (replace(unit, functions=functions) if changed else unit), count


def _walk_stmt_list(
    stmts: list[ast.Stmt], factor: int, global_names: set[str]
) -> tuple[list[ast.Stmt] | None, int]:
    """The rewritten list (None if nothing in it changed) and the loops
    unrolled in it."""
    new_stmts = None
    count = 0
    for index, stmt in enumerate(stmts):
        replacement, inner = _transform(stmt, factor, global_names)
        if replacement is not None:
            if new_stmts is None:
                new_stmts = list(stmts)
            new_stmts[index] = replacement
            count += inner
    return new_stmts, count


def _transform(
    stmt: ast.Stmt, factor: int, global_names: set[str]
) -> tuple[ast.Stmt | None, int]:
    """The rewritten statement (None if unchanged) and the loops unrolled
    in it, itself included."""
    if isinstance(stmt, ast.BlockStmt):
        body, count = _walk_stmt_list(stmt.body, factor, global_names)
        return (replace(stmt, body=body) if body is not None else None), count
    if isinstance(stmt, ast.IfStmt):
        changes = {}
        count = 0
        for attr in ("then_body", "else_body"):
            child = getattr(stmt, attr)
            if child is not None:
                replacement, inner = _transform(child, factor, global_names)
                if replacement is not None:
                    changes[attr] = replacement
                    count += inner
        return (replace(stmt, **changes) if changes else None), count
    if isinstance(stmt, (ast.WhileStmt, ast.DoWhileStmt)):
        body, count = _transform(stmt.body, factor, global_names)
        if body is None:
            return None, 0
        # a while loop counts a for loop that is its whole body, not loops
        # nested deeper, so an enclosing for loop may still be unrolled
        if not (isinstance(stmt.body, ast.ForStmt) and type(body) is ast.BlockStmt):
            count = 0
        return replace(stmt, body=body), count
    if isinstance(stmt, ast.SwitchStmt):
        cases = list(stmt.cases)
        count = 0
        changed = False
        for index, case in enumerate(cases):
            body, inner = _walk_stmt_list(case.body, factor, global_names)
            if body is not None:
                cases[index] = replace(case, body=body)
                changed = True
                count += inner
        return (replace(stmt, cases=cases) if changed else None), count
    if isinstance(stmt, ast.ForStmt):
        # children first (unroll innermost loops only -- unrolling a loop
        # that contains an already-unrolled loop would explode code size)
        body, count = (
            _transform(stmt.body, factor, global_names) if stmt.body else (None, 0)
        )
        loop = stmt if body is None else replace(stmt, body=body)
        if count == 0:
            unrolled_loop = _try_unroll(loop, factor, global_names)
            if unrolled_loop is not None:
                return unrolled_loop, 1
        return (None if body is None else loop), count
    return None, 0


def _try_unroll(
    loop: ast.ForStmt, factor: int, global_names: set[str]
) -> ast.BlockStmt | None:
    shape = _match_counted_loop(loop)
    if shape is None:
        return None
    var_name, cmp_op, bound_expr, step_value = shape
    body_stmts = (
        loop.body.body if isinstance(loop.body, ast.BlockStmt) else [loop.body]
    )
    if len(body_stmts) > MAX_BODY_STMTS:
        return None
    if not all(_body_allows_unroll(s, var_name) for s in body_stmts):
        return None
    # the bound must be provably invariant across the body: a literal, or a
    # name that the body never writes (and, if the body calls functions,
    # not a global the callee might change)
    if isinstance(bound_expr, ast.NumberExpr):
        pass
    elif isinstance(bound_expr, ast.NameExpr):
        if any(_expr_writes_anywhere(s, bound_expr.name) for s in body_stmts):
            return None
        if bound_expr.name in global_names and any(
            _stmt_has_call(s) for s in body_stmts
        ):
            return None
    else:
        return None
    # same caution for the induction variable when it is a global
    if var_name in global_names and any(_stmt_has_call(s) for s in body_stmts):
        return None
    if _expr_mentions_name(bound_expr, var_name):
        return None

    line = loop.line

    def make_step() -> ast.Stmt:
        return ast.ExprStmt(
            line=line,
            expr=ast.AssignExpr(
                line=line,
                op="+=",
                target=ast.NameExpr(line=line, name=var_name),
                value=ast.NumberExpr(line=line, value=step_value),
            ),
        )

    # main loop: cond  i + (U-1)*step  <cmp>  bound
    lookahead = ast.BinaryExpr(
        line=line,
        op="+",
        left=ast.NameExpr(line=line, name=var_name),
        right=ast.NumberExpr(line=line, value=(factor - 1) * step_value),
    )
    main_cond = ast.BinaryExpr(
        line=line, op=cmp_op, left=lookahead, right=_clone(bound_expr)
    )
    main_body: list[ast.Stmt] = []
    for _ in range(factor):
        main_body.extend(_clone(body_stmts))
        main_body.append(make_step())
    main_loop = ast.ForStmt(
        line=line,
        init=None,
        cond=main_cond,
        step=None,
        body=ast.BlockStmt(line=line, body=main_body),
    )
    remainder = ast.ForStmt(
        line=line,
        init=None,
        cond=ast.BinaryExpr(
            line=line,
            op=cmp_op,
            left=ast.NameExpr(line=line, name=var_name),
            right=_clone(bound_expr),
        ),
        step=ast.AssignExpr(
            line=line,
            op="+=",
            target=ast.NameExpr(line=line, name=var_name),
            value=ast.NumberExpr(line=line, value=step_value),
        ),
        body=ast.BlockStmt(line=line, body=_clone(body_stmts)),
    )
    # the init runs once, ahead of both loops, so a name it declares is in
    # scope in the remainder loop too
    init = [loop.init] if loop.init is not None else []
    return ast.BlockStmt(line=line, body=init + [main_loop, remainder])


_NODE_TYPES = (ast.Expr, ast.Stmt, ast.SwitchCase)
_COPIED_TYPES = (list,) + _NODE_TYPES


def _clone(node):
    """Copy an AST subtree: fresh nodes and lists, shared leaves.

    Leaves are ints, strings and frozen :class:`CType` values, so sharing
    them is safe, and the parser never gives a node two parents, so the
    copy has the shape ``copy.deepcopy`` would give it at a fraction of
    the cost.
    """
    if type(node) is list:
        return [_clone(item) for item in node]
    if isinstance(node, _NODE_TYPES):
        new = object.__new__(type(node))
        new.__dict__ = {
            name: _clone(value) if isinstance(value, _COPIED_TYPES) else value
            for name, value in node.__dict__.items()
        }
        return new
    return node


def _match_counted_loop(loop: ast.ForStmt):
    """Match ``for (...; i < bound; i += C)``; return (i, op, bound, C)."""
    cond = loop.cond
    if not (
        isinstance(cond, ast.BinaryExpr)
        and cond.op in ("<", "<=")
        and isinstance(cond.left, ast.NameExpr)
    ):
        return None
    var_name = cond.left.name
    step = loop.step
    step_value: int | None = None
    if isinstance(step, ast.IncDecExpr) and step.op == "++":
        if isinstance(step.operand, ast.NameExpr) and step.operand.name == var_name:
            step_value = 1
    elif isinstance(step, ast.AssignExpr) and step.op == "+=":
        if (
            isinstance(step.target, ast.NameExpr)
            and step.target.name == var_name
            and isinstance(step.value, ast.NumberExpr)
            and step.value.value > 0
        ):
            step_value = step.value.value
    elif isinstance(step, ast.AssignExpr) and step.op == "=":
        # i = i + C
        value = step.value
        if (
            isinstance(step.target, ast.NameExpr)
            and step.target.name == var_name
            and isinstance(value, ast.BinaryExpr)
            and value.op == "+"
            and isinstance(value.left, ast.NameExpr)
            and value.left.name == var_name
            and isinstance(value.right, ast.NumberExpr)
            and value.right.value > 0
        ):
            step_value = value.right.value
    if step_value is None:
        return None
    # the induction variable must be declared/assigned in init (or before)
    return var_name, cond.op, cond.right, step_value


def _body_allows_unroll(stmt: ast.Stmt, var_name: str) -> bool:
    """Reject bodies with control-flow escapes or writes to the induction var."""
    if isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt, ast.ReturnStmt)):
        return False
    if isinstance(stmt, ast.SwitchStmt):
        return False
    if isinstance(stmt, ast.BlockStmt):
        return all(_body_allows_unroll(s, var_name) for s in stmt.body)
    if isinstance(stmt, ast.IfStmt):
        children = [stmt.then_body, stmt.else_body]
        return all(
            _body_allows_unroll(c, var_name) for c in children if c is not None
        ) and not _expr_writes_name(stmt.cond, var_name)
    if isinstance(stmt, (ast.WhileStmt, ast.DoWhileStmt)):
        return _body_allows_unroll(stmt.body, var_name) and not _expr_writes_name(
            stmt.cond, var_name
        )
    if isinstance(stmt, ast.ForStmt):
        parts_ok = all(
            part is None or not _expr_writes_name(part, var_name)
            for part in (stmt.cond, stmt.step)
        )
        init_ok = stmt.init is None or _body_allows_unroll(stmt.init, var_name)
        return parts_ok and init_ok and _body_allows_unroll(stmt.body, var_name)
    if isinstance(stmt, ast.DeclStmt):
        if stmt.name == var_name:
            return False
        exprs = list(stmt.init_list or [])
        if stmt.init is not None:
            exprs.append(stmt.init)
        return not any(_expr_writes_name(e, var_name) for e in exprs)
    if isinstance(stmt, ast.ExprStmt):
        return stmt.expr is None or not _expr_writes_name(stmt.expr, var_name)
    return False


def _expr_writes_name(expr: ast.Expr, name: str) -> bool:
    """Does *expr* assign to or increment variable *name*?"""
    if expr is None:
        return False
    if isinstance(expr, ast.AssignExpr):
        if isinstance(expr.target, ast.NameExpr) and expr.target.name == name:
            return True
        return _expr_writes_name(expr.target, name) or _expr_writes_name(expr.value, name)
    if isinstance(expr, ast.IncDecExpr):
        if isinstance(expr.operand, ast.NameExpr) and expr.operand.name == name:
            return True
        return _expr_writes_name(expr.operand, name)
    if isinstance(expr, ast.UnaryExpr):
        if expr.op == "&" and isinstance(expr.operand, ast.NameExpr) and expr.operand.name == name:
            return True  # address taken: anything could happen
        return _expr_writes_name(expr.operand, name)
    if isinstance(expr, ast.BinaryExpr):
        return _expr_writes_name(expr.left, name) or _expr_writes_name(expr.right, name)
    if isinstance(expr, ast.ConditionalExpr):
        return any(
            _expr_writes_name(e, name)
            for e in (expr.cond, expr.then_expr, expr.else_expr)
        )
    if isinstance(expr, ast.IndexExpr):
        return _expr_writes_name(expr.base, name) or _expr_writes_name(expr.index, name)
    if isinstance(expr, ast.CallExpr):
        return any(_expr_writes_name(a, name) for a in expr.args)
    if isinstance(expr, ast.CastExpr):
        return _expr_writes_name(expr.operand, name)
    return False


def _expr_writes_anywhere(stmt: ast.Stmt, name: str) -> bool:
    """Does any expression inside *stmt* write variable *name*?"""
    if isinstance(stmt, ast.BlockStmt):
        return any(_expr_writes_anywhere(s, name) for s in stmt.body)
    if isinstance(stmt, ast.IfStmt):
        parts = [stmt.then_body, stmt.else_body]
        if _expr_writes_name(stmt.cond, name):
            return True
        return any(_expr_writes_anywhere(p, name) for p in parts if p is not None)
    if isinstance(stmt, (ast.WhileStmt, ast.DoWhileStmt)):
        return _expr_writes_name(stmt.cond, name) or _expr_writes_anywhere(stmt.body, name)
    if isinstance(stmt, ast.ForStmt):
        for part in (stmt.cond, stmt.step):
            if part is not None and _expr_writes_name(part, name):
                return True
        if stmt.init is not None and _expr_writes_anywhere(stmt.init, name):
            return True
        return _expr_writes_anywhere(stmt.body, name)
    if isinstance(stmt, ast.ExprStmt):
        return stmt.expr is not None and _expr_writes_name(stmt.expr, name)
    if isinstance(stmt, ast.DeclStmt):
        exprs = list(stmt.init_list or [])
        if stmt.init is not None:
            exprs.append(stmt.init)
        return stmt.name == name or any(_expr_writes_name(e, name) for e in exprs)
    if isinstance(stmt, ast.ReturnStmt):
        return stmt.value is not None and _expr_writes_name(stmt.value, name)
    return False


def _stmt_has_call(stmt: ast.Stmt) -> bool:
    if isinstance(stmt, ast.BlockStmt):
        return any(_stmt_has_call(s) for s in stmt.body)
    if isinstance(stmt, ast.IfStmt):
        parts = [p for p in (stmt.then_body, stmt.else_body) if p is not None]
        return _expr_has_call(stmt.cond) or any(_stmt_has_call(p) for p in parts)
    if isinstance(stmt, (ast.WhileStmt, ast.DoWhileStmt)):
        return _expr_has_call(stmt.cond) or _stmt_has_call(stmt.body)
    if isinstance(stmt, ast.ForStmt):
        exprs = [e for e in (stmt.cond, stmt.step) if e is not None]
        if any(_expr_has_call(e) for e in exprs):
            return True
        if stmt.init is not None and _stmt_has_call(stmt.init):
            return True
        return _stmt_has_call(stmt.body)
    if isinstance(stmt, ast.ExprStmt):
        return stmt.expr is not None and _expr_has_call(stmt.expr)
    if isinstance(stmt, ast.DeclStmt):
        exprs = list(stmt.init_list or [])
        if stmt.init is not None:
            exprs.append(stmt.init)
        return any(_expr_has_call(e) for e in exprs)
    if isinstance(stmt, ast.ReturnStmt):
        return stmt.value is not None and _expr_has_call(stmt.value)
    return False


def _expr_has_call(expr: ast.Expr) -> bool:
    if expr is None:
        return False
    if isinstance(expr, ast.CallExpr):
        return True
    if isinstance(expr, ast.BinaryExpr):
        return _expr_has_call(expr.left) or _expr_has_call(expr.right)
    if isinstance(expr, (ast.UnaryExpr, ast.CastExpr)):
        return _expr_has_call(expr.operand)
    if isinstance(expr, ast.IncDecExpr):
        return _expr_has_call(expr.operand)
    if isinstance(expr, ast.AssignExpr):
        return _expr_has_call(expr.target) or _expr_has_call(expr.value)
    if isinstance(expr, ast.ConditionalExpr):
        return any(_expr_has_call(e) for e in (expr.cond, expr.then_expr, expr.else_expr))
    if isinstance(expr, ast.IndexExpr):
        return _expr_has_call(expr.base) or _expr_has_call(expr.index)
    return False


def _expr_mentions_name(expr: ast.Expr, name: str) -> bool:
    if expr is None:
        return False
    if isinstance(expr, ast.NameExpr):
        return expr.name == name
    if isinstance(expr, ast.BinaryExpr):
        return _expr_mentions_name(expr.left, name) or _expr_mentions_name(expr.right, name)
    if isinstance(expr, ast.UnaryExpr):
        return _expr_mentions_name(expr.operand, name)
    if isinstance(expr, ast.IndexExpr):
        return _expr_mentions_name(expr.base, name) or _expr_mentions_name(expr.index, name)
    if isinstance(expr, ast.CallExpr):
        return any(_expr_mentions_name(a, name) for a in expr.args)
    if isinstance(expr, ast.CastExpr):
        return _expr_mentions_name(expr.operand, name)
    if isinstance(expr, (ast.AssignExpr, ast.IncDecExpr, ast.ConditionalExpr)):
        return True  # conservatively treat as mentioning
    return False
